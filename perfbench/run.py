"""End-to-end and per-layer benchmark of the fair checker.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dfs-dining3 --seed 1 --seconds 30 --trace 0

Each sample is a fresh process (``sample.py``) that sets up, runs one
``Checker.run()`` of fixed work and reports.  Every search's verdict and
totals are checked against the workload's expectation; a wrong one is a
failed search.  Bytecode is compiled untimed first.

``--trace 0`` keeps starting searches until ``--seconds`` would be
exceeded (at least :data:`MIN_SEARCHES`) and reports the end-to-end
metrics: the fastest search and set-up and the median peak memory.
Every search sample also times its set-up; set-up-only samples make up
:data:`MIN_SETUPS` when there are fewer searches.

``--trace 1`` alternates :data:`TRACE_PAIRS` untraced and traced searches
and reports the per-layer metrics of ``tracer.METRICS`` from the fastest
traced one, whose spans it keeps in ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a table
for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import COVERAGE_FLOOR, METRICS  # noqa: E402
from workloads import BY_NAME, Workload  # noqa: E402

ROOT = HERE.parent
OUT = HERE / "out"
#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("time_to_verdict_s", "s"),
    ("transitions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
MIN_SEARCHES = 3
MIN_SETUPS = 9
TRACE_PAIRS = 5
SAMPLE_TIMEOUT_S = 150


class SampleFailed(Exception):
    """A sample process exited badly or printed no result."""


def warm_up() -> None:
    """Compile the program's bytecode untimed, so no sample pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/repro", str(HERE)],
        cwd=ROOT, check=False, stdout=subprocess.DEVNULL,
        timeout=SAMPLE_TIMEOUT_S)


def run_sample(workload: Workload, seed: int, mode: str, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), workload.name, str(seed),
         mode, *extra],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SAMPLE_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleFailed(proc.stderr.strip()[-2000:]
                           or f"exit code {proc.returncode}")
    return json.loads(lines[-1])


def problems(workload: Workload, sample: dict) -> list:
    """Why ``sample`` is wrong for ``workload``; empty when it is right."""
    if not sample:
        return ["no result"]
    found = []
    if sample["verdict"] != workload.expect:
        found.append(f"verdict {sample['verdict']}, expected {workload.expect}")
    for key in ("executions", "transitions"):
        want = getattr(workload, key)
        if want is not None and sample[key] != want:
            found.append(f"{key} {sample[key]}, expected {want}")
    coverage = sample.get("layers", {}).get("trace.coverage_ratio")
    if coverage is not None and coverage < COVERAGE_FLOOR:
        found.append(f"layers cover {coverage:.1%} of the traced search, "
                     f"under {COVERAGE_FLOOR:.0%}")
    return found


def count_failed(workload: Workload, searches: list, log) -> int:
    failed = 0
    for sample in searches:
        wrong = problems(workload, sample)
        if wrong:
            failed += 1
            print(f"{workload.name}: wrong run: {'; '.join(wrong)}", file=log)
    return failed


def _search(workload, seed, mode, *extra, log) -> dict:
    """One search sample, or an empty dict when it failed."""
    try:
        return run_sample(workload, seed, mode, *extra)
    except (SampleFailed, subprocess.TimeoutExpired,
            json.JSONDecodeError) as exc:
        print(f"sample failed: {exc}", file=log)
        return {}


def _setup(workload, seed) -> float:
    """One set-up-only sample's seconds; a failing set-up ends the run."""
    try:
        return run_sample(workload, seed, "setup")["setup_s"]
    except (SampleFailed, subprocess.TimeoutExpired) as exc:
        raise SystemExit(f"set-up failed: {exc}")


def measure(workload: Workload, *, seed: int = 0, seconds: float = 30.0,
            trace: bool = False, log=sys.stderr) -> dict:
    """Run one benchmark run; returns the result object that is printed,
    plus the raw ``samples``."""
    warm_up()
    if trace:
        return measure_traced(workload, seed, log)
    # Start another search while the previous one's duration still fits
    # in the run's time.
    searches = []
    start = perf_counter()
    previous = 0.0
    while (len(searches) < MIN_SEARCHES
           or perf_counter() - start + previous <= seconds):
        began = perf_counter()
        searches.append(_search(workload, seed, "search", log=log))
        previous = perf_counter() - began
    failed = count_failed(workload, searches, log)
    done = [s for s in searches if s]
    if not done:
        raise SystemExit(f"{workload.name}: every search failed")
    setups = [s["setup_s"] for s in done]
    while len(setups) < MIN_SETUPS:
        setups.append(_setup(workload, seed))
    # Timings are the fastest sample, not the median.  On a shared host
    # the core runs this code at about half speed while a neighbour is
    # busy, for stretches of a fraction of a second up to many minutes;
    # a slow stretch only ever adds time.  Searches of about a tenth of a
    # second, many to a run, let some fall wholly inside the moments the
    # core is left alone, so the fastest moves with the program and not
    # with how busy the host happens to be.
    search_s = min(s["search_s"] for s in done)
    values = {
        "time_to_verdict_s": search_s,
        "transitions_per_s":
            statistics.median(s["transitions"] for s in done) / search_s,
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in done),
        "setup_s": min(setups),
    }
    return {"correct": failed == 0, "attempted": len(searches),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END},
            "samples": {"searches": [s["search_s"] for s in done],
                        "setups": setups}}


def measure_traced(workload: Workload, seed: int, log) -> dict:
    """The per-layer run: untraced and traced searches in turn."""
    OUT.mkdir(exist_ok=True)
    spans = [OUT / f"spans-{workload.name}-{i}.bin" for i in range(TRACE_PAIRS)]
    untraced, traced = [], []
    for path in spans:
        untraced.append(_search(workload, seed, "search", log=log))
        traced.append(_search(workload, seed, "trace", str(path), log=log))
    failed = count_failed(workload, untraced + traced, log)
    base = [s["search_s"] for s in untraced if s]
    ran = [i for i, s in enumerate(traced) if s]
    if not base or not ran:
        raise SystemExit(f"{workload.name}: no traced and untraced pair ran")
    best = min(ran, key=lambda i: traced[i]["search_s"])
    for i, path in enumerate(spans):
        if i == best:
            path.replace(OUT / f"spans-{workload.name}.bin")
        else:
            path.unlink(missing_ok=True)
    layers = dict(traced[best]["layers"])
    layers["trace.overhead_ratio"] = traced[best]["search_s"] / min(base)
    for hook in traced[best].get("missing", ()):
        print(f"trace hook not found: {hook}", file=log)
    return {"correct": failed == 0, "attempted": 2 * TRACE_PAIRS,
            "failed": failed,
            "metrics": {name: {"value": layers[name], "unit": unit}
                        for _layer, name, unit in METRICS},
            "samples": {"searches": base, "setups": None}}


def print_table(workload: Workload, result: dict, trace: bool) -> None:
    samples = result["samples"]
    head = (f"{workload.name}: {result['attempted']} searches attempted, "
            f"{result['failed']} failed")
    if not trace:
        head += (f"; fastest of {len(samples['searches'])} searches and "
                 f"{len(samples['setups'])} set-ups")
    print(head)
    metrics = result["metrics"]
    if not trace:
        for name, unit in END_TO_END:
            print(f"  {name:<22} {metrics[name]['value']:>14.6g} {unit}")
        return
    layer = None
    for group, name, unit in METRICS:
        if group != layer:
            layer = group
            print(f"  [{layer}]")
        print(f"    {name:<36} {metrics[name]['value']:>14.6g} {unit}")
    print(f"  layers cover {metrics['trace.coverage_ratio']['value']:.1%} "
          f"of the traced search (floor {COVERAGE_FLOOR:.0%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workload = BY_NAME[args.workload]
    result = measure(workload, seed=args.seed, seconds=args.seconds,
                     trace=bool(args.trace))
    print_table(workload, result, bool(args.trace))
    result.pop("samples")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
