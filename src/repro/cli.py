"""Command-line interface: ``python -m repro``.

Subcommands:

* ``check MODULE:FACTORY`` — model-check a program.  ``FACTORY`` is a
  zero-or-more-argument callable returning a
  :class:`~repro.core.model.Program`; positional factory arguments are
  given with ``-a`` (parsed as Python literals).
* ``replay REPRO_FILE MODULE:FACTORY`` — replay a saved counterexample.
* ``demo NAME`` — run a built-in workload demonstration.
* ``demos`` — list the built-in demonstrations.
* ``profile snapshots [MODULE:FACTORY]`` — snapshot-cache amortization
  report with an on/off verdict (docs/profiling.md).
* ``bench compare BASELINE CURRENT`` — diff two benchmark JSON files
  with noise tolerances; exits non-zero on regression.

Examples::

    python -m repro check repro.workloads.dining:dining_philosophers_livelock -a 2
    python -m repro demo dining-livelock
    python -m repro check mymodule:make_program --no-fairness --depth-bound 50
"""

from __future__ import annotations

import argparse
import ast
import importlib
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.checker import Checker
from repro.core.model import Program
from repro.engine.executor import ExecutorConfig
from repro.engine.persistence import load_and_replay, save_schedule
from repro.engine.results import format_trace
from repro.engine.strategies import STRATEGIES
from repro.runtime.errors import UnsupportedConfiguration


def _demos() -> Dict[str, Callable[[], Program]]:
    from repro.workloads.ape import ape_program
    from repro.workloads.boundedbuffer import bounded_buffer_program
    from repro.workloads.coherence import coherence_program
    from repro.workloads.dining import (
        dining_philosophers,
        dining_philosophers_livelock,
    )
    from repro.workloads.lockfree import treiber_stack_program
    from repro.workloads.dryad_channels import dryad_pipeline
    from repro.workloads.promise import promise_program
    from repro.workloads.singularity import singularity_boot
    from repro.workloads.spinloop import spinloop, spinloop_no_yield
    from repro.workloads.workerpool import worker_pool
    from repro.workloads.wsq import work_stealing_queue

    return {
        "spinloop": spinloop,
        "spinloop-no-yield": spinloop_no_yield,
        "dining": lambda: dining_philosophers(2),
        "dining-livelock": lambda: dining_philosophers_livelock(2),
        "wsq": lambda: work_stealing_queue(items=1, stealers=1),
        "wsq-bug1": lambda: work_stealing_queue(items=1, stealers=1, bug=1),
        "promise-livelock": lambda: promise_program(2, stale_read_bug=True),
        "worker-pool-spin": lambda: worker_pool(tasks=1, workers=1),
        "dryad": lambda: dryad_pipeline(items=1, capacity=1, transforms=0),
        "ape": lambda: ape_program(items=1, workers=1),
        "singularity": lambda: singularity_boot(apps=1),
        "bounded-buffer": lambda: bounded_buffer_program(items=2,
                                                         consumers=2),
        "treiber": lambda: treiber_stack_program(items=1, poppers=2),
        "msi-coherence": lambda: coherence_program(),
        "msi-livelock": lambda: coherence_program(
            [[("w", 10)], [("w", 20)]], bug="upgrade-livelock"),
    }


def _resolve_factory(spec: str) -> Callable[..., Program]:
    if ":" not in spec:
        raise SystemExit(
            f"program spec must look like 'package.module:factory', "
            f"got {spec!r}"
        )
    module_name, _, attr = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SystemExit(f"cannot import {module_name!r}: {exc}") from exc
    factory = getattr(module, attr, None)
    if factory is None:
        raise SystemExit(f"{module_name!r} has no attribute {attr!r}")
    return factory


def _build_program(spec: str, raw_args: List[str]) -> Program:
    factory = _resolve_factory(spec)
    args = []
    for raw in raw_args:
        try:
            args.append(ast.literal_eval(raw))
        except (ValueError, SyntaxError):
            args.append(raw)  # keep as string
    if not callable(factory):
        raise SystemExit(f"{spec} is not callable")
    result = factory(*args)
    if not isinstance(result, Program):
        raise SystemExit(
            f"{spec} returned {type(result).__name__}, expected a Program"
        )
    return result


def _add_checker_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-fairness", action="store_true",
                        help="use the classical unfair scheduler")
    parser.add_argument("--strategy", default="dfs",
                        choices=list(STRATEGIES))
    parser.add_argument("--depth-bound", type=int, default=5000,
                        help="divergence bound (fair) / prune bound (unfair)")
    parser.add_argument("--preemption-bound", type=int, default=None,
                        help="context bound (max preemptions per execution)")
    parser.add_argument("--k-yield", type=int, default=1,
                        help="process every k-th yield (soundness knob)")
    parser.add_argument("--max-executions", type=int, default=None)
    parser.add_argument("--max-seconds", type=float, default=None)
    parser.add_argument("--random-executions", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--coverage", action="store_true",
                        help="track state coverage (needs state_signature)")
    parser.add_argument("--keep-going", action="store_true",
                        help="do not stop at the first violation")
    parser.add_argument("--trace-limit", type=int, default=40)
    parser.add_argument("--save-repro", metavar="PATH",
                        help="write the first counterexample's schedule "
                             "to a repro file")
    telemetry = parser.add_argument_group(
        "telemetry", "exploration observability (docs/observability.md)")
    telemetry.add_argument("--stats", action="store_true",
                           help="print phase timings and search metrics "
                                "after the verdict")
    telemetry.add_argument("--metrics-json", metavar="FILE",
                           help="export metrics + phase timers as JSON")
    telemetry.add_argument("--trace-out", metavar="FILE",
                           help="write the full event trace as JSONL "
                                "(replay-compatible)")
    telemetry.add_argument("--progress", action="store_true",
                           help="print periodic progress lines to stderr")
    telemetry.add_argument("--progress-interval", type=float, default=1.0,
                           metavar="SECONDS",
                           help="minimum seconds between progress lines")
    telemetry.add_argument("--profile-out", metavar="FILE",
                           help="attribute wall-clock cost to decision-"
                                "sequence prefixes and write folded stacks "
                                "(flamegraph.pl / speedscope input; "
                                "docs/profiling.md)")
    telemetry.add_argument("--chrome-trace", metavar="FILE",
                           help="write search/shard span timelines as "
                                "Chrome trace-event JSON (open in Perfetto "
                                "or chrome://tracing)")
    resilience = parser.add_argument_group(
        "resilience", "long-search armor (docs/resilience.md)")
    resilience.add_argument("--checkpoint", metavar="PATH",
                            help="write periodic search checkpoints to PATH "
                                 "(atomic; also flushed on SIGINT/SIGTERM)")
    resilience.add_argument("--checkpoint-interval", type=int, default=200,
                            metavar="N",
                            help="executions between periodic checkpoints")
    resilience.add_argument("--resume", action="store_true",
                            help="resume from --checkpoint if it exists "
                                 "(starts fresh otherwise)")
    resilience.add_argument("--execution-budget", type=float, default=None,
                            metavar="SECONDS",
                            help="wall-clock budget per execution; hung "
                                 "executions are aborted, not fatal")
    resilience.add_argument("--max-crashes", type=int, default=None,
                            metavar="N",
                            help="capture crashing executions as quarantined "
                                 "findings and stop after N of them")
    resilience.add_argument("--quarantine-dir", metavar="DIR",
                            help="save each quarantined crash's schedule as "
                                 "a repro file in DIR")
    performance = parser.add_argument_group(
        "performance", "exploration hot-path tuning (docs/performance.md)")
    performance.add_argument("--snapshot-cache", action="store_true",
                             help="cache prefix snapshots so guided "
                                  "executions skip re-executing shared "
                                  "prefixes (VM and native-thread "
                                  "programs)")
    performance.add_argument("--snapshot-interval", type=int, default=16,
                             metavar="N",
                             help="snapshot every N transitions along an "
                                  "execution (smaller = less re-execution, "
                                  "more memory)")
    performance.add_argument("--snapshot-memory-mb", type=int, default=64,
                             metavar="MB",
                             help="memory budget for the snapshot cache "
                                  "(LRU eviction past it)")
    parallel = parser.add_argument_group(
        "parallel", "sharded multi-process search (docs/parallel.md)")
    parallel.add_argument("--workers", type=int, default=1, metavar="N",
                          help="worker processes for the search (1 = serial; "
                               "merged totals are worker-count independent)")
    parallel.add_argument("--shards", type=int, default=None, metavar="N",
                          help="target shard count for the parallel plan "
                               "(default 16; more shards = finer-grained "
                               "load balancing)")


def _make_observer(options: argparse.Namespace):
    """Build an Observer when any telemetry flag was given, else None."""
    wants_observer = (options.stats or options.metrics_json
                      or options.trace_out or options.progress
                      or options.profile_out or options.chrome_trace)
    if not wants_observer:
        return None
    from repro.obs import JsonlTraceWriter, Observer, ProgressReporter

    sink = JsonlTraceWriter(options.trace_out) if options.trace_out else None
    progress = (ProgressReporter(interval_seconds=options.progress_interval)
                if options.progress else None)
    profiler = None
    if options.profile_out:
        from repro.obs.profile import DecisionProfiler

        profiler = DecisionProfiler()
    return Observer(sink=sink, progress=progress, profiler=profiler)


def _make_checker(program: Program, options: argparse.Namespace) -> Checker:
    return Checker(
        program,
        fairness=not options.no_fairness,
        k_yield=options.k_yield,
        strategy=options.strategy,
        preemption_bound=options.preemption_bound,
        depth_bound=options.depth_bound,
        max_executions=options.max_executions,
        max_seconds=options.max_seconds,
        stop_on_first_violation=not options.keep_going,
        random_executions=options.random_executions,
        collect_coverage=options.coverage,
        seed=options.seed,
        observer=_make_observer(options),
        checkpoint_path=options.checkpoint,
        checkpoint_interval=options.checkpoint_interval,
        execution_budget_seconds=options.execution_budget,
        max_crashes=options.max_crashes,
        quarantine_dir=options.quarantine_dir,
        workers=options.workers,
        shard_target=options.shards,
        snapshot_cache=options.snapshot_cache,
        snapshot_interval=options.snapshot_interval,
        snapshot_memory_mb=options.snapshot_memory_mb,
    )


def _report_and_save(program: Program, checker: Checker,
                     options: argparse.Namespace) -> int:
    resume_from = None
    if getattr(options, "resume", False):
        if not options.checkpoint:
            raise SystemExit("--resume needs --checkpoint PATH")
        if Path(options.checkpoint).exists():
            resume_from = options.checkpoint
        # A missing checkpoint starts fresh, so the same command line is
        # idempotent: first run searches, reruns resume.
    try:
        result = checker.run(resume_from=resume_from)
    finally:
        if checker.observer is not None:
            checker.observer.close()
    print(result.report(trace_limit=options.trace_limit))
    observer = checker.observer
    if observer is not None:
        if options.stats:
            print()
            print(observer.summary())
        if options.metrics_json:
            path = observer.dump_json(options.metrics_json)
            print(f"metrics written to {path}")
        if options.trace_out:
            print(f"event trace written to {options.trace_out}")
        if options.profile_out and observer.profiler is not None:
            Path(options.profile_out).write_text(
                observer.profiler.to_folded(), encoding="utf-8")
            print(f"decision profile (folded stacks) written to "
                  f"{options.profile_out}")
        if options.chrome_trace:
            from repro.obs.profile import write_chrome_trace

            write_chrome_trace(
                options.chrome_trace, observer.spans.spans,
                timers=observer.timers.to_dict(),
                lane_names=observer.spans.lane_names,
                metadata={"program": program.name,
                          "strategy": checker.strategy,
                          "workers": checker.workers},
            )
            print(f"chrome trace written to {options.chrome_trace}")
    record = result.violation or result.divergence
    if options.save_repro and record is not None:
        path = save_schedule(
            options.save_repro, program, record,
            policy_name=checker.policy_factory().name,
            config=checker.config, strategy=checker.strategy,
        )
        print(f"repro file written to {path}")
    if result.interrupted:
        # Conventional exit code for a SIGINT-terminated process; the
        # partial verdict above still tells the operator what was seen.
        return 130
    return 0 if result.ok else 1


def _cmd_check(options: argparse.Namespace) -> int:
    program = _build_program(options.program, options.factory_arg)
    checker = _make_checker(program, options)
    return _report_and_save(program, checker, options)


def _cmd_replay(options: argparse.Namespace) -> int:
    program = _build_program(options.program, options.factory_arg)
    checker = _make_checker(program, options)
    record = load_and_replay(options.repro_file, program,
                             checker.policy_factory, checker.config)
    print(f"replayed {record.steps} steps; outcome: {record.outcome.value}")
    if record.violation is not None:
        print(f"violation: {record.violation}")
    print(format_trace(record.trace, limit=options.trace_limit))
    return 0 if record.violation is None else 1


def _cmd_demo(options: argparse.Namespace) -> int:
    demos = _demos()
    if options.name not in demos:
        print(f"unknown demo {options.name!r}; try: "
              f"{', '.join(sorted(demos))}", file=sys.stderr)
        return 2
    program = demos[options.name]()
    options.program = options.name
    checker = _make_checker(program, options)
    needs_bound = ("wsq", "wsq-bug1", "dryad", "ape", "singularity",
                   "bounded-buffer", "treiber", "msi-coherence")
    if options.name in needs_bound and options.preemption_bound is None:
        checker.config.preemption_bound = 2
    return _report_and_save(program, checker, options)


def _cmd_demos(options: argparse.Namespace) -> int:
    for name in sorted(_demos()):
        print(name)
    return 0


def _cmd_profile_snapshots(options: argparse.Namespace) -> int:
    """Measure snapshot-cache amortization and print the verdict report."""
    from repro.obs.profile import format_snapshot_report, snapshot_amortization

    if options.program:
        def program_factory():
            return _build_program(options.program, options.factory_arg)
    else:
        from repro.workloads.boundedbuffer import bounded_buffer_program

        def program_factory():
            return bounded_buffer_program(items=2, consumers=2)

    bound = options.preemption_bound
    if bound is None:
        # 2, unless the strategy refuses a preemption bound.
        try:
            bound = STRATEGIES[options.strategy].configure(
                ExecutorConfig(preemption_bound=2)).preemption_bound
        except UnsupportedConfiguration:
            pass
    report = snapshot_amortization(
        program_factory,
        strategy=options.strategy,
        depth_bound=options.depth_bound,
        preemption_bound=bound,
        snapshot_interval=options.snapshot_interval,
        max_executions=options.max_executions,
        snapshot_memory_mb=options.snapshot_memory_mb,
    )
    print(format_snapshot_report(report))
    if options.json_out:
        import json

        Path(options.json_out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"report written to {options.json_out}")
    return 0


def _cmd_bench_compare(options: argparse.Namespace) -> int:
    """Compare two benchmark JSON files; non-zero exit on regression."""
    from repro.obs.profile import compare_bench, load_bench

    try:
        baseline = load_bench(options.baseline)
        current = load_bench(options.current)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load benchmark file: {exc}") from exc
    comparison = compare_bench(baseline, current,
                               tolerance=options.tolerance)
    print(comparison.summary())
    return comparison.exit_code


def _cmd_chaos(options: argparse.Namespace) -> int:
    """Run the seeded fault matrix (and optionally the torture sweep)."""
    from repro.chaos.harness import SCENARIOS, run_matrix

    if options.list_scenarios:
        for name in SCENARIOS:
            print(name)
        return 0
    try:
        matrix = run_matrix(seed=options.seed,
                            only=options.scenarios or None)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    print(matrix.summary())
    exit_code = matrix.exit_code
    if options.torture:
        from repro.chaos.torture import run_torture

        print("\ncrash-consistency torture:")
        for result in run_torture(prefix_stride=options.torture_stride):
            print(result.describe())
            if not result.ok:
                exit_code = 1
    return exit_code


def _cmd_serve(options: argparse.Namespace) -> int:
    from repro.service import CheckServer
    from repro.service.http_api import ServiceHttpServer

    weights = None
    if options.weight:
        weights = {}
        for raw in options.weight:
            name, _, value = raw.partition("=")
            try:
                weights[name] = int(value)
            except ValueError:
                raise SystemExit(f"bad --weight {raw!r}; expected class=N")
    try:
        server = CheckServer(
            options.data_dir,
            fleet=options.fleet,
            quantum_executions=options.quantum,
            weights=weights,
            max_active_per_client=options.max_active_per_client,
            submit_rate=options.submit_rate,
            submit_burst=options.submit_burst,
            retention_seconds=options.retention,
        )
    except OSError as exc:
        # An unwritable jobs directory must be a loud boot failure, not
        # a server that idles while silently losing every submission.
        print(f"error: jobs directory {options.data_dir!r} is not "
              f"writable: {exc}", file=sys.stderr, flush=True)
        return 2
    http_server = None
    if options.http is not None:
        http_server = ServiceHttpServer(server, host=options.http_host,
                                        port=options.http)
        http_server.start()
        print(f"http: {http_server.url}", flush=True)
    print(f"serving {options.data_dir} "
          f"(fleet={options.fleet}, quantum={options.quantum})", flush=True)
    try:
        server.serve_forever(idle_exit_seconds=options.idle_exit)
    finally:
        if http_server is not None:
            http_server.stop()
    print("server stopped", flush=True)
    return 0


def _job_client(options: argparse.Namespace):
    from repro.service.client import make_client

    if (options.data_dir is None) == (getattr(options, "url", None) is None):
        raise SystemExit("pass exactly one of --data-dir or --url")
    return make_client(data_dir=options.data_dir, url=options.url)


def _job_exit_code(record: dict) -> int:
    """--wait exit codes: pass 0, fail 1, cancelled 3, infra failure 4."""
    state = record.get("state")
    if state == "done":
        return 0 if record.get("verdict") == "pass" else 1
    if state == "cancelled":
        return 3
    return 4


def _cmd_job_submit(options: argparse.Namespace) -> int:
    from repro.service import JobSpec
    from repro.service.server import RateLimitedError

    config = {}
    for raw in options.config:
        key, sep, value = raw.partition("=")
        if not sep:
            raise SystemExit(f"bad --config {raw!r}; expected key=value")
        try:
            config[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            config[key] = value
    spec = JobSpec(program=options.program,
                   factory_args=list(options.factory_arg),
                   config=config, priority=options.priority,
                   client=options.client, stream=options.stream)
    try:
        spec.validate()
    except ValueError as exc:
        raise SystemExit(str(exc))
    client = _job_client(options)
    try:
        job_id = client.submit(spec)
    except RateLimitedError as exc:
        print(f"rate limited: {exc}", file=sys.stderr)
        return 4
    print(job_id, flush=True)
    if not options.wait:
        return 0
    record = client.wait(job_id, timeout=options.timeout)
    print(f"{record['state']}"
          + (f" verdict={record['verdict']}" if record.get("verdict")
             else "")
          + (f" error={record['error']}" if record.get("error") else ""))
    return _job_exit_code(record)


def _cmd_job_status(options: argparse.Namespace) -> int:
    import json as json_module

    client = _job_client(options)
    try:
        record = client.status(options.job_id)
    except KeyError:
        print(f"unknown job {options.job_id}", file=sys.stderr)
        return 2
    print(json_module.dumps(record, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_job_list(options: argparse.Namespace) -> int:
    client = _job_client(options)
    for record in client.list_jobs():
        verdict = record.get("verdict") or "-"
        spec = record.get("spec", {})
        print(f"{record['id']}  {record['state']:<9} {verdict:<5} "
              f"{spec.get('priority', '?'):<7} "
              f"exec={record.get('executions', 0):<7} "
              f"{spec.get('program', '?')}")
    return 0


def _cmd_job_watch(options: argparse.Namespace) -> int:
    import json as json_module

    client = _job_client(options)
    try:
        for event in client.watch(options.job_id, timeout=options.timeout):
            print(json_module.dumps(event, sort_keys=True, default=str),
                  flush=True)
    except TimeoutError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    record = client.status(options.job_id)
    return _job_exit_code(record)


def _cmd_job_result(options: argparse.Namespace) -> int:
    import json as json_module

    client = _job_client(options)
    result = client.result(options.job_id)
    if result is None:
        print("result not ready", file=sys.stderr)
        return 2
    print(json_module.dumps(result, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_job_cancel(options: argparse.Namespace) -> int:
    client = _job_client(options)
    client.cancel(options.job_id)
    if not options.wait:
        print("cancel requested", flush=True)
        return 0
    record = client.wait(options.job_id, timeout=options.timeout)
    print(record["state"])
    return _job_exit_code(record)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="fairchess — fair stateless model checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check_parser = sub.add_parser("check", help="model-check a program")
    check_parser.add_argument("program",
                              help="factory spec: package.module:factory")
    check_parser.add_argument("-a", "--factory-arg", action="append",
                              default=[], help="argument for the factory "
                              "(Python literal); repeatable")
    _add_checker_options(check_parser)
    check_parser.set_defaults(func=_cmd_check)

    replay_parser = sub.add_parser("replay", help="replay a repro file")
    replay_parser.add_argument("repro_file")
    replay_parser.add_argument("program")
    replay_parser.add_argument("-a", "--factory-arg", action="append",
                               default=[])
    _add_checker_options(replay_parser)
    replay_parser.set_defaults(func=_cmd_replay)

    demo_parser = sub.add_parser("demo", help="run a built-in demo")
    demo_parser.add_argument("name")
    demo_parser.add_argument("-a", "--factory-arg", action="append",
                             default=[])
    _add_checker_options(demo_parser)
    demo_parser.set_defaults(func=_cmd_demo)

    demos_parser = sub.add_parser("demos", help="list built-in demos")
    demos_parser.set_defaults(func=_cmd_demos)

    chaos_parser = sub.add_parser(
        "chaos",
        help="seeded fault-injection matrix (docs/resilience.md)")
    chaos_parser.add_argument(
        "--seed", type=int, default=0,
        help="derives every fault trigger; same seed = same faults")
    chaos_parser.add_argument(
        "--scenario", action="append", default=[], dest="scenarios",
        help="run only this scenario (repeatable; default: all)")
    chaos_parser.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the scenarios and exit")
    chaos_parser.add_argument(
        "--torture", action="store_true",
        help="also run the crash-consistency torture sweep (replays "
             "every prefix of the write sequence for every strategy)")
    chaos_parser.add_argument(
        "--torture-stride", type=int, default=1,
        help="check every N-th write-sequence prefix (default: all)")
    chaos_parser.set_defaults(func=_cmd_chaos)

    profile_parser = sub.add_parser(
        "profile", help="profiling reports (docs/profiling.md)")
    profile_sub = profile_parser.add_subparsers(dest="profile_command",
                                                required=True)
    snapshots_parser = profile_sub.add_parser(
        "snapshots",
        help="snapshot-cache amortization report: per-phase capture/"
             "restore cost vs replay savings, with an on/off verdict")
    snapshots_parser.add_argument(
        "program", nargs="?", default=None,
        help="factory spec package.module:factory "
             "(default: the hot-path bench workload, "
             "bounded_buffer_program(items=2, consumers=2))")
    snapshots_parser.add_argument("-a", "--factory-arg", action="append",
                                  default=[])
    snapshots_parser.add_argument("--strategy", default="dfs",
                                  choices=list(STRATEGIES))
    snapshots_parser.add_argument("--depth-bound", type=int, default=200)
    snapshots_parser.add_argument(
        "--preemption-bound", type=int, default=None,
        help="default 2; none for por and dpor, which refuse a bound")
    snapshots_parser.add_argument("--snapshot-interval", type=int, default=4)
    snapshots_parser.add_argument("--max-executions", type=int, default=250)
    snapshots_parser.add_argument("--snapshot-memory-mb", type=int,
                                  default=64)
    snapshots_parser.add_argument("--json-out", metavar="FILE",
                                  help="also write the report as JSON")
    snapshots_parser.set_defaults(func=_cmd_profile_snapshots)

    bench_parser = sub.add_parser(
        "bench", help="benchmark tooling (docs/performance.md)")
    bench_sub = bench_parser.add_subparsers(dest="bench_command",
                                            required=True)
    compare_parser = bench_sub.add_parser(
        "compare",
        help="diff two benchmark JSON files with noise tolerances; "
             "exits non-zero when the current file regresses")
    compare_parser.add_argument("baseline", help="baseline BENCH_*.json")
    compare_parser.add_argument("current", help="current BENCH_*.json")
    compare_parser.add_argument("--tolerance", type=float, default=0.2,
                                help="relative slack for noisy metrics "
                                     "(default 0.2 = 20%%)")
    compare_parser.set_defaults(func=_cmd_bench_compare)

    serve_parser = sub.add_parser(
        "serve", help="run the checking service (docs/service.md)")
    serve_parser.add_argument("--data-dir", required=True,
                              help="durable service state directory")
    serve_parser.add_argument("--fleet", type=int, default=2, metavar="N",
                              help="worker threads shared across jobs")
    serve_parser.add_argument("--quantum", type=int, default=50, metavar="N",
                              help="executions per scheduler quantum")
    serve_parser.add_argument("--http", type=int, default=None,
                              metavar="PORT",
                              help="also listen on localhost HTTP "
                                   "(0 = ephemeral port, printed on start)")
    serve_parser.add_argument("--http-host", default="127.0.0.1")
    serve_parser.add_argument("--idle-exit", type=float, default=None,
                              metavar="SECONDS",
                              help="exit after this long with no active jobs")
    serve_parser.add_argument("--max-active-per-client", type=int,
                              default=None, metavar="N",
                              help="per-client concurrent-job cap "
                                   "(excess is backlogged)")
    serve_parser.add_argument("--submit-rate", type=float, default=None,
                              metavar="PER_SECOND",
                              help="per-client submission token-bucket rate")
    serve_parser.add_argument("--submit-burst", type=float, default=None,
                              metavar="TOKENS")
    serve_parser.add_argument("--retention", type=float, default=None,
                              metavar="SECONDS",
                              help="delete terminal job dirs older than this")
    serve_parser.add_argument("--weight", action="append", default=[],
                              metavar="CLASS=N",
                              help="override a priority class weight; "
                                   "repeatable (default smoke=6 default=3 "
                                   "bulk=1)")
    serve_parser.set_defaults(func=_cmd_serve)

    job_parser = sub.add_parser(
        "job", help="batch client for the checking service")
    job_sub = job_parser.add_subparsers(dest="job_command", required=True)

    def _add_transport(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data-dir", default=None,
                       help="filesystem transport: the server's data dir")
        p.add_argument("--url", default=None,
                       help="HTTP transport: the server's base URL")

    submit_parser = job_sub.add_parser("submit", help="submit a job")
    submit_parser.add_argument("program",
                               help="factory spec package.module:factory")
    submit_parser.add_argument("-a", "--factory-arg", action="append",
                               default=[],
                               help="argument for the factory (Python "
                                    "literal); repeatable")
    submit_parser.add_argument("--priority", default="default",
                               choices=["smoke", "default", "bulk"])
    submit_parser.add_argument("--client", default="anonymous",
                               help="client identity for rate limiting")
    submit_parser.add_argument("--stream", default="lifecycle",
                               choices=["lifecycle", "executions",
                                        "decisions"],
                               help="events.jsonl verbosity")
    submit_parser.add_argument("--config", action="append", default=[],
                               metavar="KEY=VALUE",
                               help="checker config entry (Python literal "
                                    "value); repeatable, e.g. "
                                    "--config strategy='dfs' "
                                    "--config max_executions=500")
    submit_parser.add_argument("--wait", action="store_true",
                               help="block until terminal; exit 0 pass, "
                                    "1 fail, 3 cancelled, 4 failed")
    submit_parser.add_argument("--timeout", type=float, default=None)
    _add_transport(submit_parser)
    submit_parser.set_defaults(func=_cmd_job_submit)

    status_parser = job_sub.add_parser("status", help="show one job record")
    status_parser.add_argument("job_id")
    _add_transport(status_parser)
    status_parser.set_defaults(func=_cmd_job_status)

    list_parser = job_sub.add_parser("list", help="list all jobs")
    _add_transport(list_parser)
    list_parser.set_defaults(func=_cmd_job_list)

    watch_parser = job_sub.add_parser(
        "watch", help="stream a job's events until it finishes")
    watch_parser.add_argument("job_id")
    watch_parser.add_argument("--timeout", type=float, default=None)
    _add_transport(watch_parser)
    watch_parser.set_defaults(func=_cmd_job_watch)

    result_parser = job_sub.add_parser("result",
                                       help="print a job's final result")
    result_parser.add_argument("job_id")
    _add_transport(result_parser)
    result_parser.set_defaults(func=_cmd_job_result)

    cancel_parser = job_sub.add_parser("cancel", help="cancel a job")
    cancel_parser.add_argument("job_id")
    cancel_parser.add_argument("--wait", action="store_true")
    cancel_parser.add_argument("--timeout", type=float, default=None)
    _add_transport(cancel_parser)
    cancel_parser.set_defaults(func=_cmd_job_cancel)

    options = parser.parse_args(argv)
    try:
        return options.func(options)
    except UnsupportedConfiguration as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
