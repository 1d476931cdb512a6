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


def _positive_int(text: str) -> int:
    """An argparse type: a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


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
    parser.add_argument("--max-executions", type=int, default=None,
                        metavar="N",
                        help="execution budget of the whole search, a "
                             "resumed checkpoint's executions included "
                             "(rerun with --resume and a larger N to "
                             "search in slices)")
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
    performance.add_argument("--snapshot-cache",
                             action=argparse.BooleanOptionalAction,
                             default=True,
                             help="cache prefix snapshots so guided "
                                  "executions skip re-executing shared "
                                  "prefixes (VM and native-thread "
                                  "programs; dfs, bfs, por and icb)")
    performance.add_argument("--snapshot-interval", type=_positive_int,
                             default=ExecutorConfig.snapshot_interval,
                             metavar="N",
                             help="snapshot branch points at least N "
                                  "transitions apart along an execution "
                                  "(default %(default)s: every branch "
                                  "point; larger = fewer snapshots, more "
                                  "re-execution)")
    parallel = parser.add_argument_group(
        "parallel", "sharded multi-process search (docs/parallel.md)")
    parallel.add_argument("--workers", type=_positive_int, default=1,
                          metavar="N",
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
    snapshots_parser.add_argument("--snapshot-interval", type=_positive_int,
                                  default=4)
    snapshots_parser.add_argument("--max-executions", type=int, default=250)
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

    options = parser.parse_args(argv)
    try:
        return options.func(options)
    except UnsupportedConfiguration as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
