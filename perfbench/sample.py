"""One benchmark sample in a fresh process: set up, search, report as JSON.

Usage (the runner starts it; ``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/sample.py WORKLOAD SEED setup
    python3 perfbench/sample.py WORKLOAD SEED search
    python3 perfbench/sample.py WORKLOAD SEED trace SPANS

Set-up is timed from this file's first statement through the ``Checker``
constructor: ``import repro`` and the program factory's module
(``import_s``), then program and checker construction (``build_s``).  The
search is timed from calling ``Checker.run()`` to its ``CheckResult``,
after a ``gc.collect()``; the collector is otherwise left as the program
would run.  ``setup`` stops after set-up.  ``trace`` runs the search under
:class:`tracer.Tracer`, writes its spans to ``SPANS`` and reports the
per-layer metrics.
"""
import time; T0 = time.perf_counter()  # noqa: E702 - set-up starts here

import gc
import importlib
import json
import resource
import sys

from workloads import BY_NAME

_ERROR_KINDS = ("LIVELOCK", "GOOD_SAMARITAN_VIOLATION", "TEMPORAL")


def verdict(result) -> str:
    """``PASS``, or what the search found first."""
    if result.ok:
        return "PASS"
    exploration = result.exploration
    if exploration.violations:
        return "VIOLATION"
    if exploration.deadlocks:
        return "DEADLOCK"
    if exploration.crashes:
        return "CRASH"
    for record in exploration.divergences:
        if record.divergence and record.divergence.kind.name in _ERROR_KINDS:
            return record.divergence.kind.name
    return "FAIL"


def main(argv) -> dict:
    name, seed, mode = argv[:3]
    workload = BY_NAME[name]
    module, _, factory = workload.program.partition(":")
    import repro
    make_program = getattr(importlib.import_module(module), factory)
    t_import = time.perf_counter()
    checker = repro.Checker(make_program(**workload.program_args),
                            seed=int(seed), **workload.checker_args)
    t_built = time.perf_counter()
    setup = {"import_s": t_import - T0, "build_s": t_built - t_import}
    out = dict(setup, setup_s=t_built - T0)
    if mode == "setup":
        return out

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    gc.collect()
    if tracer is None:
        t0 = time.perf_counter()
        result = checker.run()
        search_s = time.perf_counter() - t0
    else:
        result, search_s = tracer.run_root(checker.run)
        tracer.uninstall()
    out.update(
        verdict=verdict(result),
        executions=result.exploration.executions,
        transitions=result.exploration.transitions,
        search_s=search_s,
        # ru_maxrss is in KiB on Linux.
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["layers"] = tracer.report(
            transitions=out["transitions"], search_s=search_s, setup=setup)
        out["missing"] = tracer.missing
        tracer.write(argv[3])
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
