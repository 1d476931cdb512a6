"""A default search loads only the layers it runs.

``import repro`` serves the telemetry layer (``repro.obs``, ``Observer``,
``MetricsRegistry``) and the explicit-state re-exports of
``repro.statespace`` on first use.  A plain DFS run must therefore load
nothing of ``obs``, ``cli`` or ``bench``, and nothing of ``statespace``
beyond the ``canonical`` module the runtime hashes states with, while
every public name stays importable.  Each case runs in a
fresh subprocess, since this test process has loaded everything already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

SCRIPT = textwrap.dedent("""
    import json
    import sys

    import repro
    import repro.workloads.dining

    result = repro.Checker(repro.workloads.dining.dining_philosophers(3),
                           depth_bound=400, preemption_bound=1).run()
    assert result.ok and result.exploration.executions == 136
    loaded = sorted(m for m in sys.modules if m.startswith("repro"))

    from repro import MetricsRegistry, Observer, obs
    from repro.statespace import stateful_search

    print(json.dumps({
        "loaded": loaded,
        "names": [Observer.__module__, MetricsRegistry.__module__,
                  obs.__name__, stateful_search.__module__],
    }))
""")


def run_script() -> dict:
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_default_search_loads_only_what_it_runs():
    report = run_script()
    loaded = report["loaded"]

    def under(package):
        return [m for m in loaded
                if m == package or m.startswith(package + ".")]

    for package in ("repro.obs", "repro.cli", "repro.bench"):
        assert under(package) == [], f"a dfs run loaded {under(package)}"
    assert under("repro.statespace") == ["repro.statespace",
                                         "repro.statespace.canonical"]
    # The layers the search does run are there.
    for module in ("repro.engine.executor", "repro.runtime.vm",
                   "repro.core.policies"):
        assert module in loaded

    # The lazily served names still import, from where they live.
    assert report["names"] == ["repro.obs.observer", "repro.obs.metrics",
                               "repro.obs", "repro.statespace.stateful"]
