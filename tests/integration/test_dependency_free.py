"""The checker imports and runs without networkx.

networkx serves only elementary-cycle enumeration (``enumerate_cycles``)
and the test suite, so ``import repro``, a ``Checker`` run, a CLI check and
the static liveness analysis must all work on an interpreter where it
cannot be imported.  Each case
runs in a fresh subprocess, where ``sys.modules['networkx'] = None`` makes
every ``import networkx`` fail.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

HIDE_NETWORKX = "import sys\nsys.modules['networkx'] = None\n"


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)


def test_import_does_not_load_networkx():
    proc = run_python(textwrap.dedent("""
        import sys
        import repro
        assert 'networkx' not in sys.modules, 'import repro loaded networkx'
    """))
    assert proc.returncode == 0, proc.stderr


def test_checker_passes_without_networkx():
    proc = run_python(HIDE_NETWORKX + textwrap.dedent("""
        from repro import Checker
        from repro.workloads.dining import dining_philosophers
        result = Checker(dining_philosophers(2), depth_bound=300).run()
        print(result.report())
    """))
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_cli_check_passes_without_networkx():
    argv = ["repro", "check", "repro.workloads.dining:dining_philosophers",
            "-a", "2", "--depth-bound", "300"]
    proc = run_python(HIDE_NETWORKX + textwrap.dedent(f"""
        import runpy
        sys.argv = {argv!r}
        runpy.run_module('repro', run_name='__main__', alter_sys=True)
    """))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "PASS" in proc.stdout


def test_static_liveness_analysis_without_networkx():
    proc = run_python(HIDE_NETWORKX + textwrap.dedent("""
        from repro.statespace import (
            fair_sccs, good_samaritan_sccs, stateful_search)
        from repro.workloads.dining import dining_philosophers_livelock
        graph = stateful_search(dining_philosophers_livelock(2)).graph
        assert fair_sccs(graph), 'the Figure 1 livelock has a fair SCC'
        assert good_samaritan_sccs(graph) == {}
    """))
    assert proc.returncode == 0, proc.stderr
