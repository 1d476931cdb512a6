"""Smoke tests for the example scripts (the fast ones, in-process)."""

import importlib
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> None:
    sys.path.insert(0, str(EXAMPLES_DIR))
    try:
        module = importlib.import_module(name)
        module.main()
    finally:
        sys.path.remove(str(EXAMPLES_DIR))
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", [
    "quickstart",
    "dining_philosophers",
    "promise_livelock",
    "good_samaritan_worker_pool",
])
def test_example_runs(name, capsys):
    run_example(name)
    out = capsys.readouterr().out
    assert out.strip()


@pytest.mark.parametrize("name", ["profiling_demo", "resume_search"])
def test_example_leaves_no_files(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    run_example(name)
    assert capsys.readouterr().out.strip()
    assert list(tmp_path.iterdir()) == []
