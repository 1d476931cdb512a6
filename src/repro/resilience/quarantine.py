"""Crash quarantine: a crashing execution becomes a finding, not a fatality.

When crash capture is enabled (``ExecutorConfig.capture_crashes``), a
:class:`~repro.runtime.errors.TaskCrash` — or any unexpected exception
raised while executing one schedule — ends only *that* execution: the
record comes back with :attr:`~repro.engine.results.Outcome.CRASHED`, its
schedule is saved as an ordinary repro file for offline replay, and the
search moves on to the next schedule.  A ``--max-crashes`` budget keeps a
systematically broken program from burning the whole search on crashes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.engine.persistence import save_schedule


class CrashQuarantine:
    """Writes crashing executions' schedules to a quarantine directory,
    one ``crash-NNNN.json`` file each."""

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._sequence = 0

    def save(self, program, record, *, policy_name: str = "",
             config=None, strategy: Optional[str] = None) -> Optional[Path]:
        """Persist one crashed record; returns the file path (or None
        when no quarantine directory is configured)."""
        if self.directory is None:
            return None
        self.directory.mkdir(parents=True, exist_ok=True)
        while True:
            path = self.directory / f"crash-{self._sequence:04d}.json"
            self._sequence += 1
            if not path.exists():
                break
        return save_schedule(path, program, record, policy_name=policy_name,
                             config=config, strategy=strategy)
