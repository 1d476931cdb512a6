"""The strategy table, and counterexamples that replay under it.

``STRATEGIES`` is the one list of search strategies: the CLI's choices
and the torture sweep read it, and an unknown name is refused with the
table's names.

Every strategy's first counterexample must replay — through
``Checker.replay`` and through a saved repro file — to the same outcome,
the same violation text and the same chosen threads.  Sleep-set POR
records index the awake options only, and an ICB record indexes the
options under its own sweep's preemption bound, so a replay needs the
strategy's reducer and the record's bound.
"""

import re

import pytest

from repro.chaos import torture
from repro.checker import Checker
from repro.cli import main
from repro.engine.persistence import load_and_replay, save_schedule
from repro.engine.strategies import STRATEGIES
from repro.runtime.api import check
from repro.runtime.program import VMProgram
from repro.sync.atomics import SharedVar
from repro.workloads.dining import dining_philosophers
from repro.workloads.wsq import work_stealing_queue


def ordered_writes():
    """A writes x, B writes y, C reads x then y and must not see y's
    write without x's — which it does when B runs before A."""
    def setup(env):
        x = SharedVar(0, name="x")
        y = SharedVar(0, name="y")

        def a():
            yield from x.set(1)

        def b():
            yield from y.set(1)

        def c():
            seen_x = yield from x.get()
            seen_y = yield from y.get()
            check(not (seen_x == 0 and seen_y == 1),
                  "saw y's write before x's")

        env.spawn(a, name="A")
        env.spawn(b, name="B")
        env.spawn(c, name="C")

    return VMProgram(setup, name="ordered-writes")


PROGRAMS = {
    "ordered-writes": (ordered_writes, {}),
    "wsq": (lambda: work_stealing_queue(3, 1, 2), {"depth_bound": 200}),
}


def chosen(record):
    return [d.chosen for d in record.decisions]


@pytest.mark.parametrize("strategy", list(STRATEGIES))
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_counterexample_replays(program, strategy, tmp_path):
    factory, kwargs = PROGRAMS[program]
    checker = Checker(factory(), strategy=strategy, **kwargs)
    record = checker.run().violation
    assert record is not None

    path = save_schedule(tmp_path / "repro.json", checker.program, record,
                         policy_name=checker.policy_factory().name,
                         config=checker.config, strategy=strategy)
    replays = [
        checker.replay(record),
        load_and_replay(path, factory(), checker.policy_factory,
                        checker.config),
    ]
    for replayed in replays:
        assert replayed.outcome is record.outcome
        assert str(replayed.violation) == str(record.violation)
        assert chosen(replayed) == chosen(record)


def cli_choices(capsys, argv):
    """The ``--strategy`` choices argparse lists for ``argv``."""
    with pytest.raises(SystemExit):
        main(argv + ["--strategy", "none-such"])
    listed = re.search(r"choose from (.*)\)", capsys.readouterr().err)
    return [name.strip("'") for name in listed.group(1).split(", ")]


class TestTable:
    def test_every_strategy_list_is_the_table(self, capsys):
        names = list(STRATEGIES)
        assert cli_choices(capsys, ["check", "pkg.mod:factory"]) == names
        assert list(torture.STRATEGIES) == names

    def test_unknown_name_lists_the_table(self):
        checker = Checker(dining_philosophers(2), strategy="none-such")
        with pytest.raises(ValueError) as excinfo:
            checker.run()
        message = str(excinfo.value)
        assert "'none-such'" in message
        for name in STRATEGIES:
            assert name in message
