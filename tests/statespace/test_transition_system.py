"""Transition system and pc_program tests, including Figure 3."""

import pytest

from repro.statespace.transition_system import (
    ThreadSpec,
    TransitionSystem,
    figure3_system,
    pc_program,
)


class TestTransitionSystem:
    def make_counter(self):
        # One thread incrementing a counter to 3.
        spec = ThreadSpec(
            enabled=lambda s: s < 3,
            step=lambda s: s + 1,
        )
        return TransitionSystem("counter", 0, {"inc": spec})

    def test_enabled_and_step(self):
        system = self.make_counter()
        assert system.enabled_threads(0) == frozenset({"inc"})
        assert system.next_state(0, "inc") == 1
        assert system.enabled_threads(3) == frozenset()

    def test_step_disabled_rejected(self):
        system = self.make_counter()
        with pytest.raises(ValueError):
            system.next_state(3, "inc")

    def test_default_yield_false(self):
        system = self.make_counter()
        assert not system.is_yielding(0, "inc")

    def test_empty_threads_rejected(self):
        with pytest.raises(ValueError):
            TransitionSystem("empty", 0, {})


class TestPcProgram:
    def test_straight_line(self):
        system = pc_program(
            "inc2", 0,
            {"t": (
                (lambda s: True, lambda s: s + 1, 1, False),
                (lambda s: True, lambda s: s + 1, 2, False),
            )},
        )
        state = system.initial
        assert state == (0, (0,))
        state = system.next_state(state, "t")
        assert state == (1, (1,))
        state = system.next_state(state, "t")
        assert state == (2, (2,))
        assert system.enabled_threads(state) == frozenset()

    def test_guard_disables(self):
        system = pc_program(
            "guarded", 0,
            {"t": ((lambda s: s == 1, lambda s: s, 1, False),)},
        )
        assert system.enabled_threads(system.initial) == frozenset()

    def test_branching_next_pc(self):
        system = pc_program(
            "branch", 1,
            {"t": (
                (lambda s: True, lambda s: s,
                 lambda s: 1 if s == 0 else 2, False),
                (lambda s: True, lambda s: s, 0, True),
            )},
        )
        # shared = 1: pc 0 jumps straight to 2 (terminated).
        state = system.next_state(system.initial, "t")
        assert state == (1, (2,))
        assert system.enabled_threads(state) == frozenset()

    def test_yield_flag(self):
        system = pc_program(
            "yielding", 0,
            {"t": ((lambda s: True, lambda s: s, 1, True),)},
        )
        assert system.is_yielding(system.initial, "t")


class TestFigure3:
    def test_state_space_matches_paper(self):
        """The diagram of Figure 3: five states (a,c) (a,d) (b,c) (b,d)
        (b,e), a cycle between (a,c) and (a,d)."""
        from repro.statespace.stateful import stateful_search

        assert stateful_search(figure3_system()).count == 5

    def test_only_u_transition_from_ad_is_yield(self):
        system = figure3_system()
        # State (a,d): t at pc 0, u at pc 1 (the yield instruction).
        state_ad = (0, (0, 1))
        assert system.is_yielding(state_ad, "u")
        assert not system.is_yielding(state_ad, "t")
        # State (a,c): u's read is not a yield.
        assert not system.is_yielding(system.initial, "u")

    def test_t_terminates_after_store(self):
        system = figure3_system()
        state = system.next_state(system.initial, "t")
        assert "t" not in system.enabled_threads(state)

    def test_u_exits_once_x_set(self):
        system = figure3_system()
        state = system.next_state(system.initial, "t")  # x := 1
        state = system.next_state(state, "u")  # while: sees 1, exits
        assert system.enabled_threads(state) == frozenset()
