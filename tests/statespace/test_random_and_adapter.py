"""Random program generator + transition-system adapter tests."""

from repro.core.policies import NonfairPolicy, nonfair_policy
from repro.engine.executor import ExecutorConfig, GuidedChooser, run_execution
from repro.engine.results import Outcome
from repro.engine.strategies import explore_dfs
from repro.statespace.adapter import (
    TransitionSystemInstance,
    TransitionSystemProgram,
)
from repro.statespace.random_programs import (
    random_good_samaritan_system,
    random_system,
)
from repro.statespace.stateful import stateful_search
from repro.statespace.transition_system import figure3_system


class TestRandomPrograms:
    def test_same_seed_same_system(self):
        a = random_system(7)
        b = random_system(7)
        assert stateful_search(a).states == stateful_search(b).states

    def test_different_seeds_usually_differ(self):
        spaces = {stateful_search(random_system(seed)).states
                  for seed in range(12)}
        assert len(spaces) > 3

    def test_requested_thread_count(self):
        system = random_system(3, n_threads=4)
        assert len(system.thread_ids()) == 4

    def test_gs_systems_yield_on_every_backward_jump(self):
        """Structural GS: non-yielding instructions move strictly
        forward, so every control-flow cycle yields."""
        for seed in range(30):
            system = random_good_samaritan_system(seed, n_threads=2,
                                                  n_pcs=3, domain=3)
            for tid in system.thread_ids():
                # Walk each thread alone from every reachable shared
                # value; count non-yield steps between yields.
                for shared in range(3):
                    state = (shared, tuple(
                        0 for _ in system.thread_ids()))
                    steps_without_yield = 0
                    for _ in range(50):
                        if tid not in system.enabled_threads(state):
                            break
                        if system.is_yielding(state, tid):
                            steps_without_yield = 0
                        else:
                            steps_without_yield += 1
                        assert steps_without_yield <= 3, (
                            f"{system.name}/{tid} ran {steps_without_yield}"
                            f" non-yield steps — a yield-free loop"
                        )
                        state = system.next_state(state, tid)


class TestAdapter:
    def test_instance_tracks_state_value(self):
        instance = TransitionSystemInstance(figure3_system())
        assert instance.state == figure3_system().initial
        assert instance.state_signature() == instance.state
        info = instance.step("t")
        assert info.tid == "t"
        assert instance.state != figure3_system().initial

    def test_step_info_fields(self):
        instance = TransitionSystemInstance(figure3_system())
        # From (a,c), stepping u keeps both threads enabled.
        info = instance.step("u")
        assert info.enabled_before == frozenset({"t", "u"})
        assert info.enabled_after == frozenset({"t", "u"})
        assert not info.yielded
        # Now u is at the yield instruction.
        assert instance.is_yielding("u")

    def test_program_instances_independent(self):
        program = TransitionSystemProgram(figure3_system())
        first = program.instantiate()
        second = program.instantiate()
        first.step("t")
        assert second.state == figure3_system().initial

    def test_runs_under_the_engine(self):
        program = TransitionSystemProgram(figure3_system())
        record = run_execution(
            program, NonfairPolicy(), GuidedChooser([0] * 10),
            ExecutorConfig(depth_bound=50, on_depth_exceeded="prune"),
        )
        assert record.outcome in (Outcome.TERMINATED, Outcome.DEPTH_PRUNED)

    def test_exhaustive_unfair_dfs_needs_bound(self):
        program = TransitionSystemProgram(figure3_system())
        result = explore_dfs(
            program, nonfair_policy(),
            ExecutorConfig(depth_bound=20, on_depth_exceeded="prune"),
        )
        assert result.nonterminating_executions > 0
