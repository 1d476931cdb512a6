"""Explicit-state layer: transition systems, ground-truth search, cycles.

The checker proper is stateless; this subpackage exists for the parts of
the paper that reason *about* state spaces — the "Total States" columns of
Table 2 (a stateful search storing signatures in a hash table, which also
records the state graph), the liveness outcomes decided on that graph
(fair and good-samaritan-violating SCCs), the fair/unfair cycle
definitions behind Theorems 4–6, heap canonicalization, and the random
finite-state programs used by the property-based tests.
"""

from repro.statespace.adapter import (
    TransitionSystemInstance,
    TransitionSystemProgram,
)
from repro.statespace.canonical import canonicalize, signature_hash
from repro.statespace.cycles import (
    StateGraph,
    cycle_yield_count,
    enumerate_cycles,
    fair_sccs,
    good_samaritan_sccs,
    is_fair_cycle,
)
from repro.statespace.random_programs import (
    random_good_samaritan_system,
    random_partitioned_system,
    random_system,
)
from repro.statespace.stateful import GroundTruth, stateful_search
from repro.statespace.transition_system import (
    ThreadSpec,
    TransitionSystem,
    figure3_system,
    pc_program,
)

__all__ = [
    "GroundTruth",
    "StateGraph",
    "ThreadSpec",
    "TransitionSystem",
    "TransitionSystemInstance",
    "TransitionSystemProgram",
    "canonicalize",
    "cycle_yield_count",
    "enumerate_cycles",
    "fair_sccs",
    "figure3_system",
    "good_samaritan_sccs",
    "is_fair_cycle",
    "pc_program",
    "random_good_samaritan_system",
    "random_partitioned_system",
    "random_system",
    "signature_hash",
    "stateful_search",
]
