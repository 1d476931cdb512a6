"""Explicit-state layer: transition systems, ground-truth search, cycles.

The checker proper is stateless; this subpackage exists for the parts of
the paper that reason *about* state spaces — the "Total States" columns of
Table 2 (a stateful search storing signatures in a hash table, which also
records the state graph), the liveness outcomes decided on that graph
(fair and good-samaritan-violating SCCs), the fair/unfair cycle
definitions behind Theorems 4–6, heap canonicalization, and the random
finite-state programs used by the property-based tests.
"""

import importlib

#: Public name -> the submodule that defines it.  The submodules load on
#: first use, so the runtime's import of ``canonical`` does not pull in
#: the stateful search and, through it, the engine.
_EXPORTS = {
    "GroundTruth": "stateful",
    "StateGraph": "cycles",
    "ThreadSpec": "transition_system",
    "TransitionSystem": "transition_system",
    "TransitionSystemInstance": "adapter",
    "TransitionSystemProgram": "adapter",
    "canonicalize": "canonical",
    "cycle_yield_count": "cycles",
    "enumerate_cycles": "cycles",
    "fair_sccs": "cycles",
    "figure3_system": "transition_system",
    "good_samaritan_sccs": "cycles",
    "is_fair_cycle": "cycles",
    "pc_program": "transition_system",
    "random_good_samaritan_system": "random_programs",
    "random_partitioned_system": "random_programs",
    "random_system": "random_programs",
    "signature_hash": "canonical",
    "stateful_search": "stateful",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
