#!/usr/bin/env python
"""Checking a cache-coherence protocol — and finding a livelock in it
both dynamically and statically.

Section 2 of the paper names coherence protocols as systems "designed to
run forever", made checkable by a harness that bounds the external
requests.  This example checks a snooping MSI protocol:

1. the correct protocol passes a systematic search (single-writer and
   value-coherence invariants hold on every explored state);
2. a "polite" upgrade variant — writers that back off when they see a
   concurrent write intent — livelocks, found by the fair scheduler;
3. the same livelock is found *statically*: the stateful search records
   the state graph, and its fair strongly connected component (`fair_sccs`)
   is a set of states on which every enabled thread keeps being
   scheduled — where the fair infinite executions live.  Fair elementary
   cycles (Theorem 6's witnesses) are only some of those executions: a
   fair run may loop through several cycles, none of them fair alone.

Run:  python examples/cache_coherence.py
"""

from repro import Checker
from repro.statespace import fair_sccs, stateful_search
from repro.workloads.coherence import coherence_program

WRITERS = [[("w", 10)], [("w", 20)]]


def main():
    print("=== correct MSI protocol, systematic search ===")
    result = Checker(coherence_program(), depth_bound=300,
                     preemption_bound=2, max_executions=8000).run()
    print(f"{result.exploration.executions} schedules: "
          f"{'PASS' if result.ok else 'FAIL'}")
    assert result.ok

    print("\n=== polite-upgrade variant (dynamic check) ===")
    result = Checker(coherence_program(WRITERS, bug="upgrade-livelock"),
                     depth_bound=300).run()
    assert not result.ok
    print(f"verdict: {result.livelock.divergence}")

    print("\n=== the same defect, statically ===")
    graph = stateful_search(
        coherence_program(WRITERS, bug="upgrade-livelock"),
        depth_bound=300,
    ).graph
    (component,) = fair_sccs(graph)
    scheduled = sorted({tid for state in component
                        for tid, successor, _ in graph.successors(state)
                        if successor in component})
    print(f"{graph.state_count} states; one fair SCC of {len(component)} "
          f"states, scheduling {', '.join(scheduled)} forever")

    clean = fair_sccs(stateful_search(coherence_program(WRITERS),
                                      depth_bound=300).graph)
    print(f"\ncorrect protocol's graph has {len(clean)} fair SCCs — "
          f"fair-terminating, as the checker concluded dynamically.")
    assert not clean


if __name__ == "__main__":
    main()
