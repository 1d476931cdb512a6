"""Decision-tree cost profiler: which subtree burns the time?

Stateless search spends its wall clock *somewhere* in the choice tree,
but the phase timers only say *what kind* of work was done (policy,
execute, hash, ...), not *where*.  The :class:`DecisionProfiler`
attributes :func:`time.perf_counter` time and transition counts to
decision-sequence prefixes: every executor inner-loop iteration adds its
elapsed time to the node addressed by the decisions made so far, so
after a search the tree holds, for each explored prefix, the seconds the
engine spent extending exactly that prefix.

Attribution is sampling-free and exact — the executor calls
:meth:`add_step` once per transition with the iteration's measured
duration, and once per execution with the set-up and the transitions a
snapshot restore carried — and costs nothing when disabled: the
executor guards every profiler touch with a single ``profiler is not
None`` check (the same nil-guard discipline the observer uses).

The export format is folded stacks (one ``frame;frame;... value`` line
per node, value in integer microseconds of *self* time), the lingua
franca of flamegraph.pl and speedscope::

    profiler = DecisionProfiler()
    observer = Observer(profiler=profiler)
    Checker(program, observer=observer).run()
    Path("profile.folded").write_text(profiler.to_folded())
    # flamegraph.pl profile.folded > profile.svg   (or open in speedscope)

Frames are decision indices (``root;0;1;0;...``), so a wide frame at
depth *d* reads as "the subtree after taking these *d* alternatives is
where the search lives".  Memory is bounded two ways: ``max_depth``
collapses everything below a depth cap into the cap node, and
``max_nodes`` stops growing the tree (further time accumulates in the
deepest existing node, and :attr:`truncated` counts the overflow).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

#: Collapse attribution below this prefix depth by default.  Deep fair
#: searches run to depth bounds in the thousands; frames that deep are
#: unreadable in a flamegraph and cost a node each.
DEFAULT_MAX_DEPTH = 64

#: Stop allocating nodes past this count (overflow accumulates in the
#: deepest existing ancestor).
DEFAULT_MAX_NODES = 200_000


class DecisionNode:
    """One decision-sequence prefix: accumulated self cost + children."""

    __slots__ = ("children", "seconds", "steps", "executions", "depth")

    def __init__(self, depth: int) -> None:
        self.children: Dict[int, "DecisionNode"] = {}
        self.seconds = 0.0
        self.steps = 0
        self.executions = 0
        self.depth = depth

    def subtree_seconds(self) -> float:
        """Self seconds plus every descendant's (flamegraph width)."""
        total = self.seconds
        for child in self.children.values():
            total += child.subtree_seconds()
        return total

    def __repr__(self) -> str:
        return (f"<DecisionNode depth={self.depth} seconds={self.seconds:.6f}"
                f" steps={self.steps} children={len(self.children)}>")


class DecisionProfiler:
    """Accumulates executor time into a tree of decision prefixes.

    The executor drives the profiler through four calls (see
    ``repro/engine/executor.py``):

    * :meth:`enter` at execution start — descend to the node of the
      already-recorded prefix (empty for a fresh execution, the restored
      decisions after a snapshot fast-forward), which :meth:`add_step`
      charges the set-up and the restored transitions;
    * :meth:`descend` after every recorded decision — move the cursor
      one level down;
    * :meth:`add_step` after every transition — attribute the
      iteration's measured seconds to the cursor node;
    * :meth:`finish_execution` when the execution ends — attribute the
      terminal remainder (classification, teardown) and count the
      execution.
    """

    def __init__(self, *, max_depth: int = DEFAULT_MAX_DEPTH,
                 max_nodes: int = DEFAULT_MAX_NODES) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        if max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        self.max_depth = max_depth
        self.max_nodes = max_nodes
        self.root = DecisionNode(0)
        self.nodes = 1
        #: Descents that could not allocate a node (depth or node cap).
        self.truncated = 0
        self.executions = 0

    # ------------------------------------------------------------------
    # executor-facing hot path
    # ------------------------------------------------------------------
    def enter(self, prefix) -> DecisionNode:
        """Cursor for an execution that already recorded ``prefix``."""
        node = self.root
        for index in prefix:
            node = self.descend(node, index)
        return node

    def descend(self, node: DecisionNode, index: int) -> DecisionNode:
        """The child of ``node`` for decision alternative ``index``."""
        if node.depth >= self.max_depth:
            self.truncated += 1
            return node
        child = node.children.get(index)
        if child is None:
            if self.nodes >= self.max_nodes:
                self.truncated += 1
                return node
            child = node.children[index] = DecisionNode(node.depth + 1)
            self.nodes += 1
        return child

    def add_step(self, node: DecisionNode, seconds: float,
                 steps: int = 1) -> None:
        """Attribute one transition's measured duration to ``node`` (or,
        at execution start, the set-up and the ``steps`` transitions a
        snapshot restore carried)."""
        node.seconds += seconds
        node.steps += steps

    def finish_execution(self, node: DecisionNode, seconds: float) -> None:
        """Attribute the terminal remainder and count the execution."""
        node.seconds += seconds
        node.executions += 1
        self.executions += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return self.root.subtree_seconds()

    def walk(self) -> Iterator[Tuple[Tuple[int, ...], DecisionNode]]:
        """Yield ``(prefix, node)`` pairs in depth-first prefix order."""
        stack: List[Tuple[Tuple[int, ...], DecisionNode]] = [((), self.root)]
        while stack:
            prefix, node = stack.pop()
            yield prefix, node
            for index in sorted(node.children, reverse=True):
                stack.append((prefix + (index,), node.children[index]))

    def to_folded(self, *, min_self_micros: int = 1) -> str:
        """Folded-stack text: ``root;i0;i1;... <self-microseconds>``.

        One line per node whose self time rounds to at least
        ``min_self_micros`` microseconds; flamegraph.pl and speedscope
        both sum descendants into ancestors, so self time is the right
        per-line value.
        """
        lines: List[str] = []
        for prefix, node in self.walk():
            micros = int(round(node.seconds * 1e6))
            if micros < min_self_micros:
                continue
            frames = ";".join(["root"] + [str(i) for i in prefix])
            lines.append(f"{frames} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (tree flattened to prefix keys)."""
        nodes = {}
        for prefix, node in self.walk():
            nodes[";".join(str(i) for i in prefix) or "root"] = {
                "seconds": node.seconds,
                "steps": node.steps,
                "executions": node.executions,
            }
        return {
            "total_seconds": self.total_seconds,
            "nodes": self.nodes,
            "truncated": self.truncated,
            "executions": self.executions,
            "max_depth": self.max_depth,
            "tree": nodes,
        }

    def hottest(self, count: int = 10) -> List[Tuple[Tuple[int, ...], float]]:
        """The ``count`` prefixes with the largest subtree time, deepest
        first among ties — a quick textual answer to "which subtree burns
        the time" without leaving the terminal."""
        ranked = sorted(
            ((prefix, node.subtree_seconds()) for prefix, node in self.walk()),
            key=lambda item: (-item[1], -len(item[0])),
        )
        return ranked[:count]

    def __repr__(self) -> str:
        return (f"<DecisionProfiler nodes={self.nodes} "
                f"total={self.total_seconds:.4f}s "
                f"executions={self.executions}>")
