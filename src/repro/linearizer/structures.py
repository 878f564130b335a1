"""Pointer-linked recursive data structures fed to Cortex models.

The paper's runtime starts from "pointer linked recursive data structures
such as sequences, trees or directed acyclic graphs" (Fig. 2, step 5).  This
module defines the in-memory node representation plus validation: the
compiler is told the structure *kind* and the maximum number of children per
node up front (§3, "basic information about the input data structure"), and
the linearizer verifies the claim at runtime.
"""

from __future__ import annotations

import enum
from typing import (Callable, Container, Iterable, Iterator, Optional,
                    Sequence)

from ..errors import LinearizationError


class StructureKind(enum.Enum):
    """The three structure classes Cortex supports (§2)."""

    SEQUENCE = "sequence"
    TREE = "tree"
    DAG = "dag"


class Node:
    """A node of a recursive input structure.

    Attributes:
        children: child nodes, ordered (child 0 is ``left`` for binary trees).
        word: integer payload (vocabulary index for parse-tree leaves, feature
            row for DAG nodes); ``-1`` when absent.
    """

    __slots__ = ("children", "word", "_height", "_memo")

    def __init__(self, children: Sequence["Node"] = (), word: int = -1):
        self.children: tuple[Node, ...] = tuple(children)
        self.word = int(word)
        self._height: Optional[int] = None
        #: (structural digest, subtree node count) cached by repro.memo —
        #: a pure function of the subtree, so it never needs invalidation
        #: as long as nodes stay immutable after construction
        self._memo: Optional[tuple] = None

    # -- convenience ---------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def left(self) -> "Node":
        return self.children[0]

    @property
    def right(self) -> "Node":
        return self.children[1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_leaf:
            return f"Leaf({self.word})"
        return f"Node(arity={len(self.children)})"


def leaf(word: int) -> Node:
    return Node((), word)


def branch(*children: Node, word: int = -1) -> Node:
    return Node(children, word)


def tree_from_nested(spec) -> Node:
    """Build a tree from nested tuples/ints: ``((0, 1), 2)`` etc."""
    if isinstance(spec, Node):
        return spec
    if isinstance(spec, int):
        return leaf(spec)
    return branch(*(tree_from_nested(s) for s in spec))


def sequence(words: Sequence[int]) -> Node:
    """Build a left-recursive chain: node_t has single child node_{t-1}.

    Returns the final node (the "root": last time step).
    """
    if not words:
        raise LinearizationError("sequence needs at least one element")
    node = leaf(words[0])
    for w in words[1:]:
        node = Node((node,), int(w))
    return node


# ---------------------------------------------------------------------------
# Traversal / validation


def iter_nodes(roots: Sequence[Node],
               stop: Container[int] = frozenset()) -> Iterator[Node]:
    """Every distinct node reachable from ``roots`` (post-order, dedup'd).

    A node whose ``id()`` is in ``stop`` is a boundary: yielded, but not
    descended into (the memo splicer stops at cached subtrees).
    """
    seen: set[int] = set()
    # Iterative post-order so deep sequences don't hit the recursion limit.
    for root in roots:
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            nid = id(node)
            if nid in seen:
                continue
            if expanded:
                seen.add(nid)
                yield node
            else:
                stack.append((node, True))
                if nid not in stop:
                    for c in reversed(node.children):
                        if id(c) not in seen:
                            stack.append((c, False))


def count_nodes(roots: Sequence[Node]) -> int:
    return sum(1 for _ in iter_nodes(roots))


def node_heights(roots: Sequence[Node]) -> dict[int, int]:
    """height(n) = 0 for leaves else 1 + max(child heights); keyed by id()."""
    heights: dict[int, int] = {}
    for node in iter_nodes(roots):  # post-order: children first
        if node.is_leaf:
            heights[id(node)] = 0
        else:
            heights[id(node)] = 1 + max(heights[id(c)] for c in node.children)
    return heights


def detect_kind(roots: Sequence[Node]) -> StructureKind:
    """Classify an input structure by inspection.

    SEQUENCE: every node has <=1 child and <=1 parent.
    TREE: every node has exactly one parent (except roots).
    DAG: some node is shared between parents.
    Cycles are rejected.
    """
    _check_acyclic(roots)
    parents: dict[int, int] = {}
    max_arity = 0
    for node in iter_nodes(roots):
        max_arity = max(max_arity, len(node.children))
        for c in node.children:
            parents[id(c)] = parents.get(id(c), 0) + 1
    if any(v > 1 for v in parents.values()):
        return StructureKind.DAG
    if max_arity <= 1:
        return StructureKind.SEQUENCE
    return StructureKind.TREE


def _check_acyclic(roots: Sequence[Node]) -> None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    for root in roots:
        stack: list[tuple[Node, int]] = [(root, 0)]
        while stack:
            node, ci = stack[-1]
            if ci == 0:
                if color.get(id(node), WHITE) == GRAY:
                    raise LinearizationError("input structure contains a cycle")
                if color.get(id(node), WHITE) == BLACK:
                    stack.pop()
                    continue
                color[id(node)] = GRAY
            if ci < len(node.children):
                stack[-1] = (node, ci + 1)
                child = node.children[ci]
                if color.get(id(child), WHITE) == GRAY:
                    raise LinearizationError("input structure contains a cycle")
                if color.get(id(child), WHITE) == WHITE:
                    stack.append((child, 0))
            else:
                color[id(node)] = BLACK
                stack.pop()


def validate(roots: Sequence[Node], kind: StructureKind, max_children: int) -> None:
    """Check a runtime input against the compile-time structure declaration.

    This is the runtime verification the paper mentions for the user-supplied
    structure info ("can be easily verified at runtime", §3).
    """
    if not roots:
        raise LinearizationError("empty input batch")
    actual = detect_kind(roots)
    order = {StructureKind.SEQUENCE: 0, StructureKind.TREE: 1, StructureKind.DAG: 2}
    if order[actual] > order[kind]:
        raise LinearizationError(
            f"input is a {actual.value} but the model was compiled for a {kind.value}")
    for node in iter_nodes(roots):
        if len(node.children) > max_children:
            raise LinearizationError(
                f"node with {len(node.children)} children exceeds declared "
                f"max_children={max_children}")
