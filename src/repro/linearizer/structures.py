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
from typing import Container, Iterator, Optional, Sequence

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


_KIND_RANK = {StructureKind.SEQUENCE: 0, StructureKind.TREE: 1,
              StructureKind.DAG: 2}


def _walk(roots: Sequence[Node]) -> tuple[int, StructureKind, int]:
    """The one traversal behind :func:`validate` and :func:`detect_kind`:
    ``(distinct nodes, kind, maximum arity)``, or a raise on a cycle.

    An iterative DFS (deep sequences must not hit the recursion limit)
    colouring nodes gray on entry and black on exit.  An edge into a gray
    node closes a cycle; a second parent edge into a node makes the
    structure a DAG.  Being listed in ``roots`` is not an edge — a root
    stays ``ROOT`` (black, no parent yet) until some edge reaches it.
    """
    GRAY, BLACK, ROOT = 0, 1, 2
    state: dict[int, int] = {}
    shared = False
    max_arity = 0
    for root in roots:
        stack = [] if id(root) in state else [root]
        while stack:
            node = stack.pop()
            st = state.get(id(node))
            if st is None and node.children:
                state[id(node)] = GRAY
                if len(node.children) > max_arity:
                    max_arity = len(node.children)
                stack.append(node)      # popped again, gray: the exit
                for c in node.children:
                    cst = state.get(id(c))
                    if cst is None:
                        stack.append(c)
                    elif cst == GRAY:
                        raise LinearizationError(
                            "input structure contains a cycle")
                    elif cst == ROOT:
                        state[id(c)] = BLACK
                    else:
                        shared = True
            elif st is None or st == GRAY:
                # a leaf, or an exit; only the walk's root empties the stack
                state[id(node)] = BLACK if stack else ROOT
            else:
                shared = True   # pushed under two edges before either ran
    kind = (StructureKind.DAG if shared
            else StructureKind.SEQUENCE if max_arity <= 1
            else StructureKind.TREE)
    return len(state), kind, max_arity


def detect_kind(roots: Sequence[Node]) -> StructureKind:
    """Classify an input structure by inspection.

    SEQUENCE: every node has <=1 child and <=1 parent.
    TREE: every node has exactly one parent (except roots).
    DAG: some node is shared between parents.
    Cycles are rejected.
    """
    return _walk(roots)[1]


def validate(roots: Sequence[Node], kind: StructureKind,
             max_children: int) -> int:
    """Check a runtime input against the compile-time structure declaration.

    This is the runtime verification the paper mentions for the user-supplied
    structure info ("can be easily verified at runtime", §3): one walk,
    refusing a cycle, then a kind beyond the declared one, then an arity
    beyond ``max_children``.  Returns the number of distinct nodes.
    """
    if not roots:
        raise LinearizationError("empty input batch")
    count, actual, max_arity = _walk(roots)
    if _KIND_RANK[actual] > _KIND_RANK[kind]:
        raise LinearizationError(
            f"input is a {actual.value} but the model was compiled for a {kind.value}")
    if max_arity > max_children:
        raise LinearizationError(
            f"node with {max_arity} children exceeds declared "
            f"max_children={max_children}")
    return count
