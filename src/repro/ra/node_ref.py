"""Node references inside ``compute`` bodies: ``n.left``, ``isleaf(n)``...

In the RA, the first axis of a recursive tensor ranges over data structure
nodes.  The lambda passed to ``compute`` receives a :class:`NodeVar` for
that axis, whose accessors produce *uninterpreted function* calls — the
compiler never interprets them; at runtime they are backed by the arrays the
linearizer produces (``left``, ``right``, ``child{k}``, ``words``,
``num_children``).
"""

from __future__ import annotations

from typing import Dict

from ..errors import IRError
from ..ir import (Expr, UFCall, UninterpretedFunction, Var, boolean, int32)
from .tensor import NUM_NODES, VOCAB_SIZE

#: Maximum arity the accessor factory supports (grid DAGs use up to 3).
MAX_SUPPORTED_CHILDREN = 8

_CHILD_NAMES = {0: "left", 1: "right"}


class StructureAccess:
    """Factory of per-program uninterpreted functions over the structure.

    A single instance is owned by each :class:`~repro.ra.ops.Program`, so the
    same UF objects (and hence the same structural keys) are shared by all
    expressions of one model.
    """

    def __init__(self, max_children: int = MAX_SUPPORTED_CHILDREN) -> None:
        self._child: Dict[int, UninterpretedFunction] = {}
        self.max_children = max_children
        self.words = UninterpretedFunction(
            "words", 1, range=(0, VOCAB_SIZE),
            doc="leaf payload: vocabulary index of node's word")
        self.num_children = UninterpretedFunction(
            "num_children", 1, range=(0, max_children + 1),
            doc="arity of a node (0 for leaves)")
        self.isleaf = UninterpretedFunction(
            "isleaf", 1, dtype=boolean,
            doc="leaf predicate; lowered to `n >= leaf_start` (App. B)")
        self.batch_begin = UninterpretedFunction(
            "batch_begin", 1, range=(0, NUM_NODES), monotonic="dec",
            doc="first node id of execution batch b")
        self.batch_length = UninterpretedFunction(
            "batch_length", 1, range=(1, NUM_NODES + 1),
            doc="number of nodes in execution batch b")
        #: two-argument child accessor child(k, n) for child-sum reductions;
        #: the declared range holds for the valid slots k < num_children(n)
        #: (invalid slots are -1 and must be masked by the consumer).
        self.child_any = UninterpretedFunction(
            "child", 2, range=(0, NUM_NODES),
            doc="id of child k of node n; -1 padded beyond num_children(n)")

    def child(self, k: int) -> UninterpretedFunction:
        """The UF mapping a node to its k-th child id (range: node ids)."""
        if not 0 <= k < MAX_SUPPORTED_CHILDREN:
            raise IRError(f"child index {k} out of supported range")
        fn = self._child.get(k)
        if fn is None:
            name = _CHILD_NAMES.get(k, f"child{k}")
            fn = UninterpretedFunction(
                name, 1, range=(0, NUM_NODES), injective=True,
                doc=f"id of child {k}; parents numbered below children")
            self._child[k] = fn
        return fn

    def by_name(self) -> Dict[str, UninterpretedFunction]:
        """Every function this factory makes, by name (how a module
        decoded from an artifact resolves its ``UFCall``s)."""
        fns = [self.words, self.num_children, self.isleaf, self.batch_begin,
               self.batch_length, self.child_any,
               *map(self.child, range(MAX_SUPPORTED_CHILDREN))]
        return {fn.name: fn for fn in fns}

    @property
    def left(self) -> UninterpretedFunction:
        return self.child(0)

    @property
    def right(self) -> UninterpretedFunction:
        return self.child(1)


class NodeVar(Var):
    """The node-axis loop variable, with data-structure accessors.

    Mirrors the paper's ``n.left`` / ``n.right`` notation (Listing 1) while
    desugaring to uninterpreted function calls ``left(n)`` etc.
    """

    __slots__ = ("access",)

    def __init__(self, name: str, access: StructureAccess):
        super().__init__(name, int32)
        self.access = access

    @property
    def left(self) -> UFCall:
        return self.access.left(self)

    @property
    def right(self) -> UFCall:
        return self.access.right(self)

    def child(self, k: int) -> UFCall:
        return self.access.child(k)(self)

    def child_at(self, k: Expr) -> UFCall:
        """Child accessor with a symbolic slot (child-sum reductions)."""
        return self.access.child_any(k, self)

    @property
    def word(self) -> UFCall:
        return self.access.words(self)

    @property
    def arity(self) -> UFCall:
        return self.access.num_children(self)

    @property
    def is_leaf(self) -> UFCall:
        return self.access.isleaf(self)


def isleaf(n: Expr) -> Expr:
    """Paper-style free-function spelling of the leaf check."""
    if isinstance(n, NodeVar):
        return n.is_leaf
    raise IRError("isleaf() expects the node variable of a recursive compute")
