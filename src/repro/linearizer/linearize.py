"""Data structure linearization (§4.2): pointer structures -> flat arrays.

The linearizer is the runtime half of RA lowering: it traverses the input
linked structure on the host CPU (no tensor computation happens here,
property P.1) and lays it out as the arrays the generated iterative code
indexes through uninterpreted functions:

``child_k`` / ``left`` / ``right``   child-id arrays (-1 padded)
``num_children``                      per-node arity (child-sum models, DAGs)
``words``                             leaf payload (embedding indices)
``batch_begin`` / ``batch_length``    execution batches (Appendix B layout)
``leaf_start``                        the single-comparison leaf check

Linearization wall time is recorded on every call — §7.5 of the paper
reports it as a fraction of total inference latency.

The arrays are views of one int32 block (:func:`block_size`), cut on
first access.  Two walkers fill it: :meth:`Linearizer._build_arrays` here, and —
on ``target="c"``, for stub-free height-batched calls, checked or not —
the ``.so``'s (:func:`repro.runtime.native.load_walker`), held
byte-identical to this one by test and deferring to it on any refusal; a
checked call verifies its block (:func:`check_block`).  A native
launch reads the block by address (:attr:`Linearized.block_address`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import LinearizationError
from .batches import BatchPlan, plan_batches
from .numbering import assign_ids, execution_order
from .structures import Node, StructureKind, validate

#: the arrays of a :class:`Linearized`, in the order its block holds them
_BLOCK_FIELDS = ("child", "num_children", "words", "batch_begin",
                 "batch_length", "roots")
#: the names ``child`` row ``k`` also goes by, for ``k`` < 4
_ROW_ALIASES = ("left", "right", "child2", "child3")


def block_size(mc: int, n: int, levels: int, num_roots: int) -> int:
    """Int32s in the block ``child[mc][n] | num_children[n] | words[n] |
    batch_begin[L] | batch_length[L] | roots[r]``: the one layout both
    walkers fill."""
    return (mc + 2) * n + 2 * levels + num_roots


def _cut(block: np.ndarray, mc: int, n: int,
         levels: int) -> Tuple[np.ndarray, ...]:
    """The six views of ``block``, in :data:`_BLOCK_FIELDS` order."""
    num_roots = len(block) - block_size(mc, n, levels, 0)
    out, at = [], 0
    for size in (mc * n, n, n, levels, levels, num_roots):
        out.append(block[at:at + size])
        at += size
    out[0] = out[0].reshape(mc, n)
    return tuple(out)


def _block_view(k: int, doc: str) -> property:
    def get(self: "Linearized") -> np.ndarray:
        views = self._views
        if views is None:
            views = self._views = _cut(self.block, self.max_children,
                                       self.num_nodes, self.num_batches)
        return views[k]
    return property(get, doc=doc)


@dataclass
class Linearized:
    """The array form of one input batch of recursive structures.

    The six arrays are views of :attr:`block`, cut the first time one is
    read; the scalars are plain fields.
    """

    kind: StructureKind
    max_children: int
    num_nodes: int
    num_leaves: int
    num_batches: int
    leaf_batch_count: int
    order: List[Node]          # node_id -> Node
    leaf_start: Optional[int]  # ids >= leaf_start are leaves; None if mixed
    #: the int32 block (:func:`block_size`'s layout) both walkers fill
    block: np.ndarray
    wall_time_s: float = 0.0
    # Derived caches.  ``order`` and the block are fixed at construction;
    # anyone who mutates them must call invalidate_caches().
    # ``_rev`` (``id(node) -> node id``) starts as the map the builder
    # numbered the nodes with, so per-flush root lookups rebuild nothing.
    _rev: Optional[Dict[int, int]] = field(default=None, repr=False,
                                           compare=False)
    _max_batch_len: Optional[int] = field(default=None, repr=False,
                                          compare=False)
    #: ``input_roots`` when it is not ``roots`` (more than one root)
    _in_order: Optional[np.ndarray] = field(default=None, repr=False,
                                            compare=False)
    #: the block's data address, once known
    _block_at: Optional[int] = field(default=None, repr=False,
                                     compare=False)
    #: the six views of the block, once cut
    _views: Optional[Tuple[np.ndarray, ...]] = field(default=None,
                                                     repr=False,
                                                     compare=False)

    child = _block_view(0, "(max_children, N) int32, -1 padded")
    num_children = _block_view(1, "(N,) int32")
    words = _block_view(2, "(N,) int32, -1 where absent")
    batch_begin = _block_view(3, "(num_batches,) int32")
    batch_length = _block_view(4, "(num_batches,) int32")
    roots = _block_view(5, "(num_roots,) int32, sorted")

    @property
    def block_address(self) -> int:
        """The block's data address (what a native launch is handed)."""
        if self._block_at is None:
            self._block_at = self.block.ctypes.data
        return self._block_at

    @property
    def input_roots(self) -> np.ndarray:
        """Root ids in the caller's order, duplicates kept: the rows
        results read (``roots`` holds them sorted, for the kernels)."""
        return self.roots if self._in_order is None else self._in_order

    @property
    def max_batch_len(self) -> int:
        # Hit by the host plan / cost model on every call; cache the scan.
        # A plan with no batch (every node a stub) executes nothing, but
        # buffer sizing still asks: answer 1.
        if self._max_batch_len is None:
            self._max_batch_len = int(self.batch_length.max(initial=1))
        return self._max_batch_len

    def invalidate_caches(self) -> None:
        """Drop derived caches after in-place edits to the backing arrays."""
        self._rev = None
        self._max_batch_len = None

    def node_id(self, node: Node) -> int:
        # order is id -> node; the reverse is rebuilt only after
        # invalidate_caches() dropped the builder's map.
        rev = self._rev
        if rev is None:
            rev = self._rev = {id(n): i for i, n in enumerate(self.order)}
        return rev[id(node)]

    def uf_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays backing the uninterpreted functions of the generated code
        (a fresh mapping per call; the arrays themselves are shared)."""
        out = dict(num_children=self.num_children, words=self.words,
                   batch_begin=self.batch_begin,
                   batch_length=self.batch_length, roots=self.roots,
                   child=self.child)  # child(k, n), the 2-D form
        for k, row in enumerate(self.child):
            if k < len(_ROW_ALIASES):
                out[_ROW_ALIASES[k]] = row
            out[f"child{k}"] = row
        return out

    def scalar_params(self) -> Dict[str, int]:
        """Scalar bindings consumed by generated kernels."""
        return {
            "num_nodes": self.num_nodes,
            "num_leaves": self.num_leaves,
            "num_batches": self.num_batches,
            "leaf_start": -1 if self.leaf_start is None else self.leaf_start,
            "max_batch_len": self.max_batch_len,
            "leaf_batch_count": self.leaf_batch_count,
        }


#: where each array of a block starts, as :func:`uf_term` gives it
_FIELD_TERMS = dict(zip(_BLOCK_FIELDS, (
    (0, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0), (2, 1, 1, 0),
    (2, 1, 2, 0))))


def uf_term(name: str) -> Optional[Tuple[int, int, int, int]]:
    """Where array ``name`` of :meth:`Linearized.uf_arrays` starts in the
    block: ``(a, b, r, rows)``, for ``4 * ((a + b * max_children) *
    num_nodes + r * num_batches)`` bytes in, on a ``Linearized`` with at
    least ``rows`` child rows; None for a name it never has."""
    term = _FIELD_TERMS.get(name)
    if term is not None:
        return term
    if name in _ROW_ALIASES:
        k = _ROW_ALIASES.index(name)
    elif name.startswith("child") and name[5:].isdigit():
        k = int(name[5:])
    else:
        return None
    return (k, 0, 0, k + 1)


def merge_root_sets(root_sets: Sequence[Sequence[Node] | Node]
                    ) -> Tuple[List[List[Node]], List[Node]]:
    """The forest merge behind every coalesce, plain or memoized.

    Returns the root sets as lists plus their concatenation with each
    root kept once: a root shared between requests enters the forest
    once, like any node shared within a DAG batch.
    """
    if not root_sets:
        raise LinearizationError("coalesce needs at least one root set")
    sets = [[rs] if isinstance(rs, Node) else list(rs) for rs in root_sets]
    merged = list({id(r): r for rs in sets for r in rs}.values())
    return sets, merged


def split_root_ids(ids: Iterable[int], sets: Sequence[Sequence[Node]]
                   ) -> List[np.ndarray]:
    """Each root set's int64 root ids, cut from one array filled in one
    pass over ``ids`` (the sets' roots, concatenated in order)."""
    bounds = [0, *accumulate(map(len, sets))]
    flat = np.fromiter(ids, dtype=np.int64, count=bounds[-1])
    return [flat[a:b] for a, b in pairwise(bounds)]


def check_block(lin: Linearized) -> None:
    """Refuse a stub-free block that breaks an Appendix-B invariant the
    kernels index by (:func:`~repro.linearizer.numbering.check_numbering`'s,
    read off the arrays and scalars, so it holds for either walker)."""
    n, child, arity = lin.num_nodes, lin.child, lin.num_children
    # arities lie in 0..max_children (a negative one is huge as uint32); a
    # node's first ``arity`` slots hold ids between its own and n, the
    # rest -1 (int32 operands spare casts; count_nonzero is the cheapest)
    live = np.arange(lin.max_children, dtype=np.int32)[:, None] < arity
    if int(arity.view(np.uint32).max()) > lin.max_children or (
            np.count_nonzero(np.where(live, (child >= n) | (
                child <= np.arange(n, dtype=np.int32)), child != -1))):
        raise LinearizationError("child ids or arities break the numbering")
    lengths, first = lin.batch_length, lin.leaf_batch_count
    start = lin.leaf_start
    tops = n - lengths.cumsum(dtype=np.int32)
    if (not lengths.size or int(lengths.min()) < 1 or tops[-1] != 0
            or np.count_nonzero(lin.batch_begin != tops)):
        raise LinearizationError("batches do not tile the ids")
    # the leaf batches and the ids from leaf_start up are the leaves
    if (n - np.count_nonzero(arity) != lin.num_leaves
            or (first and start != n - int(lengths[:first].sum()))
            or (start is not None and (start != n - lin.num_leaves
                                       or np.count_nonzero(arity[start:])))):
        raise LinearizationError("leaf_start, num_leaves or the leaf "
                                 "batches misplace the leaves")
    if int(lin.roots.view(np.uint32).max()) >= n:
        raise LinearizationError("a root id lies outside the block")


class Linearizer:
    """Generated-per-model data structure linearizer.

    One linearizer instance corresponds to the traversal code Cortex emits
    during RA lowering for a given model configuration: the structure kind,
    the declared maximum arity, and whether dynamic batching / leaf
    specialization were requested (they change what the traversal collects).
    """

    def __init__(self, kind: StructureKind, max_children: int, *,
                 dynamic_batch: bool = True, specialize_leaves: bool = True,
                 word_limit: Optional[int] = None):
        if max_children < 1:
            raise LinearizationError("max_children must be >= 1")
        self.kind = kind
        self.max_children = max_children
        self.dynamic_batch = dynamic_batch
        self.specialize_leaves = specialize_leaves
        #: declared rows of the smallest table the model gathers through
        #: ``words`` (None: it gathers none).  Every call rejects payloads
        #: at or past it, checked or not — the Python kernels would raise
        #: a bare IndexError and the native ones read out of bounds.
        self.word_limit = word_limit
        #: the walker a loaded native module carries (``(linearizer,
        #: roots) -> Linearized``, or ``None`` for "ask the Python
        #: builder"); see :meth:`use_native`
        self.native = None

    def use_native(self, walker) -> None:
        """Let ``walker`` (:attr:`repro.runtime.native.NativeModule.walker`)
        linearize stub-free calls — only for what it reproduces byte for
        byte: height batching."""
        if self.dynamic_batch:
            self.native = walker

    def coalesce(self, root_sets: Sequence[Sequence[Node] | Node], *,
                 check: bool = True) -> Tuple[Linearized, List[np.ndarray]]:
        """Linearize several independent root sets as one merged forest.

        The serving subsystem's forest-merge entry point: the root sets of
        many queued requests are concatenated and linearized in a single
        pass, so one mega-batch of kernel launches covers all of them.
        Batching is by height across the whole forest, and each node's value
        depends only on its own subtree, so every request's root rows come
        out bit-identical to linearizing and running that request alone.

        Returns the merged :class:`Linearized` plus, per input root set (in
        order), the node ids of its roots — the scatter map a caller uses to
        hand root-row outputs back to the request that contributed them.
        Nodes shared between root sets are visited once, as within a single
        DAG batch.  ``check`` is :meth:`__call__`'s.
        """
        sets, merged = merge_root_sets(root_sets)
        lin = self(merged, check=check)
        at = dict(zip(map(id, merged), lin.input_roots.tolist()))
        return lin, split_root_ids(
            (at[id(r)] for rs in sets for r in rs), sets)

    def __call__(self, roots: Sequence[Node] | Node, *,
                 stubs: Sequence[Node] = (), check: bool = True) -> Linearized:
        """Linearize ``roots``; ``stubs`` names leaves of the forest that
        get an id and buffer rows but sit in no batch (their rows are
        seeded by the caller; see :mod:`repro.linearizer.numbering`).

        A checked call runs :func:`validate` (§3), and :func:`check_block`
        on a block the native walker filled.  ``check=False`` skips both,
        for input checked already; it keeps the word-range check, and
        validates only what a walker refused, so that its error has a
        name.
        """
        if isinstance(roots, Node):
            roots = [roots]
        t0 = time.perf_counter()
        if not len(roots):
            raise LinearizationError("empty input batch")
        walked = self.native is not None and not stubs
        out = self.native(self, roots) if walked else None
        if check or (walked and out is None):
            validate(roots, self.kind, self.max_children)
        if out is None:
            plan = plan_batches(roots, dynamic_batch=self.dynamic_batch,
                                specialize_leaves=self.specialize_leaves,
                                stubs=stubs)
            out = self._build_arrays(roots, plan, assign_ids(plan))
            self._check_words(out)
        elif check:
            check_block(out)
        out.wall_time_s = time.perf_counter() - t0
        return out

    def _check_words(self, lin: Linearized) -> None:
        """Reject payloads the kernels' ``words`` gathers cannot index.

        Every word must lie in ``[-1, word_limit)``; ``-1`` is the
        "absent" marker of interior nodes and stubs, so a live leaf —
        whose row *is* gathered — must also be ``>= 0``: ``Emb[-1]`` is
        the last row on the Python target and an out-of-bounds read on
        the native one.  Runs on every linearization, checked or not:
        three reductions over int32 arrays.
        """
        limit = self.word_limit
        if limit is None:
            return
        words = lin.words
        lo, hi = int(words.min()), int(words.max())
        # stubs sit below leaf_start, so the slice is live leaves only
        leaves = (words[lin.leaf_start:] if lin.leaf_start is not None
                  else words[lin.num_children == 0])
        if lo < -1 or hi >= limit or (leaves.size
                                      and int(leaves.min()) < 0):
            raise LinearizationError(
                f"word index {hi if hi >= limit else lo} is outside the "
                f"model's {limit}-row embedding table")

    # -- internals -------------------------------------------------------------
    def _build_arrays(self, roots: Sequence[Node], plan: BatchPlan,
                      ids: Dict[int, int]) -> Linearized:
        """Array construction over the batch plan (vectorized).

        ``execution_order`` already lists nodes in id order, so per-node
        arrays are bulk ``np.fromiter`` fills instead of per-node indexed
        stores, the child arrays are one fancy-indexed scatter from
        pre-collected id triples, and batch begins fall out of the numbering
        invariant (``begin[i] = total - cumsum(lengths)[i]``) with no
        per-batch ``min()`` scan.  Stubs take the id block under the leaf
        batches, so they shift every other batch down and are arity-zero
        rows that do not count as leaves.
        """
        n = plan.num_nodes
        num_stubs = len(plan.stubs)
        order = execution_order(plan)
        mc, levels = self.max_children, len(plan.batches)
        block = np.empty(block_size(mc, n, levels, len(roots)), np.int32)
        views = _cut(block, mc, n, levels)
        child, num_children, words, begins, lengths, root_ids = views

        try:
            words[:] = np.fromiter((nd.word for nd in order), np.int32, n)
        except (OverflowError, TypeError, ValueError) as e:
            raise LinearizationError(
                f"a node's word is not an int32 index: {e}") from None
        num_children[:] = np.fromiter((len(nd.children) for nd in order),
                                      np.int32, n)
        child.fill(-1)
        rows: List[int] = []
        cols: List[int] = []
        vals: List[int] = []
        for nid, nd in enumerate(order):
            for k, c in enumerate(nd.children):
                rows.append(k)
                cols.append(nid)
                vals.append(ids[id(c)])
        if rows:
            child[np.asarray(rows, dtype=np.intp),
                  np.asarray(cols, dtype=np.intp)] = np.asarray(
                      vals, dtype=np.int32)

        num_leaves = int(np.count_nonzero(num_children == 0)) - num_stubs

        lengths[:] = np.fromiter((len(b) for b in plan.batches), np.int32,
                                 len(plan.batches))
        begins[:] = n - np.cumsum(lengths, dtype=np.int64)
        if num_stubs:
            begins[plan.leaf_batch_count:] -= num_stubs

        # Leaves occupy the top id block exactly when the trailing
        # ``num_leaves`` ids all have arity zero (height batching).  With
        # every leaf a stub the block is empty and no id passes the check.
        leaf_start: Optional[int] = None
        if (num_leaves or num_stubs) and not num_children[
                n - num_leaves:].any():
            leaf_start = int(n - num_leaves)

        root_ids[:] = np.fromiter((ids[id(r)] for r in roots), np.int32,
                                  len(roots))
        in_order = root_ids.copy() if len(roots) > 1 else None
        root_ids.sort()
        return Linearized(
            kind=self.kind,
            max_children=self.max_children,
            num_nodes=n,
            num_leaves=num_leaves,
            num_batches=levels,
            leaf_batch_count=plan.leaf_batch_count,
            order=order,
            leaf_start=leaf_start,
            block=block,
            _rev=ids,
            _in_order=in_order,
            _views=views,
        )


class TreeLinearizer(Linearizer):
    """Linearizer specialized for trees (the paper implements one for trees)."""

    def __init__(self, max_children: int = 2, **kw):
        super().__init__(StructureKind.TREE, max_children, **kw)


class DagLinearizer(Linearizer):
    """Linearizer for DAGs; nodes with multiple parents are visited once."""

    def __init__(self, max_children: int = 4, **kw):
        super().__init__(StructureKind.DAG, max_children, **kw)


class SequenceLinearizer(Linearizer):
    """Linearizer for (batches of) sequences; `left` is the previous step."""

    def __init__(self, **kw):
        super().__init__(StructureKind.SEQUENCE, 1, **kw)
