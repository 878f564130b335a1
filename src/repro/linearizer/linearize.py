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

The arrays are views of one int32 block (:func:`_carve`).  Two walkers
fill it: :meth:`Linearizer._build_arrays` here, and — on ``target="c"``,
for the unchecked clone's stub-free height-batched calls — the one the
module's ``.so`` carries (:func:`repro.runtime.native.load_walker`), held
byte-identical to this one by test and deferring to it on any refusal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import LinearizationError
from .batches import BatchPlan, plan_batches
from .numbering import assign_ids, check_numbering, execution_order
from .structures import Node, StructureKind, validate


class Workspace(dict):
    """Buffer name -> array, as the kernels take it.  ``addr`` maps the
    names whose data address the host already knows — views of the
    linearizer's block, of the call's slab — to ``(array, address)``; a
    native launch uses an entry only for the very array it names."""

    __slots__ = ("addr",)


#: the arrays of a :class:`Linearized`, in the order its block holds them
_BLOCK_FIELDS = ("child", "num_children", "words", "batch_begin",
                 "batch_length", "roots")


def _carve(mc: int, n: int, levels: int, num_roots: int) -> List[np.ndarray]:
    """One uninitialised int32 block ``child[mc][n] | num_children[n] |
    words[n] | batch_begin[L] | batch_length[L] | roots[r]``: the block,
    then its six views — the one layout both walkers fill."""
    cuts = [mc * n, n, n, levels, levels, num_roots]
    block = np.empty(sum(cuts), dtype=np.int32)
    out, at = [block], 0
    for size in cuts:
        out.append(block[at:at + size])
        at += size
    out[1] = out[1].reshape(mc, n)
    return out


@dataclass
class Linearized:
    """The array form of one input batch of recursive structures."""

    kind: StructureKind
    max_children: int
    num_nodes: int
    num_leaves: int
    child: np.ndarray          # (max_children, N) int32, -1 padded
    num_children: np.ndarray   # (N,) int32
    words: np.ndarray          # (N,) int32, -1 where absent
    batch_begin: np.ndarray    # (num_batches,) int32
    batch_length: np.ndarray   # (num_batches,) int32
    leaf_batch_count: int
    roots: np.ndarray          # (num_roots,) int32, sorted
    order: List[Node]          # node_id -> Node
    leaf_start: Optional[int]  # ids >= leaf_start are leaves; None if mixed
    wall_time_s: float = 0.0
    # Derived caches.  ``order``/``batch_length``/``child`` are fixed at
    # construction; anyone who mutates them must call invalidate_caches().
    # ``_rev`` (``id(node) -> node id``) starts as the map the builder
    # numbered the nodes with, so per-flush root lookups rebuild nothing.
    _rev: Optional[Dict[int, int]] = field(default=None, repr=False,
                                           compare=False)
    _max_batch_len: Optional[int] = field(default=None, repr=False,
                                          compare=False)
    #: what :func:`_carve` returned: the int32 block, then the six views
    #: of it the array fields above started as
    _carved: Optional[List[np.ndarray]] = field(default=None, repr=False,
                                                compare=False)
    #: ``input_roots`` when it is not ``roots`` (more than one root)
    _in_order: Optional[np.ndarray] = field(default=None, repr=False,
                                            compare=False)

    @property
    def input_roots(self) -> np.ndarray:
        """Root ids in the caller's order, duplicates kept: the rows
        results read (``roots`` holds them sorted, for the kernels)."""
        return self.roots if self._in_order is None else self._in_order

    @property
    def num_batches(self) -> int:
        return len(self.batch_begin)

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

    def uf_arrays(self, addresses: bool = False) -> Workspace:
        """Arrays backing the uninterpreted functions of the generated code
        (a fresh mapping per call; the arrays themselves are shared).

        With ``addresses``, ``.addr`` pairs each carved view with its data
        address: the block's one address plus the bytes before the view.
        """
        out = Workspace(num_children=self.num_children, words=self.words,
                        batch_begin=self.batch_begin,
                        batch_length=self.batch_length, roots=self.roots,
                        child=self.child)  # child(k, n), the 2-D form
        addr = out.addr = {}
        row_at = None  # where child's rows start, when that is known
        if addresses and self._carved is not None:
            block, *views = self._carved
            at = block.ctypes.data
            if self.child is views[0]:
                row_at = at
            for name, view in zip(_BLOCK_FIELDS, views):
                addr[name] = (view, at)
                at += view.nbytes
        names = ("left", "right", "child2", "child3")
        for k, row in enumerate(self.child):
            if k < len(names):
                out[names[k]] = row
            out[f"child{k}"] = row
            if row_at is not None:
                addr[f"child{k}"] = (row, row_at + k * row.nbytes)
                if k < len(names):
                    addr[names[k]] = addr[f"child{k}"]
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


class Linearizer:
    """Generated-per-model data structure linearizer.

    One linearizer instance corresponds to the traversal code Cortex emits
    during RA lowering for a given model configuration: the structure kind,
    the declared maximum arity, and whether dynamic batching / leaf
    specialization were requested (they change what the traversal collects).
    """

    def __init__(self, kind: StructureKind, max_children: int, *,
                 dynamic_batch: bool = True, specialize_leaves: bool = True,
                 validate_inputs: bool = True, check: bool = True,
                 word_limit: Optional[int] = None):
        if max_children < 1:
            raise LinearizationError("max_children must be >= 1")
        self.kind = kind
        self.max_children = max_children
        self.dynamic_batch = dynamic_batch
        self.specialize_leaves = specialize_leaves
        self.validate_inputs = validate_inputs
        #: declared rows of the smallest table the model gathers through
        #: ``words`` (None: it gathers none).  Every call rejects payloads
        #: at or past it, ``validate_inputs`` or not — the Python kernels
        #: would raise a bare IndexError and the native ones read out of
        #: bounds.
        self.word_limit = word_limit
        #: re-verify the Appendix-B numbering invariants on every call.  The
        #: plan-based fast path turns this off after the first call: the
        #: invariants are properties of assign_ids, not of the input.
        self.check = check
        #: the walker a loaded native module carries (``(linearizer,
        #: roots) -> Linearized``, or ``None`` for "ask the Python
        #: builder"); see :meth:`use_native`
        self.native = None

    def use_native(self, walker) -> None:
        """Let ``walker`` (:attr:`repro.runtime.native.NativeModule.walker`)
        linearize stub-free calls — only for what it reproduces byte for
        byte: height batching with the per-call checks off."""
        if (self.dynamic_batch and not self.check
                and not self.validate_inputs):
            self.native = walker

    def fast_clone(self) -> "Linearizer":
        """A linearizer with identical layout but runtime checks disabled.

        Produces bit-identical ``Linearized`` outputs; only structure
        validation and numbering re-verification are skipped (§3: structure
        claims "can be easily verified at runtime" — the fast path amortizes
        that check over a stream of calls instead of paying it per call).
        The ``word_limit`` range check is not a structure claim but a bounds
        check on outside input guarding the kernels' gathers, so the clone
        keeps it.
        """
        return Linearizer(self.kind, self.max_children,
                          dynamic_batch=self.dynamic_batch,
                          specialize_leaves=self.specialize_leaves,
                          validate_inputs=False, check=False,
                          word_limit=self.word_limit)

    def coalesce(self, root_sets: Sequence[Sequence[Node] | Node]
                 ) -> Tuple[Linearized, List[np.ndarray]]:
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
        DAG batch.
        """
        sets, merged = merge_root_sets(root_sets)
        lin = self(merged)
        at = dict(zip(map(id, merged), lin.input_roots.tolist()))
        return lin, split_root_ids(
            (at[id(r)] for rs in sets for r in rs), sets)

    def __call__(self, roots: Sequence[Node] | Node, *,
                 stubs: Sequence[Node] = ()) -> Linearized:
        """Linearize ``roots``; ``stubs`` names leaves of the forest that
        get an id and buffer rows but sit in no batch (their rows are
        seeded by the caller; see :mod:`repro.linearizer.numbering`)."""
        if isinstance(roots, Node):
            roots = [roots]
        t0 = time.perf_counter()
        if not len(roots):
            raise LinearizationError("empty input batch")
        walked = self.native is not None and not stubs
        out = self.native(self, roots) if walked else None
        if out is None:
            # a walker's refusal is re-run checked: what it balked at (a
            # cycle, over-arity) gets its name here, not an endless walk
            if self.validate_inputs or walked:
                validate(roots, self.kind, self.max_children)
            plan = plan_batches(roots, dynamic_batch=self.dynamic_batch,
                                specialize_leaves=self.specialize_leaves,
                                stubs=stubs)
            ids = assign_ids(plan)
            if self.check:
                check_numbering(plan, ids)
            out = self._build_arrays(roots, plan, ids)
            self._check_words(out)
        out.wall_time_s = time.perf_counter() - t0
        return out

    def _check_words(self, lin: Linearized) -> None:
        """Reject payloads the kernels' ``words`` gathers cannot index.

        Every word must lie in ``[-1, word_limit)``; ``-1`` is the
        "absent" marker of interior nodes and stubs, so a live leaf —
        whose row *is* gathered — must also be ``>= 0``: ``Emb[-1]`` is
        the last row on the Python target and an out-of-bounds read on
        the native one.  Runs on every linearization, whatever the
        validation setting: three reductions over int32 arrays.
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
        carved = _carve(self.max_children, n, len(plan.batches), len(roots))
        _, child, num_children, words, begins, lengths, root_ids = carved

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
            child=child,
            num_children=num_children,
            words=words,
            batch_begin=begins,
            batch_length=lengths,
            leaf_batch_count=plan.leaf_batch_count,
            roots=root_ids,
            order=order,
            leaf_start=leaf_start,
            _rev=ids,
            _carved=carved,
            _in_order=in_order,
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
