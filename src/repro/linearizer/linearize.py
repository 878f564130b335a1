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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import LinearizationError
from .batches import BatchPlan, plan_batches
from .numbering import assign_ids, check_numbering, execution_order
from .structures import Node, StructureKind, validate


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
    roots: np.ndarray          # (num_roots,) int32
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
    _uf_arrays: Optional[Dict[str, np.ndarray]] = field(default=None,
                                                        repr=False,
                                                        compare=False)

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
        self._uf_arrays = None

    def node_id(self, node: Node) -> int:
        # order is id -> node; the reverse is rebuilt only after
        # invalidate_caches() dropped the builder's map.
        rev = self._rev
        if rev is None:
            rev = self._rev = {id(n): i for i, n in enumerate(self.order)}
        return rev[id(node)]

    def uf_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays backing the uninterpreted functions of the generated code.

        The mapping is cached; a shallow copy is returned so callers may add
        their own entries without corrupting the cache (the arrays themselves
        are shared, as before).
        """
        if self._uf_arrays is None:
            out: Dict[str, np.ndarray] = {
                "num_children": self.num_children,
                "words": self.words,
                "batch_begin": self.batch_begin,
                "batch_length": self.batch_length,
                "roots": self.roots,
            }
            names = ("left", "right", "child2", "child3")
            for k in range(self.max_children):
                row = self.child[k]
                if k < len(names):
                    out[names[k]] = row
                out[f"child{k}"] = row
            # 2-D form backing the two-argument uninterpreted fn child(k, n)
            out["child"] = self.child
            self._uf_arrays = out
        return dict(self._uf_arrays)

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
        id_sets = [np.fromiter((lin.node_id(r) for r in rs),
                               dtype=np.int64, count=len(rs))
                   for rs in sets]
        return lin, id_sets

    def __call__(self, roots: Sequence[Node] | Node, *,
                 stubs: Sequence[Node] = ()) -> Linearized:
        """Linearize ``roots``; ``stubs`` names leaves of the forest that
        get an id and buffer rows but sit in no batch (their rows are
        seeded by the caller; see :mod:`repro.linearizer.numbering`)."""
        if isinstance(roots, Node):
            roots = [roots]
        t0 = time.perf_counter()
        if self.validate_inputs:
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

        words = np.fromiter((nd.word for nd in order), dtype=np.int32,
                            count=n)
        num_children = np.fromiter((len(nd.children) for nd in order),
                                   dtype=np.int32, count=n)
        child = np.full((self.max_children, n), -1, dtype=np.int32)
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

        lengths = np.fromiter((len(b) for b in plan.batches), dtype=np.int32,
                              count=len(plan.batches))
        begins = (n - np.cumsum(lengths, dtype=np.int64)).astype(np.int32)
        if num_stubs:
            begins[plan.leaf_batch_count:] -= num_stubs

        # Leaves occupy the top id block exactly when the trailing
        # ``num_leaves`` ids all have arity zero (height batching).  With
        # every leaf a stub the block is empty and no id passes the check.
        leaf_start: Optional[int] = None
        if (num_leaves or num_stubs) and not num_children[
                n - num_leaves:].any():
            leaf_start = int(n - num_leaves)

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
            roots=np.sort(np.fromiter((ids[id(r)] for r in roots),
                                      dtype=np.int32, count=len(roots))),
            order=order,
            leaf_start=leaf_start,
            _rev=ids,
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
