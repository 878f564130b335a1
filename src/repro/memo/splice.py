"""Splicing cached subtree rows into a coalesced batch plan.

The integration point between the memo cache and the execution stack:
:class:`MemoSplicer` sits where :meth:`Linearizer.coalesce` sits in the
plain serving path, but before building the batch arrays it consults the
cache top-down and *prunes every fully-cached subtree out of the plan*.
Each pruned subtree is replaced by a single **stub node** whose workspace
rows are pre-seeded from the cache; only cache-miss nodes are executed,
and after a successful flush the newly computed interior rows are
scattered back into the cache.

Why splicing is bitwise-safe here (and when it is refused)
----------------------------------------------------------

A Cortex cell reads other nodes' rows only through direct child
indirection on the state/output buffers (``H[child(k, n)]``), and PR 2's
kernel canonicalization made those per-row GEMM results invariant to the
batch extent and row position.  So a cached row seeded at a stub id is
byte-for-byte what the pruned subtree's root row would have been, and
every parent computes bitwise-identically.  Lowering *proves* the
preconditions once per module (:mod:`repro.ilir.splice_safety`), from
its nests — in-process or reloaded, a module has them — and records the
verdict in ``module.meta``; the splicer reads it at construction and
raises :class:`~repro.errors.SpliceRefusedError` on a refusal:

* the model must use dynamic (height) batching;
* no kernel may read through *composed* uninterpreted functions
  (``word(child(k, n))``, ``child(j, child(k, n))`` — unrolled or
  refactored cells inspect grandchildren a stub cannot stand in for);
* every buffer read through child indirection must be in the cached
  (output + state) set;
* pre/hoisted/post kernels — which iterate every node id, stub rows
  included — must not write any cached buffer.

The pruned forest goes through the model's one linearizer like any other
input — ``Linearizer.__call__(roots, stubs=...)`` numbers the stubs into
their own id block and keeps them out of every batch; the layout and why
it keeps the leaf check exact are in :mod:`repro.linearizer.numbering`
("Stub placement").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import MemoVerifyError, SpliceRefusedError
from ..ilir.splice_safety import memo_buffers
from ..linearizer import Linearized, Node
from ..linearizer.linearize import merge_root_sets, split_root_ids
from ..linearizer.structures import iter_nodes
from ..runtime.plan import execute_plan
from . import hashing
from .cache import (DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES, MemoCache,
                    MemoEntry)


@dataclass(frozen=True)
class MemoPolicy:
    """Knobs of the memoization layer (all safe-by-construction).

    ``min_subtree_nodes`` bounds both lookup and insertion: subtrees
    smaller than this are executed inline rather than cached (a bare
    leaf's row costs as much to splice as to compute; it must be >= 2 so
    every stub stands for an interior node and the Appendix-B leaf-block
    invariant survives pruning).  ``verify`` re-executes every memoized
    flush unmemoized and compares bitwise — the poisoned-entry check the
    chaos tests run; expensive, so off by default.  ``insert=False``
    makes a read-only consumer of a shared cache.
    """

    min_subtree_nodes: int = 2
    insert: bool = True
    verify: bool = False
    max_entries: int = DEFAULT_MAX_ENTRIES
    max_bytes: int = DEFAULT_MAX_BYTES

    def __post_init__(self) -> None:
        if self.min_subtree_nodes < 2:
            raise SpliceRefusedError(
                "MemoPolicy.min_subtree_nodes must be >= 2: leaf-sized "
                "entries save no work and would break the leaf id-block "
                "invariant when stubbed")


@dataclass(frozen=True)
class _Insert:
    """One row to scatter back into the cache after a successful flush."""

    key: Hashable
    row: int
    nodes: int


@dataclass
class SpliceResult:
    """One memoized flush's plan: what to execute, seed, scatter, insert.

    The serving path carries it as
    :attr:`repro.serve.coalescer.CoalescedBatch.splice`.
    """

    lin: Linearized
    #: per input root set: node ids of its roots in ``lin``
    root_ids: List[np.ndarray]
    #: buffer name -> (stub id array, stacked cached rows) to pre-seed
    seeds: Dict[str, Tuple[np.ndarray, np.ndarray]]
    inserts: List[_Insert] = field(default_factory=list)
    lookups: int = 0
    hits: int = 0
    total_nodes: int = 0
    executed_nodes: int = 0
    full_hit_requests: int = 0

    @property
    def spliced_nodes(self) -> int:
        return self.total_nodes - self.executed_nodes


# ---------------------------------------------------------------------------
# Splice safety: the verdict lowering recorded


def splice_refusal(model) -> Optional[str]:
    """Why this model cannot splice cached rows — or ``None`` if it can.

    The verdict :func:`repro.ilir.splice_safety.splice_hazard` gave when
    the module was sealed (:func:`repro.ra.lowering.seal`), read from
    ``module.meta``."""
    return model.lowered.module.meta["splice_refusal"]


# ---------------------------------------------------------------------------
# The splicer


class MemoSplicer:
    """Per-model front end: detect cached subtrees, build the pruned plan.

    Construction reads the recorded splice verdict and raises
    :class:`~repro.errors.SpliceRefusedError` when the model's kernels
    cannot provably consume seeded rows — the memoization invariant is
    *bitwise identity or refusal*, never "probably fine".

    One splicer serves one model; the :class:`MemoCache` may be private
    (default) or shared across models (keys embed the model fingerprint).
    Thread-safety matches the server's: ``coalesce``/``commit`` run on
    the flush path (single-threaded), while ``snapshot`` and the metric
    gauges may be read concurrently.
    """

    def __init__(self, model, *, cache: Optional[MemoCache] = None,
                 policy: Optional[MemoPolicy] = None):
        self.policy = policy if policy is not None else MemoPolicy()
        reason = splice_refusal(model)
        if reason is not None:
            raise SpliceRefusedError(
                f"cannot memoize this model: {reason}")
        self.model = model
        self.buffers = memo_buffers(model.lowered.module)
        self.cache = cache if cache is not None else MemoCache(
            self.policy.max_entries, self.policy.max_bytes)
        self.model_key = model.memo_model_key()
        self._lock = threading.Lock()
        self.flushes = 0
        self.requests = 0
        self.full_hit_requests = 0
        self.lookups = 0
        self.hits = 0
        self.total_nodes = 0
        self.executed_nodes = 0

    # -- key plumbing ------------------------------------------------------
    def _key(self, digest: bytes, version: int) -> Hashable:
        return hashing.cache_key(self.model_key, version, digest)

    # -- phase 1: cached-subtree detection ---------------------------------
    def _detect(self, merged: List[Node], version: int):
        """Top-down maximal-cached-subtree search over the merged forest.

        Walks from the roots, consulting the cache at every node big
        enough to be worth caching, and *not descending* into hits — so
        each cached region costs one lookup, and every visited miss node
        is live (outside all cached regions) and insertable after the
        flush.
        """
        policy = self.policy
        hits: Dict[int, MemoEntry] = {}
        misses: List[Node] = []
        lookups = 0
        seen: set = set()
        stack: List[Node] = list(merged)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            digest, size = node._memo
            if size >= policy.min_subtree_nodes:
                lookups += 1
                entry = self.cache.get(self._key(digest, version))
                if entry is not None:
                    hits[id(node)] = entry
                    continue
                misses.append(node)
            stack.extend(node.children)
        return hits, misses, lookups

    # -- phase 2: prune + rebuild ------------------------------------------
    @staticmethod
    def _prune(merged: List[Node], hits: Dict[int, MemoEntry]):
        """Replace every hit subtree with a (digest-shared) stub node.

        Live nodes whose subtree contains no stub are reused as-is —
        their cached digests keep paying off on later requests; only the
        dirty spine above a stub is cloned.
        """
        stub_for: Dict[bytes, Node] = {}
        stub_entry: Dict[bytes, MemoEntry] = {}
        repl: Dict[int, Node] = {}
        for node in iter_nodes(merged, stop=hits):   # live region only
            if id(node) in hits:
                d = node._memo[0]
                stub = stub_for.get(d)
                if stub is None:
                    stub = Node((), -1)
                    stub_for[d] = stub
                    stub_entry[d] = hits[id(node)]
                repl[id(node)] = stub
            else:
                kids = tuple(repl[id(c)] for c in node.children)
                if all(a is b for a, b in zip(kids, node.children)):
                    repl[id(node)] = node
                else:
                    repl[id(node)] = Node(kids, node.word)
        return repl, stub_for, stub_entry

    # -- the coalesce entry point ------------------------------------------
    def coalesce(self, root_sets: Sequence[Union[Sequence[Node], Node]]
                 ) -> SpliceResult:
        """Merge root sets, splice cached subtrees, plan the remainder.

        The memoized counterpart of
        :meth:`repro.linearizer.Linearizer.coalesce`: same forest merge,
        same linearizer, same per-request root-id scatter maps, but the
        returned plan executes only cache-miss nodes and carries the seed
        rows + post-flush insertion records.  Callers run the §3 structure
        check before they get here (``ModelServer.submit``,
        ``MemoSession.run_many``): hashing recurses on the caller's forest,
        and the pruned forest is not the caller's — stubs are shared by
        digest, so a pruned tree may be a DAG.  It therefore linearizes
        with ``check=False``, whose word-range check still runs.
        """
        sets, merged = merge_root_sets(root_sets)
        total_nodes = hashing.annotate(merged)
        version = self.model.params_version

        hits, misses, lookups = self._detect(merged, version)

        if hits:
            repl, stub_for, stub_entry = self._prune(merged, hits)
            _, new_roots = merge_root_sets([[repl[id(r)] for r in merged]])
        else:
            repl, stub_for, stub_entry = {}, {}, {}
            new_roots = merged
        stubs = list(stub_for.values())

        lin = self.model.lowered.linearizer(new_roots, stubs=stubs,
                                            check=False)
        node_id = lin.node_id
        # root ids come from the walk itself: a natively walked plan has
        # no id map, and node_id would build one over the whole forest
        at = dict(zip(map(id, new_roots), lin.input_roots.tolist()))

        root_ids = split_root_ids(
            (at[id(repl.get(id(r), r))] for rs in sets for r in rs), sets)
        stub_ids = {id(s) for s in stubs}
        full_hits = sum(
            1 for rs in sets
            if rs and all(id(repl.get(id(r), r)) in stub_ids for r in rs))

        seeds: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        if stubs:
            digests = list(stub_for)
            idx = np.fromiter((node_id(stub_for[d]) for d in digests),
                              dtype=np.intp, count=len(digests))
            for name in self.buffers:
                stacked = np.stack([stub_entry[d].rows[name]
                                    for d in digests])
                seeds[name] = (idx, stacked)

        inserts: List[_Insert] = []
        if self.policy.insert:
            done = set(stub_for)
            for node in misses:
                digest, size = node._memo
                if digest in done:
                    continue  # duplicate content within this flush
                done.add(digest)
                live = repl.get(id(node), node)
                inserts.append(_Insert(key=self._key(digest, version),
                                       row=node_id(live), nodes=size))

        executed = lin.num_nodes - len(stubs)
        result = SpliceResult(
            lin=lin, root_ids=root_ids, seeds=seeds, inserts=inserts,
            lookups=lookups, hits=len(hits), total_nodes=total_nodes,
            executed_nodes=executed, full_hit_requests=full_hits)
        with self._lock:
            self.flushes += 1
            self.requests += len(sets)
            self.full_hit_requests += full_hits
            self.lookups += lookups
            self.hits += len(hits)
            self.total_nodes += total_nodes
            self.executed_nodes += executed
        return result

    # -- post-flush commit -------------------------------------------------
    def commit(self, result: SpliceResult,
               workspace: Dict[str, np.ndarray]) -> int:
        """Insert the flush's newly computed rows; returns entries added.

        Called only after the flush *succeeded end to end* — an injected
        or genuine fault aborts before this point, so a partial execution
        can never leave poisoned rows behind.
        """
        added = 0
        for rec in result.inserts:
            rows = {name: workspace[name][rec.row] for name in self.buffers}
            if self.cache.put(rec.key,
                              MemoEntry.from_rows(rows, rec.nodes)):
                added += 1
        return added

    # -- verification ------------------------------------------------------
    def verify(self, root_sets: Sequence[Union[Sequence[Node], Node]],
               result: SpliceResult,
               outputs: Sequence[str],
               per_request: Sequence[Dict[str, np.ndarray]]) -> None:
        """Re-execute unmemoized and compare bitwise; raise on mismatch.

        The poisoned-entry check: runs the same root sets through the
        plain coalesce + execute path (fresh workspace, no arena) and
        demands byte equality on every request's every output row.
        Called *before* :meth:`commit`, so a failed verification also
        keeps the offending flush's rows out of the cache.
        """
        model = self.model
        lin, id_sets = model.lowered.linearizer.coalesce(root_sets,
                                                         check=False)
        res = execute_plan(model.plan, lin, model.params)
        for i, (ids_ref, outs) in enumerate(zip(id_sets, per_request)):
            for name in outputs:
                ref = res.workspace[name][ids_ref]
                if not np.array_equal(ref, outs[name],
                                      equal_nan=True):
                    raise MemoVerifyError(
                        f"memoized flush diverged from unmemoized "
                        f"execution: request {i}, buffer {name!r} "
                        f"(hits={result.hits}, "
                        f"spliced={result.spliced_nodes} nodes) — "
                        f"poisoned cache entry or broken splice "
                        f"assumption")

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Cumulative splice accounting plus the cache's own counters."""
        with self._lock:
            lookups, hits = self.lookups, self.hits
            total, executed = self.total_nodes, self.executed_nodes
            out: Dict[str, object] = {
                "flushes": self.flushes,
                "requests": self.requests,
                "full_hit_requests": self.full_hit_requests,
                "lookups": lookups,
                "hits": hits,
                "hit_rate": hits / max(1, lookups),
                "total_nodes": total,
                "executed_nodes": executed,
                "spliced_nodes": total - executed,
                "spliced_fraction": (total - executed) / max(1, total),
            }
        out["cache"] = self.cache.snapshot()
        return out

    def bind_metrics(self, registry) -> None:
        """Callback gauges into the serving registry (one splicer each)."""
        self.cache.bind_metrics(registry)
        registry.gauge("memo_lookups", "subtree cache lookups",
                       fn=lambda: self.lookups)
        registry.gauge("memo_hits", "subtree cache hits",
                       fn=lambda: self.hits)
        registry.gauge("memo_spliced_nodes",
                       "nodes served from cache instead of executed",
                       fn=lambda: self.total_nodes - self.executed_nodes)
        registry.gauge("memo_executed_nodes",
                       "nodes actually executed in memoized flushes",
                       fn=lambda: self.executed_nodes)
        registry.gauge("memo_full_hit_requests",
                       "requests answered entirely from cache",
                       fn=lambda: self.full_hit_requests)
