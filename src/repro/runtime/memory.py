"""Workspace memory: the buffer arena and peak-memory accounting (§7.6).

Two concerns live here:

* :class:`WorkspaceArena` — shape/dtype-keyed buffer pooling for the
  plan-based execution path.  Repeated inference calls with same-sized
  inputs reuse workspace arrays instead of allocating fresh zero-filled
  ones; only buffers whose plan marks ``needs_zero`` (see
  :func:`repro.ilir.zero_fill.zero_required`) are re-zeroed on reuse.  Pools
  are grouped into ``(num_nodes, max_batch_len)`` size buckets with LRU
  eviction so a long-running server with varied input sizes keeps a bounded
  working set.

* :func:`measure_memory` — peak device memory accounting (Fig. 12).
  Cortex's inference-oriented design shows up in memory as well as time:
  with maximal fusion, intermediates live in on-chip scratchpads
  (dense-indexed per Fig. 5) and never occupy DRAM, so peak device memory
  is parameters + the recursion state + the linearizer's index arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..ilir.module import ILModule
from ..linearizer import Linearized
from .costmodel import _buffer_elems


# ---------------------------------------------------------------------------
# workspace arena


def size_bucket(num_nodes: int, max_batch_len: int) -> Tuple[int, int]:
    """Bucket key for one linearized input: dims rounded up to powers of 2.

    Inputs in the same bucket have similar workspace footprints; the arena
    tracks bucket recency so pools for input sizes no longer being served
    are evicted first.
    """
    def up(x: int) -> int:
        return 1 << max(0, int(x - 1).bit_length())

    return (up(int(num_nodes)), up(int(max_batch_len)))


@dataclass
class ArenaStats:
    """Counters exposed for tests and benchmark reporting."""

    hits: int = 0
    misses: int = 0
    zero_fills: int = 0
    evicted_arrays: int = 0
    evicted_buckets: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, float]:
        """The counters as one flat dict (metrics / monitoring surface)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "zero_fills": self.zero_fills,
            "evicted_arrays": self.evicted_arrays,
            "evicted_buckets": self.evicted_buckets,
        }


class WorkspaceArena:
    """Pool of workspace arrays keyed by exact ``(shape, dtype)``.

    ``acquire`` returns a pooled array when one matches (zero-filled only if
    the caller says the buffer semantically requires it) and falls back to
    a fresh ``np.zeros`` otherwise, so first-use behavior is identical to
    the non-pooled path.  ``release`` returns arrays for reuse; the caller
    must no longer read them afterwards (the streaming API copies outputs
    out first).

    Not thread-safe; use one arena per serving thread.
    """

    def __init__(self, max_arrays_per_key: int = 8, max_buckets: int = 16):
        self.max_arrays_per_key = max_arrays_per_key
        self.max_buckets = max_buckets
        self._pools: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        #: bucket -> pool keys last associated with it, in LRU order
        self._buckets: "OrderedDict[Tuple[int, int], set]" = OrderedDict()
        self._current_bucket: Optional[Tuple[int, int]] = None
        self.stats = ArenaStats()

    # -- bucket bookkeeping ------------------------------------------------
    def note_bucket(self, bucket: Tuple[int, int]) -> None:
        """Mark the size bucket the next acquires belong to (LRU touch)."""
        if bucket in self._buckets:
            self._buckets.move_to_end(bucket)
        else:
            self._buckets[bucket] = set()
            while len(self._buckets) > self.max_buckets:
                _, keys = self._buckets.popitem(last=False)
                self.stats.evicted_buckets += 1
                for key in keys:
                    dropped = self._pools.pop(key, None)
                    if dropped:
                        self.stats.evicted_arrays += len(dropped)
        self._current_bucket = bucket

    def note_linearized(self, lin: Linearized) -> None:
        self.note_bucket(size_bucket(lin.num_nodes, lin.max_batch_len))

    # -- acquire / release -------------------------------------------------
    def acquire(self, shape: Tuple[int, ...], dtype,
                *, zero: bool = True) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype).str)
        pool = self._pools.get(key)
        if pool:
            arr = pool.pop()
            self.stats.hits += 1
            if zero:
                arr.fill(0)
                self.stats.zero_fills += 1
            return arr
        self.stats.misses += 1
        if self._current_bucket is not None:
            self._buckets[self._current_bucket].add(key)
        return np.zeros(shape, dtype=dtype)

    def release(self, arr: np.ndarray) -> None:
        key = (tuple(arr.shape), arr.dtype.str)
        pool = self._pools.setdefault(key, [])
        if len(pool) < self.max_arrays_per_key:
            pool.append(arr)
            if self._current_bucket is not None:
                self._buckets[self._current_bucket].add(key)
        else:
            self.stats.evicted_arrays += 1

    def release_many(self, arrays) -> None:
        for arr in arrays:
            self.release(arr)

    def clear(self) -> None:
        self._pools.clear()
        self._buckets.clear()
        self._current_bucket = None

    @property
    def pooled_bytes(self) -> int:
        return sum(a.nbytes for pool in self._pools.values() for a in pool)

    def bind_metrics(self, registry) -> "WorkspaceArena":
        """Report pool health into an :class:`~repro.obs.MetricsRegistry`.

        Registers callback gauges that read the arena live at scrape
        time — including through a wholesale ``arena.stats``
        replacement, since the callbacks dereference ``self.stats``
        fresh on every read.  The registered names are per-registry
        singletons; bind one arena per registry (the model server binds
        its own arena into its own registry).
        """
        registry.gauge("arena_hits", "pooled-buffer reuse hits",
                       fn=lambda: self.stats.hits)
        registry.gauge("arena_misses", "pool misses (fresh allocations)",
                       fn=lambda: self.stats.misses)
        registry.gauge("arena_hit_rate", "hits / (hits + misses)",
                       fn=lambda: self.stats.hit_rate)
        registry.gauge("arena_zero_fills",
                       "reused buffers re-zeroed (needs_zero analysis)",
                       fn=lambda: self.stats.zero_fills)
        registry.gauge("arena_evicted_arrays", "arrays dropped from pools",
                       fn=lambda: self.stats.evicted_arrays)
        registry.gauge("arena_evicted_buckets",
                       "LRU size buckets evicted whole",
                       fn=lambda: self.stats.evicted_buckets)
        registry.gauge("arena_pooled_bytes", "bytes parked in the pools",
                       fn=lambda: self.pooled_bytes)
        registry.gauge("arena_pooled_arrays", "arrays parked in the pools",
                       fn=lambda: sum(len(p) for p in self._pools.values()))
        registry.gauge("arena_buckets", "live size buckets",
                       fn=lambda: len(self._buckets))
        return self

    def snapshot(self) -> Dict[str, float]:
        """Stats counters plus the current pool footprint, as one dict.

        This is what the serving metrics report as the ``arena`` section;
        it is cheap enough to call per metrics scrape.
        """
        out = self.stats.snapshot()
        out["pooled_bytes"] = self.pooled_bytes
        out["pooled_arrays"] = sum(len(p) for p in self._pools.values())
        out["buckets"] = len(self._buckets)
        return out


# ---------------------------------------------------------------------------
# peak memory accounting


@dataclass
class MemoryReport:
    params_bytes: float = 0.0
    state_bytes: float = 0.0
    intermediates_bytes: float = 0.0
    index_arrays_bytes: float = 0.0
    onchip_bytes: float = 0.0  # not counted toward device DRAM

    @property
    def peak_bytes(self) -> float:
        return (self.params_bytes + self.state_bytes
                + self.intermediates_bytes + self.index_arrays_bytes)

    @property
    def peak_kb(self) -> float:
        return self.peak_bytes / 1e3


def measure_memory(module: ILModule, lin: Linearized) -> MemoryReport:
    bindings = {
        "num_nodes": float(lin.num_nodes),
        "max_batch_len": float(lin.max_batch_len),
        "max_children": float(lin.max_children),
    }
    rep = MemoryReport()
    state = set(module.state_buffers)
    for buf in module.buffers.values():
        nbytes = _buffer_elems(buf, bindings) * buf.dtype.nbytes
        if buf.scope in ("shared", "register"):
            rep.onchip_bytes += nbytes
        elif buf.name in state:
            rep.state_bytes += nbytes
        elif buf.scope == "param":
            rep.params_bytes += nbytes
        else:
            rep.intermediates_bytes += nbytes
    for arr in lin.uf_arrays().values():
        rep.index_arrays_bytes += arr.nbytes
    return rep
