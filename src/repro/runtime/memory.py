"""Workspace memory: the buffer arena and peak-memory accounting (§7.6).

Two concerns live here:

* :class:`WorkspaceArena` — recycles the one slab the host plan lays each
  call's scratch buffers out in (:meth:`repro.runtime.plan.HostPlan.layout`),
  by size class and under a byte bound it states itself.

* :func:`measure_memory` — peak device memory accounting (Fig. 12).
  Cortex's inference-oriented design shows up in memory as well as time:
  with maximal fusion, intermediates live in on-chip scratchpads
  (dense-indexed per Fig. 5) and never occupy DRAM, so peak device memory
  is parameters + the recursion state + the linearizer's index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..errors import ExecutionError
from ..ilir.module import ILModule
from ..linearizer import Linearized
from .costmodel import _buffer_elems


# ---------------------------------------------------------------------------
# workspace arena

#: slab addresses and planned buffer offsets are multiples of one cache line
ALIGN = 64
#: free slabs kept per power-of-two size class
SLABS_PER_CLASS = 2
#: the largest workspace one call may lease: a forest that needs more is
#: refused, typed, before anything is allocated
MAX_LEASE_BYTES = 1 << 30


@dataclass
class ArenaStats:
    """Lease counters: a hit recycled a parked slab, a miss allocated one."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class WorkspaceArena:
    """Recycles whole-call workspace slabs; knows bytes, not buffers.

    ``lease`` hands out a 1-D ``uint8`` slab of the smallest power-of-two
    size class that fits — a parked one if the class has one, else fresh
    zeros — and ``release`` parks it again (it must not be read afterwards),
    at most :data:`SLABS_PER_CLASS` per class: the arena never holds more
    than :attr:`max_pooled_bytes`, a fixed multiple of the largest lease it
    has served.  Not thread-safe; use one arena per serving thread.
    """

    def __init__(self):
        self._free: Dict[int, List[np.ndarray]] = {}  # class size -> parked
        self._out: set = set()  # id() of every slab currently leased out
        self.pooled_bytes = 0
        self.stats = ArenaStats()

    def lease(self, nbytes: int, zero: int = 0) -> np.ndarray:
        """One slab of at least ``nbytes``; its first ``zero`` bytes read 0."""
        if nbytes > MAX_LEASE_BYTES:
            raise ExecutionError(
                f"workspace of {nbytes} bytes exceeds the {MAX_LEASE_BYTES}-"
                f"byte lease ceiling; split the input batch")
        size = 1 << (int(nbytes) - 1).bit_length()
        parked = self._free.setdefault(size, [])
        if parked:
            slab = parked.pop()
            slab[:zero] = 0
            self.pooled_bytes -= size
            self.stats.hits += 1
        else:
            raw = np.zeros(size + ALIGN, dtype=np.uint8)  # fresh: all zero
            start = -raw.ctypes.data % ALIGN
            slab = raw[start:start + size]
            self.stats.misses += 1
        self._out.add(id(slab))
        return slab

    def release(self, slab: np.ndarray) -> None:
        """Park a leased slab; anything else would let two leases alias."""
        if id(slab) not in self._out:
            raise ExecutionError(
                "released an array this arena has not leased out (released "
                "twice, or never leased here)")
        self._out.remove(id(slab))
        parked = self._free[slab.nbytes]
        if len(parked) < SLABS_PER_CLASS:
            parked.append(slab)
            self.pooled_bytes += slab.nbytes

    def release_many(self, slabs) -> None:
        for slab in slabs:
            self.release(slab)

    @property
    def max_pooled_bytes(self) -> int:
        """Every class up to the largest one leased, full (the classes below
        the largest sum to less than it)."""
        return 2 * SLABS_PER_CLASS * max(self._free, default=0)

    def snapshot(self) -> Dict[str, float]:
        """Counters and footprint as one dict (the metrics ``arena`` section)."""
        return {"hits": self.stats.hits, "misses": self.stats.misses,
                "hit_rate": self.stats.hit_rate,
                "pooled_bytes": self.pooled_bytes,
                "max_pooled_bytes": self.max_pooled_bytes,
                "leased": len(self._out)}

    def bind_metrics(self, registry) -> "WorkspaceArena":
        """Live callback gauges; bind one arena per registry (names collide)."""
        for key, text in (("hits", "leases served by a parked slab"),
                          ("misses", "leases that allocated a fresh slab"),
                          ("hit_rate", "hits / (hits + misses)"),
                          ("pooled_bytes", "bytes parked in the arena")):
            registry.gauge("arena_" + key, text,
                           fn=lambda key=key: self.snapshot()[key])
        return self


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
