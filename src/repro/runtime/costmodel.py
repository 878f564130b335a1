"""Roofline-based execution cost model (see DESIGN.md substitution table).

Time is attributed to four sources, mirroring how the paper analyses its
results (§7.2, Table 6, Appendix C):

* **kernel launches** — fixed per-launch host overhead; the dominant cost
  for frameworks that emit hundreds of small kernels;
* **kernel execution** — per-launch roofline time: ``max(flops / peak,
  dram_bytes / dram_bw + onchip_bytes / onchip_bw)`` with a floor of the
  device's minimum kernel time;
* **global barriers** — persistent fused kernels synchronize levels with
  device-wide barriers instead of returning to the host;
* **linearization** — actual measured host time of the data structure
  linearizer (no tensor computation, §7.5).

:func:`estimate` is the one entry point: it linearizes a model's input
and prices the lowered module, never launching a kernel.  The paper's GPU
schedule decisions that change no generated code here — model
persistence, unrolling, recursive refactoring and per-block scheduling —
are a :class:`SimSchedule` what-if applied inside the pricing.

Traffic accounting follows Appendix C's operational-intensity bookkeeping:
each *distinct* element a nest touches moves once per launch, parameters
re-load once per launch/level unless persisted on chip (model persistence),
and intermediates charged at the bandwidth of their storage scope — which is
exactly how fusion (shared-memory intermediates) and persistence (register
parameters) show up as savings.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple, Union

from ..errors import CortexError, ScheduleError
from ..ilir.buffer import ILBuffer
from ..ilir.module import ILModule, Kernel
from ..ilir.nests import OpNest
from ..ir import (BinOp, Call, Const, Expr, Reduce, Select, TensorRead,
                  UFCall, Var, free_vars, walk)
from ..linearizer import Linearized, Node, StructureKind
from .device import Device

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api import CortexModel

#: flop weight of a transcendental intrinsic relative to an add/mul.
INTRINSIC_FLOPS = 8.0

#: Host-side linearization cost per node (§7.5: ~1.31 us for a 37-node SST
#: tree, ~9.64 us for ten).  The repository's linearizer is Python, so its
#: measured wall time is kept separately (``Linearized.wall_time_s``) and
#: the simulated latency charges the compiled-C++ linearizer the paper
#: measures.  DAGs cost more per node (multi-parent bookkeeping): the
#: paper's 10x10 grids show ~95 us for 1000 nodes.
LINEARIZE_PER_NODE_S = 28e-9
LINEARIZE_DAG_FACTOR = 3.4


@dataclass(frozen=True)
class SimSchedule:
    """The simulated GPU's schedule what-if (§3.1, §7.4, Fig. 10-11).

    None of these decisions changes generated code on the host targets, so
    they are not compile options; :func:`estimate` applies them to the
    lowered module's pricing:

    * ``persistence`` — the parameters a fused kernel re-reads every level
      (lowering pins them ``register`` under ``fusion="max"``) load once
      and stay on chip; off, they stream from DRAM per level like any
      parameter.  Without a fused kernel nothing is pinned, and the flag
      changes nothing.
    * ``refactor`` — recursive refactoring moves the first reduction across
      the backedge (Fig. 4), saving the program's ``refactor_saving``
      barriers per level.
    * ``unroll`` — a node is processed together with its children: with
      the hidden dimension spread over thread blocks every level needs
      twice the barriers (Fig. 11), while ``per_block`` scheduling (one
      node per thread block, how §7.4 schedules TreeRNN) shares one
      barrier interval between a pair of levels.

    Unrolling and refactoring apply to trees and sequences only.
    """

    persistence: bool = True
    unroll: bool = False
    refactor: bool = False
    per_block: bool = False

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if not isinstance(getattr(self, f.name), bool):
                raise ScheduleError(
                    f"SimSchedule.{f.name} must be a bool, "
                    f"got {getattr(self, f.name)!r}")


def estimate(model: "CortexModel",
             roots: Union[Node, Sequence[Node], Linearized],
             device: Device, schedule: SimSchedule = SimSchedule()
             ) -> "CostReport":
    """Simulated latency of one inference call of ``model`` on ``device``.

    The input is linearized (and structure-checked) exactly as ``run``
    does, or given already linearized by ``model.lowered.linearizer``; the
    compiled kernels never launch and the model is not touched.
    Unrolling or refactoring a DAG model raises
    :class:`~repro.errors.ScheduleError`: nodes with several parents would
    be recomputed.
    """
    module = model.lowered.module
    if module.meta["kind"] == StructureKind.DAG.value:
        for flag, what in (("unroll", "unrolling"),
                           ("refactor", "recursive refactoring")):
            if getattr(schedule, flag):
                raise ScheduleError(
                    f"{what} is only supported for trees and sequences: on "
                    f"DAGs, nodes with multiple parents would be recomputed "
                    f"(§3.1)")
    lin = (roots if isinstance(roots, Linearized)
           else model.lowered.linearizer(roots))
    return _module_cost(module, lin, device, schedule)


def linearization_time_s(lin: Linearized) -> float:
    per_node = LINEARIZE_PER_NODE_S
    if lin.kind == StructureKind.DAG:
        per_node *= LINEARIZE_DAG_FACTOR
    return lin.num_nodes * per_node


@dataclass
class CostReport:
    """Simulated time breakdown for one inference execution."""

    launch_s: float = 0.0
    exec_s: float = 0.0
    barrier_s: float = 0.0
    memcpy_s: float = 0.0
    linearization_s: float = 0.0
    param_warmup_s: float = 0.0

    kernel_launches: int = 0
    barriers: int = 0
    memcpy_calls: int = 0
    flops: float = 0.0
    dram_bytes: float = 0.0
    onchip_bytes: float = 0.0
    notes: List[str] = field(default_factory=list)
    per_kernel: Dict[str, float] = field(default_factory=dict)

    @property
    def total_time_s(self) -> float:
        return (self.launch_s + self.exec_s + self.barrier_s + self.memcpy_s
                + self.linearization_s + self.param_warmup_s)

    @property
    def cuda_api_s(self) -> float:
        """CPU time spent in launch/memcpy calls (Table 6 column)."""
        return self.launch_s + self.memcpy_s

    def merge(self, other: "CostReport") -> None:
        for f in ("launch_s", "exec_s", "barrier_s", "memcpy_s",
                  "linearization_s", "param_warmup_s", "flops",
                  "dram_bytes", "onchip_bytes"):
            setattr(self, f, getattr(self, f) + getattr(other, f))
        self.kernel_launches += other.kernel_launches
        self.barriers += other.barriers
        self.memcpy_calls += other.memcpy_calls
        self.notes.extend(other.notes)


@dataclass
class NestTraffic:
    flops: float = 0.0
    dram_bytes: float = 0.0
    onchip_bytes: float = 0.0
    #: broadcast (weight) traffic: streamed once per launch at full
    #: bandwidth, independent of per-thread parallelism
    broadcast_dram: float = 0.0
    broadcast_onchip: float = 0.0
    #: parallel work items (output elements) — drives device utilization
    elems: float = 0.0

    def __iadd__(self, o: "NestTraffic") -> "NestTraffic":
        self.flops += o.flops
        self.dram_bytes += o.dram_bytes
        self.onchip_bytes += o.onchip_bytes
        self.broadcast_dram += o.broadcast_dram
        self.broadcast_onchip += o.broadcast_onchip
        # nests aggregated into one launch/stage execute concurrently
        self.elems += o.elems
        return self

    @property
    def total_dram(self) -> float:
        return self.dram_bytes + self.broadcast_dram

    @property
    def total_onchip(self) -> float:
        return self.onchip_bytes + self.broadcast_onchip


def _flop_count(e: Expr) -> float:
    """Floating-point work per produced element (index math excluded)."""
    total = 0.0
    for x in walk(e):
        if isinstance(x, BinOp) and x.dtype.is_float and \
                x.op in ("add", "sub", "mul", "div", "min", "max"):
            total += 1.0
        elif isinstance(x, Call):
            total += INTRINSIC_FLOPS
        elif isinstance(x, Select) and x.dtype.is_float:
            total += 1.0
    return total


def _const_extent(e: Expr, bindings: Dict[str, float]) -> float:
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var) and e.name in bindings:
        return float(bindings[e.name])
    if isinstance(e, UFCall):
        # variable extents (num_children) bound by the declared maximum
        return float(bindings.get("max_children", 2))
    if isinstance(e, BinOp):
        a = _const_extent(e.a, bindings)
        b = _const_extent(e.b, bindings)
        return {"add": a + b, "sub": a - b, "mul": a * b,
                "floordiv": a // b if b else 0.0,
                "div": a / b if b else 0.0, "mod": a % b if b else 0.0,
                "min": min(a, b), "max": max(a, b)}[e.op]
    raise CortexError(f"cannot evaluate extent {e!r}")


def nest_traffic(nest: OpNest, node_len: int, bindings: Dict[str, float],
                 *, persisted_free: bool, pinned: bool = True) -> NestTraffic:
    """Per-launch flops and memory traffic of one operator nest.

    ``node_len`` is the size of the batch this launch covers.  Reads of
    register-scope parameters are free when ``persisted_free`` is set
    (they were loaded once during warm-up and stay on chip); without
    ``pinned`` (no model persistence) they are ordinary DRAM parameters.
    """
    ext: Dict[str, float] = {}
    axis_names: Set[str] = set()
    for ax in nest.axes:
        n = float(node_len) if ax.kind == "node" else _const_extent(ax.extent, bindings)
        ext[ax.var.name] = n
        axis_names.add(ax.var.name)
    node_let = nest.lets[0][0].name if nest.lets else None
    if node_let is not None:
        node_ax = next(a for a in nest.axes if a.kind == "node")
        ext[node_let] = ext[node_ax.var.name]

    body = nest.body
    red_extent = 1.0
    red_names: Set[str] = set()
    if isinstance(body, Reduce):
        for rax in body.axes:
            r = _const_extent(rax.extent, bindings)
            ext[rax.var.name] = r
            red_names.add(rax.var.name)
            red_extent *= r
        inner = body.body
    else:
        inner = body

    out_elems = 1.0
    for ax in nest.axes:
        out_elems *= ext[ax.var.name]

    t = NestTraffic()
    t.flops = out_elems * (_flop_count(inner) * red_extent
                           + (red_extent if isinstance(body, Reduce) else 0.0))

    # reads: each distinct element moves once per launch
    for read in _reads(inner):
        buf = read.buffer
        if not isinstance(buf, ILBuffer):
            continue
        varies = set()
        for idx in read.indices:
            varies |= set(free_vars(idx)) & set(ext)
        distinct = 1.0
        for v in varies:
            distinct *= ext[v]
        node_names = {a.var.name for a in nest.axes if a.kind == "node"}
        if node_let is not None:
            node_names.add(node_let)
        broadcast = not (varies & node_names)
        if not varies:
            distinct = _buffer_elems(buf, bindings)
        bytes_ = distinct * buf.dtype.nbytes
        if buf.scope in ("shared",):
            if broadcast:
                t.broadcast_onchip += bytes_
            else:
                t.onchip_bytes += bytes_
        elif buf.scope == "register" and pinned:
            if not persisted_free:
                t.broadcast_onchip += bytes_
        else:
            if broadcast:
                t.broadcast_dram += bytes_
            else:
                t.dram_bytes += bytes_

    t.elems = out_elems
    # write
    w_bytes = out_elems * nest.out.dtype.nbytes
    if nest.out.scope in ("shared", "register"):
        t.onchip_bytes += w_bytes
    else:
        t.dram_bytes += w_bytes
    return t


def _reads(e: Expr) -> List[TensorRead]:
    return [x for x in walk(e) if isinstance(x, TensorRead)]


def _is_leaf_branch(nest: OpNest) -> bool:
    """Nests predicated on the *positive* leaf check (conditional-operator
    path): at internal levels their lanes are branched off the critical
    path, so they contribute no gather chain."""
    pred = nest.predicate
    return isinstance(pred, UFCall) and pred.fn.name == "isleaf"


def _gather_chain_count(nest: OpNest, max_children: int) -> int:
    """Number of dependent uncoalesced-load chains one nest executes.

    * each *distinct* indirect index expression is its own chain (MV-RNN's
      ``a`` nest gathers through both ``right(n)`` and ``left(n)``);
    * child-sum / per-child accesses through the two-argument ``child(k,n)``
      accessor iterate the slots sequentially (the masked loop), costing one
      chain per declared child slot.
    """
    body = nest.body.body if isinstance(nest.body, Reduce) else nest.body
    distinct: Dict[tuple, bool] = {}
    per_slot = False
    for read in _reads(body):
        for idx in read.indices:
            ufs = [x for x in walk(idx) if isinstance(x, UFCall)]
            if not ufs:
                continue
            distinct[idx.key()] = True
            if any(x.fn.name == "child" and x.fn.arity == 2 for x in ufs):
                per_slot = True
    count = len(distinct)
    if per_slot:
        count = max(count, 1) * max_children
    return count


def _gather_latency(nests, device: Device,
                    max_children: int = 2) -> float:
    """Latency of the indirect-gather chains in one level of nests.

    Chains overlap partially (factor 0.5 per additional chain); leaf-branch
    nests are excluded (see :func:`_is_leaf_branch`).
    """
    count = sum(_gather_chain_count(n, max_children) for n in nests
                if not _is_leaf_branch(n))
    if count == 0:
        return 0.0
    return device.gather_latency_s * (1.0 + 0.5 * (count - 1))


def _buffer_elems(buf: ILBuffer, bindings: Dict[str, float]) -> float:
    n = 1.0
    for s in buf.shape:
        n *= _const_extent(s, bindings)
    return n


def _roofline_time(t: NestTraffic, device: Device) -> float:
    eff = device.efficiency(t.elems)
    compute = t.flops / (device.flops * eff)
    memory = (t.dram_bytes / device.dram_bw
              + t.onchip_bytes / device.onchip_bw) / eff
    # broadcast (weight) streams are a serial prologue: every consumer
    # stalls on them before useful work starts, so they add to — rather
    # than overlap with — the roofline term.  Persistence removes them.
    prologue = (t.broadcast_dram / device.dram_bw
                + t.broadcast_onchip / device.onchip_bw)
    return max(compute, memory) + prologue


def _module_cost(module: ILModule, lin: Linearized, device: Device,
                 schedule: SimSchedule) -> CostReport:
    """Simulated latency of executing ``module`` on ``lin`` with ``device``
    under ``schedule``."""
    report = CostReport()
    report.linearization_s = linearization_time_s(lin)

    meta = module.meta
    bindings: Dict[str, float] = {
        "num_nodes": float(lin.num_nodes),
        "max_batch_len": float(lin.max_batch_len),
        "max_children": float(meta.get("max_children", lin.max_children)),
    }
    level_start = lin.leaf_batch_count if meta.get("specialize") else 0
    internal = list(range(level_start, lin.num_batches))
    leaf_batches = list(range(lin.leaf_batch_count)) if meta.get("specialize") else []

    scattered = lin.kind != StructureKind.SEQUENCE

    # model persistence: register-scope parameters load once if they fit
    pinned = schedule.persistence
    reg_bytes = sum(_buffer_elems(b, bindings) * b.dtype.nbytes
                    for b in module.buffers.values()
                    if pinned and b.scope == "register")
    persisted = 0 < reg_bytes <= device.onchip_capacity
    if reg_bytes > device.onchip_capacity:
        report.notes.append(
            f"persistence spilled: {reg_bytes / 1e6:.1f} MB parameters exceed "
            f"{device.onchip_capacity / 1e6:.1f} MB on-chip capacity")
    if persisted:
        report.param_warmup_s = reg_bytes / device.dram_bw

    def launch(kernel: Kernel, traffic: NestTraffic) -> None:
        report.kernel_launches += 1
        report.launch_s += device.kernel_launch_s
        t = max(_roofline_time(traffic, device), device.min_kernel_s)
        report.exec_s += t
        report.per_kernel[kernel.name] = report.per_kernel.get(kernel.name, 0.0) + t
        report.flops += traffic.flops
        report.dram_bytes += traffic.total_dram
        report.onchip_bytes += traffic.total_onchip

    for step in module.steps:
        k = step.kernel
        if k.kind in ("pre", "hoisted", "post"):
            tr = NestTraffic()
            for nest in k.nests:
                tr += nest_traffic(nest, lin.num_nodes, bindings,
                                   persisted_free=persisted, pinned=pinned)
            launch(k, tr)
        elif k.kind == "leaf":
            gather = _gather_latency(k.nests, device,
                                     int(bindings["max_children"])) \
                if scattered else 0.0
            for lb in leaf_batches:
                tr = NestTraffic()
                for nest in k.nests:
                    tr += nest_traffic(nest, int(lin.batch_length[lb]),
                                       bindings, persisted_free=persisted,
                                       pinned=pinned)
                launch(k, tr)
                report.exec_s += gather
        elif k.kind == "level":
            gather = _gather_latency(k.nests, device,
                                     int(bindings["max_children"])) \
                if scattered else 0.0
            for b in internal:
                tr = NestTraffic()
                for nest in k.nests:
                    tr += nest_traffic(nest, int(lin.batch_length[b]),
                                       bindings, persisted_free=persisted,
                                       pinned=pinned)
                launch(k, tr)
                report.exec_s += gather
        elif k.kind == "fused":
            _fused_cost(k, lin, device, bindings, leaf_batches, internal,
                        schedule, int(meta["refactor_saving"]), persisted,
                        scattered, report)
    return report


def _fused_cost(kernel: Kernel, lin: Linearized, device: Device,
                bindings: Dict[str, float], leaf_batches: Sequence[int],
                internal: Sequence[int], schedule: SimSchedule,
                refactor_saving: int, persisted: bool, scattered: bool,
                report: CostReport) -> None:
    """One persistent launch; levels serialized by global barriers."""
    report.kernel_launches += 1
    report.launch_s += device.kernel_launch_s

    leaf_nests = [n for n in kernel.nests if n.phase == "leaf"]
    level_nests = [n for n in kernel.nests if n.phase == "level"]
    maxc = int(bindings.get("max_children", 2))
    leaf_gather = _gather_latency(leaf_nests, device, maxc) if scattered else 0.0
    level_gather = _gather_latency(level_nests, device, maxc) if scattered else 0.0

    # refactoring shifts the reduction chain down by the barriers it saves
    saving = refactor_saving if schedule.refactor else 0

    def _stage_time(nests: Sequence[OpNest], length: int) -> Tuple[float, NestTraffic]:
        # nests in the same barrier stage run concurrently; stages serialize
        by_stage: Dict[int, NestTraffic] = {}
        agg = NestTraffic()
        for nest in nests:
            tr = nest_traffic(nest, length, bindings,
                              persisted_free=persisted,
                              pinned=schedule.persistence)
            if _is_leaf_branch(nest):
                tr.elems = 0.0  # masked lanes add no useful parallelism
            st = by_stage.setdefault(max(0, nest.stage - saving),
                                     NestTraffic())
            st += tr
            agg += tr
        t = sum(_roofline_time(st, device) for st in by_stage.values())
        return t, agg

    exec_s = 0.0
    total = NestTraffic()
    for lb in leaf_batches:
        t, tr = _stage_time(leaf_nests, int(lin.batch_length[lb]))
        exec_s += t + leaf_gather
        total += tr
    for b in internal:
        t, tr = _stage_time(level_nests, int(lin.batch_length[b]))
        exec_s += t + level_gather
        total += tr
    exec_s = max(exec_s, device.min_kernel_s)

    levels = len(internal)
    per_level = max(1, kernel.barriers_per_level - saving)
    if schedule.unroll and schedule.per_block:
        # per-block unrolling: children live in the same thread block, so a
        # pair of levels shares one barrier interval (Fig. 3 / §7.4)
        barrier_events = math.ceil(levels / 2) * per_level
    elif schedule.unroll:
        # Fig. 11: unrolling fragments the batch-wide barrier
        barrier_events = levels * 2 * per_level
    else:
        barrier_events = levels * per_level

    report.exec_s += exec_s
    report.barriers += barrier_events
    report.barrier_s += barrier_events * device.global_barrier_s
    report.flops += total.flops
    report.dram_bytes += total.total_dram
    report.onchip_bytes += total.total_onchip
    report.per_kernel[kernel.name] = exec_s
