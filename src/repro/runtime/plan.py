"""The host executor: compiled launch plans + the one execution loop (§7.5).

The "host" of Fig. 2 binds the linearizer's arrays to the module's
uninterpreted functions, allocates workspace buffers and launches the
compiled kernels per the host schedule.  Which kernels launch in which
order, how buffers are shaped and which scalars are bound are all functions
of the *compiled module*, not of the input — exactly the per-invocation
host costs TVM-style compilers eliminate by precompiling the host program.

:class:`HostPlan` is that precompiled host program.  It is derived once per
``(lowered, compiled)`` pair — the same way for an in-process model and for
a reloaded artifact — and holds:

* the kernel launch schedule, pre-partitioned by kind and resolved to
  concrete callables (the generated Python kernels, overlaid with native
  launchers when a native module is attached);
* a buffer-allocation plan with symbolic shapes pre-parsed into
  ``(static dims, which runtime scalars)`` recipes, plus the per-buffer
  ``needs_zero`` verdict sealing the module recorded in ``module.meta``
  (see :mod:`repro.ilir.zero_fill`): a call's scratch buffers are views into
  one slab, ``needs_zero`` ones first, so a recycled slab is re-zeroed
  with one slice assignment over that prefix and nothing else;
* the scalar-binding template (which metadata overrides apply).

:func:`execute_plan` is the one executor: a tight loop over prebuilt launch
records with zero per-call ``module.steps`` scans or symbolic shape
evaluation; it times the host, never a simulated device (the paper-figure
estimates are :func:`repro.runtime.estimate`'s).  Its outputs are
held bitwise equal to the semantic oracle (:mod:`repro.ra.interp`) by the
zero-tolerance tests across the model zoo and schedule variants.

A plan whose launches are all native (:attr:`HostPlan.addressed`) makes
one native call per execute, into the library's ``repro_execute``: the same
C in every library, which runs the module's host tables
(:mod:`repro.ilir.host`) as data, packed once per plan into an int64 array
checked against the launchers
(:func:`~repro.ilir.codegen.c_codegen.pack_tables`).  Per call it works
out every scratch buffer's place in the call's slab and every linearizer
array's in the block, binds the ``S`` scalars and runs the whole host
schedule, each launch through its kernel's wrapper, with the GIL released.
Python keeps what can be refused and what it owns (:class:`NativeCall`):
the parameters — and any buffer the caller passes in place of a scratch
one — are checked on every call (shape, dtype, C-contiguity) before the
lease, their addresses and packed panels come from the weakref-backed
cache, then the slab is leased, the seeds are written and one packed
argument vector goes in.  Planned arrays are correct by construction: the
entry places them with the dtype, shape and contiguity the launch ABI
declares.  The result's :class:`Workspace` makes a buffer's array the
first time it is read.
"""

from __future__ import annotations

import ctypes
import math
import operator
import struct
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

import numpy as np

from ..errors import ExecutionError
from ..ilir.codegen.c_codegen import pack_tables
from ..ilir.codegen.compiled import CompiledModule
from ..ilir.host import (ALIGN, ENTRY_HEAD, MAX_BATCH, NUM_NODES,
                         BufferStep, HostTables, buffer_steps, host_tables,
                         slab_order, slab_terms)
from ..ilir.module import ILModule
from ..ir import evaluate
from ..linearizer import Linearized
from ..linearizer.linearize import uf_term
from ..ra.lowering import Lowered
from .kernels import data_address, panel_packed
from .memory import WorkspaceArena
from .native import launch_refusal

@dataclass
class HostPlan:
    """Precompiled host program for one compiled module."""

    module: ILModule
    #: launch records: (kernel name, callable) per host phase, in step order
    pre: List[Tuple[str, Callable]]
    leaf: List[Tuple[str, Callable]]
    level: List[Tuple[str, Callable]]
    fused: List[Tuple[str, Callable]]
    post: List[Tuple[str, Callable]]
    buffers: List[BufferStep]
    #: scalar-binding template (precomputed metadata overrides)
    max_children_override: Optional[int]
    specialize: bool
    state_buffers: List[str] = field(default_factory=list)
    #: the buffers a call allocates (all but the model parameters), in slab
    #: order: the first ``num_zeroed`` are the ``needs_zero`` ones
    scratch: List[BufferStep] = field(init=False)
    num_zeroed: int = field(init=False)
    #: does a call run as one call into the native library's host entry
    #: (every launch native, on tables the entry can run)?
    addressed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.scratch = slab_order(self.buffers)
        self.num_zeroed = sum(b.needs_zero for b in self.scratch)
        self._terms = slab_terms(self.scratch)
        self._call = NativeCall.of(self)
        self.addressed = self._call is not None

    # -- scalar bindings ---------------------------------------------------
    def bind_scalars(self, lin: Linearized) -> Dict[str, int]:
        """The scalar dict ``c`` the kernels read, template-driven."""
        c = lin.scalar_params()
        c["max_children"] = (self.max_children_override
                             if self.max_children_override is not None
                             else lin.max_children)
        if self.specialize:
            c["level_start"] = lin.leaf_batch_count
        else:
            c["level_start"] = 0
            c["leaf_batch_count"] = 0
        return c

    # -- workspace ---------------------------------------------------------
    @staticmethod
    def _resolve_shape(step: BufferStep,
                       sizes: Dict[str, int]) -> Optional[Tuple[int, ...]]:
        """``step``'s shape under ``sizes`` (the two runtime shape scalars)."""
        if step.static_shape is not None:
            return step.static_shape
        try:
            return tuple([d if d.__class__ is int
                          else sizes[d] if d.__class__ is str
                          else int(evaluate(d, sizes)) for d in step.dims])
        except Exception:
            return None

    def scratch_shape(self, i: int, sizes: Dict[str, int]) -> Tuple[int, ...]:
        """The shape of scratch buffer ``i`` under ``sizes`` (the two
        runtime shape scalars)."""
        recipe = self.scratch[i].recipe
        if recipe is not None:
            lead, rest, _ = recipe
            return ((sizes[lead] if lead.__class__ is str else lead),) + rest
        shape = self._resolve_shape(self.scratch[i], sizes)
        if shape is None:
            raise ExecutionError(f"cannot size buffer {self.scratch[i].name}")
        return shape

    def slab_offsets(self, num_nodes: int, max_batch_len: int) -> List[int]:
        """Where each scratch buffer of one call starts in its slab, in
        :attr:`scratch` order, then the slab's size: each offset on a
        64-byte boundary past the end of the buffer before it
        (:func:`~repro.ilir.host.slab_terms`).  The ``needs_zero`` buffers
        come first, so they lie in the slab's first ``offsets[num_zeroed]``
        bytes."""
        terms = self._terms
        if terms is None:
            sizes = {NUM_NODES: num_nodes, MAX_BATCH: max_batch_len}
            terms = slab_terms(self.scratch, lambda i: (
                self.scratch[i].np_dtype.itemsize
                * math.prod(self.scratch_shape(i, sizes))))
        return [(a + b * num_nodes + c * max_batch_len) & -ALIGN
                for a, b, c in terms]

    def layout(self, num_nodes: int, max_batch_len: int):
        """:meth:`slab_offsets` with each buffer named: ``(entries,
        zero_bytes, total_bytes)``, one ``(name, dtype, shape, offset)``
        entry per :attr:`scratch` buffer."""
        offsets = self.slab_offsets(num_nodes, max_batch_len)
        sizes = {NUM_NODES: num_nodes, MAX_BATCH: max_batch_len}
        return [(step.name, step.np_dtype, self.scratch_shape(i, sizes), at)
                for i, (step, at) in enumerate(zip(self.scratch, offsets))
                ], offsets[self.num_zeroed], offsets[-1]

    def make_workspace(self, lin: Linearized,
                       params: Mapping[str, np.ndarray],
                       arena=None) -> Tuple[Dict[str, np.ndarray],
                                            List[np.ndarray]]:
        """Build the workspace; returns it plus the arena lease, if any.

        UF arrays, then one slab — leased from ``arena``, or fresh zeros —
        cut into the scratch buffers per :meth:`layout`, then the model
        parameters and any buffer the caller supplies, checked and used in
        place.  Everything that can be refused is checked before the lease.
        """
        sizes = {NUM_NODES: lin.num_nodes, MAX_BATCH: lin.max_batch_len}
        given: Dict[str, np.ndarray] = {}
        for step in self.buffers:
            name = step.name
            supplied = params.get(name)
            if supplied is None:
                if step.required_param:
                    raise _missing(name)
                continue
            given[name] = self._checked_shape(step, supplied, sizes)
        entries, zero_bytes, total = self.layout(lin.num_nodes,
                                                 lin.max_batch_len)
        # without an arena, a throwaway one: fresh zeros, nothing parked
        slab = (WorkspaceArena() if arena is None
                else arena).lease(total, zero_bytes)
        ws = lin.uf_arrays()
        for name, dtype, shape, offset in entries:
            ws[name] = np.ndarray(shape, dtype, slab, offset)
        ws.update(given)
        return ws, ([] if arena is None else [slab])

    def _checked_shape(self, step: BufferStep, supplied,
                       sizes: Dict[str, int]) -> np.ndarray:
        """``supplied`` as an array, refused unless it has ``step``'s
        shape (model parameters must be supplied as declared: zero-filling
        or reshaping them would silently produce wrong results)."""
        arr = (supplied if supplied.__class__ is np.ndarray
               else np.asarray(supplied))
        expect = step.static_shape or self._resolve_shape(step, sizes)
        if expect is not None and arr.shape != expect:
            raise ExecutionError(
                f"parameter {step.name}: shape {arr.shape} != "
                f"declared {expect}")
        return arr

    # -- the native entry (addressed plans) ---------------------------------
    def arguments(self, lin: Linearized, params: Mapping[str, np.ndarray],
                  arena=None):
        """What one call of an :attr:`addressed` plan hands each launch,
        as the library's host entry works it out — the entry run dry: it
        writes each launch's argument vectors instead of launching.

        Returns the call's :class:`Workspace`, the arena lease (empty
        without an arena) and per launch, in launch order, ``(kernel name,
        launcher, pointer addresses, S vector)``.
        """
        call = self._call
        if call is None:
            raise ExecutionError("this plan has no native host entry")
        out = np.zeros(call.dry_size, np.int64)
        ws, leased, argv, keep = call.bind(lin, params, arena,
                                           dry=out.ctypes.data)
        call.entry.execute(argv)
        records, at = [], 0
        for name, fn in call.launches:
            k = len(fn.abi_arrays) + len(fn.abi_packed)
            m = k + len(fn.signature.scalars)
            records.append((name, fn, out[at:at + k].tolist(),
                            out[at + k:at + m].tolist()))
            at += m
        return ws, leased, records


def _missing(name: str) -> ExecutionError:
    return ExecutionError(f"missing model parameter {name!r}")


#: what the per-call check of a parameter compares with the expected
_PROBE = operator.attrgetter("__class__", "shape", "dtype", "strides")


class NativeCall:
    """The Python half of one call of an :attr:`~HostPlan.addressed`
    plan; the library's host entry (:class:`~repro.runtime.native
    .HostEntry`) is the other.  Built once with the plan, never written
    after.

    A call (:meth:`bind`) checks what the caller supplies — every
    parameter, and any buffer passed in place of a scratch one — before it
    leases the slab, looks each parameter and packed panel up in the
    weakref-backed cache (:func:`~repro.runtime.kernels.data_address`,
    :func:`~repro.runtime.kernels.panel_packed`), and packs the entry's
    argument vector (:data:`~repro.ilir.host.ENTRY_HEAD`, then the scratch
    buffers' stand-ins, the dense parameters and the panels) into one
    ``bytes``.  Slab offsets, linearizer-array offsets, the ``S`` vectors
    and the launches are the entry's, read from the plan's packed tables,
    which the call owns.
    """

    def __init__(self, plan: HostPlan, tables: HostTables,
                 packed: np.ndarray, launches, entry) -> None:
        self.plan, self.entry, self.tables = plan, entry, packed
        #: ``(kernel name, launcher)`` in launch order
        self.launches = launches
        # every array a launch reads: its ABI dtype, the first kernel that
        # reads it, and the first that reads it as dense memory
        reads: Dict[str, list] = {}
        for kernel, fn in launches:
            for name, dt in fn.abi_arrays:
                read = reads.setdefault(name, [dt, kernel, None])
                read[2] = read[2] or kernel
            for name, dt in fn.abi_packed:
                reads.setdefault(name, [dt, kernel, None])
        self.reads = reads
        #: the model parameters, checked on every call: ``(step, ABI
        #: dtype or None, kernel for a dtype refusal, kernel for a
        #: contiguity refusal)``
        self.params = [(b, *reads.get(b.name, (None, None, None)))
                       for b in plan.buffers if b.required_param]
        self.names = [b.name for b, *_ in self.params]
        #: each parameter's ``_PROBE`` when it is a dense array of exactly
        #: the declared shape and dtype (None: checked in full every call)
        self.expected = [
            None if b.static_shape is None or dt not in (None, b.np_dtype)
            else (np.ndarray, b.static_shape, b.np_dtype,
                  tuple(b.np_dtype.itemsize * math.prod(b.static_shape[i + 1:])
                        for i in range(len(b.static_shape))))
            for b, dt, *_ in self.params]
        self.scratch_index = {name: i for i, name in enumerate(tables.scratch)}
        #: each scratch buffer's (then the slab end's) slab term
        self.terms = tables.terms
        self.param_index = {name: i for i, name in enumerate(self.names)}
        self.dense = [self.param_index[name] for name in tables.dense]
        self.panels = [self.param_index[name] for name in tables.panels]
        #: the linearizer arrays that are child rows: ``(rows a call
        #: needs, kernel, name, dt)``
        self.rows = [(rows, reads[name][1], name, reads[name][0])
                     for name, _, rows in tables.block if rows]
        self.min_rows = max((r[0] for r in self.rows), default=0)
        self.panel = launches[0][1].panel
        #: the entry's launch table: each launch's wrapper
        self.table = (ctypes.c_void_p * len(launches))(
            *[fn.address for _, fn in launches])
        team = max(fn.team for _, fn in launches)
        self.head = (ctypes.addressof(self.table), team, packed.ctypes.data)
        slots = (len(ENTRY_HEAD) + len(tables.scratch) + len(self.dense)
                 + len(self.panels))
        self.pack = struct.Struct(f"{slots}q").pack
        self.no_own = (0,) * len(tables.scratch)
        #: int64s a dry run writes: per launch its pointers, then its S
        self.dry_size = sum(len(fn.abi_arrays) + len(fn.abi_packed)
                            + len(fn.signature.scalars)
                            for _, fn in launches)

    @classmethod
    def of(cls, plan: HostPlan) -> Optional["NativeCall"]:
        """``plan``'s native call, or None: not every launch is native, or
        the entry cannot run the module's tables with them
        (:func:`host_tables`, :func:`~repro.ilir.codegen.c_codegen
        .pack_tables`)."""
        launches = [r for phase in (plan.pre, plan.leaf, plan.level,
                                    plan.fused, plan.post) for r in phase]
        if not launches or not all(getattr(fn, "is_native", False)
                                   for _, fn in launches):
            return None
        entry, panel = launches[0][1].entry, launches[0][1].panel
        if entry is None or any(fn.entry is not entry or fn.panel != panel
                                for _, fn in launches):
            return None
        tables = host_tables(plan.module, {
            name: (tuple(n for n, _ in fn.abi_arrays),
                   tuple(n for n, _ in fn.abi_packed))
            for name, fn in launches})
        if (tables is None
                or [k for _, k, _ in tables.launches]
                != [name for name, _ in launches]
                or list(tables.scratch) != [b.name for b in plan.scratch]):
            return None
        packed = pack_tables(tables, launches)
        return (None if packed is None
                else cls(plan, tables, packed, launches, entry))

    def bind(self, lin: Linearized, params: Mapping[str, np.ndarray],
             arena, times: int = 0, dry: int = 0):
        """One call: its :class:`Workspace`, the arena lease (empty without
        an arena), the entry's argument vector and the panels it points
        into (to keep alive across the entry call).  ``times`` / ``dry``
        are the addresses of the profile and dry-run outputs, or 0.

        Every supplied array is checked before the lease: a missing
        parameter, a wrong shape (:class:`~repro.errors.ExecutionError`),
        a dtype other than the launch ABI's or a strided array a launch
        reads as dense memory (:class:`~repro.errors.NativeError`).
        """
        arrays = list(map(params.get, self.names))
        try:
            known = list(map(_PROBE, arrays)) == self.expected
        except AttributeError:  # a missing parameter, or not an array
            known = False
        if not known:
            arrays = self._checked(lin, arrays)
        mc = lin.max_children
        if mc < self.min_rows:
            rows, kernel, name, dt = next(r for r in self.rows if r[0] > mc)
            raise launch_refusal(kernel, name, None, dt)
        # all present and nothing else: no buffer in place of a scratch one
        own = {} if len(params) == len(arrays) else self._own(lin, params)
        n, widest = lin.num_nodes, lin.max_batch_len
        keep = [panel_packed(arrays[i], self.panel) for i in self.panels]
        a, b, c = self.terms[-1]
        total = (a + b * n + c * widest) & -ALIGN
        a, b, c = self.terms[self.plan.num_zeroed]
        slab = (WorkspaceArena() if arena is None else arena).lease(
            total, (a + b * n + c * widest) & -ALIGN)
        stand_ins = self.no_own
        if own:
            stand_ins = [0] * len(stand_ins)
            for name, arr in own.items():
                stand_ins[self.scratch_index[name]] = data_address(arr)
        argv = self.pack(
            *self.head, times, dry, lin.block_address, data_address(slab), n,
            lin.num_leaves, lin.num_batches,
            -1 if lin.leaf_start is None else lin.leaf_start, widest,
            lin.leaf_batch_count, mc, *stand_ins,
            *[data_address(arrays[i]) for i in self.dense],
            *map(data_address, keep))
        ws = Workspace(self, arrays, own, slab, lin)
        return ws, ([] if arena is None else [slab]), argv, keep

    def _checked(self, lin: Linearized, arrays: list) -> list:
        """Every parameter refused, typed, unless it has its declared
        shape and, where a launch reads it, the ABI's dtype and (read as
        dense memory) C-contiguity."""
        sizes = {NUM_NODES: lin.num_nodes, MAX_BATCH: lin.max_batch_len}
        out = []
        for (step, dt, kernel, dense), arr in zip(self.params, arrays):
            if arr is None:
                raise _missing(step.name)
            arr = self.plan._checked_shape(step, arr, sizes)
            if dt is not None:
                self._check_dense(step.name, arr, dt, kernel, dense)
            out.append(arr)
        return out

    def _own(self, lin: Linearized,
             params: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """The buffers the caller passes in place of scratch ones, by name,
        each checked as a parameter is."""
        sizes = {NUM_NODES: lin.num_nodes, MAX_BATCH: lin.max_batch_len}
        own = {}
        for name, i in self.scratch_index.items():
            if name in params:
                arr = np.asarray(params[name])
                shape = self.plan.scratch_shape(i, sizes)
                if arr.shape != shape:
                    raise ExecutionError(
                        f"parameter {name}: shape {arr.shape} != "
                        f"declared {shape}")
                read = self.reads.get(name)
                if read is not None:
                    self._check_dense(name, arr, *read)
                own[name] = arr
        return own

    @staticmethod
    def _check_dense(name, arr, dt, kernel, dense) -> None:
        if arr.dtype != dt:
            raise launch_refusal(kernel, name, arr, dt)
        if dense is not None and not arr.flags.c_contiguous:
            raise launch_refusal(dense, name, arr, dt)


class Workspace(Mapping):
    """The buffers of one native call by name, each array made the first
    time it is read: a scratch buffer as a view of the call's slab, a
    linearizer array from the ``Linearized``, a model parameter (or a
    buffer the caller passed in) as the caller's own array.  A name can
    be set to another array, as in a dict."""

    __slots__ = ("_call", "_params", "_arrays", "_slab", "_lin")

    def __init__(self, call: NativeCall, params: List[np.ndarray],
                 own: Dict[str, np.ndarray], slab: np.ndarray,
                 lin: Linearized) -> None:
        #: the checked parameters, in ``call.names`` order; then what this
        #: call made, was handed in place of a scratch buffer, or was set
        self._params, self._arrays = params, own
        self._call, self._slab, self._lin = call, slab, lin

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is not None:
            return arr
        call = self._call
        i = call.scratch_index.get(name)
        if i is not None:
            lin, step = self._lin, call.plan.scratch[i]
            n, widest = lin.num_nodes, lin.max_batch_len
            a, b, c = call.terms[i]
            lead, rest, _ = step.recipe
            lead = n if lead == NUM_NODES else widest if lead == MAX_BATCH \
                else lead
            arr = self._arrays[name] = np.ndarray(
                (lead, *rest), step.np_dtype, self._slab,
                (a + b * n + c * widest) & -ALIGN)
            return arr
        i = call.param_index.get(name)
        if i is not None:
            return self._params[i]
        if uf_term(name) is None:
            raise KeyError(name)
        for key, arr in self._lin.uf_arrays().items():
            self._arrays.setdefault(key, arr)
        return self._arrays[name]

    def __setitem__(self, name: str, arr: np.ndarray) -> None:
        self._arrays[name] = arr

    def __iter__(self) -> Iterator[str]:
        return iter(dict.fromkeys((*self._lin.uf_arrays(),
                                   *self._call.scratch_index,
                                   *self._call.names, *self._arrays)))

    def __len__(self) -> int:
        return sum(1 for _ in self)


def build_host_plan(lowered: Lowered, compiled: CompiledModule) -> HostPlan:
    """Derive the host plan from a sealed module (lowered or reloaded)."""
    module = lowered.module
    fns = dict(compiled.fns)
    native = getattr(compiled, "native", None)
    if native is not None:
        # native target: same launch records, compiled-C callables; any
        # kernel the native module lacks keeps its Python implementation
        fns.update(native.fns)
    groups: Dict[str, List[Tuple[str, Callable]]] = {
        "pre": [], "leaf": [], "level": [], "fused": [], "post": []}
    for step in module.steps:
        k = step.kernel
        kind = "pre" if k.kind == "hoisted" else k.kind
        groups[kind].append((k.name, fns[k.name]))
    return HostPlan(
        module=module,
        pre=groups["pre"], leaf=groups["leaf"], level=groups["level"],
        fused=groups["fused"], post=groups["post"],
        buffers=buffer_steps(module),
        max_children_override=(
            int(module.meta["max_children"])
            if "max_children" in module.meta else None),
        specialize=bool(module.meta.get("specialize")),
        state_buffers=list(module.state_buffers),
    )


def get_host_plan(lowered: Lowered, compiled: CompiledModule) -> HostPlan:
    """The cached plan for this compiled module (built on first use)."""
    plan = getattr(compiled, "_host_plan", None)
    if plan is None or plan.module is not lowered.module:
        plan = build_host_plan(lowered, compiled)
        compiled._host_plan = plan
    return plan


@dataclass
class ExecutionResult:
    """Outputs plus measured wall time for one inference call."""

    workspace: Mapping[str, np.ndarray]
    lin: Linearized
    state_buffers: list[str]
    wall_time_s: float = 0.0
    #: the one slab leased from a WorkspaceArena (empty without an arena);
    #: released by the caller that owns the arena, after which this result's
    #: workspace must not be read
    arena_buffers: list = field(default_factory=list, repr=False)

    def output(self, name: str) -> np.ndarray:
        """Full per-node output array for a state buffer."""
        return self.workspace[name]

    def root_output(self, name: str) -> np.ndarray:
        """Rows of a state buffer at the root nodes (the model results),
        one per root in the order the roots were given."""
        return self.workspace[name][self.lin.input_roots]


def execute_plan(plan: HostPlan, lin: Linearized,
                 params: Mapping[str, np.ndarray], *,
                 arena=None, profiler=None,
                 seeds=None) -> ExecutionResult:
    """Run the precompiled host program over one linearized input batch.

    The launch sequence is the host schedule of Fig. 2 — pre and hoisted
    kernels in step order, leaf kernels over the leaf batches, level
    kernels over the internal batches, then fused and post kernels.  On an
    :attr:`~HostPlan.addressed` plan the library's host entry runs all of
    it in one native call, without the GIL; otherwise this loop calls each
    launch record.

    When an exception escapes after the arena lease — a bad seed row, a
    failing kernel — the slab is released back to the arena before it
    propagates (a missing or mis-shaped parameter, and on an
    :attr:`~HostPlan.addressed` plan one of another dtype or strided, is
    refused before the lease), so a failed call never shrinks the arena.

    ``profiler`` is an optional :class:`~repro.runtime.profiler
    .KernelProfiler`: it gets each kernel's launch count and time — on an
    addressed plan the entry's own per-launch clock readings, elsewhere a
    timing closure around each launch record — and the workspace/launch
    phase totals.  Without one (the default) nothing is timed per launch.

    ``seeds`` is an optional ``{buffer name: (row ids, rows)}`` mapping
    of pre-computed workspace rows (the memoization layer's cached
    subtree results, :mod:`repro.memo`).  Seeded rows are written right
    after workspace allocation, before any kernel launches — the batch
    arrays built by the splicer never iterate a seeded id, so kernels
    only ever *read* these rows through child indirection.
    """
    t_ws = time.perf_counter() if profiler is not None else 0.0
    call = plan._call
    if call is not None:
        times = (None if profiler is None
                 else np.zeros(2 * len(call.launches), np.int64))
        ws, leased, argv, keep = call.bind(
            lin, params, arena, 0 if times is None else times.ctypes.data)
    else:
        ws, leased = plan.make_workspace(lin, params, arena)
    try:
        if seeds:
            for name, (rows_idx, rows) in seeds.items():
                ws[name][rows_idx] = rows
        t0 = time.perf_counter()
        if call is not None:
            call.entry.execute(argv)
        else:
            _launch_records(plan, lin, ws, profiler)
    except BaseException:
        # a failed execution must not leak its workspace: the slab goes
        # back to the arena (its partial contents are safe — the next lease
        # re-zeroes the needs_zero prefix, and the rest is proven
        # write-before-read)
        if leased:
            arena.release_many(leased)
        raise

    wall = time.perf_counter() - t0
    if profiler is not None:
        if call is not None:
            profiler.note_launches(call.launches, times)
        profiler.note_execution(t0 - t_ws, wall)

    return ExecutionResult(
        workspace=ws, lin=lin, state_buffers=list(plan.module.state_buffers),
        wall_time_s=wall, arena_buffers=leased)


def _launch_records(plan: HostPlan, lin: Linearized, ws,
                    profiler=None) -> None:
    """The host schedule as a loop over ``plan``'s launch records."""
    c = plan.bind_scalars(lin)
    phases = [plan.pre, plan.leaf, plan.level, plan.fused, plan.post]
    if profiler is not None:
        phases = [profiler.wrap(records) if records else records
                  for records in phases]
    pre, leaf, level, fused, post = phases
    for _, fn in pre:
        fn(ws, c)

    if leaf or level:
        begins = lin.batch_begin.tolist()
        lengths = lin.batch_length.tolist()

    if leaf:
        nlb = c["leaf_batch_count"]
        for _, fn in leaf:
            for lb in range(nlb):
                fn(ws, c, begins[lb], lengths[lb])

    if level:
        for b in range(c["level_start"], c["num_batches"]):
            begin = begins[b]
            length = lengths[b]
            for _, fn in level:
                fn(ws, c, begin, length)

    for _, fn in fused:
        fn(ws, c)
    for _, fn in post:
        fn(ws, c)
