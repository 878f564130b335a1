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

A plan whose launches are all native (:attr:`HostPlan.addressed`) runs
through its :class:`LaunchFrame` instead, built once with the plan: where
each pointer argument of each launch lives — in the call's slab, in the
linearizer's block, or a model parameter — as an offset the call's shape
``(num_nodes, max_batch_len, num_batches, max_children)`` fixes, so a call
is one lease and one list of ``base + offset`` ints, and no array object is
made before the launch.  Planned arrays are correct by construction: the
frame places them with the dtype, shape and contiguity the launch ABI
declares.  Supplied ones — the model parameters and any buffer the caller
passes in their place — are checked on every call (shape, dtype,
C-contiguity) before the lease.  The result's :class:`Workspace` makes a
buffer's array the first time it is read.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

import numpy as np

from ..errors import ExecutionError
from ..ilir.codegen.compiled import CompiledModule
from ..ilir.module import ILModule
from ..ir import Const, Var, evaluate
from ..linearizer import Linearized
from ..linearizer.linearize import uf_term
from ..ra.lowering import Lowered
from .kernels import data_address, panel_packed
from .memory import ALIGN, WorkspaceArena
from .native import BoundLaunch, launch_refusal

#: sentinel dim tags for the two runtime-bound shape symbols
_NUM_NODES = "num_nodes"
_MAX_BATCH = "max_batch_len"


@dataclass(frozen=True)
class BufferStep:
    """One entry of the buffer-allocation plan (in module buffer order)."""

    name: str
    np_dtype: np.dtype
    #: shape recipe: int (static) | scalar tag (str) | residual Expr
    dims: Tuple[object, ...]
    #: fully static shape, precomputed when no dim is runtime-bound
    static_shape: Optional[Tuple[int, ...]]
    #: model parameters must be supplied by the caller
    required_param: bool
    #: must the buffer read zero at the start of a call?  False only when
    #: the analysis proves every read is preceded by a write.
    needs_zero: bool


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
    #: are all launches native launchers (taking data addresses)?  Then
    #: calls run through the plan's :class:`LaunchFrame`.
    addressed: bool = field(init=False)

    def __post_init__(self) -> None:
        scratch = [b for b in self.buffers if not b.required_param]
        self.scratch = sorted(scratch, key=lambda b: not b.needs_zero)
        self.num_zeroed = sum(b.needs_zero for b in scratch)
        phases = (self.pre, self.leaf, self.level, self.fused, self.post)
        records = [r for phase in phases for r in phase]
        self.addressed = bool(records) and all(
            getattr(fn, "is_native", False) for _, fn in records)
        # per scratch buffer ``(lead, rest of the shape, bytes per lead
        # index)``, lead an int or one of the two runtime tags; None for
        # the rare shape that is not "rows of a static cell"
        self._recipes = [
            (b.dims[0], b.dims[1:],
             b.np_dtype.itemsize * math.prod(b.dims[1:]))
            if b.dims and all(d.__class__ is int or (i == 0 and
                                                     d.__class__ is str)
                              for i, d in enumerate(b.dims)) else None
            for b in self.scratch]
        self._terms = self._start_terms()
        if self.addressed:
            self._frame = LaunchFrame(self, phases)

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
        recipe = self._recipes[i]
        if recipe is not None:
            lead, rest, _ = recipe
            return ((sizes[lead] if lead.__class__ is str else lead),) + rest
        shape = self._resolve_shape(self.scratch[i], sizes)
        if shape is None:
            raise ExecutionError(f"cannot size buffer {self.scratch[i].name}")
        return shape

    def _start_terms(self, sizes: Optional[Dict[str, int]] = None):
        """Per scratch buffer, and one past the last, ``(a, b, c)``: it
        starts at ``a + b * num_nodes + c * max_batch_len`` rounded down
        to :data:`ALIGN`.  Each buffer takes its size plus ``ALIGN - 1``
        bytes, so rounding its start down never runs it into the next.
        A shape other than "rows of a static cell" is sized under
        ``sizes``; without them, such a plan has no terms (None)."""
        terms, a, b, c = [], ALIGN - 1, 0, 0
        for i, recipe in enumerate(self._recipes):
            terms.append((a, b, c))
            if recipe is None:
                if sizes is None:
                    return None
                a += (self.scratch[i].np_dtype.itemsize
                      * math.prod(self.scratch_shape(i, sizes)))
            elif recipe[0] == _NUM_NODES:
                b += recipe[2]
            elif recipe[0] == _MAX_BATCH:
                c += recipe[2]
            else:
                a += recipe[0] * recipe[2]
            a += ALIGN - 1
        terms.append((a, b, c))
        return terms

    def slab_offsets(self, num_nodes: int, max_batch_len: int) -> List[int]:
        """Where each scratch buffer of one call starts in its slab, in
        :attr:`scratch` order, then the slab's size: each offset on a
        64-byte boundary past the end of the buffer before it.  The
        ``needs_zero`` buffers come first, so they lie in the slab's first
        ``offsets[num_zeroed]`` bytes."""
        terms = self._terms or self._start_terms(
            {_NUM_NODES: num_nodes, _MAX_BATCH: max_batch_len})
        return [(a + b * num_nodes + c * max_batch_len) & -ALIGN
                for a, b, c in terms]

    def layout(self, num_nodes: int, max_batch_len: int):
        """:meth:`slab_offsets` with each buffer named: ``(entries,
        zero_bytes, total_bytes)``, one ``(name, dtype, shape, offset)``
        entry per :attr:`scratch` buffer."""
        offsets = self.slab_offsets(num_nodes, max_batch_len)
        sizes = {_NUM_NODES: num_nodes, _MAX_BATCH: max_batch_len}
        return [(step.name, step.np_dtype, self.scratch_shape(i, sizes), at)
                for i, (step, at) in enumerate(zip(self.scratch, offsets))
                ], offsets[self.num_zeroed], offsets[-1]

    def make_workspace(self, lin: Linearized,
                       params: Mapping[str, np.ndarray],
                       arena=None) -> Tuple[Mapping[str, np.ndarray],
                                            List[np.ndarray]]:
        """Build the workspace; returns it plus the arena lease, if any.

        UF arrays, then one slab — leased from ``arena``, or fresh zeros —
        cut into the scratch buffers per :meth:`layout`, then the model
        parameters and any buffer the caller supplies, checked and used in
        place.  Everything that can be refused is checked before the lease.
        On an :attr:`addressed` plan it is the call's frame
        :class:`Workspace` (:meth:`bind`).
        """
        if self.addressed:
            ws, leased, _ = self.bind(lin, params, arena)
            return ws, leased
        sizes = {_NUM_NODES: lin.num_nodes, _MAX_BATCH: lin.max_batch_len}
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

    # -- the launch frame (addressed plans) ---------------------------------
    def bind(self, lin: Linearized, params: Mapping[str, np.ndarray],
             arena=None, c: Optional[Dict[str, int]] = None):
        """One call of an :attr:`addressed` plan: its :class:`Workspace`,
        the arena lease (empty without an arena) and the five phases'
        launch records, each a :class:`~repro.runtime.native.BoundLaunch`
        holding this call's addresses (:meth:`LaunchFrame.bind`).

        Every supplied array is checked before the lease: a missing
        parameter, a wrong shape (:class:`~repro.errors.ExecutionError`),
        a dtype other than the launch ABI's or a strided array a launch
        reads as dense memory (:class:`~repro.errors.NativeError`).
        """
        return self._frame.bind(lin, params, arena,
                                self.bind_scalars(lin) if c is None else c)


def _missing(name: str) -> ExecutionError:
    return ExecutionError(f"missing model parameter {name!r}")


#: what the per-call check of a parameter compares with the expected
_PROBE = operator.attrgetter("__class__", "shape", "dtype", "strides")


class LaunchFrame:
    """Where every pointer argument of an addressed plan's launches lives,
    as a function of the call's shape; one per plan, never written after
    it is built.

    Each argument is a slot of a call's address vector: the scratch
    buffers in slab order, then the linearizer arrays the launches read,
    then the parameters read as dense memory, then the packed panels.  A
    call (:meth:`bind`) checks what the caller supplies, leases the slab
    and fills the vector — a scratch buffer at the slab's address plus its
    offset from :meth:`HostPlan.slab_offsets`, a linearizer array at the
    block's address plus the term :func:`~repro.linearizer.linearize
    .uf_term` gives, a parameter or panel at its own (cached) address —
    then hands each launch its slots: ``base + offset`` ints, no array
    object made before the launch.
    """

    def __init__(self, plan: HostPlan, phases) -> None:
        self.plan = plan
        #: ``(phase index, kernel name, launcher)`` in launch order
        self.launches = [(k, name, fn) for k, phase in enumerate(phases)
                         for name, fn in phase]
        # every array a launch reads: its ABI dtype, the first kernel that
        # reads it, and the first that reads it as dense memory
        reads: Dict[str, list] = {}
        for _, kernel, fn in self.launches:
            for name, dt in fn.abi_arrays:
                entry = reads.setdefault(name, [dt, kernel, None])
                entry[2] = entry[2] or kernel
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
        self.scratch_index = {b.name: i for i, b in enumerate(plan.scratch)}
        param_index = {name: i for i, name in enumerate(self.names)}
        block: Dict[str, int] = {}    # linearizer array -> term index
        dense: Dict[str, int] = {}    # parameter -> dense index
        panels: Dict[tuple, int] = {}  # (parameter, width) -> panel index
        #: the launch arguments no call can source, refused on every call
        #: (``launch_refusal``'s arguments), and the linearizer arrays'
        #: child rows: ``(rows a call needs, kernel, name, dt)``
        self.unsourced: List[tuple] = []
        self.rows: List[tuple] = []
        self.block_terms: List[Tuple[int, int, int]] = []
        refs = []
        for _, kernel, fn in self.launches:
            ref = []
            for name, dt in fn.abi_arrays:
                if name in self.scratch_index:
                    ref.append(("slab", self.scratch_index[name]))
                elif name in param_index:
                    ref.append(("dense", dense.setdefault(name, len(dense))))
                elif (term := uf_term(name)) is not None:
                    if name not in block:
                        block[name] = len(block)
                        self.block_terms.append(term[:3])
                        self.rows.append((term[3], kernel, name, dt))
                    ref.append(("block", block[name]))
                else:
                    self.unsourced.append((kernel, name, None, dt))
            for name, dt in fn.abi_packed:
                if name not in param_index:
                    self.unsourced.append((kernel, name, None, dt))
                    continue
                key = (param_index[name], fn.panel)
                ref.append(("panel", panels.setdefault(key, len(panels))))
            refs.append(ref)
        self.min_rows = max((r[0] for r in self.rows), default=0)
        self.dense = [param_index[name] for name in dense]
        self.panels = list(panels)
        # the slab's slots are its buffers' offsets, then its size
        first = {"slab": 0, "block": len(plan.scratch) + 1}
        first["dense"] = first["block"] + len(self.block_terms)
        first["panel"] = first["dense"] + len(self.dense)
        #: per launch, its pointer arguments' slots in the address vector
        self.slots = [[first[kind] + i for kind, i in ref] for ref in refs]

    def bind(self, lin: Linearized, params: Mapping[str, np.ndarray],
             arena, c: Dict[str, int]):
        """:meth:`HostPlan.bind` under the scalar bindings ``c``."""
        arrays = list(map(params.get, self.names))
        try:
            known = list(map(_PROBE, arrays)) == self.expected
        except AttributeError:  # a missing parameter, or not an array
            known = False
        if not known:
            arrays = self._checked(lin, arrays)
        if self.unsourced:
            raise launch_refusal(*self.unsourced[0])
        mc = lin.max_children
        if mc < self.min_rows:
            rows, kernel, name, dt = next(r for r in self.rows if r[0] > mc)
            raise launch_refusal(kernel, name, None, dt)
        own = (self._own(lin, params)
               if not self.scratch_index.keys().isdisjoint(params) else {})
        n, levels = lin.num_nodes, lin.num_batches
        offsets = self.plan.slab_offsets(n, lin.max_batch_len)
        keep = [panel_packed(arrays[i], width) for i, width in self.panels]
        slab = (WorkspaceArena() if arena is None else arena).lease(
            offsets[-1], offsets[self.plan.num_zeroed])
        at = data_address(slab)
        vec = [at + offset for offset in offsets]
        for name, arr in own.items():
            vec[self.scratch_index[name]] = data_address(arr)
        at = lin.block_address
        vec += [at + 4 * ((a + b * mc) * n + r * levels)
                for a, b, r in self.block_terms]
        vec += [data_address(arrays[i]) for i in self.dense]
        vec += map(data_address, keep)
        phases: Tuple[List, ...] = ([], [], [], [], [])
        for (k, name, fn), slots in zip(self.launches, self.slots):
            args = [vec[i] for i in slots]
            args.append(fn.scalar_vector(c))
            phases[k].append((name, BoundLaunch(fn, args, keep)))
        ws = Workspace(dict(zip(self.names, arrays)), own, self, slab, lin,
                       offsets)
        return ws, ([] if arena is None else [slab]), phases

    def _checked(self, lin: Linearized, arrays: list) -> list:
        """Every parameter refused, typed, unless it has its declared
        shape and, where a launch reads it, the ABI's dtype and (read as
        dense memory) C-contiguity."""
        sizes = {_NUM_NODES: lin.num_nodes, _MAX_BATCH: lin.max_batch_len}
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
        sizes = {_NUM_NODES: lin.num_nodes, _MAX_BATCH: lin.max_batch_len}
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
    """The buffers of one frame-run call by name, each array made the first
    time it is read: a scratch buffer as a view of the call's slab, a
    linearizer array from the ``Linearized``, a model parameter (or a
    buffer the caller passed in) as the caller's own array.  A name can
    be set to another array, as in a dict."""

    __slots__ = ("_params", "_arrays", "_frame", "_slab", "_lin",
                 "_offsets")

    def __init__(self, params: Dict[str, np.ndarray],
                 own: Dict[str, np.ndarray], frame: LaunchFrame,
                 slab: np.ndarray, lin: Linearized,
                 offsets: List[int]) -> None:
        #: the checked parameters; then what this call made, was handed in
        #: place of a scratch buffer, or was set
        self._params, self._arrays = params, own
        self._frame, self._slab, self._lin = frame, slab, lin
        self._offsets = offsets

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is not None:
            return arr
        arr = self._params.get(name)
        if arr is not None:
            return arr
        i = self._frame.scratch_index.get(name)
        if i is not None:
            plan, lin = self._frame.plan, self._lin
            shape = plan.scratch_shape(i, {_NUM_NODES: lin.num_nodes,
                                           _MAX_BATCH: lin.max_batch_len})
            arr = self._arrays[name] = np.ndarray(
                shape, plan.scratch[i].np_dtype, self._slab, self._offsets[i])
            return arr
        if uf_term(name) is None:
            raise KeyError(name)
        for key, arr in self._lin.uf_arrays().items():
            self._arrays.setdefault(key, arr)
        return self._arrays[name]

    def __setitem__(self, name: str, arr: np.ndarray) -> None:
        self._arrays[name] = arr

    def __iter__(self) -> Iterator[str]:
        return iter(dict.fromkeys((*self._lin.uf_arrays(),
                                   *self._frame.scratch_index,
                                   *self._params, *self._arrays)))

    def __len__(self) -> int:
        return sum(1 for _ in self)


def build_host_plan(lowered: Lowered, compiled: CompiledModule) -> HostPlan:
    """Derive the host plan from a sealed module (lowered or reloaded)."""
    module = lowered.module
    zero_set = set(module.meta["needs_zero"])
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

    buffers: List[BufferStep] = []
    for name, buf in module.buffers.items():
        dims: List[object] = []
        static = True
        for s in buf.shape:
            if isinstance(s, Const):
                dims.append(int(s.value))
            elif isinstance(s, Var) and s.name in (_NUM_NODES, _MAX_BATCH):
                dims.append(s.name)
                static = False
            else:
                try:
                    dims.append(int(evaluate(s, {})))
                except Exception:
                    dims.append(s)
                    static = False
        required = (buf.scope in ("param", "register")
                    and not name.endswith("_hoisted"))
        buffers.append(BufferStep(
            name=name,
            np_dtype=np.dtype(buf.dtype.to_numpy()),
            dims=tuple(dims),
            static_shape=tuple(dims) if static else None,
            required_param=required,
            needs_zero=name in zero_set,
        ))

    return HostPlan(
        module=module,
        pre=groups["pre"], leaf=groups["leaf"], level=groups["level"],
        fused=groups["fused"], post=groups["post"],
        buffers=buffers,
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
    kernels over the internal batches, then fused and post kernels.

    When an exception escapes after the arena lease — a bad seed row, a
    failing kernel — the slab is released back to the arena before it
    propagates (a missing or mis-shaped parameter, and on an
    :attr:`~HostPlan.addressed` plan one of another dtype or strided, is
    refused before the lease), so a failed call never shrinks the arena.

    ``profiler`` is an optional :class:`~repro.runtime.profiler
    .KernelProfiler`: every launch record is wrapped in a per-call timing
    closure and the workspace/launch phase totals are recorded.  Without
    one (the default) the launch loop runs the plan's raw callables.

    ``seeds`` is an optional ``{buffer name: (row ids, rows)}`` mapping
    of pre-computed workspace rows (the memoization layer's cached
    subtree results, :mod:`repro.memo`).  Seeded rows are written right
    after workspace allocation, before any kernel launches — the batch
    arrays built by the splicer never iterate a seeded id, so kernels
    only ever *read* these rows through child indirection.
    """
    t_ws = time.perf_counter() if profiler is not None else 0.0
    c = plan.bind_scalars(lin)
    if plan.addressed:
        ws, leased, phases = plan.bind(lin, params, arena, c)
    else:
        ws, leased = plan.make_workspace(lin, params, arena)
        phases = (plan.pre, plan.leaf, plan.level, plan.fused, plan.post)
    try:
        if seeds:
            for name, (rows_idx, rows) in seeds.items():
                ws[name][rows_idx] = rows
        if profiler is not None:
            phases = [profiler.wrap(records) if records else records
                      for records in phases]
        pre, leaf, level, fused, post = phases

        t0 = time.perf_counter()
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
        profiler.note_execution(t0 - t_ws, wall)

    return ExecutionResult(
        workspace=ws, lin=lin, state_buffers=list(plan.module.state_buffers),
        wall_time_s=wall, arena_buffers=leased)
