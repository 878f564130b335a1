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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..ilir.codegen.compiled import CompiledModule
from ..ilir.module import ILModule
from ..ir import Const, Var, evaluate
from ..linearizer import Linearized
from ..ra.lowering import Lowered
from .kernels import data_address
from .memory import ALIGN, WorkspaceArena

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
    #: does any launch take data addresses (a native launcher)?  Only
    #: then does :meth:`make_workspace` work them out.
    addressed: bool = field(init=False)

    def __post_init__(self) -> None:
        scratch = [b for b in self.buffers if not b.required_param]
        self.scratch = sorted(scratch, key=lambda b: not b.needs_zero)
        self.num_zeroed = sum(b.needs_zero for b in scratch)
        self.addressed = any(
            getattr(fn, "is_native", False) for _, fn in
            self.pre + self.leaf + self.level + self.fused + self.post)
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

    def layout(self, num_nodes: int, max_batch_len: int):
        """Where each scratch buffer of one call lives in its slab.

        Returns ``(entries, zero_bytes, total_bytes)``: one ``(name, dtype,
        shape, offset)`` per :attr:`scratch` buffer in that order — the
        ``needs_zero`` ones first, so they are exactly the slab's first
        ``zero_bytes`` — each offset the 64-byte-aligned running sum of
        the sizes before it.
        """
        sizes = {_NUM_NODES: num_nodes, _MAX_BATCH: max_batch_len}
        entries = []
        offset = 0
        for step, recipe in zip(self.scratch, self._recipes):
            if recipe is not None:
                lead, rest, row_bytes = recipe
                if lead.__class__ is str:
                    lead = sizes[lead]
                shape = (lead,) + rest
                nbytes = lead * row_bytes
            else:
                shape = self._resolve_shape(step, sizes)
                if shape is None:
                    raise ExecutionError(f"cannot size buffer {step.name}")
                nbytes = step.np_dtype.itemsize * math.prod(shape)
            entries.append((step.name, step.np_dtype, shape, offset))
            offset = (offset + nbytes + ALIGN - 1) & -ALIGN
        k = self.num_zeroed
        return entries, (entries[k][3] if k < len(entries) else offset), offset

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
        sizes = {_NUM_NODES: lin.num_nodes, _MAX_BATCH: lin.max_batch_len}
        given: Dict[str, np.ndarray] = {}
        for step in self.buffers:
            name = step.name
            supplied = params.get(name)
            if supplied is None:
                if step.required_param:
                    # model parameters must be supplied; zero-filling them
                    # would silently produce wrong results
                    raise ExecutionError(f"missing model parameter {name!r}")
                continue
            arr = (supplied if supplied.__class__ is np.ndarray
                   else np.asarray(supplied))
            expect = step.static_shape or self._resolve_shape(step, sizes)
            if expect is not None and arr.shape != expect:
                raise ExecutionError(
                    f"parameter {name}: shape {arr.shape} != "
                    f"declared {expect}")
            given[name] = arr
        entries, zero_bytes, total = self.layout(lin.num_nodes,
                                                 lin.max_batch_len)
        # without an arena, a throwaway one: fresh zeros, nothing parked
        slab = (WorkspaceArena() if arena is None
                else arena).lease(total, zero_bytes)
        if not self.addressed:
            ws = lin.uf_arrays()
            for name, dtype, shape, offset in entries:
                ws[name] = np.ndarray(shape, dtype, slab, offset)
        else:
            # the launch's addresses: a scratch buffer sits at its planned
            # offset in the slab, a parameter where it sat last call
            ws = lin.uf_arrays(True)
            base, addr = data_address(slab), ws.addr
            for name, dtype, shape, offset in entries:
                view = ws[name] = np.ndarray(shape, dtype, slab, offset)
                addr[name] = (view, base + offset)
            for name, arr in given.items():
                addr[name] = (arr, data_address(arr))
        ws.update(given)
        return ws, ([] if arena is None else [slab])


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

    workspace: Dict[str, np.ndarray]
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
    propagates (a missing or mis-shaped parameter is refused before the
    lease), so a failed call never shrinks the arena.

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
    ws, leased = plan.make_workspace(lin, params, arena)
    try:
        if seeds:
            for name, (rows_idx, rows) in seeds.items():
                ws[name][rows_idx] = rows
        if profiler is not None:
            pre = profiler.wrap(plan.pre)
            leaf = profiler.wrap(plan.leaf)
            level = profiler.wrap(plan.level)
            fused = profiler.wrap(plan.fused)
            post = profiler.wrap(plan.post)
        else:
            pre, leaf, level = plan.pre, plan.leaf, plan.level
            fused, post = plan.fused, plan.post

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
