"""RA lowering: recursion -> loops (§4).

The lowering turns a recursive RA program into an :class:`~repro.ilir.module
.ILModule`:

1. **Partition** operators into pre-recursion / body / post-recursion
   phases (input projections run once up front, as in GRNN).
2. **Materialize temporaries**: every body tensor becomes an explicit
   buffer sized ``(num_nodes, ...)`` (§4.1, "we make all the temporary
   tensors explicit").
3. **Specialization** (§3.1): if requested, the leaf and internal branch
   subgraphs become separate loop-nest groups over the leaf batch and the
   internal batches; otherwise a single group carries the conditional
   operator as a per-node predicate (§5.2).
4. **Computation hoisting + constant propagation** (§4.3): leaf nests whose
   value is node-independent are hoisted to run once; all-zero leaf values
   are folded away entirely (buffers are zero-initialized).
5. **Dense indexing** (Fig. 5): with maximal fusion, intermediates that
   never cross nodes are re-indexed by the in-batch loop and shrunk to
   ``max_batch_len`` rows in shared memory.
6. **Kernel formation**: fusion="max" emits one persistent fused kernel
   (with the barrier structure derived from the reduction-depth analysis)
   whose broadcast-read parameters are pinned on chip (model persistence,
   ``register`` scope); fusion="none" emits one kernel per operator per
   phase, launched per batch by the host.
7. **Bounds verification**: every access is checked with the prover +
   linearizer invariants; the report records eliminated vs residual checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..errors import CodegenError, LoweringError
from ..ilir.bounds import (BoundsReport, Facts, default_linearizer_facts,
                           verify_nest)
from ..ilir.buffer import ILBuffer
from ..ilir.layout import densify_intermediates
from ..ilir.module import HostStep, ILModule, Kernel
from ..ilir.nests import AxisSpec, OpNest
from ..ilir.splice_safety import splice_hazard
from ..ilir.zero_fill import zero_required
from ..ir import (Const, DimRegistry, Expr, Interval, Reduce, TensorRead,
                  UFCall, Var, as_expr, free_vars, is_zero, reads_of,
                  simplify, structural_equal, substitute, substitute_buffers,
                  walk)
from ..linearizer import Linearizer, StructureKind
from ..options import CompileOptions
from ..utils import NameSupply
from .analysis import (RecursionPartition, barriers_per_level, partition,
                       refactor_barrier_saving)
from .ops import (ComputeOp, IfThenElseOp, InputOp, Operation, PlaceholderOp,
                  Program, RecursionOp)
from .tensor import NUM_NODES, RATensor

MAX_BATCH_LEN = Var("max_batch_len")


@dataclass
class Lowered:
    """Lowering output: the module plus runtime configuration."""

    module: ILModule
    linearizer: Linearizer
    bounds: Dict[str, BoundsReport] = field(default_factory=dict)


def seal(module: ILModule) -> ILModule:
    """What a module gets once its nests exist, lowered or decoded from an
    artifact: the verdicts its runtime reads in ``meta`` — which buffers a
    recycled workspace must re-zero (``needs_zero``; the host plan) and why
    cached rows may not be spliced in (``splice_refusal``, ``None`` when
    they may; the memo splicer) — and the well-formedness check."""
    from ..ilir.verify import assert_well_formed

    module.meta["needs_zero"] = sorted(zero_required(module))
    module.meta["splice_refusal"] = splice_hazard(module)
    assert_well_formed(module)
    return module


def run_codegen(module: ILModule) -> ILModule:
    """Generate the module's kernel sources (Python + C).

    Split out of :func:`lower` so the staged pipeline can time and hook
    code generation as its own stage; ``lower(..., codegen=False)``
    followed by ``run_codegen`` is exactly ``lower(...)``.
    """
    from ..ilir.codegen.c_codegen import generate_c_module
    from ..ilir.codegen.python_codegen import generate_python

    generate_python(module)
    try:
        module.c_source, module.c_signatures = generate_c_module(module)
    except CodegenError:
        # a construct the native generator refuses: no C source, and
        # target="c" falls back to the Python kernels with a warning
        module.c_source = module.c_signatures = None
    return module


def lower(prog: Program, options: CompileOptions, *,
          codegen: bool = True) -> Lowered:
    """Lower a finalized RA program as ``options`` say: its ``fusion``,
    ``specialize``, ``dense_intermediates`` and ``dynamic_batch`` knobs
    shape the kernels and the linearizer (``memo`` and ``target`` act
    after lowering).

    With ``codegen=False`` the module is lowered and verified but carries
    no generated sources yet; call :func:`run_codegen` on the module to
    produce them (the staged pipeline does this to record per-stage time).
    """
    prog.finalize()
    if prog.recursion is None:
        raise LoweringError("program has no recursion_op; nothing to lower")

    ctx = _LoweringContext(prog, options)
    ctx.build_buffers()
    ctx.build_nests()
    ctx.hoist_and_fold_constants()
    if options.fusion == "max":
        if options.dense_intermediates:
            ctx.densify()
        ctx.persist_params()
    module = seal(ctx.form_kernels())
    bounds = ctx.verify_bounds()
    if codegen:
        run_codegen(module)
    return Lowered(module=module, linearizer=linearizer_for(module),
                   bounds=bounds)


def linearizer_for(module: ILModule) -> Linearizer:
    """The linearizer a module's kernels expect: the structure kind and
    arity, batching and leaf specialization lowering recorded in
    ``meta``, and the declared rows of the smallest table gathered through
    ``words`` (see :attr:`Linearizer.word_limit`)."""
    meta = module.meta
    limits = [int(read.buffer.shape[d].value)
              for kernel in module.kernels for nest in kernel.nests
              for read in reads_of(nest.body)
              for d, idx in enumerate(read.indices)
              if isinstance(read.buffer.shape[d], Const)
              and any(isinstance(x, UFCall) and x.fn.name == "words"
                      for x in walk(idx))]
    return Linearizer(StructureKind(meta["kind"]), meta["max_children"],
                      dynamic_batch=meta["dynamic_batch"],
                      specialize_leaves=meta["specialize"],
                      word_limit=min(limits, default=None))


class _LoweringContext:
    def __init__(self, prog: Program, options: CompileOptions):
        self.prog = prog
        self.options = options
        self.part: RecursionPartition = partition(prog)
        self.names = NameSupply()
        self.dims = DimRegistry()
        self.buffers: Dict[str, ILBuffer] = {}
        #: RA tensor name -> ILIR buffer (aliases collapse here)
        self.binding: Dict[str, ILBuffer] = {}
        self.pre_nests: List[OpNest] = []
        self.leaf_nests: List[OpNest] = []
        self.level_nests: List[OpNest] = []
        self.hoisted_nests: List[OpNest] = []
        self.post_nests: List[OpNest] = []
        self.zero_folded: List[str] = []
        self.state_names: List[str] = []
        self.stages: Dict[str, int] = {}

    # ------------------------------------------------------------------ buffers
    def build_buffers(self) -> None:
        d_node = self.dims.dim("d_node")
        rec = self.part.recursion
        assert rec is not None

        # recursion state buffers; placeholder/body/branches alias them
        alias_targets: Dict[str, str] = {}
        for (ph, body), out in zip(rec.pairs, rec.outputs):
            state = ILBuffer(out.name, (NUM_NODES,) + tuple(ph.shape[1:]),
                             ph.dtype, scope="global")
            self.buffers[state.name] = state
            self.state_names.append(state.name)
            self.binding[ph.name] = state
            self.binding[out.name] = state
            self.binding[body.name] = state
            body_op = body.op
            # With specialization the branch producers write the state buffer
            # directly (Listing 2).  Without it, the branches stay separate
            # and the conditional operator selects between them (§5.2).
            if isinstance(body_op, IfThenElseOp) and self.options.specialize:
                self.binding[body_op.then_t.name] = state
                self.binding[body_op.else_t.name] = state

        for op in self.part.inputs:
            t = op.output
            scope = "global" if t.is_recursive else "param"
            buf = ILBuffer(t.name, t.shape, t.dtype, scope=scope)
            self.buffers[buf.name] = buf
            self.binding[t.name] = buf

        for op in self.part.pre + self.part.body + self.part.post:
            t = op.output
            if t.name in self.binding:
                continue
            buf = ILBuffer(t.name, t.shape, t.dtype, scope="global")
            self.buffers[buf.name] = buf
            self.binding[t.name] = buf

    # ------------------------------------------------------------------ nests
    def build_nests(self) -> None:
        self._assign_stages()
        rec = self.part.recursion
        assert rec is not None

        ite_ops = [b.op for _, b in rec.pairs if isinstance(b.op, IfThenElseOp)]
        then_sub = self._subgraph({op.then_t for op in ite_ops})
        else_sub = self._subgraph({op.else_t for op in ite_ops})

        for op in self.part.pre:
            self.pre_nests.append(self._nest_of(op, phase="pre"))
        for op in self.part.post:
            self.post_nests.append(self._nest_of(op, phase="post"))

        if self.options.specialize and ite_ops:
            for op in self.part.body:
                if isinstance(op, IfThenElseOp):
                    # branches write straight into the state buffer: emit a
                    # copy nest only if the branch tensor is NOT aliased
                    self._emit_branch_writes(op)
                    continue
                in_then = op.output.name in then_sub
                in_else = op.output.name in else_sub
                if in_then:
                    self.leaf_nests.append(self._nest_of(op, phase="leaf"))
                if in_else or not (in_then or in_else):
                    self.level_nests.append(self._nest_of(op, phase="level"))
        else:
            # conditional-operator path (§5.2): one group over all batches,
            # branch subgraph nests predicated on the leaf check
            for op in self.part.body:
                if isinstance(op, IfThenElseOp):
                    nest = self._ite_nest(op)
                    self.level_nests.append(nest)
                    continue
                nest = self._nest_of(op, phase="level")
                name = op.output.name
                if name in then_sub and name not in else_sub:
                    nest.predicate = self._leaf_pred(nest)
                elif name in else_sub and name not in then_sub:
                    pred = self._leaf_pred(nest)
                    from ..ir import UnaryOp

                    nest.predicate = UnaryOp("not", pred)
                self.level_nests.append(nest)

    def _assign_stages(self) -> None:
        """Reduction-chain stages: the barrier interval each op runs in."""
        from .analysis import is_hidden_reduction

        rd: Dict[str, int] = {}
        for op in self.part.body:
            in_rd = max((rd.get(t.name, 0) for t in op.inputs), default=0)
            rd[op.output.name] = in_rd + 1 if is_hidden_reduction(op) else in_rd
        for name, depth in rd.items():
            self.stages[name] = max(0, depth - 1)

    def _subgraph(self, roots: Set[RATensor]) -> Set[str]:
        """Body-op tensor names reachable (backwards) from ``roots``."""
        body_by_name = {op.output.name: op for op in self.part.body}
        out: Set[str] = set()
        stack = [t for t in roots]
        while stack:
            t = stack.pop()
            if t.name in out or t.name not in body_by_name:
                continue
            out.add(t.name)
            stack.extend(body_by_name[t.name].inputs)
        return out

    def _leaf_pred(self, nest: OpNest) -> Expr:
        node_var = nest.lets[0][0]
        return self.prog.access.isleaf(node_var)

    # -- nest construction -----------------------------------------------------
    def _nest_of(self, op: Operation, phase: str) -> OpNest:
        if not isinstance(op, ComputeOp):
            raise LoweringError(f"cannot lower {type(op).__name__} directly")
        out_buf = self.binding[op.output.name]
        axes: List[AxisSpec] = []
        lets: List[Tuple[Var, Expr]] = []
        node_var = op.node_var
        if node_var is not None:
            n_idx = Var(self.names.fresh("n_idx"))
            b = Var("b_idx")
            access = self.prog.access
            d_batch = self.dims.dim("d_batch")
            axes.append(AxisSpec(n_idx, access.batch_length(b), kind="node",
                                 dim=d_batch))
            node_expr = access.batch_begin(b) + n_idx
            lets.append((node_var, node_expr))
            # Appendix A.2: the d_node tensor dimension is traversed by the
            # (d_all_batches, d_batch) loop pair through the batch arrays
            self.dims.relate(self.dims.dim("d_node"),
                             [self.dims.dim("d_all_batches"), d_batch],
                             [b, n_idx], node_expr)
        for j, av in enumerate(op.axes):
            if j == 0 and node_var is not None:
                continue
            axes.append(AxisSpec(av, op.output.shape[j], kind="spatial",
                                 dim=self.dims.dim(f"d_{av.name}")))

        body = substitute_buffers(op.body, self.binding)
        out_indices: List[Expr] = []
        for j, av in enumerate(op.axes):
            out_indices.append(av)

        reads = [self.binding[t.name] for t in op.inputs
                 if t.name in self.binding]
        tag = self._tag_of(op)
        return OpNest(name=op.output.name, out=out_buf, axes=axes,
                      out_indices=out_indices, body=body, lets=lets,
                      stage=self.stages.get(op.output.name, 0), tag=tag,
                      phase=phase, reads=reads)

    def _emit_branch_writes(self, ite: IfThenElseOp) -> None:
        """With specialization, branch producers already write the state
        buffer (they are aliased); nothing to emit for the ITE itself."""
        for t in (ite.then_t, ite.else_t):
            if self.binding[t.name].name != self.binding[ite.output.name].name:
                raise LoweringError(
                    f"branch tensor {t.name} must alias the recursion state")

    def _ite_nest(self, ite: IfThenElseOp) -> OpNest:
        """Conditional operator (§5.2): select between branch buffers."""
        out_buf = self.binding[ite.output.name]
        node_var = ite.node_var
        if node_var is None:
            raise LoweringError("if_then_else requires a node axis")
        n_idx = Var(self.names.fresh("n_idx"))
        b = Var("b_idx")
        access = self.prog.access
        axes = [AxisSpec(n_idx, access.batch_length(b), kind="node",
                         dim=self.dims.dim("d_batch"))]
        lets: List[Tuple[Var, Expr]] = [(node_var, access.batch_begin(b) + n_idx)]
        for av in ite.axes[1:]:
            axes.append(AxisSpec(av, ite.output.shape[len(axes)], kind="spatial"))
        then_buf = self.binding[ite.then_t.name]
        else_buf = self.binding[ite.else_t.name]
        idx = [node_var] + list(ite.axes[1:])
        from ..ir import Select

        body = Select(ite.cond, TensorRead(then_buf, idx),
                      TensorRead(else_buf, idx))
        return OpNest(name=ite.output.name, out=out_buf, axes=axes,
                      out_indices=list(ite.axes), body=body, lets=lets,
                      stage=self.stages.get(ite.output.name, 0),
                      tag="select", phase="level",
                      reads=[then_buf, else_buf])

    def _tag_of(self, op: ComputeOp) -> str:
        if isinstance(op.body, Reduce):
            variable = any(isinstance(x, UFCall)
                           for ax in op.body.axes for x in walk(ax.extent))
            return "childsum" if variable else "matvec"
        for r in reads_of(op.body):
            if r.indices and isinstance(r.indices[0], UFCall):
                return "gather"
        return "elementwise"

    # --------------------------------------------------------- hoist/constprop
    def hoist_and_fold_constants(self) -> None:
        """§4.3: node-independent leaf values run once; zeros vanish."""
        kept: List[OpNest] = []
        for nest in self.leaf_nests:
            body = simplify(nest.body) if not isinstance(nest.body, Reduce) \
                else nest.body
            nest.body = body
            if not isinstance(body, Reduce) and isinstance(body, Const) \
                    and is_zero(body):
                # zero tensor: buffers are zero-initialized, skip entirely
                self.zero_folded.append(nest.name)
                continue
            if self._node_independent(nest):
                self._hoist(nest)
                kept.append(nest)  # nest becomes the broadcast copy
            else:
                kept.append(nest)
        self.leaf_nests = kept

    def _node_independent(self, nest: OpNest) -> bool:
        if isinstance(nest.body, Reduce):
            return False
        node_names = {v.name for v, _ in nest.lets}
        node_names.update(a.var.name for a in nest.axes if a.kind == "node")
        fv = set(free_vars(nest.body))
        if fv & node_names:
            return False
        # any UF call on the node (words(n)) also blocks hoisting
        for x in walk(nest.body):
            if isinstance(x, UFCall):
                for arg in x.args:
                    if set(free_vars(arg)) & node_names:
                        return False
        return True

    def _hoist(self, nest: OpNest) -> None:
        spatial = [a for a in nest.axes if a.kind != "node"]
        hbuf = ILBuffer(f"{nest.name}_hoisted",
                        tuple(a.extent for a in spatial),
                        nest.out.dtype, scope="param")
        self.buffers[hbuf.name] = hbuf
        hoisted = OpNest(name=hbuf.name, out=hbuf,
                         axes=[AxisSpec(a.var, a.extent, kind="spatial")
                               for a in spatial],
                         out_indices=[a.var for a in spatial],
                         body=nest.body, tag="hoisted", phase="hoisted")
        self.hoisted_nests.append(hoisted)
        # original nest becomes a broadcast of the hoisted value
        nest.body = TensorRead(hbuf, [a.var for a in spatial])
        nest.tag = "broadcast"
        nest.reads = [hbuf]

    # ------------------------------------------------------------------ layout
    def densify(self) -> None:
        nests = self.leaf_nests + self.level_nests
        densify_intermediates(nests, self.buffers, MAX_BATCH_LEN,
                              protected=self.state_names)

    def persist_params(self) -> None:
        """Pin parameters *reused in every iteration* on chip (§1).

        Only broadcast-read parameters (weights, biases: every index is a
        spatial/reduce axis) qualify — they are re-streamed per level and
        caching them pays off.  Gather tables (embeddings, feature rows)
        are touched once per node and stay in DRAM.
        """
        broadcast_ok: Dict[str, bool] = {}
        for nest in self.leaf_nests + self.level_nests + self.hoisted_nests:
            node_names = {a.var.name for a in nest.axes if a.kind == "node"}
            node_names.update(v.name for v, _ in nest.lets)
            body = nest.body.body if isinstance(nest.body, Reduce) else nest.body
            for r in reads_of(body):
                buf = r.buffer
                if not (isinstance(buf, ILBuffer) and buf.scope == "param"):
                    continue
                node_dep = any(
                    bool(set(free_vars(idx)) & node_names)
                    for idx in r.indices)
                prev = broadcast_ok.get(buf.name, True)
                broadcast_ok[buf.name] = prev and not node_dep
        for name, ok in broadcast_ok.items():
            if ok:
                self.buffers[name].scope = "register"

    # ------------------------------------------------------------------ kernels
    def form_kernels(self) -> ILModule:
        options = self.options
        steps: List[HostStep] = []
        for nest in self.hoisted_nests:
            steps.append(HostStep(Kernel(nest.name, "hoisted", [nest])))
        for nest in self.pre_nests:
            steps.append(HostStep(Kernel(nest.name, "pre", [nest])))

        barriers = barriers_per_level(self.part)
        if options.fusion == "max":
            fused = Kernel("fused", "fused",
                           self.leaf_nests + self.level_nests,
                           barriers_per_level=barriers)
            steps.append(HostStep(fused))
        else:
            for nest in self.leaf_nests:
                steps.append(HostStep(Kernel(f"leaf_{nest.name}", "leaf", [nest])))
            for nest in self.level_nests:
                steps.append(HostStep(Kernel(f"level_{nest.name}", "level", [nest])))
        for nest in self.post_nests:
            steps.append(HostStep(Kernel(nest.name, "post", [nest])))

        meta = {
            "fusion": options.fusion,
            "dynamic_batch": options.dynamic_batch,
            "specialize": options.specialize,
            "barriers_per_level": barriers,
            "refactor_saving": refactor_barrier_saving(self.prog),
            "zero_folded": list(self.zero_folded),
            "max_children": self.prog.max_children,
            "kind": self.prog.kind.value,
        }
        return ILModule(name=self.prog.name, steps=steps, buffers=self.buffers,
                        dims=self.dims, state_buffers=list(self.state_names),
                        output_buffers=list(self.state_names), meta=meta)

    def all_nests(self) -> List[OpNest]:
        return (self.hoisted_nests + self.pre_nests + self.leaf_nests
                + self.level_nests + self.post_nests)

    # ------------------------------------------------------------------ bounds
    def verify_bounds(self) -> Dict[str, BoundsReport]:
        facts = default_linearizer_facts(NUM_NODES)
        facts.env["num_nodes"] = Interval(1, float("inf"))
        facts.env["max_batch_len"] = Interval(1, float("inf"))
        self._bind_symbolic_extent_facts(facts)
        out: Dict[str, BoundsReport] = {}
        for nest in self.all_nests():
            out[nest.name] = verify_nest(nest, facts)
        return out

    def _bind_symbolic_extent_facts(self, facts: Facts) -> None:
        """Tie symbolic extents (vocab_size) to concrete buffer shapes."""
        for nest in self.all_nests():
            body = nest.body.body if isinstance(nest.body, Reduce) else nest.body
            for r in reads_of(body):
                if not isinstance(r.buffer, ILBuffer):
                    continue
                for idx, extent in zip(r.indices, r.buffer.shape):
                    if isinstance(idx, UFCall) and idx.fn.range is not None:
                        hi = idx.fn.range[1]
                        if isinstance(hi, Var) and isinstance(extent, Const):
                            v = int(extent.value)
                            known = facts.env.get(hi.name)
                            if known is None:
                                facts.env[hi.name] = Interval(v, v)
