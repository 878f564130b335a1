"""Graph analyses over RA programs used by lowering and the cost model.

The analyses formalize the execution-structure facts the paper reasons
about informally:

* :func:`toposort` / :func:`partition` — classify operators into the
  pre-recursion phase (input matmuls hoisted out, as in GRNN), the recursion
  body, and the post-recursion phase.
* :func:`reduction_depth` — the length of the longest chain of hidden-dim
  reductions inside one recursion step.  In a fused persistent kernel the
  hidden dimension is partitioned across thread blocks, so every reduction
  that consumes data written after the last global barrier needs a new
  barrier; the chain depth is therefore the number of global barriers per
  level (cf. §7.4 and GRNN).
* :func:`combine_reads_placeholder` — whether the op producing the recursion
  result directly consumes children state.  This is exactly the paper's
  footnote-4 distinction between TreeGRU (``h = z*h_sum + (1-z)*h'``) and
  SimpleTreeGRU (``h = (1-z)*h'``) and gates whether recursive refactoring
  can eliminate a barrier (Fig. 10c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from ..errors import LoweringError
from .ops import (ComputeOp, IfThenElseOp, InputOp, Operation, PlaceholderOp,
                  Program, RecursionOp)
from .tensor import RATensor


def op_inputs(op: Operation) -> List[Operation]:
    """Producing ops of ``op``'s inputs (placeholders included, no backedge)."""
    out = []
    for t in op.inputs:
        if t.op is not None:
            out.append(t.op)
    return out


def toposort(prog: Program) -> List[Operation]:
    """Operators in dependency order, recursion backedge excluded."""
    order: List[Operation] = []
    state: Dict[int, int] = {}

    def visit(op: Operation) -> None:
        s = state.get(id(op), 0)
        if s == 2:
            return
        if s == 1:
            raise LoweringError("cycle in RA graph (excluding recursion backedge)")
        state[id(op)] = 1
        for dep in op_inputs(op):
            visit(dep)
        state[id(op)] = 2
        order.append(op)

    for op in prog.ops:
        visit(op)
    return order


@dataclass
class RecursionPartition:
    """Operator classification around the recursion."""

    inputs: List[InputOp] = field(default_factory=list)
    pre: List[Operation] = field(default_factory=list)     # run once, before
    body: List[Operation] = field(default_factory=list)    # run per node/batch
    post: List[Operation] = field(default_factory=list)    # run once, after
    recursion: RecursionOp | None = None

    @property
    def body_computes(self) -> List[ComputeOp]:
        return [op for op in self.body if isinstance(op, ComputeOp)]


def _reachable_back(roots: Sequence[RATensor]) -> Set[int]:
    """Ids of ops reachable backwards from ``roots`` (inputs excluded)."""
    seen: Set[int] = set()
    stack = [t.op for t in roots if t.op is not None]
    while stack:
        op = stack.pop()
        if id(op) in seen or isinstance(op, (InputOp, PlaceholderOp)):
            continue
        seen.add(id(op))
        stack.extend(op_inputs(op))
    return seen


def partition(prog: Program) -> RecursionPartition:
    """Split ops into input / pre-recursion / body / post-recursion sets.

    Body ops are (a) anything transitively reading a placeholder, and (b)
    the leaf-branch subgraph of the recursion's conditional — leaf values
    are produced inside the recursion (over the leaf batch), not hoisted.
    Placeholder-independent ops feeding *both* branches (input projections)
    stay in the pre phase, matching the GRNN-style upfront matmul.
    """
    prog.finalize()
    part = RecursionPartition(recursion=prog.recursion)

    then_only: Set[int] = set()
    if prog.recursion is not None:
        ites = [b.op for _, b in prog.recursion.pairs
                if isinstance(b.op, IfThenElseOp)]
        then_sub = _reachable_back([op.then_t for op in ites])
        else_sub = _reachable_back([op.else_t for op in ites])
        then_only = then_sub - else_sub

    depends_on_ph: Set[int] = set()
    depends_on_rec: Set[int] = set()
    for op in toposort(prog):
        if isinstance(op, InputOp):
            part.inputs.append(op)
            continue
        if isinstance(op, PlaceholderOp):
            depends_on_ph.add(id(op))
            continue
        if isinstance(op, RecursionOp):
            depends_on_rec.add(id(op))
            continue
        dep_ph = any(id(d) in depends_on_ph for d in op_inputs(op))
        dep_rec = any(id(d) in depends_on_rec for d in op_inputs(op))
        if dep_rec:
            depends_on_rec.add(id(op))
            part.post.append(op)
        elif dep_ph or id(op) in then_only:
            depends_on_ph.add(id(op))
            part.body.append(op)
        else:
            part.pre.append(op)
    return part


def _body_index(part: RecursionPartition) -> Dict[str, Operation]:
    return {op.output.name: op for op in part.body}


def is_hidden_reduction(op: Operation) -> bool:
    """True for reductions over the hidden dimension (constant extents).

    In a persistent kernel the hidden dimension of a vector is partitioned
    across thread blocks, so computing any output component of ``U . v``
    requires *all* components of ``v`` — a global barrier if ``v`` was
    written since the last one.  Child-sum reductions (variable extent over
    a node's children) combine per-component and stay block-local.
    """
    from ..ir import Reduce, UFCall, walk

    if not (isinstance(op, ComputeOp) and op.has_reduction):
        return False
    body = op.body
    assert isinstance(body, Reduce)
    return not any(isinstance(x, UFCall)
                   for ax in body.axes for x in walk(ax.extent))


def reduction_depth(part: RecursionPartition) -> int:
    """Longest chain of hidden-dim reductions within one recursion step.

    ``rd(op) = max(rd(inputs))``, +1 when ``op`` reduces over the hidden
    dimension.  A fused persistent kernel needs ``max(1, max rd)`` global
    barriers per level.
    """
    body = _body_index(part)
    rd: Dict[str, int] = {}
    for op in part.body:
        in_rd = max((rd.get(t.name, 0) for t in op.inputs), default=0)
        rd[op.output.name] = in_rd + 1 if is_hidden_reduction(op) else in_rd
    return max(rd.values(), default=0)


def barriers_per_level(part: RecursionPartition) -> int:
    """Global barriers one level of a fused kernel costs (level sync incl.)."""
    return max(1, reduction_depth(part))


def combine_reads_placeholder(part: RecursionPartition) -> bool:
    """Does the recursion output's producer read children state directly?

    Walks elementwise-only paths backwards from each recursion body tensor;
    reaching a placeholder means the final combine re-consumes children data,
    which blocks the barrier saving of recursive refactoring (footnote 4).
    """
    if part.recursion is None:
        return False
    body = _body_index(part)

    def elementwise_reads_ph(t: RATensor, seen: Set[str]) -> bool:
        if t.role == "placeholder":
            return True
        op = body.get(t.name)
        if op is None or t.name in seen:
            return False
        seen.add(t.name)
        if is_hidden_reduction(op):
            return False  # reduction boundary: data re-distributed anyway
        return any(elementwise_reads_ph(i, seen) for i in op.inputs)

    for _, b in part.recursion.pairs:
        op = body.get(b.name)
        targets = [b]
        if isinstance(op, IfThenElseOp):
            targets = [op.else_t]  # recursive branch
        for t in targets:
            top = body.get(t.name)
            if top is None:
                continue
            for inp in top.inputs:
                if elementwise_reads_ph(inp, set()):
                    return True
    return False


def refactor_barrier_saving(prog: Program) -> int:
    """Barriers per level saved by recursive refactoring (0 or 1).

    Refactoring moves the first reduction across the backedge so it consumes
    only pre-barrier data (Fig. 4).  For sequences this is unconditional —
    the moved gate computation needs only the single predecessor state,
    which is final one step earlier (the GRNN GRU optimization, §7.4).  For
    trees the saving materializes only when the final combine does not
    itself re-read children state: TreeGRU's ``z * h_sum`` term forces a
    re-gather of placeholder data after the moved reduction, cancelling the
    saving, while SimpleTreeGRU's ``(1 - z) * h'`` keeps everything local —
    the paper's footnote-4 distinction, reproduced by Fig. 10c.
    """
    from ..linearizer.structures import StructureKind

    part = partition(prog)
    if reduction_depth(part) < 2:
        return 0  # nothing to save
    if prog.kind == StructureKind.SEQUENCE:
        return 1
    return 0 if combine_reads_placeholder(part) else 1


def count_tensor_ops(prog: Program) -> int:
    """Number of tensor operators in the recursion body (graph size metric)."""
    return len(partition(prog).body)


# ---------------------------------------------------------------------------
# Metadata derivation (authoring)
#
# The facts a model definition would otherwise have to declare by hand —
# its output state buffers, whether it resolves several states, whether
# it reads ``n.word`` and through which tables — are read *off the
# program*: :class:`~repro.authoring.ModelDef` derives them once.


def _all_exprs(prog: Program):
    """Every expression of every operator (compute bodies + conditions)."""
    from ..ir import Reduce

    for op in prog.ops:
        if isinstance(op, ComputeOp):
            yield op.body
            body = op.body
            if isinstance(body, Reduce):
                for ax in body.axes:
                    yield ax.extent
        elif isinstance(op, IfThenElseOp):
            yield op.cond


def _reads_word(prog: Program, e) -> bool:
    from ..ir import UFCall, walk

    words = prog.access.words
    return any(isinstance(x, UFCall) and x.fn is words for x in walk(e))


def uses_words(prog: Program) -> bool:
    """Does any operator read the node payload (``n.word``)?

    True for embedding lookups *and* feature-table reads (DAG-RNN), so a
    ``True`` here does not by itself imply the model takes a vocabulary
    argument — but a model that takes ``vocab`` without ever reading
    ``n.word`` has nothing to embed, which its derivation refuses.
    """
    return any(_reads_word(prog, e) for e in _all_exprs(prog))


def word_tables(prog: Program) -> frozenset:
    """Names of the tensors some operator indexes by ``n.word``.

    These are the program's lookup tables — embeddings and DAG-RNN's
    feature table alike — whatever their extents happen to be.
    """
    from ..ir import TensorRead, walk

    return frozenset(
        x.buffer.name for e in _all_exprs(prog) for x in walk(e)
        if isinstance(x, TensorRead)
        and any(_reads_word(prog, i) for i in x.indices))


def used_child_slots(prog: Program) -> tuple:
    """Child accessors the program actually touches.

    Returns ``(fixed_slots, uses_child_any)``: the set of fixed slot
    indices read through ``n.left`` / ``n.child(k)``, and whether the
    symbolic two-argument accessor ``child(k, n)`` (child-sum reductions)
    appears anywhere.
    """
    from ..ir import UFCall, walk

    by_fn = {fn.name: k for k, fn in prog.access._child.items()}
    fixed: set = set()
    child_any = False
    for e in _all_exprs(prog):
        for x in walk(e):
            if not isinstance(x, UFCall):
                continue
            if x.fn is prog.access.child_any:
                child_any = True
            elif x.fn.name in by_fn:
                fixed.add(by_fn[x.fn.name])
    return frozenset(fixed), child_any


def derived_outputs(prog: Program) -> tuple:
    """Output state-buffer names, read off ``recursion_op``'s outputs."""
    prog.finalize()
    if prog.recursion is None:
        raise LoweringError(f"{prog.name}: no recursion_op to derive outputs")
    return tuple(out.name for out in prog.recursion.outputs)


def derived_multi_state(prog: Program) -> bool:
    """True when the recursion resolves more than one placeholder."""
    prog.finalize()
    return prog.recursion is not None and len(prog.recursion.pairs) > 1


@dataclass(frozen=True)
class DerivedMetadata:
    """Model-level facts derived from a built program."""

    outputs: tuple
    multi_state: bool
    uses_words: bool


def derive_metadata(prog: Program) -> DerivedMetadata:
    """Derive a model's metadata from one built program.

    A fixed child slot read beyond the program's ``max_children`` is a
    hard inconsistency (the linearizer would never fill that slot) and
    raises :class:`~repro.errors.LoweringError`.
    """
    fixed, _ = used_child_slots(prog)
    if fixed and max(fixed) + 1 > prog.max_children:
        raise LoweringError(
            f"{prog.name}: reads child slot {max(fixed)} but declares "
            f"max_children={prog.max_children}")
    return DerivedMetadata(
        outputs=derived_outputs(prog),
        multi_state=derived_multi_state(prog),
        uses_words=uses_words(prog))
