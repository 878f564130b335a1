"""RA operators and the program graph (§3, Listing 1).

A model is a DAG of operators where each operator is specified as a loop
nest (``compute``), plus a ``recursion_op`` that ties placeholders to the
tensors computed from them.  The paper's Listing 1 maps one-to-one:

    Emb   = input_tensor((V, H))
    rnn_ph = placeholder((N, H))
    leaf_case = compute((N, H), lambda n, i: Emb[n.word, i])
    lh = compute((N, H), lambda n, i: rnn_ph[n.left, i])
    ...
    body = if_then_else((N, H), lambda n, i: (isleaf(n), leaf_case, recursive_case))
    rnn = recursion_op(rnn_ph, body)

Programs are built inside a ``with Program(...)`` block (the module-level
functions operate on the innermost active program).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..errors import IRError, LoweringError
from ..ir import (DType, Expr, Reduce, TensorRead, UFCall, Var, as_expr,
                  contains_reduce, float32, free_vars, reads_of,
                  structural_equal, walk)
from ..linearizer.structures import StructureKind
from ..utils import NameSupply
from .node_ref import NodeVar, StructureAccess
from .tensor import NUM_NODES, RATensor, ShapeElem, normalize_shape


class Operation:
    """Base class: produces ``output`` by reading ``inputs``."""

    def __init__(self, name: str, output: RATensor, inputs: Sequence[RATensor]):
        self.name = name
        self.output = output
        self.inputs = list(inputs)
        #: owning program; set by Program._register so scheduling
        #: primitives can resolve it without an active `with Program` block
        self.program: Optional["Program"] = None
        output.op = self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name})"


class InputOp(Operation):
    """A model input: weights, embedding table, per-node features."""

    def __init__(self, output: RATensor):
        super().__init__(output.name, output, [])


class PlaceholderOp(Operation):
    """Stands for the results of recursive calls (``rnn_ph``)."""

    def __init__(self, output: RATensor):
        super().__init__(output.name, output, [])
        self.recursion: Optional["RecursionOp"] = None


class ComputeOp(Operation):
    """An operator defined as a loop nest producing one tensor.

    ``axes`` holds one variable per output dimension; axis 0 is a
    :class:`NodeVar` for recursive tensors.  ``body`` is a scalar expression
    (possibly a top-level :class:`~repro.ir.Reduce`).
    """

    def __init__(self, name: str, output: RATensor, axes: Sequence[Var],
                 body: Expr, inputs: Sequence[RATensor]):
        super().__init__(name, output, inputs)
        self.axes = tuple(axes)
        self.body = body

    @property
    def node_var(self) -> Optional[NodeVar]:
        a0 = self.axes[0]
        return a0 if isinstance(a0, NodeVar) else None

    @property
    def has_reduction(self) -> bool:
        return contains_reduce(self.body)


class IfThenElseOp(Operation):
    """Selects elementwise between two same-shape tensors on a leaf check.

    The prototype (like the paper's, §6) supports the common case where the
    condition is ``isleaf(n)``; specialization (§3.1) splits the program into
    per-branch versions, otherwise a conditional operator is emitted (§5.2).
    """

    def __init__(self, name: str, output: RATensor, axes: Sequence[Var],
                 cond: Expr, then_t: RATensor, else_t: RATensor):
        super().__init__(name, output, [then_t, else_t])
        self.axes = tuple(axes)
        self.cond = cond
        self.then_t = then_t
        self.else_t = else_t
        if then_t.shape != output.shape and len(then_t.shape) != len(output.shape):
            raise IRError("if_then_else branches must match the output rank")

    @property
    def node_var(self) -> Optional[NodeVar]:
        a0 = self.axes[0]
        return a0 if isinstance(a0, NodeVar) else None


class RecursionOp(Operation):
    """Ties placeholders to their defining bodies (Listing 1, line 22).

    Supports mutually recursive state (TreeLSTM's ``h`` and ``c``, MV-RNN's
    vector and matrix) as multiple (placeholder, body) pairs resolved
    simultaneously.
    """

    def __init__(self, name: str,
                 pairs: Sequence[Tuple[RATensor, RATensor]],
                 outputs: Sequence[RATensor]):
        bodies = [b for _, b in pairs]
        super().__init__(name, outputs[0], bodies)
        self.pairs = list(pairs)
        self.outputs = list(outputs)
        for ph, _ in pairs:
            if not isinstance(ph.op, PlaceholderOp):
                raise IRError(f"{ph.name} is not a placeholder")
            if ph.op.recursion is not None:
                raise IRError(f"placeholder {ph.name} bound by two recursions")
            ph.op.recursion = self


# ---------------------------------------------------------------------------
# Program


class Program:
    """A recursive model under construction: op registry + structure info.

    The user supplies the structure kind and maximum children per node up
    front (§3: "basic information about the input data structure"), which
    compilation uses and the linearizer re-verifies at runtime.
    """

    _stack: List["Program"] = []

    def __init__(self, name: str, kind: StructureKind = StructureKind.TREE,
                 max_children: int = 2):
        if max_children < 1:
            raise IRError("max_children must be positive")
        self.name = name
        self.kind = kind
        self.max_children = max_children
        self.ops: List[Operation] = []
        self.tensors: dict[str, RATensor] = {}
        self.access = StructureAccess(max_children)
        self.names = NameSupply()
        self.recursion: Optional[RecursionOp] = None
        self._finalized = False

    # -- context management --------------------------------------------------
    def __enter__(self) -> "Program":
        Program._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        Program._stack.pop()

    @classmethod
    def current(cls) -> "Program":
        if not cls._stack:
            raise IRError("no active Program; use `with Program(...)`")
        return cls._stack[-1]

    # -- registration -----------------------------------------------------------
    def _register(self, op: Operation) -> None:
        if self._finalized:
            raise IRError("program already finalized")
        for out in getattr(op, "outputs", [op.output]):
            if out.name in self.tensors:
                raise IRError(f"duplicate tensor name {out.name!r}")
            self.tensors[out.name] = out
        op.program = self
        self.ops.append(op)

    def fresh(self, hint: str) -> str:
        return self.names.fresh(hint)

    # -- builder API (methods; module-level functions delegate here) ---------
    def input_tensor(self, shape: Sequence[ShapeElem], name: str = None,
                     dtype: DType = float32) -> RATensor:
        t = RATensor(name or self.fresh("in"), shape, dtype, role="input")
        self._register(InputOp(t))
        return t

    def placeholder(self, shape: Sequence[ShapeElem], name: str = None,
                    dtype: DType = float32) -> RATensor:
        t = RATensor(name or self.fresh("ph"), shape, dtype, role="placeholder")
        if not t.is_recursive:
            raise IRError("placeholders must have the node dimension first")
        self._register(PlaceholderOp(t))
        return t

    def _make_axes(self, shape: tuple[Expr, ...]) -> list[Var]:
        axes: list[Var] = []
        for d, extent in enumerate(shape):
            if d == 0 and isinstance(extent, Var) and extent.name == NUM_NODES.name:
                axes.append(NodeVar(self.fresh("n"), self.access))
            else:
                axes.append(Var(self.fresh("i" if d else "n0")))
        return axes

    def compute(self, shape: Sequence[ShapeElem], fn: Callable[..., Expr],
                name: str = None, dtype: DType = float32) -> RATensor:
        shape_n = normalize_shape(shape)
        axes = self._make_axes(shape_n)
        body = as_expr(fn(*axes))
        out = RATensor(name or self.fresh("t"), shape_n, dtype, role="compute")
        inputs = self._input_tensors_of(body)
        op = ComputeOp(out.name, out, axes, body, inputs)
        self._register(op)
        self._validate_compute(op)
        return out

    def if_then_else(self, shape: Sequence[ShapeElem],
                     fn: Callable[..., tuple], name: str = None) -> RATensor:
        shape_n = normalize_shape(shape)
        axes = self._make_axes(shape_n)
        cond, then_v, else_v = fn(*axes)
        then_t = self._as_branch_tensor(then_v, "then")
        else_t = self._as_branch_tensor(else_v, "else")
        cond = as_expr(cond)
        if not cond.dtype.is_bool:
            raise IRError("if_then_else condition must be boolean")
        if not self._is_leaf_check(cond, axes[0]):
            raise IRError(
                "prototype supports leaf-check conditions only (isleaf(n)), "
                "matching the paper's implementation scope (§6)")
        out = RATensor(name or self.fresh("body"), shape_n,
                       then_t.dtype, role="if_then_else")
        self._register(IfThenElseOp(out.name, out, axes, cond, then_t, else_t))
        return out

    def recursion_op(self,
                     ph: Union[RATensor, Sequence[Tuple[RATensor, RATensor]]],
                     body: RATensor = None, name: str = None):
        pairs = [(ph, body)] if isinstance(ph, RATensor) else list(ph)
        base = name or self.fresh("recursion")
        outputs = []
        for p, b in pairs:
            if p.shape != b.shape and len(p.shape) != len(b.shape):
                raise IRError(f"body {b.name} rank differs from placeholder {p.name}")
            out_name = base if len(pairs) == 1 else f"{base}_{p.name}"
            outputs.append(RATensor(out_name, p.shape, p.dtype, role="recursion"))
        op = RecursionOp(base, pairs, outputs)
        self._register(op)
        if self.recursion is not None:
            raise IRError("a program supports a single recursion_op")
        self.recursion = op
        return outputs[0] if isinstance(ph, RATensor) else outputs

    # -- validation -----------------------------------------------------------
    def _as_branch_tensor(self, v, which: str) -> RATensor:
        if isinstance(v, RATensor):
            return v
        raise IRError(f"if_then_else {which}-branch must be an RA tensor")

    def _is_leaf_check(self, cond: Expr, node_axis: Var) -> bool:
        return (isinstance(cond, UFCall) and cond.fn is self.access.isleaf
                and len(cond.args) == 1
                and structural_equal(cond.args[0], node_axis))

    def _input_tensors_of(self, body: Expr) -> list[RATensor]:
        seen: dict[str, RATensor] = {}
        for r in reads_of(body):
            buf = r.buffer
            if isinstance(buf, RATensor):
                seen.setdefault(buf.name, buf)
        return list(seen.values())

    def _validate_compute(self, op: ComputeOp) -> None:
        """Check the paper's properties P.1–P.3 on placeholder accesses.

        Every read of a placeholder must index the node dimension with a
        child accessor of this op's node variable (``ph[n.left, i]``): that
        syntactically guarantees control flow depends only on structure
        (P.1), all recursive calls happen before tensor computation (P.2),
        and sibling calls are independent (P.3).
        """
        nv = op.node_var
        child_fns = {self.access.child(k).name for k in range(self.max_children)}
        for r in reads_of(op.body):
            buf = r.buffer
            if isinstance(buf, RATensor) and buf.role == "placeholder":
                if nv is None:
                    raise IRError(
                        f"{op.name}: placeholder read outside a recursive compute")
                idx0 = r.indices[0]
                ok = (isinstance(idx0, UFCall) and idx0.fn.name in child_fns
                      and structural_equal(idx0.args[0], nv))
                if not ok and isinstance(idx0, UFCall) \
                        and idx0.fn is self.access.child_any:
                    # child(k, n): the node argument is in position 1
                    ok = structural_equal(idx0.args[1], nv)
                if not ok:
                    raise IRError(
                        f"{op.name}: placeholder must be read at a child of the "
                        f"node variable (got index {idx0!r}); this enforces "
                        f"properties P.1-P.3 (§2)")

    # -- finalization ------------------------------------------------------------
    def finalize(self) -> "Program":
        """Validate the whole graph; idempotent."""
        if self._finalized:
            return self
        for op in self.ops:
            if isinstance(op, PlaceholderOp) and op.recursion is None:
                raise IRError(f"placeholder {op.name} never bound by recursion_op")
        if self.recursion is not None:
            for _, b in self.recursion.pairs:
                if not b.is_recursive:
                    raise IRError("recursion bodies must be node-indexed tensors")
        self._finalized = True
        return self

    # -- queries used by lowering/analysis -----------------------------------
    def producer(self, t: RATensor) -> Operation:
        if t.op is None:
            raise LoweringError(f"tensor {t.name} has no producer")
        return t.op

    @property
    def placeholders(self) -> list[RATensor]:
        return [op.output for op in self.ops if isinstance(op, PlaceholderOp)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Program({self.name}, {len(self.ops)} ops, kind={self.kind.value})"


# ---------------------------------------------------------------------------
# Paper-style module-level API (delegates to the innermost active Program)


def input_tensor(shape, name=None, dtype=float32) -> RATensor:
    return Program.current().input_tensor(shape, name, dtype)


def placeholder(shape, name=None, dtype=float32) -> RATensor:
    return Program.current().placeholder(shape, name, dtype)


def compute(shape, fn, name=None, dtype=float32) -> RATensor:
    return Program.current().compute(shape, fn, name, dtype)


def if_then_else(shape, fn, name=None) -> RATensor:
    return Program.current().if_then_else(shape, fn, name)


def recursion_op(ph, body=None, name=None):
    return Program.current().recursion_op(ph, body, name)
