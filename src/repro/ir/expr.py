"""Scalar expression IR shared by the Recursive API and the ILIR.

This is the reproduction's analog of TVM's ``tir.PrimExpr`` tree, restricted
to the constructs Cortex needs:

* arithmetic / comparison / logical operators (:class:`BinOp`,
  :class:`UnaryOp`, :class:`Select`),
* math intrinsics (:class:`Call`: ``tanh``, ``sigmoid``, ``exp``, ...),
* tensor element reads (:class:`TensorRead`),
* calls to *uninterpreted functions* (:class:`UFCall`) — the paper's
  representation for indirect memory accesses such as ``left[node]`` or
  ``batch_begin[b]`` (§5.1, citing the Sparse Polyhedral Framework),
* reductions (:class:`Reduce`) so matrix–vector products can be written as
  single ``compute`` bodies.

Expressions are immutable.  ``__eq__`` is identity (so expressions can live
in sets/dicts safely); use :func:`structural_equal` or ``.key()`` for
structural comparison.  Comparison operators (``<`` etc.) build boolean
expressions; use :meth:`Expr.equal` / :meth:`Expr.not_equal` for ``==`` and
``!=`` predicates.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence, Union

from ..errors import IRError, TypeMismatchError
from .dtypes import DType, boolean, float32, int32, unify

ExprLike = Union["Expr", int, float, bool]

ARITH_OPS = frozenset({"add", "sub", "mul", "div", "floordiv", "mod", "min", "max"})
CMP_OPS = frozenset({"lt", "le", "gt", "ge", "eq", "ne"})
LOGIC_OPS = frozenset({"and", "or"})
BINOPS = ARITH_OPS | CMP_OPS | LOGIC_OPS

UNARY_OPS = frozenset({"neg", "not", "abs"})

# Math intrinsics understood by the interpreter, both code generators and the
# cost model (which counts them as "expensive" flops).
INTRINSICS = frozenset({
    "tanh", "sigmoid", "exp", "log", "sqrt", "relu", "erf",
})


class Expr:
    """Base class for all scalar expressions."""

    __slots__ = ("dtype", "_key")

    dtype: DType

    # -- structural identity ------------------------------------------------
    def key(self) -> tuple:
        """A nested-tuple structural key; equal keys <=> equal structure."""
        k = getattr(self, "_key", None)
        if k is None:
            k = self._make_key()
            object.__setattr__(self, "_key", k)
        return k

    def _make_key(self) -> tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    def __hash__(self) -> int:
        return hash(self.key())

    # -- convenience constructors -------------------------------------------
    def _binop(self, op: str, other: ExprLike, swap: bool = False) -> "Expr":
        rhs = as_expr(other, like=self.dtype)
        a, b = (rhs, self) if swap else (self, rhs)
        return BinOp(op, a, b)

    def __add__(self, o: ExprLike) -> "Expr":
        return self._binop("add", o)

    def __radd__(self, o: ExprLike) -> "Expr":
        return self._binop("add", o, swap=True)

    def __sub__(self, o: ExprLike) -> "Expr":
        return self._binop("sub", o)

    def __rsub__(self, o: ExprLike) -> "Expr":
        return self._binop("sub", o, swap=True)

    def __mul__(self, o: ExprLike) -> "Expr":
        return self._binop("mul", o)

    def __rmul__(self, o: ExprLike) -> "Expr":
        return self._binop("mul", o, swap=True)

    def __truediv__(self, o: ExprLike) -> "Expr":
        return self._binop("div", o)

    def __rtruediv__(self, o: ExprLike) -> "Expr":
        return self._binop("div", o, swap=True)

    def __floordiv__(self, o: ExprLike) -> "Expr":
        return self._binop("floordiv", o)

    def __rfloordiv__(self, o: ExprLike) -> "Expr":
        return self._binop("floordiv", o, swap=True)

    def __mod__(self, o: ExprLike) -> "Expr":
        return self._binop("mod", o)

    def __neg__(self) -> "Expr":
        return UnaryOp("neg", self)

    def __lt__(self, o: ExprLike) -> "Expr":
        return self._binop("lt", o)

    def __le__(self, o: ExprLike) -> "Expr":
        return self._binop("le", o)

    def __gt__(self, o: ExprLike) -> "Expr":
        return self._binop("gt", o)

    def __ge__(self, o: ExprLike) -> "Expr":
        return self._binop("ge", o)

    def equal(self, o: ExprLike) -> "Expr":
        """Build the predicate ``self == o`` (named to keep __eq__ identity)."""
        return self._binop("eq", o)

    def not_equal(self, o: ExprLike) -> "Expr":
        return self._binop("ne", o)

    def __and__(self, o: ExprLike) -> "Expr":
        return self._binop("and", o)

    def __or__(self, o: ExprLike) -> "Expr":
        return self._binop("or", o)

    def __invert__(self) -> "Expr":
        return UnaryOp("not", self)

    def __repr__(self) -> str:
        from .printer import expr_to_str

        return expr_to_str(self)

    def __bool__(self) -> bool:
        raise IRError(
            "symbolic expression used in a Python boolean context; "
            "use repro.ir.simplify.prove() to decide predicates"
        )


class Const(Expr):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: Any, dtype: DType):
        if dtype.is_bool:
            value = bool(value)
        elif dtype.is_int:
            value = int(value)
        elif dtype.is_float:
            value = float(value)
        self.value = value
        self.dtype = dtype

    def _make_key(self) -> tuple:
        return ("const", self.dtype.name, self.value)


class Var(Expr):
    """A scalar variable (loop variable, parameter, node id, ...)."""

    __slots__ = ("name",)

    def __init__(self, name: str, dtype: DType = int32):
        if not name:
            raise IRError("Var needs a non-empty name")
        self.name = name
        self.dtype = dtype

    def _make_key(self) -> tuple:
        # Vars are nominal: two vars with the same name are the same var.
        return ("var", self.name, self.dtype.name)


class BinOp(Expr):
    """A binary operation; ``op`` is one of :data:`BINOPS`."""

    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: ExprLike, b: ExprLike):
        if op not in BINOPS:
            raise IRError(f"unknown binary op {op!r}")
        a = as_expr(a)
        b = as_expr(b, like=a.dtype)
        if op in LOGIC_OPS:
            if not (a.dtype.is_bool and b.dtype.is_bool):
                raise TypeMismatchError(f"'{op}' needs bool operands, got {a.dtype}/{b.dtype}")
            dtype = boolean
        elif op in CMP_OPS:
            unify(a.dtype, b.dtype, context=op)
            dtype = boolean
        else:
            dtype = unify(a.dtype, b.dtype, context=op)
            if op in ("floordiv", "mod") and not dtype.is_int:
                raise TypeMismatchError(f"'{op}' requires integer operands, got {dtype}")
        self.op = op
        self.a = a
        self.b = b
        self.dtype = dtype

    def _make_key(self) -> tuple:
        return ("bin", self.op, self.a.key(), self.b.key())


class UnaryOp(Expr):
    __slots__ = ("op", "a")

    def __init__(self, op: str, a: ExprLike):
        if op not in UNARY_OPS:
            raise IRError(f"unknown unary op {op!r}")
        a = as_expr(a)
        if op == "not" and not a.dtype.is_bool:
            raise TypeMismatchError(f"'not' needs a bool operand, got {a.dtype}")
        if op in ("neg", "abs") and a.dtype.is_bool:
            raise TypeMismatchError(f"'{op}' not defined for bool")
        self.op = op
        self.a = a
        self.dtype = boolean if op == "not" else a.dtype

    def _make_key(self) -> tuple:
        return ("un", self.op, self.a.key())


class Cast(Expr):
    __slots__ = ("a",)

    def __init__(self, a: ExprLike, dtype: DType):
        self.a = as_expr(a)
        self.dtype = dtype

    def _make_key(self) -> tuple:
        return ("cast", self.dtype.name, self.a.key())


class Call(Expr):
    """A math intrinsic applied elementwise (tanh, sigmoid, ...)."""

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Sequence[ExprLike]):
        if func not in INTRINSICS:
            raise IRError(f"unknown intrinsic {func!r}")
        self.func = func
        self.args = tuple(as_expr(a, like=float32) for a in args)
        if not self.args:
            raise IRError("intrinsic call needs at least one argument")
        self.dtype = self.args[0].dtype

    def _make_key(self) -> tuple:
        return ("call", self.func, tuple(a.key() for a in self.args))


class Select(Expr):
    """``cond ? then_ : else_`` with lazy evaluation semantics."""

    __slots__ = ("cond", "then_", "else_")

    def __init__(self, cond: ExprLike, then_: ExprLike, else_: ExprLike):
        self.cond = as_expr(cond)
        if not self.cond.dtype.is_bool:
            raise TypeMismatchError("Select condition must be bool")
        self.then_ = as_expr(then_)
        self.else_ = as_expr(else_, like=self.then_.dtype)
        self.dtype = unify(self.then_.dtype, self.else_.dtype, context="select")

    def _make_key(self) -> tuple:
        return ("select", self.cond.key(), self.then_.key(), self.else_.key())


class TensorRead(Expr):
    """Element read ``buffer[indices...]``.

    ``buffer`` is any object exposing ``name``, ``shape`` (tuple) and
    ``dtype``; both RA tensors and ILIR buffers qualify.  Names are assumed
    unique within one program (enforced by the graph/builder layers).
    """

    __slots__ = ("buffer", "indices")

    def __init__(self, buffer: Any, indices: Sequence[ExprLike]):
        self.buffer = buffer
        self.indices = tuple(as_expr(i) for i in indices)
        for i in self.indices:
            if not i.dtype.is_int:
                raise TypeMismatchError(
                    f"tensor index into {buffer.name!r} must be integral, got {i.dtype}")
        ndim = len(buffer.shape)
        if len(self.indices) != ndim:
            raise IRError(
                f"read of {buffer.name!r}: {len(self.indices)} indices for {ndim}-d tensor")
        self.dtype = buffer.dtype

    def _make_key(self) -> tuple:
        return ("read", self.buffer.name, tuple(i.key() for i in self.indices))


class UFCall(Expr):
    """Application of an uninterpreted function (indirect access).

    Examples: ``left(node)``, ``batch_len(b)``.  The function object carries
    range metadata used by the prover (Appendix A.1) and the bounds inferrer.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Any, args: Sequence[ExprLike]):
        self.fn = fn
        self.args = tuple(as_expr(a) for a in args)
        if len(self.args) != fn.arity:
            raise IRError(f"{fn.name} expects {fn.arity} args, got {len(self.args)}")
        for a in self.args:
            if not a.dtype.is_int:
                raise TypeMismatchError(f"uninterpreted fn {fn.name} takes int args")
        self.dtype = fn.dtype

    def _make_key(self) -> tuple:
        return ("uf", self.fn.name, tuple(a.key() for a in self.args))


class ReduceAxis:
    """A reduction iteration axis with a (possibly symbolic) extent."""

    __slots__ = ("var", "extent")

    def __init__(self, name: str, extent: ExprLike):
        self.var = Var(name, int32)
        self.extent = as_expr(extent)

    def key(self) -> tuple:
        return ("raxis", self.var.name, self.extent.key())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReduceAxis({self.var.name}, {self.extent!r})"


class Reduce(Expr):
    """A commutative reduction over one or more :class:`ReduceAxis`.

    Only valid as the *top level* of a ``compute`` body (as in TVM); the
    lowering turns it into an accumulation loop nest.
    """

    OPS = {"sum": 0.0, "max": float("-inf"), "min": float("inf")}

    __slots__ = ("op", "body", "axes", "init")

    def __init__(self, op: str, body: ExprLike, axes: Sequence[ReduceAxis],
                 init: ExprLike | None = None):
        if op not in self.OPS:
            raise IRError(f"unknown reduction {op!r}")
        self.op = op
        self.body = as_expr(body, like=float32)
        self.axes = tuple(axes)
        if not self.axes:
            raise IRError("Reduce needs at least one axis")
        default = self.OPS[op]
        self.init = as_expr(default if init is None else init, like=self.body.dtype)
        self.dtype = self.body.dtype

    def _make_key(self) -> tuple:
        return ("reduce", self.op, self.body.key(),
                tuple(a.key() for a in self.axes), self.init.key())


# ---------------------------------------------------------------------------
# Helpers


def as_expr(v: ExprLike, like: DType | None = None) -> Expr:
    """Coerce a Python value to an :class:`Expr`.

    ``like`` guides the dtype of bare Python ints/floats (e.g. ``x + 1``
    where ``x`` is float32 builds a float32 constant).
    """
    if isinstance(v, Expr):
        return v
    if isinstance(v, bool):
        return Const(v, boolean)
    if isinstance(v, int):
        if like is not None and like.is_float:
            return Const(float(v), like)
        return Const(v, like if (like is not None and like.is_int) else int32)
    if isinstance(v, float):
        return Const(v, like if (like is not None and like.is_float) else float32)
    raise IRError(f"cannot convert {v!r} to an expression")


def const(v: ExprLike, dtype: DType | None = None) -> Expr:
    if dtype is not None and not isinstance(v, Expr):
        return Const(v, dtype)
    return as_expr(v)


def minimum(a: ExprLike, b: ExprLike) -> Expr:
    return BinOp("min", as_expr(a), b)


def maximum(a: ExprLike, b: ExprLike) -> Expr:
    return BinOp("max", as_expr(a), b)


def logical_and(*preds: ExprLike) -> Expr:
    exprs = [as_expr(p) for p in preds]
    if not exprs:
        return Const(True, boolean)
    out = exprs[0]
    for p in exprs[1:]:
        out = BinOp("and", out, p)
    return out


def logical_or(*preds: ExprLike) -> Expr:
    exprs = [as_expr(p) for p in preds]
    if not exprs:
        return Const(False, boolean)
    out = exprs[0]
    for p in exprs[1:]:
        out = BinOp("or", out, p)
    return out


def tanh(x: ExprLike) -> Expr:
    return Call("tanh", [x])


def sigmoid(x: ExprLike) -> Expr:
    return Call("sigmoid", [x])


def relu(x: ExprLike) -> Expr:
    return Call("relu", [x])


def exp(x: ExprLike) -> Expr:
    return Call("exp", [x])


def sqrt(x: ExprLike) -> Expr:
    return Call("sqrt", [x])


def reduce_sum(body: ExprLike, axes: ReduceAxis | Sequence[ReduceAxis]) -> Reduce:
    if isinstance(axes, ReduceAxis):
        axes = [axes]
    return Reduce("sum", body, axes)


def reduce_max(body: ExprLike, axes: ReduceAxis | Sequence[ReduceAxis]) -> Reduce:
    if isinstance(axes, ReduceAxis):
        axes = [axes]
    return Reduce("max", body, axes)


def reduce_axis(extent: ExprLike, name: str = "k") -> ReduceAxis:
    return ReduceAxis(name, extent)


def structural_equal(a: Expr, b: Expr) -> bool:
    """Structural (not nominal) equality of two expressions."""
    return a.key() == b.key()


def is_const_value(e: Expr, value: Any) -> bool:
    return isinstance(e, Const) and e.value == value


def is_zero(e: Expr) -> bool:
    return is_const_value(e, 0) or is_const_value(e, 0.0)


def is_one(e: Expr) -> bool:
    return is_const_value(e, 1) or is_const_value(e, 1.0)
