"""Expression simplification and a lightweight prover (Z3 stand-in).

Cortex uses the Z3 SMT solver to simplify expressions containing
uninterpreted functions, "for purposes such as proving if certain bound
checks are redundant" (Appendix A.1).  The facts it needs are of the shape

    given   i in [0, extent)   and   range(batches) subseteq [0, N)
    prove   batches(b, i) < N

which interval arithmetic plus a few algebraic identities decides.  This
module provides:

* :class:`Interval` — closed integer/float intervals with +/-inf endpoints;
* :func:`bound_expr` — abstract evaluation of an expression to an interval,
  consulting variable ranges and uninterpreted-function range metadata;
* :func:`prove` — True / False / None ("unknown") for boolean predicates;
* :func:`simplify` — bottom-up algebraic rewriting with constant folding.

``prove`` is sound: it returns True/False only when the interval analysis is
conclusive, otherwise None — matching how the paper uses an SMT query (an
"unknown" just means the bound check stays in the generated code).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..errors import IRError
from .dtypes import boolean
from .expr import (BinOp, Call, Cast, Const, Expr, Reduce, Select, TensorRead,
                   UFCall, UnaryOp, Var, as_expr, is_one, is_zero,
                   structural_equal)
from .visitors import ExprMutator

Number = Union[int, float]
NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi]; endpoints may be +/-inf."""

    lo: Number = NEG_INF
    hi: Number = POS_INF

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise IRError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors --------------------------------------------------------
    @staticmethod
    def point(v: Number) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def top() -> "Interval":
        return Interval()

    @staticmethod
    def nonneg() -> "Interval":
        return Interval(0, POS_INF)

    # -- queries ---------------------------------------------------------------
    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and not math.isinf(self.lo)

    @property
    def bounded(self) -> bool:
        return not math.isinf(self.lo) and not math.isinf(self.hi)

    def contains(self, v: Number) -> bool:
        return self.lo <= v <= self.hi

    # -- arithmetic --------------------------------------------------------------
    def __add__(self, o: "Interval") -> "Interval":
        return Interval(self.lo + o.lo, self.hi + o.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, o: "Interval") -> "Interval":
        return self + (-o)

    def __mul__(self, o: "Interval") -> "Interval":
        cands = []
        for a in (self.lo, self.hi):
            for b in (o.lo, o.hi):
                if (a == 0 and math.isinf(b)) or (b == 0 and math.isinf(a)):
                    cands.append(0)
                else:
                    cands.append(a * b)
        return Interval(min(cands), max(cands))

    def floordiv(self, o: "Interval") -> "Interval":
        if o.contains(0):
            return Interval.top()
        cands = []
        for a in (self.lo, self.hi):
            for b in (o.lo, o.hi):
                if math.isinf(a) or math.isinf(b):
                    cands.extend([NEG_INF, POS_INF])
                else:
                    cands.append(a // b)
        return Interval(min(cands), max(cands))

    def truediv(self, o: "Interval") -> "Interval":
        if o.contains(0):
            return Interval.top()
        cands = []
        for a in (self.lo, self.hi):
            for b in (o.lo, o.hi):
                if math.isinf(a) or math.isinf(b):
                    cands.extend([NEG_INF, POS_INF])
                else:
                    cands.append(a / b)
        return Interval(min(cands), max(cands))

    def mod(self, o: "Interval") -> "Interval":
        # Python semantics: sign follows divisor; only handle positive divisors.
        if o.lo > 0:
            hi = o.hi - 1 if not math.isinf(o.hi) else POS_INF
            if self.lo >= 0:
                # may also be bounded by the dividend itself
                return Interval(0, min(hi, self.hi))
            return Interval(0, hi)
        return Interval.top()

    def min_(self, o: "Interval") -> "Interval":
        return Interval(min(self.lo, o.lo), min(self.hi, o.hi))

    def max_(self, o: "Interval") -> "Interval":
        return Interval(max(self.lo, o.lo), max(self.hi, o.hi))

    def union(self, o: "Interval") -> "Interval":
        return Interval(min(self.lo, o.lo), max(self.hi, o.hi))

    def intersect(self, o: "Interval") -> Optional["Interval"]:
        lo, hi = max(self.lo, o.lo), min(self.hi, o.hi)
        return None if lo > hi else Interval(lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.lo}, {self.hi}]"


#: Environment mapping variable names to their value intervals.
Env = Mapping[str, Interval]

_MATH_FUNCS = {
    "tanh": math.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)),
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "relu": lambda x: max(x, 0.0),
    "erf": math.erf,
}

_CALL_RANGES = {
    "tanh": Interval(-1.0, 1.0),
    "sigmoid": Interval(0.0, 1.0),
    "exp": Interval(0.0, POS_INF),
    "sqrt": Interval(0.0, POS_INF),
    "relu": Interval(0.0, POS_INF),
    "erf": Interval(-1.0, 1.0),
}


def bound_expr(e: Expr, env: Env | None = None) -> Interval:
    """Abstract-evaluate ``e`` to an interval under ``env``.

    Uninterpreted function calls contribute their declared range (bounded
    recursively under the same env); tensor reads and unknown variables are
    unbounded (top).
    """
    env = env or {}

    def go(x: Expr) -> Interval:
        if isinstance(x, Const):
            if x.dtype.is_bool:
                return Interval.point(int(x.value))
            return Interval.point(x.value)
        if isinstance(x, Var):
            return env.get(x.name, Interval.top())
        if isinstance(x, Cast):
            return go(x.a)
        if isinstance(x, BinOp):
            a, b = go(x.a), go(x.b)
            if x.op == "add":
                return a + b
            if x.op == "sub":
                return a - b
            if x.op == "mul":
                return a * b
            if x.op == "floordiv":
                return a.floordiv(b)
            if x.op == "div":
                return a.truediv(b)
            if x.op == "mod":
                return a.mod(b)
            if x.op == "min":
                return a.min_(b)
            if x.op == "max":
                return a.max_(b)
            # comparisons / logic: bool in {0, 1}
            tv = _cmp_interval(x.op, a, b)
            return tv if tv is not None else Interval(0, 1)
        if isinstance(x, UnaryOp):
            a = go(x.a)
            if x.op == "neg":
                return -a
            if x.op == "abs":
                if a.lo >= 0:
                    return a
                if a.hi <= 0:
                    return -a
                return Interval(0, max(-a.lo, a.hi))
            return Interval(0, 1)  # not
        if isinstance(x, Select):
            return go(x.then_).union(go(x.else_))
        if isinstance(x, Call):
            rng = _CALL_RANGES.get(x.func)
            return rng if rng is not None else Interval.top()
        if isinstance(x, UFCall):
            if x.fn.range is None:
                return Interval.top()
            lo_iv = go(x.fn.range[0])
            hi_iv = go(x.fn.range[1])
            # half-open [lo, hi) with integer values -> closed [lo, hi-1]
            hi = hi_iv.hi - 1 if x.fn.dtype.is_int and not math.isinf(hi_iv.hi) else hi_iv.hi
            if lo_iv.lo > hi:
                return Interval.point(lo_iv.lo)
            return Interval(lo_iv.lo, hi)
        if isinstance(x, TensorRead):
            return Interval.top()
        if isinstance(x, Reduce):
            return Interval.top()
        raise IRError(f"cannot bound {type(x).__name__}")

    return go(e)


def _cmp_interval(op: str, a: Interval, b: Interval) -> Optional[Interval]:
    """Decide a comparison between two intervals; None when indeterminate."""
    if op == "lt":
        if a.hi < b.lo:
            return Interval.point(1)
        if a.lo >= b.hi:
            return Interval.point(0)
    elif op == "le":
        if a.hi <= b.lo:
            return Interval.point(1)
        if a.lo > b.hi:
            return Interval.point(0)
    elif op == "gt":
        return _cmp_interval("lt", b, a)
    elif op == "ge":
        return _cmp_interval("le", b, a)
    elif op == "eq":
        if a.is_point and b.is_point and a.lo == b.lo:
            return Interval.point(1)
        if a.intersect(b) is None:
            return Interval.point(0)
    elif op == "ne":
        r = _cmp_interval("eq", a, b)
        if r is not None:
            return Interval.point(1 - r.lo)
    return None


def prove(pred: Expr, env: Env | None = None) -> Optional[bool]:
    """Try to decide a boolean predicate.  Returns True/False/None.

    This is the package's stand-in for the paper's Z3 queries: sound but
    incomplete.  Structurally identical operands are exploited for
    reflexive comparisons on integer expressions (x <= x, x == x).
    """
    pred = simplify(pred, env)
    if isinstance(pred, Const) and pred.dtype.is_bool:
        return bool(pred.value)
    iv = bound_expr(pred, env)
    if iv.is_point:
        return bool(iv.lo)
    return None


def prove_bound_check_redundant(index: Expr, extent: Expr,
                                env: Env | None = None) -> bool:
    """True iff ``0 <= index < extent`` is provable (so the check can go)."""
    lower = prove(index >= 0, env)
    upper = prove(index < extent, env)
    return lower is True and upper is True


# ---------------------------------------------------------------------------
# Algebraic simplification


class _Simplifier(ExprMutator):
    def __init__(self, env: Env | None = None):
        self.env = env or {}

    # Constant folding happens in generic handlers below; each visit_* method
    # first lets the parent rebuild children, then pattern-matches.

    def visit_binop(self, e: BinOp) -> Expr:
        out = self.generic_visit(e)
        if not isinstance(out, BinOp):
            return out
        a, b, op = out.a, out.b, out.op

        # --- constant folding
        if isinstance(a, Const) and isinstance(b, Const):
            folded = _fold_binop(op, a, b)
            if folded is not None:
                return folded

        # --- arithmetic identities
        if op == "add":
            if is_zero(a):
                return b
            if is_zero(b):
                return a
            # (x + c1) + c2 -> x + (c1+c2)
            if isinstance(b, Const) and isinstance(a, BinOp) and a.op == "add" \
                    and isinstance(a.b, Const):
                return self.visit(BinOp("add", a.a, _fold_binop("add", a.b, b)))
        elif op == "sub":
            if is_zero(b):
                return a
            if structural_equal(a, b) and a.dtype.is_int:
                return Const(0, a.dtype)
        elif op == "mul":
            if is_zero(a) or is_zero(b):
                return Const(0, out.dtype) if out.dtype.is_int else Const(0.0, out.dtype)
            if is_one(a):
                return b
            if is_one(b):
                return a
        elif op == "div":
            if is_one(b):
                return a
        elif op == "floordiv":
            if is_one(b):
                return a
            if isinstance(b, Const) and isinstance(a, BinOp) and a.op == "mul" \
                    and isinstance(a.b, Const) and a.b.value == b.value and b.value != 0:
                return a.a  # (x * c) // c -> x
        elif op == "mod":
            if is_one(b):
                return Const(0, out.dtype)
        elif op in ("min", "max"):
            if structural_equal(a, b):
                return a
            iv_a, iv_b = bound_expr(a, self.env), bound_expr(b, self.env)
            if op == "min":
                if iv_a.hi <= iv_b.lo:
                    return a
                if iv_b.hi <= iv_a.lo:
                    return b
            else:
                if iv_a.lo >= iv_b.hi:
                    return a
                if iv_b.lo >= iv_a.hi:
                    return b
        elif op in ("and", "or"):
            for x, y in ((a, b), (b, a)):
                if isinstance(x, Const):
                    if op == "and":
                        return y if x.value else Const(False, boolean)
                    return Const(True, boolean) if x.value else y
        elif op in ("le", "ge", "eq"):
            if structural_equal(a, b) and a.dtype.is_int:
                return Const(True, boolean)
        elif op in ("lt", "gt", "ne"):
            if structural_equal(a, b) and a.dtype.is_int:
                return Const(False, boolean)

        # --- interval-based comparison decision
        if op in ("lt", "le", "gt", "ge", "eq", "ne"):
            decided = _cmp_interval(op, bound_expr(a, self.env), bound_expr(b, self.env))
            if decided is not None:
                return Const(bool(decided.lo), boolean)
        return out

    def visit_unaryop(self, e: UnaryOp) -> Expr:
        out = self.generic_visit(e)
        if not isinstance(out, UnaryOp):
            return out
        a = out.a
        if isinstance(a, Const):
            if out.op == "neg":
                return Const(-a.value, a.dtype)
            if out.op == "not":
                return Const(not a.value, boolean)
            if out.op == "abs":
                return Const(abs(a.value), a.dtype)
        if out.op == "not" and isinstance(a, UnaryOp) and a.op == "not":
            return a.a
        if out.op == "neg" and isinstance(a, UnaryOp) and a.op == "neg":
            return a.a
        return out

    def visit_select(self, e: Select) -> Expr:
        out = self.generic_visit(e)
        if not isinstance(out, Select):
            return out
        if isinstance(out.cond, Const):
            return out.then_ if out.cond.value else out.else_
        if structural_equal(out.then_, out.else_):
            return out.then_
        return out

    def visit_call(self, e: Call) -> Expr:
        out = self.generic_visit(e)
        if not isinstance(out, Call):
            return out
        fn = _MATH_FUNCS.get(out.func)
        if fn is not None and len(out.args) == 1 and isinstance(out.args[0], Const):
            return Const(fn(float(out.args[0].value)), out.dtype)
        return out

    def visit_cast(self, e: Cast) -> Expr:
        out = self.generic_visit(e)
        if isinstance(out, Cast):
            if out.a.dtype == out.dtype:
                return out.a
            if isinstance(out.a, Const):
                return Const(out.a.value, out.dtype)
        return out


def _fold_binop(op: str, a: Const, b: Const) -> Optional[Expr]:
    av, bv = a.value, b.value
    try:
        if op == "add":
            v = av + bv
        elif op == "sub":
            v = av - bv
        elif op == "mul":
            v = av * bv
        elif op == "div":
            v = av / bv
        elif op == "floordiv":
            v = av // bv
        elif op == "mod":
            v = av % bv
        elif op == "min":
            v = min(av, bv)
        elif op == "max":
            v = max(av, bv)
        elif op in ("lt", "le", "gt", "ge", "eq", "ne"):
            v = {"lt": av < bv, "le": av <= bv, "gt": av > bv,
                 "ge": av >= bv, "eq": av == bv, "ne": av != bv}[op]
            return Const(v, boolean)
        elif op == "and":
            return Const(bool(av) and bool(bv), boolean)
        elif op == "or":
            return Const(bool(av) or bool(bv), boolean)
        else:  # pragma: no cover - exhaustive
            return None
    except ZeroDivisionError:
        return None
    dtype = a.dtype if a.dtype == b.dtype else (b.dtype if a.dtype.is_int else a.dtype)
    if op == "div":
        dtype = a.dtype if a.dtype.is_float else b.dtype
        if not dtype.is_float:
            from .dtypes import float32 as _f32
            dtype = _f32
    return Const(v, dtype)


def simplify(e: Expr, env: Env | None = None) -> Expr:
    """Bottom-up algebraic simplification with optional variable ranges."""
    return _Simplifier(env).visit(as_expr(e))


def evaluate(e: Expr, bindings: Mapping[str, Number]) -> Number:
    """Concretely evaluate an expression (testing aid; no tensors/UFs)."""
    from .visitors import substitute

    sub = {k: Const(v, as_expr(v).dtype) for k, v in bindings.items()}
    out = simplify(substitute(e, sub))
    if isinstance(out, Const):
        return out.value
    raise IRError(f"expression did not fold to a constant: {out!r}")
