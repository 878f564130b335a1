"""Bounds inference for the ILIR (§5.1, Appendix A.2).

Two jobs, both complicated by indirect accesses and variable loop bounds:

1. **Shape inference** for materialized temporaries: the extent of a tensor
   dimension is the least upper bound of every index expression consumers
   use on it.  Named dimensions resolve the many-loops-per-dimension problem
   (``d_node`` is traversed by the batch loop *and* the in-batch loop); the
   bound of an uninterpreted index comes from its declared range.

2. **Access verification / bound-check elimination**: every read and store
   must be provably in bounds, or a guard predicate survives into the
   generated code.  The paper discharges these obligations with Z3; we use
   the interval prover plus *linearizer invariants* — facts the data
   structure linearizer guarantees by construction, e.g.
   ``batch_begin(b) + batch_length(b) <= num_nodes`` (Appendix B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import (BinOp, Const, Env, Expr, Interval, TensorRead, UFCall, Var,
                  as_expr, bound_expr, expr_to_str, prove, reads_of, simplify,
                  structural_equal, walk)
from .buffer import ILBuffer
from .nests import OpNest


@dataclass
class LinearizerInvariant:
    """``f(args) + g(args) <= bound`` for UF pair (f, g) with shared args."""

    f_name: str
    g_name: str
    bound: Expr


@dataclass
class Facts:
    """Prover context: variable intervals + linearizer invariants."""

    env: Dict[str, Interval] = field(default_factory=dict)
    invariants: List[LinearizerInvariant] = field(default_factory=list)
    #: substitution of let-bound scalars (node -> batch_begin(b) + n_idx).
    lets: Dict[str, Expr] = field(default_factory=dict)
    #: per-UF upper bounds: values of f(...) are always <= bound.
    uf_upper: Dict[str, Expr] = field(default_factory=dict)

    def add_invariant(self, f_name: str, g_name: str, bound) -> None:
        self.invariants.append(LinearizerInvariant(f_name, g_name, as_expr(bound)))


def default_linearizer_facts(num_nodes: Expr) -> Facts:
    """Invariants every linearizer output satisfies (tested in the suite)."""
    facts = Facts()
    facts.add_invariant("batch_begin", "batch_length", num_nodes)
    facts.uf_upper["batch_length"] = Var("max_batch_len")
    return facts


def _resolve_lets(e: Expr, facts: Facts) -> Expr:
    from ..ir import substitute

    prev = None
    # lets may chain (node -> begin + idx, idx -> ...); iterate to fixpoint
    while prev is None or not structural_equal(prev, e):
        prev = e
        e = substitute(e, facts.lets)
    return e


def symbolic_upper(e: Expr, facts: Facts) -> Optional[Expr]:
    """An exclusive symbolic upper bound of ``e``, or None.

    Handles the index shapes the lowering produces:
      * uninterpreted calls -> declared range hi;
      * ``f(args) + v`` where loop var ``v < g(args)`` and invariant
        ``f + g <= bound`` is registered -> ``bound``;
      * loop variables -> ``begin + extent`` from the env... kept numeric via
        intervals (handled by the caller).
    """
    e = simplify(_resolve_lets(e, facts), facts.env)
    if isinstance(e, UFCall) and e.fn.range is not None:
        return e.fn.range[1]
    if isinstance(e, BinOp) and e.op == "add":
        a, b = e.a, e.b
        for x, y in ((a, b), (b, a)):
            if isinstance(x, UFCall):
                hi = _invariant_bound(x, y, facts)
                if hi is not None:
                    return hi
    return None


def _invariant_bound(ufc: UFCall, other: Expr, facts: Facts) -> Optional[Expr]:
    """Match ``f(args) + v`` where loop var ``v``'s extent is ``g(args)``."""
    if not isinstance(other, Var):
        return None
    sym_hi = get_symbolic_extent(other)
    if not isinstance(sym_hi, UFCall):
        return None
    for inv in facts.invariants:
        if (inv.f_name == ufc.fn.name and inv.g_name == sym_hi.fn.name
                and len(ufc.args) == len(sym_hi.args)
                and all(structural_equal(a, b)
                        for a, b in zip(ufc.args, sym_hi.args))):
            return inv.bound
    return None


# Var uses __slots__, so UF-valued loop extents live in a side table keyed by
# variable name (names are unique per compilation via the name supply).
_SYM_EXTENTS: Dict[str, Expr] = {}


def set_symbolic_extent(var: Var, extent: Expr) -> Var:
    _SYM_EXTENTS[var.name] = extent
    return var


def get_symbolic_extent(var: Var) -> Optional[Expr]:
    return _SYM_EXTENTS.get(var.name)


def prove_lt(index: Expr, extent: Expr, facts: Facts) -> bool:
    """Prove ``index < extent`` (after let-resolution), soundly."""
    index = simplify(_resolve_lets(index, facts), facts.env)
    extent = simplify(as_expr(extent), facts.env)
    # 1. numeric interval decision
    if prove(index < extent, facts.env) is True:
        return True
    # 2. symbolic upper bound matches the extent structurally
    hi = symbolic_upper(index, facts)
    if hi is not None:
        hi_s = simplify(hi, facts.env)
        if structural_equal(hi_s, extent):
            return True
        if prove(hi_s <= extent, facts.env) is True:
            return True
    # 3. loop var v with UF extent g and declared bound g <= extent
    if isinstance(index, Var):
        sym = get_symbolic_extent(index)
        if isinstance(sym, UFCall):
            ub = facts.uf_upper.get(sym.fn.name)
            if ub is not None:
                ub_s = simplify(ub, facts.env)
                if structural_equal(ub_s, extent) or \
                        prove(ub_s <= extent, facts.env) is True:
                    return True
    # 4. f(args) + v with v < g(args) and invariant f+g <= extent
    if isinstance(index, BinOp) and index.op == "add":
        for x, y in ((index.a, index.b), (index.b, index.a)):
            if isinstance(x, UFCall) and isinstance(y, Var):
                sym = get_symbolic_extent(y)
                if isinstance(sym, UFCall):
                    for inv in facts.invariants:
                        if (inv.f_name == x.fn.name
                                and inv.g_name == sym.fn.name
                                and all(structural_equal(a, b)
                                        for a, b in zip(x.args, sym.args))):
                            bound = simplify(inv.bound, facts.env)
                            if structural_equal(bound, extent):
                                return True
                            if prove(bound <= extent, facts.env) is True:
                                return True
    return False


def prove_nonneg(index: Expr, facts: Facts) -> bool:
    index = simplify(_resolve_lets(index, facts), facts.env)
    if prove(index >= 0, facts.env) is True:
        return True
    if isinstance(index, UFCall) and index.fn.range is not None:
        return prove(index.fn.range[0] >= 0, facts.env) is True
    if isinstance(index, BinOp) and index.op == "add":
        return prove_nonneg(index.a, facts) and prove_nonneg(index.b, facts)
    return False


@dataclass
class BoundsReport:
    """Outcome of verifying one nest's accesses."""

    checked: int = 0
    eliminated: int = 0
    residual: List[str] = field(default_factory=list)

    @property
    def all_proven(self) -> bool:
        return not self.residual


def verify_nest(nest: OpNest, facts: Facts) -> BoundsReport:
    """Verify every access of a nest; unproven checks are reported.

    Axis variables contribute their numeric intervals to the env; loop vars
    with UF extents are registered for invariant-based reasoning.
    """
    local = Facts(env=dict(facts.env), invariants=list(facts.invariants),
                  lets=dict(facts.lets), uf_upper=dict(facts.uf_upper))
    for ax in nest.axes:
        _bind_axis(ax.var, ax.begin, ax.extent, local)
    from ..ir import Reduce

    if isinstance(nest.body, Reduce):
        for rax in nest.body.axes:
            _bind_axis(rax.var, as_expr(0), rax.extent, local)
    for var, value in nest.lets:
        local.lets[var.name] = value

    report = BoundsReport()
    accesses: List[Tuple[ILBuffer, Tuple[Expr, ...]]] = []
    accesses.append((nest.out, tuple(nest.out_indices)))
    body = nest.body.body if isinstance(nest.body, Reduce) else nest.body
    for r in reads_of(body):
        if isinstance(r.buffer, ILBuffer):
            accesses.append((r.buffer, r.indices))

    for buf, indices in accesses:
        for idx, extent in zip(indices, buf.shape):
            report.checked += 1
            if prove_nonneg(idx, local) and prove_lt(idx, extent, local):
                report.eliminated += 1
            else:
                msg = (f"{nest.name}: cannot prove 0 <= {expr_to_str(idx)} < "
                       f"{expr_to_str(extent)} for {buf.name}")
                report.residual.append(msg)
    return report


def _bind_axis(var: Var, begin: Expr, extent: Expr, facts: Facts) -> None:
    lo_iv = bound_expr(begin, facts.env)
    ext_iv = bound_expr(extent, facts.env)
    hi = lo_iv.hi + ext_iv.hi - 1
    facts.env[var.name] = Interval(lo_iv.lo, hi)
    if isinstance(extent, UFCall):
        set_symbolic_extent(var, extent)


def infer_shape(reads: Sequence[TensorRead], ndim: int, facts: Facts,
                fallback: Sequence[Expr]) -> List[Expr]:
    """Infer buffer extents from consumer reads (least symbolic upper bound).

    Falls back to the provided extents for dimensions whose accesses the
    analysis cannot bound — mirroring how the ILIR requires the tensor-dim /
    loop relationship to be explicit when inference alone is insufficient.
    """
    out: List[Expr] = []
    for d in range(ndim):
        best: Optional[Expr] = None
        ok = True
        for r in reads:
            idx = r.indices[d]
            hi = symbolic_upper(idx, facts)
            if hi is None:
                iv = bound_expr(_resolve_lets(idx, facts), facts.env)
                if iv.bounded:
                    hi = as_expr(int(iv.hi) + 1)
                else:
                    ok = False
                    break
            if best is None:
                best = hi
            elif not structural_equal(simplify(best), simplify(hi)):
                iv_a, iv_b = bound_expr(best, facts.env), bound_expr(hi, facts.env)
                best = best if iv_a.hi >= iv_b.hi else hi
        out.append(simplify(best) if ok and best is not None else as_expr(fallback[d]))
    return out
