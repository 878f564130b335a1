"""Structured operator loop nests — the loop IR.

One :class:`OpNest` is one operator's loop nest inside a kernel (cf. the
separate nests for ``lh``, ``rh`` and ``rnn`` in Listing 2).  The nest list
is the loop IR: lowering produces it, the dense-indexing layout transform
rewrites it, and bounds inference, the cost model, the host plan, both code
generators and artifacts read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import IRError
from ..ir import Dim, Expr, Reduce, Var, as_expr, expr_to_str
from .buffer import ILBuffer

AXIS_KINDS = ("node", "spatial", "hoisted")


@dataclass
class AxisSpec:
    """One loop axis of an operator nest."""

    var: Var
    extent: Expr
    kind: str = "spatial"
    begin: Expr = None  # type: ignore[assignment]
    dim: Optional[Dim] = None

    def __post_init__(self) -> None:
        if self.kind not in AXIS_KINDS:
            raise IRError(f"unknown axis kind {self.kind!r}")
        self.extent = as_expr(self.extent)
        self.begin = as_expr(0 if self.begin is None else self.begin)


@dataclass
class OpNest:
    """One operator's loop nest.

    Attributes:
        name: operator name (diagnostics, generated function names).
        out: destination buffer.
        axes: loop axes; a ``node`` axis iterates a batch of nodes.
        lets: scalar bindings evaluated per node-axis iteration, e.g.
            ``node = batch_begin + n_idx`` (Appendix-B contiguous batches).
        out_indices: index expressions into ``out``.
        body: scalar value expression (may be a top-level Reduce).
        predicate: optional guard (conditional operator / bound check that
            the prover could not eliminate).
        stage: barrier stage within a level (0-based; see analysis module).
        tag: cost classification ("matvec", "elementwise", "gather",
            "childsum", "hoisted", "broadcast").
    """

    name: str
    out: ILBuffer
    axes: List[AxisSpec]
    out_indices: List[Expr]
    body: Expr
    lets: List[Tuple[Var, Expr]] = field(default_factory=list)
    predicate: Optional[Expr] = None
    stage: int = 0
    tag: str = "elementwise"
    #: execution phase: "leaf" (specialized leaf batch), "level" (internal
    #: batches), "pre"/"post" (outside the recursion), "hoisted" (run once).
    phase: str = "level"
    #: buffers read by the body (filled by lowering; used by cost/memory).
    reads: List[ILBuffer] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.out_indices = [as_expr(i) for i in self.out_indices]
        if len(self.out_indices) != self.out.ndim:
            raise IRError(f"nest {self.name}: {len(self.out_indices)} indices "
                          f"for {self.out.ndim}-d output {self.out.name}")

    # -- queries ---------------------------------------------------------------
    @property
    def node_axis(self) -> Optional[AxisSpec]:
        for a in self.axes:
            if a.kind == "node":
                return a
        return None

    @property
    def has_reduction(self) -> bool:
        return isinstance(self.body, Reduce)

    def exprs(self) -> List[Expr]:
        """Every expression of the nest: body, store indices, guard, lets."""
        out = [self.body] + list(self.out_indices)
        if self.predicate is not None:
            out.append(self.predicate)
        out.extend(e for _, e in self.lets)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        axes = ", ".join(f"{a.var.name}<{expr_to_str(a.extent)}" for a in self.axes)
        return f"OpNest({self.name}: {self.out.name}[{axes}] stage={self.stage})"
