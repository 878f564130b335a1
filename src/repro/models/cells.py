"""Shared building blocks for model definitions.

Every recurrent cell in the zoo decomposes into the same two operator
shapes — matrix-vector products with a top-level reduction, and elementwise
gate combinations — mirroring how the paper's Fig. 8 draws the operator DAG
(``*``, ``+``, ``relu`` as separate fusable operators).
"""

from __future__ import annotations

from typing import Optional

from ..ir import Expr, reduce_sum
from ..ra.ops import Program
from ..ra.tensor import NUM_NODES, RATensor


def matvec(prog: Program, W: RATensor, vec: RATensor, name: str,
           hidden: Optional[int] = None) -> RATensor:
    """``out[n, i] = sum_k W[i, k] * vec[n, k]`` (one reduction operator)."""
    H = hidden if hidden is not None else int(W.shape[0].value)  # type: ignore
    K = int(W.shape[1].value)  # type: ignore[attr-defined]

    def body(n, i):
        k = _axis(prog, K)
        return reduce_sum(W[i, k.var] * vec[n, k.var], k)

    return prog.compute((NUM_NODES, H), body, name)


def child_matvec(prog: Program, W: RATensor, ph: RATensor, name: str,
                 max_children: int) -> RATensor:
    """Per-child matvec: ``out[n, k, i] = sum_j W[i, j] * ph[child(k,n), j]``.

    Rows for invalid child slots contain garbage and must be consumed
    through a masked child reduction (the TreeLSTM forget-gate pattern).
    """
    H = int(W.shape[0].value)  # type: ignore[attr-defined]
    J = int(W.shape[1].value)  # type: ignore[attr-defined]

    def body(n, k, i):
        j = _axis(prog, J)
        return reduce_sum(W[i, j.var] * ph[n.child_at(k), j.var], j)

    return prog.compute((NUM_NODES, max_children, H), body, name)


def child_sum(prog: Program, ph: RATensor, name: str, hidden: int) -> RATensor:
    """``out[n, i] = sum_{k < arity(n)} ph[child(k, n), i]`` (child-sum)."""

    def body(n, i):
        k = _axis_uf(prog, n.arity)
        return reduce_sum(ph[n.child_at(k.var), i], k)

    return prog.compute((NUM_NODES, hidden), body, name)


def _axis(prog: Program, extent: int):
    from ..ir import reduce_axis

    return reduce_axis(extent, prog.fresh("k"))


def _axis_uf(prog: Program, extent: Expr):
    from ..ir import reduce_axis

    return reduce_axis(extent, prog.fresh("k"))
