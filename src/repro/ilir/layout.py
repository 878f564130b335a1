"""Dense indexing of intermediates (§5.1, Fig. 5).

:func:`densify_intermediates` is the one layout transform lowering runs on
the nest list: an intermediate indexed by sparse node ids inside a batch
wastes scratchpad space, so re-index it by the dense loop iteration space
(``n_idx``), shrink it to ``max_batch_len`` rows and move it to shared
memory.  This also turns the indirect access into an affine one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..ir import (Expr, ExprMutator, Reduce, TensorRead, Var, as_expr,
                  structural_equal)
from .buffer import ILBuffer
from .nests import OpNest


class _AccessRewriter(ExprMutator):
    """Rewrites reads of one buffer with a per-read index transformation."""

    def __init__(self, buffer: ILBuffer, fn):
        self.buffer = buffer
        self.fn = fn

    def visit_tensorread(self, e: TensorRead) -> Expr:
        idx = tuple(self.visit(i) for i in e.indices)
        if e.buffer is self.buffer or (isinstance(e.buffer, ILBuffer)
                                       and e.buffer.name == self.buffer.name):
            return TensorRead(self.buffer, self.fn(list(idx)))
        if all(a is b for a, b in zip(idx, e.indices)):
            return e
        return TensorRead(e.buffer, idx)


def _rewrite_accesses(nests: Iterable[OpNest], buffer: ILBuffer, fn) -> None:
    rw = _AccessRewriter(buffer, fn)
    for nest in nests:
        if nest.out.name == buffer.name:
            nest.out_indices = fn([as_expr(i) for i in nest.out_indices])
        if isinstance(nest.body, Reduce):
            nest.body = Reduce(nest.body.op, rw.visit(nest.body.body),
                               nest.body.axes, rw.visit(nest.body.init))
        else:
            nest.body = rw.visit(nest.body)
        if nest.predicate is not None:
            nest.predicate = rw.visit(nest.predicate)
        nest.lets = [(v, rw.visit(e)) for v, e in nest.lets]


# ---------------------------------------------------------------------------
# Dense indexing of intermediates (Fig. 5)


def _node_let_var(nest: OpNest) -> Optional[Var]:
    """The let-bound node id variable of a node-axis nest, if any."""
    for var, _ in nest.lets:
        return var
    return None


def densify_intermediates(nests: Sequence[OpNest],
                          buffers: Dict[str, ILBuffer],
                          max_batch_len: Expr,
                          protected: Sequence[str]) -> List[str]:
    """Apply the Fig. 5 dense-indexing transform where legal.

    A buffer qualifies when every producer and consumer (a) lives in the
    same level iteration — true for all nests handed in together — and (b)
    accesses dimension 0 with the *same node id* that the consumer's own
    iteration binds, i.e. the value never crosses nodes.  Cross-node reads
    (``rnn[left[node]]``) or cross-level state (``protected``) disqualify.

    Returns the names of the buffers transformed.  Transformed buffers get
    ``shape[0] = max_batch_len``, scope "shared" and affine ``n_idx``
    indexing — both the space saving and the indexing-cost saving of §5.1.
    """
    protected_set = set(protected)
    candidates: Dict[str, List[OpNest]] = {}
    for nest in nests:
        name = nest.out.name
        if name in buffers and name not in protected_set:
            candidates.setdefault(name, [])

    for name in list(candidates):
        buf = buffers[name]
        ok = True
        for nest in nests:
            node_var = _node_let_var(nest)
            # writes: out index 0 must be exactly the nest's node id
            if nest.out.name == name:
                if node_var is None or not structural_equal(
                        nest.out_indices[0], node_var):
                    ok = False
                    break
            # reads: index 0 must be the reader's own node id
            for r in _reads_of_nest(nest):
                if isinstance(r.buffer, ILBuffer) and r.buffer.name == name:
                    if node_var is None or not structural_equal(
                            r.indices[0], node_var):
                        ok = False
                        break
            if not ok:
                break
        if not ok:
            del candidates[name]

    transformed: List[str] = []
    for name in candidates:
        buf = buffers[name]
        buf.shape = (as_expr(max_batch_len),) + buf.shape[1:]
        buf.scope = "shared"
        buf.dense_indexed = True
        # node -> n_idx: each nest re-indexes dim 0 by its own dense axis var.
        for nest in nests:
            node_var = _node_let_var(nest)
            n_axis = nest.node_axis
            if node_var is None or n_axis is None:
                continue

            def fn(indices: List[Expr], _v=node_var, _ax=n_axis.var):
                i0 = indices[0]
                if structural_equal(i0, _v):
                    return [_ax] + indices[1:]
                return indices

            _rewrite_accesses([nest], buf, fn)
        transformed.append(name)
    return transformed


def _reads_of_nest(nest: OpNest):
    from ..ir import reads_of

    body = nest.body.body if isinstance(nest.body, Reduce) else nest.body
    return reads_of(body)
