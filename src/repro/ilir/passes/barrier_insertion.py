"""Barrier insertion (Appendix A.4).

Data written for a node is read by its parent through child-indexed loads
(``rnn[left[node], i]``), which appear in the ILIR as loop-carried
dependences.  TVM's stock pass handles such dependences conservatively by
synchronizing in the *innermost* loop; Cortex's modification places the
barrier on the loop that actually carries the dependence — the batch loop —
because the linearizer guarantees that no node in a batch is a child of any
other node in the same batch (§2 properties + Appendix B numbering).

``insert_barriers(stmt, independent, mode)`` reproduces both behaviours so
the benefit is measurable: "cortex" mode places one barrier per iteration of
the carrying loop, "conservative" mode one per iteration of the innermost
loop enclosing a dependent read.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from ...errors import IRError
from ...ir import Expr, Reduce, TensorRead, UFCall, walk
from ..buffer import ILBuffer
from ..stmt import (Barrier, Block, For, IfThenElse, Let, Stmt, Store,
                    walk_stmts)

#: Names of uninterpreted functions that follow structure edges.
CHILD_FN_PREFIXES = ("left", "right", "child")


def is_child_access(e: Expr) -> bool:
    return isinstance(e, UFCall) and any(
        e.fn.name.startswith(p) for p in CHILD_FN_PREFIXES)


def _stores_and_dependent_reads(s: Stmt) -> tuple[Set[str], Set[str]]:
    """Buffers stored at node positions / read through child accessors."""
    written: Set[str] = set()
    dep_read: Set[str] = set()
    for st in walk_stmts(s):
        if isinstance(st, Store):
            written.add(st.buffer.name)
            for sub in walk(st.value):
                if isinstance(sub, TensorRead) and sub.indices:
                    if is_child_access(sub.indices[0]):
                        dep_read.add(sub.buffer.name)
    return written, dep_read


def _let_bindings(stmt: Stmt) -> dict:
    out = {}
    for st in walk_stmts(stmt):
        if isinstance(st, Let):
            out[st.var.name] = st.value
    return out


def _node_selector_vars(stmt: Stmt) -> Set[str]:
    """Variables that determine *which node* each store writes.

    Resolves let chains (``node = batch_begin(b) + n_idx``) so the batch
    loop variable is recognized as selecting nodes.
    """
    from ...ir import free_vars, substitute

    lets = _let_bindings(stmt)
    out: Set[str] = set()
    for st in walk_stmts(stmt):
        if isinstance(st, Store) and st.indices:
            e = st.indices[0]
            for _ in range(8):  # bounded let-chain resolution
                new = substitute(e, lets)
                if new is e or new.key() == e.key():
                    break
                e = new
            out |= set(free_vars(e))
            for sub in walk(e):
                if isinstance(sub, UFCall):
                    for a in sub.args:
                        out |= set(free_vars(a))
    return out


def dependence_carrying_loops(stmt: Stmt,
                              independent: Set[str] = frozenset()) -> List[For]:
    """Loops that carry a node->parent dependence.

    A loop carries the dependence when (a) its body both writes a buffer at
    node positions and reads the same buffer through a child accessor, and
    (b) its variable selects which nodes are written (spatial loops over
    the hidden dimension do not reorder nodes).  Loop variables declared
    ``independent`` — in-batch loops, per the linearizer guarantee that no
    node in a batch is a child of another — are exempt.
    """
    selectors = _node_selector_vars(stmt)
    out: List[For] = []
    for st in walk_stmts(stmt):
        if isinstance(st, For) and st.var.name not in independent \
                and st.var.name in selectors:
            written, dep_read = _stores_and_dependent_reads(st.body)
            if written & dep_read:
                out.append(st)
    return out


def insert_barriers(stmt: Stmt, independent: Set[str] = frozenset(),
                    mode: str = "cortex") -> Stmt:
    """Insert global barriers; see module docstring for the two modes."""
    if mode not in ("cortex", "conservative"):
        raise IRError(f"unknown barrier insertion mode {mode!r}")

    carrying = dependence_carrying_loops(stmt, independent)
    carrying_ids = {id(l) for l in carrying}
    if not carrying:
        return stmt

    if mode == "cortex":
        # Barrier at the top of the *outermost* carrying loop's body; nested
        # carrying loops are already covered by the outer barrier.
        outer_ids = _outermost(stmt, carrying_ids)
        return _rebuild(stmt, outer_ids, at_inner=False)

    # conservative: barrier inside the innermost loop around a dependent read
    return _rebuild_conservative(stmt, independent)


def _outermost(stmt: Stmt, carrying_ids: Set[int]) -> Set[int]:
    keep: Set[int] = set()

    def go(s: Stmt, covered: bool) -> None:
        if isinstance(s, For) and id(s) in carrying_ids and not covered:
            keep.add(id(s))
            covered = True
        for c in s.children():
            go(c, covered)

    go(stmt, False)
    return keep


def _rebuild(s: Stmt, target_ids: Set[int], at_inner: bool) -> Stmt:
    if isinstance(s, Block):
        return Block([_rebuild(c, target_ids, at_inner) for c in s.stmts])
    if isinstance(s, For):
        body = _rebuild(s.body, target_ids, at_inner)
        if id(s) in target_ids:
            body = Block([Barrier("global"), body])
        return For(s.var, s.begin, s.extent, body, s.kind, s.dim)
    if isinstance(s, Let):
        return Let(s.var, s.value, _rebuild(s.body, target_ids, at_inner))
    if isinstance(s, IfThenElse):
        return IfThenElse(s.cond, _rebuild(s.then_body, target_ids, at_inner),
                          None if s.else_body is None
                          else _rebuild(s.else_body, target_ids, at_inner))
    return s


def _has_dependent_read(s: Stmt) -> bool:
    for st in walk_stmts(s):
        if isinstance(st, Store):
            for sub in walk(st.value):
                if isinstance(sub, TensorRead) and sub.indices and \
                        is_child_access(sub.indices[0]):
                    return True
    return False


def _rebuild_conservative(s: Stmt, independent: Set[str]) -> Stmt:
    """TVM-like placement: barrier inside the innermost loop over the read."""

    def go(st: Stmt) -> Stmt:
        if isinstance(st, Block):
            return Block([go(c) for c in st.stmts])
        if isinstance(st, For):
            inner_has_loop = any(isinstance(x, For) for x in walk_stmts(st.body))
            body = go(st.body)
            if not inner_has_loop and _has_dependent_read(st.body):
                body = Block([Barrier("global"), body])
            return For(st.var, st.begin, st.extent, body, st.kind, st.dim)
        if isinstance(st, Let):
            return Let(st.var, st.value, go(st.body))
        if isinstance(st, IfThenElse):
            return IfThenElse(st.cond, go(st.then_body),
                              None if st.else_body is None else go(st.else_body))
        return st

    return go(s)
