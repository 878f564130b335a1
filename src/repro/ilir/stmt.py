"""ILIR statements: the evaluator's view of an operator nest (§5).

The compiler's loop IR is the nest list (:mod:`.nests`); lowering, both
code generators, the cost model and artifacts work on nests.  A statement
tree is derived from one nest by :meth:`~.nests.OpNest.to_stmt` and read
by two consumers only: the scalar ``Stmt``-level evaluator
(:mod:`.interp`) and the Appendix A.4 barrier pass.

Statement forms:

* :class:`Block` — sequence.
* :class:`For` — loop with begin/extent (either may be symbolic or contain
  UF calls).
* :class:`Let` — scalar binding (``node = batch_begin[b] + n_idx``).
* :class:`Store` — tensor element write, optionally an accumulation.
* :class:`IfThenElse` — the conditional operator's lowering (§5.2).
* :class:`Barrier` — global/block synchronization (Appendix A.4).
* :class:`Alloc` — scoped buffer allocation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..errors import IRError
from ..ir import Var, as_expr
from .buffer import ILBuffer


class Stmt:
    """Base class for ILIR statements."""

    def children(self) -> tuple["Stmt", ...]:
        return ()


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: Sequence[Stmt]):
        flat: list[Stmt] = []
        for s in stmts:
            if isinstance(s, Block):
                flat.extend(s.stmts)
            else:
                flat.append(s)
        self.stmts = tuple(flat)

    def children(self):
        return self.stmts


class For(Stmt):
    __slots__ = ("var", "begin", "extent", "body")

    def __init__(self, var: Var, begin, extent, body: Stmt):
        self.var = var
        self.begin = as_expr(begin)
        self.extent = as_expr(extent)
        self.body = body

    def children(self):
        return (self.body,)


class Let(Stmt):
    __slots__ = ("var", "value", "body")

    def __init__(self, var: Var, value, body: Stmt):
        self.var = var
        self.value = as_expr(value)
        self.body = body

    def children(self):
        return (self.body,)


class Store(Stmt):
    """``buffer[indices] = value`` or ``buffer[indices] op= value``."""

    __slots__ = ("buffer", "indices", "value", "reduce_op")

    def __init__(self, buffer: ILBuffer, indices: Sequence, value,
                 reduce_op: Optional[str] = None):
        if reduce_op not in (None, "sum", "max", "min"):
            raise IRError(f"unknown store reduction {reduce_op!r}")
        self.buffer = buffer
        self.indices = tuple(as_expr(i) for i in indices)
        if len(self.indices) != buffer.ndim:
            raise IRError(f"store to {buffer.name}: {len(self.indices)} indices "
                          f"for {buffer.ndim}-d buffer")
        self.value = as_expr(value)
        self.reduce_op = reduce_op


class IfThenElse(Stmt):
    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond, then_body: Stmt, else_body: Optional[Stmt] = None):
        self.cond = as_expr(cond)
        if not self.cond.dtype.is_bool:
            raise IRError("IfThenElse condition must be boolean")
        self.then_body = then_body
        self.else_body = else_body

    def children(self):
        return (self.then_body,) if self.else_body is None else \
            (self.then_body, self.else_body)


class Barrier(Stmt):
    """A synchronization point; ``scope`` is "global" or "block"."""

    __slots__ = ("scope",)

    def __init__(self, scope: str = "global"):
        if scope not in ("global", "block"):
            raise IRError(f"unknown barrier scope {scope!r}")
        self.scope = scope


class Alloc(Stmt):
    __slots__ = ("buffer", "body")

    def __init__(self, buffer: ILBuffer, body: Stmt):
        self.buffer = buffer
        self.body = body

    def children(self):
        return (self.body,)


# ---------------------------------------------------------------------------
# Traversal helpers


def walk_stmts(s: Stmt) -> Iterable[Stmt]:
    """Pre-order traversal of a statement tree."""
    yield s
    for c in s.children():
        yield from walk_stmts(c)


def barriers_in(s: Stmt) -> list[Barrier]:
    return [x for x in walk_stmts(s) if isinstance(x, Barrier)]


def count_barriers(s: Stmt, scope: str = "global") -> int:
    return sum(1 for b in barriers_in(s) if b.scope == scope)


def transform_exprs(s: Stmt, fn) -> Stmt:
    """Rebuild a statement tree applying ``fn`` to every embedded expression."""
    if isinstance(s, Block):
        return Block([transform_exprs(c, fn) for c in s.stmts])
    if isinstance(s, For):
        return For(s.var, fn(s.begin), fn(s.extent),
                   transform_exprs(s.body, fn))
    if isinstance(s, Let):
        return Let(s.var, fn(s.value), transform_exprs(s.body, fn))
    if isinstance(s, Store):
        return Store(s.buffer, [fn(i) for i in s.indices], fn(s.value),
                     s.reduce_op)
    if isinstance(s, IfThenElse):
        return IfThenElse(fn(s.cond), transform_exprs(s.then_body, fn),
                          None if s.else_body is None
                          else transform_exprs(s.else_body, fn))
    if isinstance(s, Alloc):
        return Alloc(s.buffer, transform_exprs(s.body, fn))
    return s
