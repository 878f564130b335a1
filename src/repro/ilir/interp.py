"""Scalar reference interpreter for ILIR statement trees.

Executes statements element-by-element with Python scalars — slow but
direct, serving as the semantic ground truth the vectorized code generator
is tested against (the "gold standard, easy to debug Python version" idiom).

Uninterpreted functions evaluate by indexing their backing arrays in the
workspace; the ``isleaf`` predicate lowers to the Appendix-B comparison when
``leaf_start`` is available and to an arity load otherwise.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, MutableMapping

import numpy as np

from ..errors import ExecutionError
from ..ir import (BinOp, Call, Cast, Const, Expr, Reduce, Select, TensorRead,
                  UFCall, UnaryOp, Var)
from .stmt import (Alloc, Barrier, Block, For, IfThenElse, Let, Stmt, Store)

_BIN = {
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
    "floordiv": lambda a, b: a // b, "mod": lambda a, b: a % b,
    "min": min, "max": max,
    "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}

_CALLS = {
    "tanh": math.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)),
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
    "relu": lambda x: max(x, 0.0), "erf": math.erf,
}


class Interpreter:
    """Executes a statement tree over a workspace of numpy buffers."""

    def __init__(self, workspace: MutableMapping[str, np.ndarray],
                 scalars: Mapping[str, int] | None = None):
        self.ws = workspace
        self.env: Dict[str, float | int] = dict(scalars or {})
        self.barriers_executed = 0

    # -- expressions -----------------------------------------------------------
    def eval(self, e: Expr):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            try:
                return self.env[e.name]
            except KeyError:
                raise ExecutionError(f"unbound variable {e.name!r}") from None
        if isinstance(e, BinOp):
            return _BIN[e.op](self.eval(e.a), self.eval(e.b))
        if isinstance(e, UnaryOp):
            a = self.eval(e.a)
            return {"neg": lambda: -a, "not": lambda: not a,
                    "abs": lambda: abs(a)}[e.op]()
        if isinstance(e, Cast):
            v = self.eval(e.a)
            return int(v) if e.dtype.is_int else float(v)
        if isinstance(e, Call):
            return _CALLS[e.func](*(self.eval(a) for a in e.args))
        if isinstance(e, Select):
            return self.eval(e.then_) if self.eval(e.cond) else self.eval(e.else_)
        if isinstance(e, TensorRead):
            buf = self._array(e.buffer.name)
            idx = tuple(int(self.eval(i)) for i in e.indices)
            return buf[idx].item()
        if isinstance(e, UFCall):
            return self._eval_uf(e)
        if isinstance(e, Reduce):
            return self._eval_reduce(e)
        raise ExecutionError(f"cannot interpret {type(e).__name__}")

    def _array(self, name: str) -> np.ndarray:
        try:
            return self.ws[name]
        except KeyError:
            raise ExecutionError(f"buffer {name!r} missing from workspace") from None

    def _eval_uf(self, e: UFCall):
        args = tuple(int(self.eval(a)) for a in e.args)
        if e.fn.name == "isleaf":
            leaf_start = self.env.get("leaf_start", -1)
            if leaf_start is not None and leaf_start >= 0:
                return args[0] >= leaf_start
            return int(self._array("num_children")[args[0]]) == 0
        arr = self._array(e.fn.name)
        if arr.ndim != len(args):
            raise ExecutionError(
                f"uninterpreted fn {e.fn.name}: {len(args)} args for "
                f"{arr.ndim}-d backing array")
        return arr[args].item()

    def _eval_reduce(self, e: Reduce):
        acc = self.eval(e.init)
        extents = [int(self.eval(ax.extent)) for ax in e.axes]

        def rec(d: int):
            nonlocal acc
            if d == len(e.axes):
                v = self.eval(e.body)
                if e.op == "sum":
                    acc = acc + v
                elif e.op == "max":
                    acc = max(acc, v)
                else:
                    acc = min(acc, v)
                return
            name = e.axes[d].var.name
            for i in range(extents[d]):
                self.env[name] = i
                rec(d + 1)
            del self.env[name]

        rec(0)
        return acc

    # -- statements -----------------------------------------------------------
    def run(self, s: Stmt) -> None:
        if isinstance(s, Block):
            for c in s.stmts:
                self.run(c)
        elif isinstance(s, For):
            begin = int(self.eval(s.begin))
            extent = int(self.eval(s.extent))
            name = s.var.name
            for i in range(begin, begin + extent):
                self.env[name] = i
                self.run(s.body)
            self.env.pop(name, None)
        elif isinstance(s, Let):
            self.env[s.var.name] = self.eval(s.value)
            self.run(s.body)
            del self.env[s.var.name]
        elif isinstance(s, Store):
            buf = self._array(s.buffer.name)
            idx = tuple(int(self.eval(i)) for i in s.indices)
            val = self.eval(s.value)
            if s.reduce_op is None:
                buf[idx] = val
            elif s.reduce_op == "sum":
                buf[idx] += val
            elif s.reduce_op == "max":
                buf[idx] = max(buf[idx], val)
            else:
                buf[idx] = min(buf[idx], val)
        elif isinstance(s, IfThenElse):
            if self.eval(s.cond):
                self.run(s.then_body)
            elif s.else_body is not None:
                self.run(s.else_body)
        elif isinstance(s, Barrier):
            self.barriers_executed += 1
        elif isinstance(s, Alloc):
            shape = tuple(int(self.eval(d)) for d in s.buffer.shape)
            self.ws.setdefault(s.buffer.name,
                               np.zeros(shape, s.buffer.dtype.to_numpy()))
            self.run(s.body)
        else:
            raise ExecutionError(f"cannot interpret {type(s).__name__}")


def run_stmt(stmt: Stmt, workspace: MutableMapping[str, np.ndarray],
             scalars: Mapping[str, int] | None = None) -> Interpreter:
    it = Interpreter(workspace, scalars)
    it.run(stmt)
    return it


def run_module(module, workspace: MutableMapping[str, np.ndarray],
               scalars: Mapping[str, int]) -> Interpreter:
    """Execute a whole ILModule through the scalar interpreter.

    Mirrors the executor's host program over the statement-tree view of
    every nest — an independent semantic path used to cross-check the
    vectorized code generator (slow; test-sized inputs only).

    ``scalars`` must carry the linearizer scalars (``num_nodes``,
    ``num_batches``, ``leaf_batch_count``, ``level_start``,
    ``leaf_start``, ``max_children``).
    """
    from ..ir import ExprMutator, UFCall, as_expr

    class _FullDomain(ExprMutator):
        """Rewrites batch-relative node addressing to the full domain."""

        def visit_ufcall(self, e: UFCall):
            if e.fn.name == "batch_begin":
                return as_expr(0)
            if e.fn.name == "batch_length":
                return as_expr(int(scalars["num_nodes"]))
            return self.generic_visit(e)

    from .stmt import transform_exprs

    it = Interpreter(workspace, dict(scalars))
    full = _FullDomain()

    def run_nest_full_domain(nest) -> None:
        stmt = transform_exprs(nest.to_stmt(), full.visit)
        it.run(stmt)

    def run_nest_batch(nest, b: int) -> None:
        it.env["b_idx"] = b
        it.run(nest.to_stmt())
        it.env.pop("b_idx", None)

    leaf_batches = range(int(scalars["leaf_batch_count"]))
    levels = range(int(scalars["level_start"]), int(scalars["num_batches"]))

    for kernel in module.kernels:
        if kernel.kind in ("hoisted", "pre"):
            for nest in kernel.nests:
                run_nest_full_domain(nest)

    # leaf kernels once per leaf batch, in host order
    for kernel in module.kernels:
        if kernel.kind == "leaf":
            for b in leaf_batches:
                for nest in kernel.nests:
                    run_nest_batch(nest, b)

    # level kernels interleave per level (ops of level b depend on other
    # ops' results from level b AND on state from earlier levels)
    level_kernels = [k for k in module.kernels if k.kind == "level"]
    if level_kernels:
        for b in levels:
            for kernel in level_kernels:
                for nest in kernel.nests:
                    run_nest_batch(nest, b)

    for kernel in module.kernels:
        if kernel.kind == "fused":
            leaf_nests = [n for n in kernel.nests if n.phase == "leaf"]
            level_nests = [n for n in kernel.nests if n.phase == "level"]
            for b in leaf_batches:
                for nest in leaf_nests:
                    run_nest_batch(nest, b)
            for b in levels:
                it.barriers_executed += kernel.barriers_per_level
                for nest in level_nests:
                    run_nest_batch(nest, b)

    for kernel in module.kernels:
        if kernel.kind == "post":
            for nest in kernel.nests:
                run_nest_full_domain(nest)
    return it
