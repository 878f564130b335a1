"""Derived recursive reference evaluator: interpret an RA program per node.

This module is the **semantic ground truth** of the Recursive API.  A
:class:`ReferenceInterpreter` walks the input structure exactly the way the
paper describes a recursive model abstractly — children before parents,
one cell evaluation per node — and evaluates the RA operator DAG
*node-by-node* by interpreting each operator's scalar body over the node's
non-node axes.  Nothing is lowered, linearized, scheduled or generated:
the only inputs are the :class:`~repro.ra.ops.Program` the user wrote and
the parameter arrays, so the interpreter's output defines what every
compiled execution (Python and native kernels, fused/persistent
schedules, coalesced serving mega-batches, reloaded artifacts) must
reproduce.  It is the repo's one semantic oracle (see DESIGN.md): it
shares no lowering, nests, codegen, linearizer or host plan with the
product — only the NumPy intrinsics of :mod:`repro.runtime.kernels`.

It replaces the hand-written recursive NumPy ``reference()`` functions the
model zoo used to carry: the authoring layer
(:mod:`repro.authoring`) derives a model's reference from its single RA
definition, and the legacy NumPy references survive only as redundant
cross-checks in the parity test suite.

Numerically the interpreter is deliberately *bit-faithful* to the
generated kernels, not merely close:

* constant-extent product reductions (matvecs, per-node matrix products)
  route through :func:`repro.runtime.kernels.einsum2` with the same
  subscript specs codegen emits, so they execute the identical
  canonicalized GEMM plans — and the serving subsystem's batch-extent
  invariance (padded 1-extent edges, M-side batch axis) makes the
  interpreter's per-node rows equal the compiled batched rows *bitwise*;
* variable-extent child reductions accumulate in the same slot order with
  the same masked ``+ 0.0`` terms as the generated masked child loops;
* elementwise bodies evaluate with ``np.float32`` constants and the
  intrinsics of :mod:`repro.runtime.kernels` by IR name — in particular
  the two-branch :func:`~repro.runtime.kernels.sigmoid`, not the
  branchless ``sigmoid_fast`` the generated kernels bind, so the
  zero-tolerance parity tests keep ``sigmoid_fast == sigmoid`` a tested
  fact rather than an identity.

Because of this the parity suite can assert ``interpret == compiled``
with zero tolerance for the ported zoo models, while the legacy NumPy
references (which use ``@``/GEMV accumulation orders BLAS does not
guarantee to match GEMM) are compared with a tight float32 tolerance.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ExecutionError
from ..ir import (BinOp, Call, Cast, Const, Expr, Reduce, Select, TensorRead,
                  UFCall, UnaryOp, Var, is_zero, walk)
from ..linearizer.structures import Node, iter_nodes
from .node_ref import NodeVar
from .ops import (ComputeOp, IfThenElseOp, InputOp, PlaceholderOp, Program,
                  RecursionOp)
from .tensor import RATensor

__all__ = ["ReferenceInterpreter", "InterpError", "interpret_reference"]


class InterpError(ExecutionError):
    """The interpreter met a construct outside the RA contract."""


_NP_DTYPES = {"float32": np.float32, "float64": np.float64,
              "int32": np.int32, "int64": np.int64, "bool": np.bool_}

#: Cast targets mirror the generated code's mapping (int32 widens to int64).
_CAST_DTYPES = {"int32": np.int64, "int64": np.int64,
                "float32": np.float32, "float64": np.float64, "bool": bool}


def _np_dtype(dtype) -> type:
    try:
        return _NP_DTYPES[dtype.name]
    except KeyError:  # pragma: no cover - defensive
        raise InterpError(f"unsupported tensor dtype {dtype.name}")


def _const_value(e: Const):
    """A constant exactly as generated code spells it."""
    if e.dtype.is_bool:
        return bool(e.value)
    if e.dtype.is_float:
        return (np.float32(e.value) if e.dtype.name == "float32"
                else np.float64(e.value))
    return int(e.value)


class ReferenceInterpreter:
    """Evaluate an RA program recursively over input structures.

    One instance is reusable across calls; per-call state lives in
    :class:`_Run`.  ``interp(roots, params)`` returns ``id(node) -> value``
    where ``value`` is the node's state array for single-state models and a
    tuple of state arrays (in ``recursion_op`` pair order) for mutually
    recursive models — the same convention the legacy hand-written
    references used.
    """

    def __init__(self, program: Program):
        program.finalize()
        if program.recursion is None:
            raise InterpError("program has no recursion_op to interpret")
        self.program = program
        self.recursion: RecursionOp = program.recursion
        self.access = program.access
        #: placeholder name -> index into ``recursion.pairs``
        self.pair_index: Dict[str, int] = {
            ph.name: i for i, (ph, _) in enumerate(self.recursion.pairs)}
        #: recursion-output name -> pair index (for post-recursion reads)
        self.output_index: Dict[str, int] = {
            out.name: i for i, out in enumerate(self.recursion.outputs)}
        #: fixed child accessor name ("left", "child2", ...) -> slot
        self.child_slots: Dict[str, int] = {
            fn.name: k for k, fn in self.access._child.items()}

    # -- public -------------------------------------------------------------
    def __call__(self, roots: Union[Node, Sequence[Node]],
                 params: Mapping[str, np.ndarray]) -> Dict[int, Any]:
        if isinstance(roots, Node):
            roots = [roots]
        run = _Run(self, params)
        for node in iter_nodes(roots):  # post-order: children first
            run.eval_node(node)
        single = len(self.recursion.pairs) == 1
        return {nid: (vals[0] if single else vals)
                for nid, vals in run.state.items()}

    def check_params(self, params: Mapping[str, np.ndarray]) -> None:
        """Validate presence and shapes of every model input."""
        for op in self.program.ops:
            if not isinstance(op, InputOp):
                continue
            t = op.output
            arr = params.get(t.name)
            if arr is None:
                raise InterpError(
                    f"missing parameter {t.name!r}; the program declares "
                    f"inputs {[o.output.name for o in self.program.ops if isinstance(o, InputOp)]}")
            want = _concrete_shape(t)
            if want is not None and tuple(arr.shape) != want:
                raise InterpError(
                    f"parameter {t.name!r} has shape {tuple(arr.shape)}, "
                    f"program expects {want}")


def interpret_reference(program: Program, roots: Union[Node, Sequence[Node]],
                        params: Mapping[str, np.ndarray]) -> Dict[int, Any]:
    """One-shot convenience wrapper over :class:`ReferenceInterpreter`."""
    return ReferenceInterpreter(program)(roots, params)


def _concrete_shape(t: RATensor) -> Optional[Tuple[int, ...]]:
    out = []
    for s in t.shape:
        if not isinstance(s, Const):
            return None
        out.append(int(s.value))
    return tuple(out)


class _Run:
    """Per-invocation state: node states + per-node/global tensor caches."""

    def __init__(self, interp: ReferenceInterpreter,
                 params: Mapping[str, np.ndarray]):
        self.interp = interp
        self.params = params
        interp.check_params(params)
        #: id(node) -> tuple of state arrays (no leading node axis)
        self.state: Dict[int, Tuple[np.ndarray, ...]] = {}
        #: name -> value for node-independent tensors (evaluated once)
        self.global_cache: Dict[str, np.ndarray] = {}

    # -- driving ------------------------------------------------------------
    def eval_node(self, node: Node) -> None:
        cache: Dict[str, np.ndarray] = {}
        vals = []
        for ph, body in self.interp.recursion.pairs:
            v = self.node_value(body, node, cache)
            vals.append(v[0])  # drop the 1-extent node axis
        self.state[id(node)] = tuple(vals)

    # -- tensor values -------------------------------------------------------
    def node_value(self, t: RATensor, node: Node,
                   cache: Dict[str, np.ndarray]) -> np.ndarray:
        """Value of ``t`` at ``node``; leading 1-extent node axis kept."""
        if not t.is_recursive:
            return self.global_value(t)
        hit = cache.get(t.name)
        if hit is not None:
            return hit
        op = t.op
        if op is None:
            raise InterpError(f"tensor {t.name} has no producer")
        if isinstance(op, PlaceholderOp):
            raise InterpError(
                f"placeholder {t.name} read at the node itself; properties "
                f"P.1-P.3 only allow child reads")
        if isinstance(op, RecursionOp):
            idx = self.interp.output_index[t.name]
            val = self.state[id(node)][idx][None]
        elif isinstance(op, IfThenElseOp):
            branch = op.then_t if node.is_leaf else op.else_t
            src = self.node_value(branch, node, cache)
            val = np.empty((1,) + _rest_shape(t), _np_dtype(t.dtype))
            val[...] = src  # mirrors the buffer store (broadcast + cast)
        elif isinstance(op, ComputeOp):
            val = self._eval_compute(op, node, cache)
        else:  # pragma: no cover - defensive
            raise InterpError(f"cannot interpret operation {op!r}")
        cache[t.name] = val
        return val

    def global_value(self, t: RATensor) -> np.ndarray:
        """Value of a node-independent tensor (inputs, hoisted computes)."""
        if t.role == "input":
            return np.asarray(self.params[t.name])
        hit = self.global_cache.get(t.name)
        if hit is not None:
            return hit
        op = t.op
        if not isinstance(op, ComputeOp):
            raise InterpError(f"cannot evaluate {t.name} outside a node context")
        val = self._eval_compute(op, None, {})
        self.global_cache[t.name] = val
        return val

    def child_state(self, ph: RATensor, node: Node, slot: int) -> np.ndarray:
        """State of child ``slot`` for the pair bound to ``ph``.

        Invalid slots (``slot >= arity``) return zeros: generated kernels
        read deterministic garbage rows there, but every consumer masks or
        predicates them away, so the zero stand-in never reaches an output.
        """
        idx = self.interp.pair_index[ph.name]
        if 0 <= slot < len(node.children):
            return self.state[id(node.children[slot])][idx]
        return np.zeros(_rest_shape(ph), _np_dtype(ph.dtype))

    def child_stack(self, ph: RATensor, node: Node) -> np.ndarray:
        """States of all declared child slots, stacked: (max_children, ...)."""
        mc = self.interp.program.max_children
        return np.stack([self.child_state(ph, node, k) for k in range(mc)])

    # -- computes -----------------------------------------------------------
    def _eval_compute(self, op: ComputeOp, node: Optional[Node],
                      cache: Dict[str, np.ndarray]) -> np.ndarray:
        axes = op.axes
        is_node = isinstance(axes[0], NodeVar)
        if is_node and node is None:
            raise InterpError(f"{op.name}: node-indexed compute needs a node")
        ndim = len(axes)
        extents = []
        env: Dict[str, np.ndarray] = {}
        for d, ax in enumerate(axes):
            if d == 0 and is_node:
                extents.append(1)
                continue
            extent = op.output.shape[d]
            if not isinstance(extent, Const):
                raise InterpError(
                    f"{op.name}: non-node axis {ax.name} has symbolic extent")
            e = int(extent.value)
            extents.append(e)
            shape = tuple(-1 if i == d else 1 for i in range(ndim))
            env[ax.name] = np.arange(e).reshape(shape)
        ctx = _ExprEval(self, node, cache, op, env, ndim)
        body = op.body
        val = ctx.reduce(body) if isinstance(body, Reduce) else ctx.ev(body)
        out = np.empty(tuple(extents), _np_dtype(op.output.dtype))
        out[...] = val  # mirrors the workspace store (broadcast + cast)
        return out


def _rest_shape(t: RATensor) -> Tuple[int, ...]:
    shape = []
    for s in t.shape[1:]:
        if not isinstance(s, Const):
            raise InterpError(f"{t.name}: symbolic non-node extent")
        shape.append(int(s.value))
    return tuple(shape)


class _ExprEval:
    """Evaluate one operator body over the broadcast grid of its axes.

    Axis variables map to broadcast ``arange`` arrays exactly like the
    vectorized codegen's index frames; reduce-loop variables bind to
    Python ints in ``scalars`` (the masked child loop).  The node variable
    never evaluates to a number — it only appears as a UF argument or as
    the leading index of a same-node read.
    """

    def __init__(self, run: _Run, node: Optional[Node],
                 cache: Dict[str, np.ndarray], op: ComputeOp,
                 env: Dict[str, np.ndarray], ndim: int,
                 scalars: Optional[Dict[str, int]] = None):
        self.run = run
        self.node = node
        self.cache = cache
        self.op = op
        self.env = env
        self.ndim = ndim
        self.scalars = scalars or {}
        nv = op.axes[0]
        self.node_name = nv.name if isinstance(nv, NodeVar) else None
        self._zero = np.zeros((1,) * ndim, dtype=np.int64)

    def _with_scalars(self, extra: Dict[str, int]) -> "_ExprEval":
        return _ExprEval(self.run, self.node, self.cache, self.op, self.env,
                         self.ndim, {**self.scalars, **extra})

    # -- dispatch -----------------------------------------------------------
    def ev(self, e: Expr):
        if isinstance(e, Const):
            return _const_value(e)
        if isinstance(e, Var):
            if e.name in self.env:
                return self.env[e.name]
            if e.name in self.scalars:
                return self.scalars[e.name]
            if e.name == self.node_name:
                raise InterpError(
                    f"{self.op.name}: the node variable is only meaningful "
                    f"as a structure-accessor argument or a tensor index")
            raise InterpError(f"{self.op.name}: unbound variable {e.name}")
        if isinstance(e, BinOp):
            return self._binop(e)
        if isinstance(e, UnaryOp):
            a = self.ev(e.a)
            if e.op == "not":
                return np.logical_not(a)
            if e.op == "abs":
                return np.abs(a)
            return -a
        if isinstance(e, Cast):
            return np.asarray(self.ev(e.a)).astype(_CAST_DTYPES[e.dtype.name])
        if isinstance(e, Call):
            from ..runtime import kernels

            fn = getattr(kernels, e.func)
            return fn(*(self.ev(a) for a in e.args))
        if isinstance(e, Select):
            return np.where(self.ev(e.cond), self.ev(e.then_),
                            self.ev(e.else_))
        if isinstance(e, TensorRead):
            return self._read(e)
        if isinstance(e, UFCall):
            return self._uf_value(e)
        if isinstance(e, Reduce):
            raise InterpError(
                f"{self.op.name}: Reduce is only supported at the top level "
                f"of a compute body (as in TVM)")
        raise InterpError(f"cannot interpret {type(e).__name__}")

    def _binop(self, e: BinOp):
        a, b = self.ev(e.a), self.ev(e.b)
        if e.op == "min":
            return np.minimum(a, b)
        if e.op == "max":
            return np.maximum(a, b)
        if e.op == "and":
            return np.logical_and(a, b)
        if e.op == "or":
            return np.logical_or(a, b)
        return {
            "add": lambda: a + b, "sub": lambda: a - b,
            "mul": lambda: a * b, "div": lambda: a / b,
            "floordiv": lambda: a // b, "mod": lambda: a % b,
            "lt": lambda: a < b, "le": lambda: a <= b,
            "gt": lambda: a > b, "ge": lambda: a >= b,
            "eq": lambda: a == b, "ne": lambda: a != b,
        }[e.op]()

    # -- structure accessors -------------------------------------------------
    def _require_node(self, what: str) -> Node:
        if self.node is None:
            raise InterpError(f"{self.op.name}: {what} outside a node context")
        return self.node

    def _uf_value(self, e: UFCall):
        access = self.run.interp.access
        fn = e.fn
        if fn is access.words:
            return int(self._require_node("words(n)").word)
        if fn is access.num_children:
            return len(self._require_node("num_children(n)").children)
        if fn is access.isleaf:
            return self._require_node("isleaf(n)").is_leaf
        raise InterpError(
            f"{self.op.name}: accessor {fn.name} is only meaningful as a "
            f"tensor index (or is runtime-internal)")

    def _is_node_arg(self, e: Expr) -> bool:
        return isinstance(e, Var) and e.name == self.node_name

    # -- reads --------------------------------------------------------------
    def _read(self, e: TensorRead):
        buf = e.buffer
        if not isinstance(buf, RATensor):  # pragma: no cover - defensive
            raise InterpError(f"read of non-RA buffer {buf!r}")
        if buf.role == "input":
            arr = self.run.params[buf.name]
            return arr[tuple(self.ev(i) for i in e.indices)]
        if not buf.is_recursive:
            val = self.run.global_value(buf)
            return val[tuple(self.ev(i) for i in e.indices)]
        idx0 = e.indices[0]
        rest = tuple(self.ev(i) for i in e.indices[1:])
        if self._is_node_arg(idx0):
            val = self.run.node_value(buf, self._require_node(buf.name),
                                      self.cache)
            return val[(self._zero,) + rest]
        if isinstance(idx0, UFCall):
            return self._child_read(buf, idx0, rest)
        raise InterpError(
            f"{self.op.name}: unsupported node index {idx0!r} into {buf.name}")

    def _child_read(self, buf: RATensor, idx0: UFCall, rest: tuple):
        interp = self.run.interp
        node = self._require_node(buf.name)
        if buf.role != "placeholder":
            raise InterpError(
                f"{self.op.name}: child-indexed read of non-placeholder "
                f"{buf.name} (P.2 forbids it)")
        fn = idx0.fn
        if fn is interp.access.child_any:
            kexpr, narg = idx0.args
            if not self._is_node_arg(narg):
                raise InterpError(
                    f"{self.op.name}: child(k, n) must take the node variable")
            kv = self.ev(kexpr)
            stack = self.run.child_stack(buf, node)
            return stack[(kv,) + rest]
        slot = interp.child_slots.get(fn.name)
        if slot is None or not self._is_node_arg(idx0.args[0]):
            raise InterpError(
                f"{self.op.name}: placeholder {buf.name} must be read at a "
                f"child of the node variable (got {idx0!r})")
        child = self.run.child_state(buf, node, slot)
        return child[None][(self._zero,) + rest]

    # -- reductions ----------------------------------------------------------
    def reduce(self, red: Reduce):
        variable = any(isinstance(x, UFCall)
                       for ax in red.axes for x in walk(ax.extent))
        if variable:
            return self._masked_child_reduce(red)
        out = self._try_einsum(red)
        if out is not None:
            return out
        return self._loop_reduce(red)

    def _masked_child_reduce(self, red: Reduce):
        """Mirror of the generated masked child loop: same order, same bits.

        Generated kernels accumulate ``acc + where(k < arity, body, 0.0)``
        for every declared slot; for invalid slots that adds an exact
        float32 zero, which is what the interpreter adds too (the masked
        body values never contribute).
        """
        if len(red.axes) != 1 or red.op != "sum":
            raise InterpError(
                "variable-extent reductions must be single-axis sums")
        k = red.axes[0]
        extent = self.ev(k.extent)
        acc = np.float32(0.0)
        for kv in range(self.run.interp.program.max_children):
            if kv < extent:
                acc = acc + self._with_scalars({k.var.name: kv}).ev(red.body)
            else:
                acc = acc + np.float32(0.0)
        if not is_zero(red.init):
            acc = acc + self.ev(red.init)
        return acc

    def _loop_reduce(self, red: Reduce):
        """General fallback; accumulation order matches the generated loop."""
        extents = [int(self.ev(ax.extent)) for ax in red.axes]
        acc = None
        for combo in itertools.product(*(range(e) for e in extents)):
            scalars = {ax.var.name: v for ax, v in zip(red.axes, combo)}
            term = self._with_scalars(scalars).ev(red.body)
            if acc is None:
                acc = term
            elif red.op == "sum":
                acc = acc + term
            else:
                fn = np.maximum if red.op == "max" else np.minimum
                acc = fn(acc, term)
        init = self.ev(red.init)
        if red.op == "sum" and not is_zero(red.init):
            return acc + init
        return acc if acc is not None else init

    # -- einsum matching (mirrors PythonCodegen._try_einsum) ------------------
    def _try_einsum(self, red: Reduce):
        if red.op != "sum" or not is_zero(red.init):
            return None
        body = red.body
        if not (isinstance(body, BinOp) and body.op == "mul"
                and isinstance(body.a, TensorRead)
                and isinstance(body.b, TensorRead)):
            return None
        letters: Dict[str, str] = {}
        for j, ax in enumerate(self.op.axes):
            letters[ax.name] = chr(ord("a") + j)
        for r, rax in enumerate(red.axes):
            letters[rax.var.name] = chr(ord("a") + len(self.op.axes) + r)
        operands: List[np.ndarray] = []
        subs: List[str] = []
        for read in (body.a, body.b):
            arr, sub = self._einsum_operand(read, letters)
            if arr is None:
                return None
            operands.append(arr)
            subs.append(sub)
        out_sub = "".join(letters[ax.name] for ax in self.op.axes)
        spec = f"{subs[0]},{subs[1]}->{out_sub}"
        from ..runtime.kernels import einsum2

        return einsum2(spec, operands[0], operands[1])

    def _einsum_operand(self, read: TensorRead, letters: Dict[str, str]):
        """Array + subscripts for one contraction operand, codegen-style.

        The node axis letter fronts gathered operands exactly as the
        codegen's compact gather frames do, so the resulting spec string
        matches the generated kernel's and executes the same cached
        contraction plan in :mod:`repro.runtime.kernels`.
        """
        buf = read.buffer
        if not isinstance(buf, RATensor):
            return None, ""
        node_letter = (letters.get(self.node_name)
                       if self.node_name is not None else None)

        def tail_subs(indices) -> Optional[str]:
            out = []
            for idx in indices:
                if isinstance(idx, Var) and idx.name in letters:
                    out.append(letters[idx.name])
                else:
                    return None
            return "".join(out)

        idx0 = read.indices[0]
        # plain reads: every index is a frame/reduce axis variable (the
        # node variable is NOT one of these — it denotes a same-node row)
        if (isinstance(idx0, Var) and idx0.name in letters
                and not self._is_node_arg(idx0)):
            sub = tail_subs(read.indices)
            if sub is None:
                return None, ""
            if buf.role == "input":
                return np.asarray(self.run.params[buf.name]), sub
            if buf.is_recursive:
                return None, ""  # node-indexed read without the node index
            return self.run.global_value(buf), sub
        rest = tail_subs(read.indices[1:])
        if rest is None or node_letter is None or self.node is None:
            return None, ""
        # same-node row of a node-indexed tensor
        if self._is_node_arg(idx0):
            if not buf.is_recursive:
                return None, ""
            return (self.run.node_value(buf, self.node, self.cache),
                    node_letter + rest)
        if not isinstance(idx0, UFCall):
            return None, ""
        interp = self.run.interp
        fn = idx0.fn
        # embedding-style gather: params[words(n)] -> one row, node letter
        if fn is interp.access.words and buf.role == "input":
            row = np.asarray(self.run.params[buf.name])[int(self.node.word)]
            return np.ascontiguousarray(row)[None], node_letter + rest
        if buf.role != "placeholder":
            return None, ""
        if fn is interp.access.child_any:
            kexpr, narg = idx0.args
            if not (self._is_node_arg(narg) and isinstance(kexpr, Var)
                    and kexpr.name in letters):
                return None, ""
            stack = self.run.child_stack(buf, self.node)
            return stack[None], node_letter + letters[kexpr.name] + rest
        slot = interp.child_slots.get(fn.name)
        if slot is None or not self._is_node_arg(idx0.args[0]):
            return None, ""
        child = self.run.child_state(buf, self.node, slot)
        return np.ascontiguousarray(child)[None], node_letter + rest
