"""Vectorized Python/NumPy code generation for ILIR modules.

Each kernel becomes a Python function over a workspace of NumPy arrays; each
operator nest becomes a vectorized block.  Three translation paths cover the
nest shapes the lowering produces:

* **elementwise** — every loop axis becomes a broadcast ``arange`` grid;
  reads translate to (advanced-)indexed loads, the whole body to one NumPy
  expression;
* **einsum** — constant-extent reductions whose body is a product of two
  tensor reads (matrix-vector products, per-node matrix products) map to
  :func:`~repro.runtime.kernels.einsum2` (einsum semantics, contraction
  plan cached per spec) with gather operands for indirect node accesses;
* **masked child reduction** — reductions whose extent is an uninterpreted
  function of the node (child-sum models) become a masked accumulation
  over the declared ``max_children`` — unrolled when it is a small
  literal, a short Python loop otherwise (invalid child slots are ``-1``
  in the backing arrays and are masked out before use).

There is one flavor: ``module.python_source`` is what in-process models,
reloaded artifacts and the Python fallback of the native target all run.

Kernel calling conventions (:func:`~repro.runtime.plan.execute_plan` is
the "host"):

* ``pre`` / ``hoisted`` / ``post``: ``fn(ws, c)`` — one launch, full domain;
* ``leaf`` / ``level``: ``fn(ws, c, begin, length)`` — one launch per batch;
* ``fused``: ``fn(ws, c)`` — the level loop runs inside the kernel.

``ws`` maps buffer/UF-array names to NumPy arrays, ``c`` holds scalars
(``num_nodes``, ``leaf_start``, ``max_children``, ...).

Node-axis convention: the node axis variable iterates ``[0, length)`` and
the accompanying let binds ``node = batch_begin + n_idx``; because the
Appendix-B numbering makes batches contiguous, codegen binds the node id
array to ``arange(begin, begin + length)`` directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...errors import CodegenError
from ...ir import (BinOp, Call, Cast, Const, Expr, Reduce, Select, TensorRead,
                   UFCall, UnaryOp, Var, free_vars, is_zero, walk)
from ..module import ILModule, Kernel
from ..nests import AxisSpec, OpNest

_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/", "floordiv": "//",
          "mod": "%", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
          "eq": "==", "ne": "!="}

_CALLS = {"tanh": "_tanh", "sigmoid": "_sigmoid", "exp": "_exp",
          "log": "_log", "sqrt": "_sqrt", "relu": "_relu", "erf": "_erf",
          "tanh_rational": "_tanh_rational",
          "sigmoid_rational": "_sigmoid_rational"}

# Branchless sigmoid and plan-cached einsum (see repro.runtime.kernels).
PRELUDE = '''\
"""Generated by repro.ilir.codegen.python_codegen — do not edit."""
import numpy as np
from repro.runtime.kernels import (tanh as _tanh, sigmoid_fast as _sigmoid,
    exp as _exp, log as _log, sqrt as _sqrt, relu as _relu, erf as _erf,
    tanh_rational as _tanh_rational, sigmoid_rational as _sigmoid_rational,
    einsum2 as _e2, einsum2_into as _e2i)

'''

#: identifiers whose value changes per batch iteration inside a kernel; an
#: expression mentioning any of them cannot be hoisted to the kernel preamble.
_LOOP_TOKENS = frozenset({"begin", "length", "_b", "_lb"})

_IDENT = re.compile(r"[A-Za-z_]\w*")


class _VecTx:
    """Expression -> NumPy source inside a broadcast frame of loop axes.

    ``arrays`` maps variable names (axis vars and the node-id let) to source
    strings that evaluate to frame-broadcastable integer arrays; ``scalars``
    maps variable names to Python-scalar sources (reduce loop counters).
    Unknown variables resolve through the scalar dict ``c``.

    ``cse`` (when given) memoizes loads from arrays the kernels never write
    (UF index arrays, parameters) into local bindings, and ``readonly``
    tells reads of which buffers are safe to treat that way.  Translators
    for runtime-loop bodies are built without it: a load depending on the
    loop counter must not be hoisted out of the loop.
    """

    def __init__(self, arrays: Dict[str, str], scalars: Dict[str, str],
                 cse: Optional[Callable[[str, str], str]] = None,
                 readonly: Optional[frozenset] = None):
        self.arrays = arrays
        self.scalars = scalars
        self.cse = cse
        self.readonly = readonly if readonly is not None else frozenset()

    def tx(self, e: Expr) -> str:
        if isinstance(e, Const):
            if e.dtype.is_bool:
                return "True" if e.value else "False"
            if e.dtype.is_float:
                return f"np.float32({float(e.value)!r})"
            return repr(e.value)
        if isinstance(e, Var):
            if e.name in self.arrays:
                return self.arrays[e.name]
            if e.name in self.scalars:
                return self.scalars[e.name]
            return f"c[{e.name!r}]"
        if isinstance(e, BinOp):
            if e.op in ("min", "max"):
                fn = "np.minimum" if e.op == "min" else "np.maximum"
                return f"{fn}({self.tx(e.a)}, {self.tx(e.b)})"
            if e.op == "and":
                return f"np.logical_and({self.tx(e.a)}, {self.tx(e.b)})"
            if e.op == "or":
                return f"np.logical_or({self.tx(e.a)}, {self.tx(e.b)})"
            return f"({self.tx(e.a)} {_INFIX[e.op]} {self.tx(e.b)})"
        if isinstance(e, UnaryOp):
            if e.op == "not":
                return f"np.logical_not({self.tx(e.a)})"
            if e.op == "abs":
                return f"np.abs({self.tx(e.a)})"
            return f"(-{self.tx(e.a)})"
        if isinstance(e, Cast):
            np_t = {"int32": "np.int64", "int64": "np.int64",
                    "float32": "np.float32", "float64": "np.float64",
                    "bool": "bool"}[e.dtype.name]
            return f"np.asarray({self.tx(e.a)}).astype({np_t})"
        if isinstance(e, Call):
            args = ", ".join(self.tx(a) for a in e.args)
            return f"{_CALLS[e.func]}({args})"
        if isinstance(e, Select):
            return (f"np.where({self.tx(e.cond)}, {self.tx(e.then_)}, "
                    f"{self.tx(e.else_)})")
        if isinstance(e, TensorRead):
            idx = ", ".join(self.tx(i) for i in e.indices)
            src = f"ws[{e.buffer.name!r}][{idx}]"
            if self.cse is not None and e.buffer.name in self.readonly:
                return self.cse("g", src)
            return src
        if isinstance(e, UFCall):
            if e.fn.name == "isleaf":
                arg = self.tx(e.args[0])
                src = f"_isleaf(ws, c, {arg})"
            else:
                idx = ", ".join(self.tx(a) for a in e.args)
                src = f"ws[{e.fn.name!r}][{idx}]"
            # UF arrays come from the linearizer and are never written by
            # kernels, so their loads are always memoization-safe.
            if self.cse is not None:
                return self.cse("g", src)
            return src
        raise CodegenError(f"cannot vectorize {type(e).__name__}")


ISLEAF_HELPER = '''\
def _isleaf(ws, c, n):
    if c['leaf_start'] >= 0:
        return n >= c['leaf_start']
    return ws['num_children'][n] == 0

'''


@dataclass
class _Frame:
    """Axis arrays of one broadcast frame (full or compact)."""

    axes: List[AxisSpec]
    arrays: Dict[str, str]           # var name -> array source
    begins: Dict[str, str]           # axis var name -> begin source
    extents: Dict[str, str]          # axis var name -> extent source


class PythonCodegen:
    """Generates one Python module of kernel functions for an ILModule.

    Per-call-derivable work is moved to compile time (the host-plan
    philosophy of §4/§7.5 applied inside the kernels):

    * einsum contractions call :func:`repro.runtime.kernels.einsum2`, whose
      contraction plan is parsed once per spec instead of per launch;
    * broadcast ``arange`` index frames are memoized — batch-invariant ones
      are hoisted to the kernel preamble, batch-dependent ones are computed
      once per batch iteration instead of once per nest;
    * loads from arrays the kernels never write (linearizer UF arrays,
      parameters) are CSE'd into locals with the same scoping rules;
    * variable-extent child reductions are unrolled over the compile-time
      ``max_children`` when it is a small literal (§3.1 unrolling, applied
      at codegen level), and loop over ``c['max_children']`` otherwise;
    * ``sigmoid`` binds to the branchless :func:`sigmoid_fast`.
    """

    def __init__(self, module: ILModule):
        self.module = module
        self.lines: List[str] = []
        self._tmp = 0
        # memoization state (per kernel / per batch-loop body)
        self._kernel_memo: Dict[str, str] = {}
        self._kernel_hoist: List[str] = []
        self._loop_memo: Dict[str, str] = {}
        self._loop_vars: set[str] = set()
        #: buffers some nest writes; reads of anything else are pure
        self._written: frozenset = frozenset(
            n.out.name for k in module.kernels for n in k.nests)
        self._readonly: frozenset = frozenset(
            b for b in module.buffers if b not in self._written)

    # -- public ------------------------------------------------------------------
    def generate(self) -> str:
        self.lines = [PRELUDE + ISLEAF_HELPER]
        for kernel in self.module.kernels:
            self._emit_kernel(kernel)
        src = "\n".join(self.lines)
        self.module.python_source = src
        return src

    # -- low-level helpers ---------------------------------------------------
    def _fresh(self, hint: str) -> str:
        self._tmp += 1
        return f"_{hint}{self._tmp}"

    def _emit(self, line: str, indent: int = 0) -> None:
        self.lines.append("    " * indent + line)

    def _scalar_tx(self) -> _VecTx:
        return _VecTx({}, {})

    # -- memoized declarations ------------------------------------------------
    def _loop_dependent(self, src: str) -> bool:
        """Does ``src`` mention a per-batch-iteration identifier?"""
        for ident in _IDENT.findall(src):
            if ident in _LOOP_TOKENS or ident in self._loop_vars:
                return True
        return False

    def _declare(self, hint: str, src: str, indent: int) -> str:
        """Bind ``src`` to a memoized local.

        Batch-invariant expressions are hoisted into the kernel preamble and
        computed once per launch; batch-dependent ones are memoized within
        the current loop body and computed once per iteration.
        """
        if not self._loop_dependent(src):
            var = self._kernel_memo.get(src)
            if var is None:
                var = self._fresh(hint)
                self._kernel_memo[src] = var
                self._kernel_hoist.append(f"{var} = {src}")
            return var
        var = self._loop_memo.get(src)
        if var is None:
            var = self._fresh(hint)
            self._loop_memo[src] = var
            self._loop_vars.add(var)
            self._emit(f"{var} = {src}", indent)
        return var

    def _make_cse(self, indent: int) -> Callable[[str, str], str]:
        return lambda hint, src: self._declare(hint, src, indent)

    # -- kernels ------------------------------------------------------------------
    def _emit_kernel(self, kernel: Kernel) -> None:
        name = f"k_{kernel.name}"
        self._kernel_memo = {}
        self._kernel_hoist = []
        self._loop_memo = {}
        self._loop_vars = set()
        if kernel.kind == "fused":
            self._emit(f"def {name}(ws, c):")
            def_idx = len(self.lines) - 1
            self._emit_fused_body(kernel, 1)
        elif kernel.kind in ("leaf", "level"):
            self._emit(f"def {name}(ws, c, begin, length):")
            def_idx = len(self.lines) - 1
            if kernel.nests:
                for n in kernel.nests:
                    self._emit_nest(n, 1, "begin", "length")
            else:
                self._emit("pass", 1)
        else:  # pre / hoisted / post
            self._emit(f"def {name}(ws, c):")
            def_idx = len(self.lines) - 1
            if kernel.nests:
                for n in kernel.nests:
                    if n.node_axis is not None:
                        self._emit_nest(n, 1, "0", "c['num_nodes']")
                    else:
                        self._emit_nest(n, 1, None, None)
            else:
                self._emit("pass", 1)
        if self._kernel_hoist:
            # launch-invariant bindings, computed once per kernel call
            self.lines[def_idx + 1:def_idx + 1] = [
                "    " + line for line in self._kernel_hoist]
            self._kernel_hoist = []
        self._emit("")

    def _emit_fused_body(self, kernel: Kernel, indent: int) -> None:
        leaf_nests = [n for n in kernel.nests if n.phase == "leaf"]
        level_nests = [n for n in kernel.nests if n.phase == "level"]
        # bind the batch tables as Python-int lists once per launch
        bbl = self._declare("bb", "ws['batch_begin'].tolist()", indent)
        bll = self._declare("bl", "ws['batch_length'].tolist()", indent)
        if leaf_nests:
            self._emit("# leaf phase (specialized leaf batches)", indent)
            self._emit("for _lb in range(c['leaf_batch_count']):", indent)
            self._loop_memo = {}
            self._emit(f"begin = {bbl}[_lb]; length = {bll}[_lb]", indent + 1)
            for n in leaf_nests:
                self._emit_nest(n, indent + 1, "begin", "length")
        self._emit("# internal batches: the dependence-carrying loop; one "
                   "global barrier per iteration (App. A.4)", indent)
        self._emit("for _b in range(c['level_start'], c['num_batches']):", indent)
        self._loop_memo = {}
        self._emit(f"begin = {bbl}[_b]; length = {bll}[_b]", indent + 1)
        if level_nests:
            for n in level_nests:
                self._emit_nest(n, indent + 1, "begin", "length")
        else:
            self._emit("pass", indent + 1)

    # -- frames -------------------------------------------------------------------
    def _build_frame(self, axes: Sequence[AxisSpec], node_let: Optional[str],
                     begin_src: Optional[str], length_src: Optional[str],
                     indent: int) -> _Frame:
        """Declare broadcast ``arange`` arrays for a set of axes.

        Declarations are memoized: identical frames are shared across nests
        and batch-invariant ones are hoisted out of the level loop.
        """
        m = len(axes)
        scalar = self._scalar_tx()
        arrays: Dict[str, str] = {}
        begins: Dict[str, str] = {}
        extents: Dict[str, str] = {}
        for j, ax in enumerate(axes):
            if ax.kind == "node":
                # the node axis variable is the dense in-batch index n_idx
                b_src = "0"
                e_src = length_src if length_src is not None else "c['num_nodes']"
            else:
                b_src = scalar.tx(ax.begin)
                e_src = scalar.tx(ax.extent)
            begins[ax.var.name] = b_src
            extents[ax.var.name] = e_src
            base = f"np.arange(({b_src}), ({b_src}) + ({e_src}))"
            if m > 1:
                shape = ", ".join("-1" if i == j else "1" for i in range(m))
                base = f"{base}.reshape({shape})"
            arrays[ax.var.name] = self._declare("ax", base, indent)
        # Bind the node-id let: node = batch_begin + n_idx.  Batches are
        # contiguous under the Appendix-B numbering, so this is affine.
        if node_let is not None:
            node_ax = _node_axis_of(axes)
            if node_ax is not None:
                b = begin_src if begin_src is not None else "0"
                idx_arr = arrays[node_ax.var.name]
                node_src = idx_arr if b.strip() == "0" else f"(({b}) + {idx_arr})"
                arrays[node_let] = self._declare("nd", node_src, indent)
                begins[node_let] = b
                extents[node_let] = extents[node_ax.var.name]
        return _Frame(list(axes), arrays, begins, extents)

    # -- nests --------------------------------------------------------------------
    def _emit_nest(self, nest: OpNest, indent: int,
                   begin_src: Optional[str], length_src: Optional[str]) -> None:
        self._emit(f"# {nest.name} [{nest.tag}]", indent)
        node_let = nest.lets[0][0].name if nest.lets else None
        # Node axis iterates node *ids* directly: arange(begin, begin+length).
        frame = self._build_frame(nest.axes, node_let, begin_src, length_src,
                                  indent)
        tx = _VecTx(frame.arrays, {}, cse=self._make_cse(indent),
                    readonly=self._readonly)

        body = nest.body
        if isinstance(body, Reduce):
            val_src = self._emit_reduce(nest, body, frame, tx, indent,
                                        begin_src, length_src)
        else:
            val_src = tx.tx(body)

        target, target_is_view = self._store_target(nest, frame, tx)
        if nest.predicate is not None:
            pred_src = tx.tx(nest.predicate)
            val_src = f"np.where({pred_src}, {val_src}, {target})"
        elif (target_is_view and val_src.startswith("_e2(")
                and val_src.endswith(")")):
            # unpredicated einsum into a slice view: BLAS writes in place
            self._emit(f"_e2i({val_src[4:-1]}, {target})", indent)
            return
        self._emit(f"{target} = {val_src}", indent)

    # -- stores ---------------------------------------------------------------
    def _store_target(self, nest: OpNest, frame: _Frame,
                      tx: _VecTx) -> Tuple[str, bool]:
        """Destination source; plain slices when the indices are affine.

        The second element says whether the expression is a basic slice
        (a *view* of the buffer — safe to pass as an in-place output) as
        opposed to advanced indexing (a copy; only valid as an assignment
        target).
        """
        out = nest.out
        slices: List[str] = []
        for idx in nest.out_indices:
            s = None
            if isinstance(idx, Var) and idx.name in frame.begins:
                b, e = frame.begins[idx.name], frame.extents[idx.name]
                s = f"({b}):({b}) + ({e})"
            if s is None:
                slices = []
                break
            slices.append(s)
        if slices and len(slices) == out.ndim:
            return f"ws[{out.name!r}][{', '.join(slices)}]", True
        idx_src = ", ".join(tx.tx(i) for i in nest.out_indices)
        return f"ws[{out.name!r}][{idx_src}]", False

    # -- reductions --------------------------------------------------------------
    def _emit_reduce(self, nest: OpNest, red: Reduce, frame: _Frame,
                     tx: _VecTx, indent: int, begin_src, length_src) -> str:
        variable = any(isinstance(x, UFCall)
                       for ax in red.axes for x in walk(ax.extent))
        if variable:
            return self._emit_masked_child_reduce(red, tx, indent)
        ein = self._try_einsum(nest, red, frame, tx, begin_src, length_src,
                               indent)
        if ein is not None:
            return ein
        return self._emit_loop_reduce(red, tx, indent)

    def _emit_masked_child_reduce(self, red: Reduce, tx: _VecTx,
                                  indent: int) -> str:
        if len(red.axes) != 1 or red.op != "sum":
            raise CodegenError(
                "variable-extent reductions must be single-axis sums")
        k = red.axes[0]
        acc = self._fresh("acc")
        mc = self.module.meta.get("max_children")
        if isinstance(mc, int) and 1 <= mc <= 8:
            # Unroll over the declared arity (§3.1): the accumulation order
            # and per-slot ops match the runtime loop exactly, but the child
            # slot becomes a literal so slot loads CSE across nests.
            self._emit(f"{acc} = np.float32(0.0)", indent)
            for kv in range(mc):
                inner = _VecTx(tx.arrays, {**tx.scalars, k.var.name: str(kv)},
                               cse=tx.cse, readonly=tx.readonly)
                mask = f"({kv} < {inner.tx(k.extent)})"
                self._emit(f"{acc} = {acc} + np.where({mask}, "
                           f"{inner.tx(red.body)}, np.float32(0.0))", indent)
            if not is_zero(red.init):
                return f"({acc} + {tx.tx(red.init)})"
            return acc
        kv = self._fresh("k")
        inner = _VecTx(tx.arrays, {**tx.scalars, k.var.name: kv})
        self._emit(f"{acc} = np.float32(0.0)", indent)
        self._emit(f"for {kv} in range(c['max_children']):", indent)
        mask = f"({kv} < {inner.tx(k.extent)})"
        self._emit(f"{acc} = {acc} + np.where({mask}, "
                   f"{inner.tx(red.body)}, np.float32(0.0))", indent + 1)
        if not is_zero(red.init):
            return f"({acc} + {tx.tx(red.init)})"
        return acc

    def _emit_loop_reduce(self, red: Reduce, tx: _VecTx, indent: int) -> str:
        """General fallback: Python loop over the reduce domain."""
        acc = self._fresh("acc")
        self._emit(f"{acc} = None", indent)
        scalars = dict(tx.scalars)
        depth = 0
        for ax in red.axes:
            lv = self._fresh("r")
            self._emit(f"for {lv} in range(int({tx.tx(ax.extent)})):",
                       indent + depth)
            scalars[ax.var.name] = lv
            depth += 1
        inner = _VecTx(tx.arrays, scalars)
        body_src = inner.tx(red.body)
        d = indent + depth
        if red.op == "sum":
            self._emit(f"{acc} = ({body_src}) if {acc} is None else "
                       f"{acc} + ({body_src})", d)
        else:
            fn = "np.maximum" if red.op == "max" else "np.minimum"
            self._emit(f"{acc} = ({body_src}) if {acc} is None else "
                       f"{fn}({acc}, {body_src})", d)
        init = tx.tx(red.init)
        if red.op == "sum" and not is_zero(red.init):
            return f"({acc} + {init})"
        return f"({acc} if {acc} is not None else {init})"

    def _try_einsum(self, nest: OpNest, red: Reduce, frame: _Frame,
                    tx: _VecTx, begin_src, length_src,
                    indent: int = 0) -> Optional[str]:
        """Match sum(read * read) -> np.einsum with gather operands."""
        if red.op != "sum" or not is_zero(red.init):
            return None
        body = red.body
        if not (isinstance(body, BinOp) and body.op == "mul"
                and isinstance(body.a, TensorRead)
                and isinstance(body.b, TensorRead)):
            return None
        letters: Dict[str, str] = {}
        for j, ax in enumerate(nest.axes):
            letters[ax.var.name] = chr(ord("a") + j)
        for r, rax in enumerate(red.axes):
            letters[rax.var.name] = chr(ord("a") + len(nest.axes) + r)
        node_let = nest.lets[0][0].name if nest.lets else None
        if node_let is not None:
            node_ax = _node_axis_of(nest.axes)
            if node_ax is not None:
                letters[node_let] = letters[node_ax.var.name]

        operands: List[str] = []
        subs: List[str] = []
        for read in (body.a, body.b):
            src, sub = self._einsum_operand(read, letters, nest, node_let,
                                            begin_src, length_src, indent)
            if src is None:
                return None
            operands.append(src)
            subs.append(sub)
        out_sub = "".join(letters[a.var.name] for a in nest.axes)
        spec = f"{subs[0]},{subs[1]}->{out_sub}"
        # einsum2 caches the contraction plan per spec; it equals
        # np.einsum(..., optimize=True) except for the canonicalized operand
        # order and 1-extent GEMM edges, which it computes
        # batch-extent-invariantly (the serving coalescer's bit-identity
        # guarantee)
        return f"_e2({spec!r}, {operands[0]}, {operands[1]})"

    def _einsum_operand(self, read: TensorRead, letters: Dict[str, str],
                        nest: OpNest, node_let: Optional[str],
                        begin_src, length_src,
                        indent: int = 0) -> Tuple[Optional[str], str]:
        sub_parts: List[str] = []
        gathers: List[Tuple[int, Expr]] = []
        node_ax = _node_axis_of(nest.axes)
        node_ax_name = node_ax.var.name if node_ax is not None else None
        row_slice = ""  # restriction of dim 0 to the current batch rows
        for d, idx in enumerate(read.indices):
            if isinstance(idx, Var) and idx.name in letters:
                sub_parts.append(letters[idx.name])
                if d == 0:
                    b = begin_src if begin_src is not None else "0"
                    e = length_src if length_src is not None else "c['num_nodes']"
                    if idx.name == node_let:
                        row_slice = f"[({b}):({b}) + ({e})]"
                    elif idx.name == node_ax_name:
                        # dense-indexed buffer: valid rows are [0, length)
                        row_slice = f"[0:({e})]"
            else:
                gathers.append((d, idx))
        if not gathers:
            return f"ws[{read.buffer.name!r}]{row_slice}", "".join(sub_parts)
        if row_slice:
            return None, ""  # mixing row slices and gathers is unsupported
        if len(gathers) != 1 or gathers[0][0] != 0:
            return None, ""  # only leading-dimension gathers are supported
        gexpr = gathers[0][1]
        used = set(free_vars(gexpr))
        node_ax = _node_axis_of(nest.axes)
        frame_axes = [a for a in nest.axes
                      if a.var.name in used
                      or (node_let in used and a is node_ax)]
        if not frame_axes:
            return None, ""
        compact = self._build_frame(frame_axes, node_let, begin_src,
                                    length_src, indent)
        ctx = _VecTx(compact.arrays, {})
        g_src = ctx.tx(gexpr)
        sub = ("".join(letters[a.var.name] for a in frame_axes)
               + "".join(sub_parts))
        return f"ws[{read.buffer.name!r}][{g_src}]", sub


def _node_axis_of(axes: Sequence[AxisSpec]) -> Optional[AxisSpec]:
    for a in axes:
        if a.kind == "node":
            return a
    return None


def generate_python(module: ILModule) -> str:
    return PythonCodegen(module).generate()
