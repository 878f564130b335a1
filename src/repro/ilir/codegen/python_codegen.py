"""Vectorized Python/NumPy code generation for ILIR modules.

Each kernel becomes a Python function over a workspace of NumPy arrays; each
operator nest becomes a vectorized block.  Three translation paths cover the
nest shapes the lowering produces:

* **elementwise** — the loop axes span a broadcast frame and the whole
  body becomes one NumPy expression.  A read indexed by frame axes, the
  node let, constants and reduce scalars is a basic slice — a view, with
  ``None`` for the frame axes it does not use (and transposed when its
  axes are out of frame order, as ``child[k, node]`` in a (node, k)
  frame); a read
  whose leading index is itself such a read (``child(k, node)``,
  ``words[node]``, nested) is a 1-D row take,
  ``ws['h'][ws['child'][0, begin:begin + length], 0:256]``; any other read
  is a broadcast ``arange`` gather.  Frame ``arange`` arrays are declared
  only where a gather or an expression still reads them;
* **einsum** — constant-extent reductions whose body is a product of two
  tensor reads (matrix-vector products, per-node matrix products) map to
  :func:`~repro.runtime.kernels.einsum2` (einsum semantics, contraction
  plan cached per spec) with row-take operands for indirect node accesses;
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
Appendix-B numbering makes batches contiguous, a read at ``node`` is the
row slice ``begin:begin + length`` (and the node id array, where one is
still needed, ``arange(begin, begin + length)``).
"""

from __future__ import annotations

import re
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
          "log": "_log", "sqrt": "_sqrt", "relu": "_relu", "erf": "_erf"}

# Branchless sigmoid and plan-cached einsum (see repro.runtime.kernels).
PRELUDE = '''\
"""Generated by repro.ilir.codegen.python_codegen — do not edit."""
import numpy as np
from repro.runtime.kernels import (tanh as _tanh, sigmoid_fast as _sigmoid,
    exp as _exp, log as _log, sqrt as _sqrt, relu as _relu, erf as _erf,
    einsum2 as _e2, einsum2_into as _e2i)

'''

#: identifiers whose value changes per batch iteration inside a kernel; an
#: expression mentioning any of them cannot be hoisted to the kernel preamble.
_LOOP_TOKENS = frozenset({"begin", "length", "_b", "_lb"})

_IDENT = re.compile(r"[A-Za-z_]\w*")


class _VecTx:
    """Expression -> NumPy source inside a broadcast frame of loop axes.

    ``frame`` gives the axis variables (and the node-id let) their frame
    positions, slices and — declared on first use — broadcast ``arange``
    arrays; ``scalars`` maps variable names to Python-scalar sources
    (reduce loop counters).  Unknown variables resolve through the scalar
    dict ``c``.

    Reads lower to the cheapest form that yields the broadcast gather's
    values (:meth:`load`): a basic slice (a view) when the indices are
    frame axes and scalars, a row take when the leading index is itself
    such a read, else the broadcast gather.

    ``cse`` (when given) memoizes loads from arrays the kernels never write
    (UF index arrays, parameters) into local bindings, and ``readonly``
    tells reads of which buffers are safe to treat that way.  Translators
    for runtime-loop bodies are built without it: a load depending on the
    loop counter must not be hoisted out of the loop.
    """

    def __init__(self, frame: "_Frame", scalars: Dict[str, str],
                 cse: Optional[Callable[[str, str], str]] = None,
                 readonly: Optional[frozenset] = None):
        self.frame = frame
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
            if e.name in self.frame.pos:
                return self.frame.array(e.name)
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
        if isinstance(e, UFCall) and e.fn.name == "isleaf":
            src = f"_isleaf(ws, c, {self.tx(e.args[0])})"
            return self.cse("g", src) if self.cse is not None else src
        if isinstance(e, (TensorRead, UFCall)):
            return self.load(e)
        raise CodegenError(f"cannot vectorize {type(e).__name__}")

    # -- reads --------------------------------------------------------------
    def load(self, e: Expr, rank: Optional[int] = None) -> Optional[str]:
        """Source of a tensor or UF read, in the frame's broadcast shape.

        With ``rank`` the result covers only the first ``rank`` frame
        positions (a row-take index), and ``None`` is returned when no
        view or take has that shape; without it, a read neither form
        covers becomes the broadcast gather.
        """
        name, indices = _read_parts(e)
        src = self._affine_load(name, indices,
                                self.frame.rank if rank is None else rank)
        if src is None:
            if rank is not None:
                return None
            idx = ", ".join(self.tx(i) for i in indices)
            src = f"ws[{name!r}][{idx}]"
        # UF arrays come from the linearizer and are never written by
        # kernels, so their loads are always memoization-safe.
        if self.cse is not None and (isinstance(e, UFCall)
                                     or name in self.readonly):
            return self.cse("g", src)
        return src

    def _affine_load(self, name: str, indices: Sequence[Expr],
                     rank: int) -> Optional[str]:
        """A view (basic slice) or row take of ``name``, else ``None``.

        Frame axes become their slices and frame positions the read does
        not use become ``None``, so the result has the gather's shape.  A
        leading read over frame axes (``child(k, node)``, ``words[node]``,
        nested) becomes a take index covering the frame positions up to
        its last one; the remaining indices must follow it in frame order.
        """
        frame = self.frame
        lead_read = indices[0] if indices and _is_read(indices[0]) else None
        start = 0
        if lead_read is not None:
            used0 = frame.positions(lead_read)
            if not used0:
                return None
            start = max(used0) + 1
            indices = indices[1:]
        parts: List[Tuple[Optional[int], str]] = []
        for idx in indices:
            if isinstance(idx, Var) and idx.name in frame.pos:
                parts.append((frame.pos[idx.name], frame.slices[idx.name]))
            elif self._is_scalar(idx):
                parts.append((None, self.tx(idx)))
            else:
                return None
        used = [p for p, _ in parts if p is not None]
        if (start > rank or len(set(used)) != len(used)
                or any(p < start or p >= rank for p in used)
                or (lead_read is not None and used != sorted(used))):
            return None
        lead = None
        if lead_read is not None:
            # lowered last: a read that falls back binds no dead lead
            lead = self.load(lead_read, start)
            if lead is None:
                return None
        elif not used:
            return None  # a scalar element: the plain index form is basic
        if used == sorted(used):
            items = [lead] if lead is not None else []
            nxt = start
            for p, s in parts:
                if p is not None:
                    items += ["None"] * (p - nxt)
                    nxt = p + 1
                items.append(s)
            items += ["None"] * (rank - nxt)
            return f"ws[{name!r}][{', '.join(items)}]"
        # axes out of frame order (``child[k, node]`` in a (node, k) frame):
        # slice in buffer order, then permute the view into frame order
        perm = sorted(range(len(used)), key=used.__getitem__)
        src = (f"ws[{name!r}][{', '.join(s for _, s in parts)}]"
               f".transpose({', '.join(map(str, perm))})")
        if rank > len(used):
            pattern = ["None"] * rank
            for p in used:
                pattern[p] = ":"
            src += f"[{', '.join(pattern)}]"
        return src

    def _is_scalar(self, e: Expr) -> bool:
        """Integer arithmetic over constants and non-frame variables."""
        for x in walk(e):
            if isinstance(x, Var):
                if x.name in self.frame.pos:
                    return False
            elif isinstance(x, Const):
                if x.dtype.is_float or x.dtype.is_bool:
                    return False
            elif not isinstance(x, (BinOp, UnaryOp)):
                return False
        return True


def _is_read(e: Expr) -> bool:
    """A tensor or UF read (``isleaf`` is a predicate, not an array)."""
    return (isinstance(e, TensorRead)
            or (isinstance(e, UFCall) and e.fn.name != "isleaf"))


def _read_parts(e: Expr) -> Tuple[str, Sequence[Expr]]:
    if isinstance(e, TensorRead):
        return e.buffer.name, e.indices
    return e.fn.name, e.args


ISLEAF_HELPER = '''\
def _isleaf(ws, c, n):
    if c['leaf_start'] >= 0:
        return n >= c['leaf_start']
    return ws['num_children'][n] == 0

'''


class _Frame:
    """The loop axes of one broadcast frame (full or compact).

    ``pos`` maps every axis variable, and the node-id let, to its frame
    position and ``slices`` to the basic slice it spans.  The broadcast
    ``arange`` array of a variable is declared only when an expression
    needs one (:meth:`array`); views and row takes need none.
    """

    def __init__(self, rank: int, pos: Dict[str, int],
                 slices: Dict[str, str], aranges: Dict[str, str],
                 node: Optional[Tuple[str, str, str]] = None,
                 declare: Optional[Callable[[str, str], str]] = None):
        self.rank = rank
        self.pos = pos
        self.slices = slices
        self._aranges = aranges
        self._node = node          # (node let, node axis var, begin source)
        self._declare = declare

    def positions(self, e: Expr) -> set:
        """Frame positions the free variables of ``e`` range over."""
        return {self.pos[v] for v in free_vars(e) if v in self.pos}

    def array(self, name: str) -> str:
        if self._node is not None and name == self._node[0]:
            # node = batch_begin + n_idx: affine, because batches are
            # contiguous under the Appendix-B numbering
            _, axis, b = self._node
            idx = self.array(axis)
            src = idx if b.strip() == "0" else f"(({b}) + {idx})"
            return self._declare("nd", src)
        return self._declare("ax", self._aranges[name])


_NO_FRAME = _Frame(0, {}, {}, {})


class PythonCodegen:
    """Generates one Python module of kernel functions for an ILModule.

    Per-call-derivable work is moved to compile time (the host-plan
    philosophy of §4/§7.5 applied inside the kernels):

    * einsum contractions call :func:`repro.runtime.kernels.einsum2`, whose
      contraction plan is parsed once per spec instead of per launch;
    * affine reads are views and indirect ones row takes, not broadcast
      gathers; the ``arange`` frames still read are memoized —
      batch-invariant ones hoisted to the kernel preamble, batch-dependent
      ones computed once per batch iteration instead of once per nest;
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
        return _VecTx(_NO_FRAME, {})

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
        """The frame of a set of axes; its ``arange`` arrays are declared
        on first use.

        Declarations are memoized: identical frames are shared across nests
        and batch-invariant ones are hoisted out of the level loop.
        """
        m = len(axes)
        scalar = self._scalar_tx()
        pos: Dict[str, int] = {}
        slices: Dict[str, str] = {}
        aranges: Dict[str, str] = {}
        for j, ax in enumerate(axes):
            if ax.kind == "node":
                # the node axis variable is the dense in-batch index n_idx
                b_src = "0"
                e_src = length_src if length_src is not None else "c['num_nodes']"
            else:
                b_src = scalar.tx(ax.begin)
                e_src = scalar.tx(ax.extent)
            pos[ax.var.name] = j
            slices[ax.var.name] = f"({b_src}):({b_src}) + ({e_src})"
            base = f"np.arange(({b_src}), ({b_src}) + ({e_src}))"
            if m > 1:
                shape = ", ".join("-1" if i == j else "1" for i in range(m))
                base = f"{base}.reshape({shape})"
            aranges[ax.var.name] = base
        node = None
        node_ax = _node_axis_of(axes)
        if node_let is not None and node_ax is not None:
            b = begin_src if begin_src is not None else "0"
            e = length_src if length_src is not None else "c['num_nodes']"
            pos[node_let] = pos[node_ax.var.name]
            slices[node_let] = f"({b}):({b}) + ({e})"
            node = (node_let, node_ax.var.name, b)
        return _Frame(m, pos, slices, aranges, node, self._make_cse(indent))

    # -- nests --------------------------------------------------------------------
    def _emit_nest(self, nest: OpNest, indent: int,
                   begin_src: Optional[str], length_src: Optional[str]) -> None:
        self._emit(f"# {nest.name} [{nest.tag}]", indent)
        node_let = nest.lets[0][0].name if nest.lets else None
        # Node axis iterates node *ids* directly: arange(begin, begin+length).
        frame = self._build_frame(nest.axes, node_let, begin_src, length_src,
                                  indent)
        tx = _VecTx(frame, {}, cse=self._make_cse(indent),
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
            # unpredicated einsum into a slice view: BLAS writes in place,
            # so no operand may be a view of the buffer it writes
            if nest.out.name in _viewed_operands(body):
                raise CodegenError(
                    f"nest {nest.name!r}: in-place einsum output "
                    f"{nest.out.name!r} aliases one of its operands")
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
            if not (isinstance(idx, Var) and idx.name in frame.slices):
                slices = []
                break
            slices.append(frame.slices[idx.name])
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
                inner = _VecTx(tx.frame, {**tx.scalars, k.var.name: str(kv)},
                               cse=tx.cse, readonly=tx.readonly)
                mask = f"({kv} < {inner.tx(k.extent)})"
                self._emit(f"{acc} = {acc} + np.where({mask}, "
                           f"{inner.tx(red.body)}, np.float32(0.0))", indent)
            if not is_zero(red.init):
                return f"({acc} + {tx.tx(red.init)})"
            return acc
        kv = self._fresh("k")
        inner = _VecTx(tx.frame, {**tx.scalars, k.var.name: kv})
        # translate before the loop header: frame arrays are declared at
        # the nest's indent on first use
        mask = f"({kv} < {inner.tx(k.extent)})"
        body_src = inner.tx(red.body)
        self._emit(f"{acc} = np.float32(0.0)", indent)
        self._emit(f"for {kv} in range(c['max_children']):", indent)
        self._emit(f"{acc} = {acc} + np.where({mask}, "
                   f"{body_src}, np.float32(0.0))", indent + 1)
        if not is_zero(red.init):
            return f"({acc} + {tx.tx(red.init)})"
        return acc

    def _emit_loop_reduce(self, red: Reduce, tx: _VecTx, indent: int) -> str:
        """General fallback: Python loop over the reduce domain."""
        acc = self._fresh("acc")
        scalars = dict(tx.scalars)
        headers: List[str] = []
        for ax in red.axes:
            lv = self._fresh("r")
            headers.append(f"for {lv} in range(int({tx.tx(ax.extent)})):")
            scalars[ax.var.name] = lv
        # translate before the loop headers (see the masked reduction)
        body_src = _VecTx(tx.frame, scalars).tx(red.body)
        self._emit(f"{acc} = None", indent)
        for depth, header in enumerate(headers):
            self._emit(header, indent + depth)
        d = indent + len(headers)
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
        """Match sum(read * read) -> np.einsum with row-take operands."""
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
        frame_axes = [a for a in nest.axes
                      if a.var.name in used
                      or (node_let in used and a is node_ax)]
        if not frame_axes:
            return None, ""
        # the leading index over the operand's own (compact) frame: a view
        # for child(k, node) / words[node], so the operand is one row take
        compact = self._build_frame(frame_axes, node_let, begin_src,
                                    length_src, indent)
        ctx = _VecTx(compact, {}, cse=self._make_cse(indent),
                     readonly=self._readonly)
        g_src = ctx.tx(gexpr)
        sub = ("".join(letters[a.var.name] for a in frame_axes)
               + "".join(sub_parts))
        return f"ws[{read.buffer.name!r}][{g_src}]", sub


def _viewed_operands(red: Reduce) -> set:
    """Buffers an einsum over ``red`` reads through views, not row takes
    (every index a letter variable; see ``_einsum_operand``)."""
    return {r.buffer.name for r in (red.body.a, red.body.b)
            if all(isinstance(i, Var) for i in r.indices)}


def _node_axis_of(axes: Sequence[AxisSpec]) -> Optional[AxisSpec]:
    for a in axes:
        if a.kind == "node":
            return a
    return None


def generate_python(module: ILModule) -> str:
    return PythonCodegen(module).generate()
