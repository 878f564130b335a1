"""C target code generation.

Two layers live here:

* the legacy CUDA-flavoured *sketch* renderer (:func:`expr_to_c`,
  :func:`stmt_to_c`, :func:`kernel_to_c`) — readable pseudo-C for
  documentation and snapshot tests, kept for modules that lack operator
  nests (artifact reloads);
* the **native** generator (:func:`generate_c_module`) — complete,
  portable, self-contained C99 that ``runtime/native.py`` compiles with
  the system compiler into a ``.so`` and launches through ``ctypes``.

The native generator mirrors ``python_codegen.PythonCodegen`` construct
for construct so the two targets agree bitwise wherever the arithmetic
is reassociation-free:

* elementwise nests translate to scalar loop nests over the same
  iteration domain, with flat row-major buffer indexing;
* variable-extent child reductions become a serial loop over the
  compile-time ``max_children`` accumulating ``(k < extent) ? body : 0``
  in the same slot order as the masked NumPy loop;
* constant-extent reductions become serial first-assign/fold loops;
* the contraction among them — ``out[rows.., j] = sum_r W[j, r] *
  x[rows.., r]`` with ``W`` a never-written weight and ``x`` a per-node
  row, possibly gathered through ``child[...]`` — gets a schedule instead
  of a fold: the rows (node axis times the other output axes, flattened)
  go two at a time and the columns ``j`` sixteen at a time, held in
  2 x 4 four-lane float32 vector accumulators; each loaded weight
  vector feeds both rows, each row element is splat across the lanes,
  and ``r`` walks
  its extent in ascending order starting from the first product,
  multiply then add.  A lane is one output element, so every output sees
  exactly the fold's operation sequence and the result is bitwise the
  fold's.  The schedule needs ``j`` contiguous in the weight: the kernel
  takes ``W``'s C-contiguous transpose through an extra pointer
  (``<W>_T``; :attr:`KernelSignature.packed`) that the launcher packs
  once per weight array.  Columns past the full tiles take one narrower
  vector tile, then scalar columns.  Everything the matcher refuses
  (min/max, non-constant extents, both operands node-indexed, guarded
  nests, dtypes other than float32) keeps the fold.

Where the Python target reassociates floating point — BLAS einsum
contractions and NumPy's SIMD transcendentals — results are only
tolerance-comparable; :func:`parity_classification` reports, per kernel,
whether bitwise parity is expected and why not when it is not.

Kernel entry points use one uniform ABI so the host-side launcher stays
trivial::

    void k_<name>(<buf ptrs...>, <const int32_t* uf arrays...>,
                  <const packed weight ptrs...>,
                  const int64_t* S, int64_t begin, int64_t length);

``S`` packs the scalar parameters the kernel mentions (a
:class:`KernelSignature` records which, in order); ``begin``/``length``
carry the batch window for ``leaf``/``level`` kernels and are ignored by
the other kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import CodegenError, NativeError
from ...ir import (BinOp, Call, Cast, Const, Expr, Reduce, Select, TensorRead,
                   UFCall, UnaryOp, Var, expr_to_str, free_vars, is_zero, walk)
from ..buffer import ILBuffer
from ..module import ILModule, Kernel
from ..nests import AxisSpec, OpNest
from ..stmt import (Alloc, Barrier, Block, For, IfThenElse, Let, Stmt, Store)

_CTYPES = {"float32": "float", "float64": "double", "int32": "int",
           "int64": "long long", "bool": "bool"}

_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%",
          "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==",
          "ne": "!=", "and": "&&", "or": "||"}


def c_float_literal(value: float, dtype_name: str = "float32") -> str:
    """A C literal for ``value``, suffixed by dtype.

    float32 constants round-trip through ``np.float32`` (so the literal
    is the exact single-precision value) and carry the ``f`` suffix;
    float64 constants keep full ``repr`` precision and no suffix —
    suffixing them would silently truncate to single precision.
    ``repr`` output (``1e-06``, ``0.1``) is already valid C syntax.
    """
    v = float(value)
    if math.isnan(v):
        return "NAN"
    if math.isinf(v):
        return "INFINITY" if v > 0 else "(-INFINITY)"
    if dtype_name == "float32":
        return f"{float(np.float32(v))!r}f"
    return f"{v!r}"


def expr_to_c(e: Expr) -> str:
    if isinstance(e, Const):
        if e.dtype.is_bool:
            return "true" if e.value else "false"
        if e.dtype.is_float:
            return c_float_literal(e.value, e.dtype.name)
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        if e.op == "floordiv":
            return f"({expr_to_c(e.a)} / {expr_to_c(e.b)})"
        if e.op in ("min", "max"):
            return f"{e.op}({expr_to_c(e.a)}, {expr_to_c(e.b)})"
        return f"({expr_to_c(e.a)} {_INFIX[e.op]} {expr_to_c(e.b)})"
    if isinstance(e, UnaryOp):
        return {"neg": f"(-{expr_to_c(e.a)})", "not": f"(!{expr_to_c(e.a)})",
                "abs": f"abs({expr_to_c(e.a)})"}[e.op]
    if isinstance(e, Cast):
        return f"(({_CTYPES[e.dtype.name]}){expr_to_c(e.a)})"
    if isinstance(e, Call):
        args = ", ".join(expr_to_c(a) for a in e.args)
        return f"{e.func}f({args})"
    if isinstance(e, Select):
        return (f"({expr_to_c(e.cond)} ? {expr_to_c(e.then_)} : "
                f"{expr_to_c(e.else_)})")
    if isinstance(e, TensorRead):
        idx = "][".join(expr_to_c(i) for i in e.indices)
        return f"{e.buffer.name}[{idx}]"
    if isinstance(e, UFCall):
        if e.fn.name == "isleaf":
            return f"({expr_to_c(e.args[0])} >= leaf_start)"
        idx = "][".join(expr_to_c(a) for a in e.args)
        return f"{e.fn.name}[{idx}]"
    if isinstance(e, Reduce):
        raise CodegenError("Reduce must be lowered before C printing")
    raise CodegenError(f"cannot print {type(e).__name__} as C")


def stmt_to_c(s: Stmt, indent: int = 0) -> List[str]:
    pad = "  " * indent
    if isinstance(s, Block):
        out: List[str] = []
        for c in s.stmts:
            out.extend(stmt_to_c(c, indent))
        return out
    if isinstance(s, For):
        v = s.var.name
        begin, extent = expr_to_c(s.begin), expr_to_c(s.extent)
        note = "" if s.kind == "serial" else f"  // {s.kind}"
        head = (f"{pad}for (int {v} = {begin}; {v} < {begin} + {extent}; "
                f"++{v}) {{{note}")
        return [head] + stmt_to_c(s.body, indent + 1) + [f"{pad}}}"]
    if isinstance(s, Let):
        head = f"{pad}int {s.var.name} = {expr_to_c(s.value)};"
        return [head] + stmt_to_c(s.body, indent)
    if isinstance(s, Store):
        idx = "][".join(expr_to_c(i) for i in s.indices)
        op = {"sum": "+=", "max": None, "min": None, None: "="}[s.reduce_op]
        if op is None:
            fn = s.reduce_op
            return [f"{pad}{s.buffer.name}[{idx}] = {fn}("
                    f"{s.buffer.name}[{idx}], {expr_to_c(s.value)});"]
        return [f"{pad}{s.buffer.name}[{idx}] {op} {expr_to_c(s.value)};"]
    if isinstance(s, IfThenElse):
        out = [f"{pad}if ({expr_to_c(s.cond)}) {{"]
        out += stmt_to_c(s.then_body, indent + 1)
        if s.else_body is not None:
            out += [f"{pad}}} else {{"] + stmt_to_c(s.else_body, indent + 1)
        out.append(f"{pad}}}")
        return out
    if isinstance(s, Barrier):
        fn = "global_barrier()" if s.scope == "global" else "__syncthreads()"
        return [f"{pad}{fn};"]
    if isinstance(s, Alloc):
        shape = "][".join(expr_to_c(d) for d in s.buffer.shape)
        qual = {"shared": "__shared__ ", "register": "/*reg*/ "}.get(
            s.buffer.scope, "")
        head = f"{pad}{qual}{_CTYPES[s.buffer.dtype.name]} {s.buffer.name}[{shape}];"
        return [head] + stmt_to_c(s.body, indent)
    raise CodegenError(f"cannot print {type(s).__name__} as C")


def kernel_to_c(kernel: Kernel) -> str:
    lines = [f"// kernel {kernel.name} (kind={kernel.kind})"]
    if kernel.kind == "fused":
        lines.append(f"// persistent kernel: {kernel.barriers_per_level} "
                     f"global barrier(s) per level")
    lines.append(f"__global__ void {kernel.name}(/* buffers, scalars */) {{")
    for nest in kernel.nests:
        lines.append(f"  // -- {nest.name} (stage {nest.stage}, {nest.tag})")
        lines.extend(stmt_to_c(nest.to_stmt(), 1))
    lines.append("}")
    return "\n".join(lines)


# ===========================================================================
# Native executable C generation
# ===========================================================================

#: host scalars a kernel may reference by name; packed into the ``S``
#: vector in this canonical order (the subset each kernel uses is recorded
#: in its :class:`KernelSignature`).  All come from ``HostPlan.bind_scalars``.
NATIVE_SCALARS = ("num_nodes", "num_leaves", "num_batches", "leaf_start",
                  "max_batch_len", "leaf_batch_count", "max_children",
                  "level_start")

#: NumPy dtype name -> C type used by the native ABI.
NATIVE_CTYPES = {"float32": "float", "float64": "double",
                 "int32": "int32_t", "int64": "int64_t", "bool": "uint8_t"}

#: libm / helper spelling per intrinsic, by float width.
_NATIVE_CALLS = {
    "float32": {"tanh": "tanhf", "exp": "expf", "log": "logf",
                "sqrt": "sqrtf", "erf": "erff",
                "sigmoid": "repro_sigmoidf", "relu": "repro_reluf",
                "tanh_rational": "repro_tanh_rationalf",
                "sigmoid_rational": "repro_sigmoid_rationalf"},
    "float64": {"tanh": "tanh", "exp": "exp", "log": "log",
                "sqrt": "sqrt", "erf": "erf",
                "sigmoid": "repro_sigmoid", "relu": "repro_relu",
                "tanh_rational": "repro_tanh_rational",
                "sigmoid_rational": "repro_sigmoid_rational"},
}

#: intrinsics whose libm implementation is not guaranteed bit-identical to
#: NumPy's SIMD vector math (the rational approximations and relu are pure
#: rational arithmetic and *are* exact).
_TRANSCENDENTALS = frozenset({"tanh", "sigmoid", "exp", "log", "sqrt", "erf"})

_C_PRELUDE = '''\
#include <math.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

static inline float repro_minf(float a, float b) { return a < b ? a : b; }
static inline float repro_maxf(float a, float b) { return a > b ? a : b; }
static inline double repro_min(double a, double b) { return a < b ? a : b; }
static inline double repro_max(double a, double b) { return a > b ? a : b; }
static inline int64_t repro_imin(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t repro_imax(int64_t a, int64_t b) { return a > b ? a : b; }

/* Python floor semantics (C integer division truncates toward zero). */
static inline int64_t repro_floordiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  return q - (((a % b) != 0) && ((a < 0) != (b < 0)));
}
static inline int64_t repro_imod(int64_t a, int64_t b) {
  int64_t r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}

static inline float repro_reluf(float x) { return x > 0.0f ? x : 0.0f; }
static inline double repro_relu(double x) { return x > 0.0 ? x : 0.0; }

/* Branchless-form stable sigmoid: the same formula as the fast Python
 * target's sigmoid_fast (exp of a non-positive argument, one divide). */
static inline float repro_sigmoidf(float x) {
  float z = expf(-fabsf(x));
  float t = 1.0f + z;
  return x >= 0.0f ? 1.0f / t : z / t;
}
static inline double repro_sigmoid(double x) {
  double z = exp(-fabs(x));
  double t = 1.0 + z;
  return x >= 0.0 ? 1.0 / t : z / t;
}

/* Rational tanh/sigmoid approximations (Appendix A.5) — pure mul/add/div/
 * clip, so bit-identical to the NumPy runtime implementations. */
static inline float repro_tanh_rationalf(float x) {
  float num = x * (27.0f + x * x);
  float den = 27.0f + 9.0f * (x * x);
  float r = num / den;
  return r < -1.0f ? -1.0f : (r > 1.0f ? 1.0f : r);
}
static inline double repro_tanh_rational(double x) {
  double num = x * (27.0 + x * x);
  double den = 27.0 + 9.0 * (x * x);
  double r = num / den;
  return r < -1.0 ? -1.0 : (r > 1.0 ? 1.0 : r);
}
static inline float repro_sigmoid_rationalf(float x) {
  return 0.5f * (1.0f + repro_tanh_rationalf(0.5f * x));
}
static inline double repro_sigmoid_rational(double x) {
  return 0.5 * (1.0 + repro_tanh_rational(0.5 * x));
}

static inline int64_t repro_isleaf(int64_t leaf_start,
                                   const int32_t* num_children, int64_t n) {
  return leaf_start >= 0 ? (n >= leaf_start) : (num_children[n] == 0);
}

/* 16-byte float vectors (GCC/Clang vector extension; SSE2/NEON without
 * any -march flag).  Contraction tiles put one output element in each
 * lane, so a lane sees exactly the scalar loop's multiply-then-add
 * sequence. */
typedef float repro_vf __attribute__((vector_size(16)));
static inline repro_vf repro_vf_load(const float* p) {
  repro_vf v; __builtin_memcpy(&v, p, sizeof v); return v;
}
static inline void repro_vf_store(float* p, repro_vf v) {
  __builtin_memcpy(p, &v, sizeof v);
}
static inline repro_vf repro_vf_splat(float x) {
  return (repro_vf){x, x, x, x};
}
'''

_C_EPILOGUE = '''\

#ifdef __cplusplus
}  /* extern "C" */
#endif
'''


@dataclass(frozen=True)
class KernelSignature:
    """The native launch ABI of one kernel.

    ``arrays`` lists the pointer parameters in declaration order as
    ``(name, numpy dtype name, writable)`` — workspace buffers first
    (module declaration order), then the int32 UF index arrays
    (alphabetical).  ``packed`` lists, after them, ``(weight name, numpy
    dtype name)`` for every const pointer that must receive the weight's
    C-contiguous *transpose* (the layout contraction tiles read; the
    launcher packs it).  ``scalars`` lists, in :data:`NATIVE_SCALARS`
    order, the entries of the ``S`` int64 vector.
    """

    name: str
    kind: str
    arrays: Tuple[Tuple[str, str, bool], ...]
    packed: Tuple[Tuple[str, str], ...]
    scalars: Tuple[str, ...]

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "arrays": [list(a) for a in self.arrays],
                "packed": [list(p) for p in self.packed],
                "scalars": list(self.scalars)}

    @classmethod
    def from_json(cls, data: dict) -> "KernelSignature":
        if "packed" not in data:
            # a record written before packed weights existed cannot say
            # whether its library expects them: never guess an ABI
            raise NativeError(
                f"kernel {data['name']}: launch signature predates the "
                f"packed-weight ABI (no 'packed' entry)")
        return cls(name=data["name"], kind=data["kind"],
                   arrays=tuple((a[0], a[1], bool(a[2]))
                                for a in data["arrays"]),
                   packed=tuple((p[0], p[1]) for p in data["packed"]),
                   scalars=tuple(data["scalars"]))

    @property
    def symbol(self) -> str:
        return f"k_{self.name}"


def signatures_to_json(signatures: Dict[str, KernelSignature]) -> list:
    return [signatures[name].to_json() for name in sorted(signatures)]


def signatures_from_json(data: Sequence[dict]) -> Dict[str, KernelSignature]:
    sigs = [KernelSignature.from_json(d) for d in data]
    return {s.name: s for s in sigs}


#: lanes of the contraction tiles' vector type ``repro_vf`` (float32;
#: other dtypes keep the scalar fold)
_LANES = 4

#: contraction register tile: rows x vectors of output columns.  2 x 4
#: accumulators, 4 weight vectors and 2 row splats fill 14 of the 16
#: vector registers of baseline x86-64.
_TILE_ROWS = 2
_TILE_VECS = 4


def _packed_name(weight: str) -> str:
    """C parameter receiving ``weight``'s C-contiguous transpose."""
    return f"{weight}_T"


@dataclass(frozen=True)
class _Contraction:
    """A nest matched as ``out[rows.., j] = sum_r W[j, r] * x[rows.., r]``."""

    weight: ILBuffer
    row: TensorRead
    col: AxisSpec
    n_cols: int
    n_red: int


def _is_const_axis(ax: AxisSpec) -> bool:
    return isinstance(ax.extent, Const) and is_zero(ax.begin)


class _KernelABI:
    """Collects the arrays and scalars one kernel touches."""

    def __init__(self) -> None:
        self.buffers: Dict[str, Tuple[str, bool]] = {}  # name -> (dtype, rw)
        self.packed: Dict[str, str] = {}  # weight name -> dtype
        self.ufs: set = set()
        self.scalars: set = set()

    def buffer(self, name: str, dtype_name: str, writable: bool) -> None:
        prev = self.buffers.get(name)
        self.buffers[name] = (dtype_name,
                              writable or bool(prev and prev[1]))

    def signature(self, kernel: Kernel, module: ILModule) -> KernelSignature:
        ordered: List[Tuple[str, str, bool]] = []
        for name in module.buffers:
            if name in self.buffers:
                dt, rw = self.buffers[name]
                ordered.append((name, dt, bool(rw)))
        # buffers not declared on the module (shouldn't happen) keep a
        # deterministic position at the end
        for name in sorted(self.buffers):
            if name not in module.buffers:
                dt, rw = self.buffers[name]
                ordered.append((name, dt, bool(rw)))
        for uf in sorted(self.ufs):
            ordered.append((uf, "int32", False))
        packed = tuple((name, self.packed[name]) for name in module.buffers
                       if name in self.packed)
        scalars = tuple(s for s in NATIVE_SCALARS if s in self.scalars)
        return KernelSignature(name=kernel.name, kind=kernel.kind,
                               arrays=tuple(ordered), packed=packed,
                               scalars=scalars)


class _CTx:
    """Expression -> scalar C source inside a loop frame.

    ``env`` maps variable names (loop axis vars, the node-id let, reduce
    counters) to C identifiers.  Free variables outside ``env`` must be
    host scalars from :data:`NATIVE_SCALARS`; anything else is a codegen
    error rather than a silently-wrong launch.
    """

    def __init__(self, gen: "NativeCodegen", env: Dict[str, str]):
        self.gen = gen
        self.env = env

    def child(self, extra: Dict[str, str]) -> "_CTx":
        return _CTx(self.gen, {**self.env, **extra})

    def tx(self, e: Expr) -> str:
        if isinstance(e, Const):
            if e.dtype.is_bool:
                return "1" if e.value else "0"
            if e.dtype.is_float:
                return c_float_literal(e.value, e.dtype.name)
            return str(e.value)
        if isinstance(e, Var):
            if e.name in self.env:
                return self.env[e.name]
            if e.name in NATIVE_SCALARS:
                self.gen.abi.scalars.add(e.name)
                return e.name
            raise CodegenError(
                f"native codegen: free variable {e.name!r} is not a known "
                f"host scalar {NATIVE_SCALARS}")
        if isinstance(e, BinOp):
            if e.op in ("min", "max"):
                fn = self._minmax(e.op, e.dtype)
                return f"{fn}({self.tx(e.a)}, {self.tx(e.b)})"
            if e.op == "floordiv":
                return f"repro_floordiv({self.tx(e.a)}, {self.tx(e.b)})"
            if e.op == "mod":
                return f"repro_imod({self.tx(e.a)}, {self.tx(e.b)})"
            return f"({self.tx(e.a)} {_INFIX[e.op]} {self.tx(e.b)})"
        if isinstance(e, UnaryOp):
            if e.op == "not":
                return f"(!{self.tx(e.a)})"
            if e.op == "abs":
                name = {"float32": "fabsf", "float64": "fabs"}.get(
                    e.a.dtype.name)
                if name is None:
                    return f"llabs((int64_t)({self.tx(e.a)}))"
                return f"{name}({self.tx(e.a)})"
            return f"(-{self.tx(e.a)})"
        if isinstance(e, Cast):
            # the Python target widens int32 casts to int64; match it
            ct = {"int32": "int64_t", "int64": "int64_t", "float32": "float",
                  "float64": "double", "bool": "uint8_t"}[e.dtype.name]
            return f"(({ct})({self.tx(e.a)}))"
        if isinstance(e, Call):
            table = _NATIVE_CALLS.get(e.dtype.name)
            if table is None or e.func not in table:
                raise CodegenError(
                    f"native codegen: no C lowering for intrinsic "
                    f"{e.func!r} at dtype {e.dtype.name}")
            args = ", ".join(self.tx(a) for a in e.args)
            return f"{table[e.func]}({args})"
        if isinstance(e, Select):
            return (f"({self.tx(e.cond)} ? {self.tx(e.then_)} : "
                    f"{self.tx(e.else_)})")
        if isinstance(e, TensorRead):
            return self.gen.read_src(e, self)
        if isinstance(e, UFCall):
            return self.gen.uf_src(e, self)
        if isinstance(e, Reduce):
            raise CodegenError(
                "native codegen: Reduce below the top of a nest body")
        raise CodegenError(
            f"native codegen: cannot translate {type(e).__name__}")

    def _minmax(self, op: str, dtype) -> str:
        if dtype.name == "float32":
            return "repro_minf" if op == "min" else "repro_maxf"
        if dtype.name == "float64":
            return "repro_min" if op == "min" else "repro_max"
        return "repro_imin" if op == "min" else "repro_imax"


class NativeCodegen:
    """Generates the self-contained C module and per-kernel signatures."""

    def __init__(self, module: ILModule):
        self.module = module
        self.abi = _KernelABI()  # rebound per kernel
        self._tmp = 0
        self._written: frozenset = frozenset(
            n.out.name for k in module.kernels for n in k.nests)

    # -- public ------------------------------------------------------------
    def generate(self) -> Tuple[str, Dict[str, KernelSignature]]:
        if not self.module.kernels or not all(
                k.nests for k in self.module.kernels):
            raise CodegenError("native codegen requires operator nests")
        parts = [self._header(), _C_PRELUDE]
        signatures: Dict[str, KernelSignature] = {}
        for kernel in self.module.kernels:
            src, sig = self._emit_kernel(kernel)
            parts.append(src)
            signatures[kernel.name] = sig
        parts.append(_C_EPILOGUE)
        return "\n".join(parts), signatures

    def _header(self) -> str:
        lines = [f"// ===== module {self.module.name} =====",
                 "// Generated by repro.ilir.codegen.c_codegen — do not edit."]
        for buf in self.module.buffers.values():
            shape = "x".join(expr_to_str(s) for s in buf.shape)
            lines.append(
                f"// buffer {buf.name}: {shape} {buf.dtype} @{buf.scope}")
        lines.append("")
        return "\n".join(lines)

    # -- shared helpers ------------------------------------------------------
    def _fresh(self, hint: str) -> str:
        self._tmp += 1
        return f"_{hint}{self._tmp}"

    def _extent_src(self, e: Expr, tx: _CTx) -> str:
        """A buffer-shape extent as a C integer expression."""
        if isinstance(e, Const):
            return str(int(e.value))
        return tx.tx(e)

    def read_src(self, e: TensorRead, tx: _CTx) -> str:
        buf = e.buffer
        name = buf.name
        self.abi.buffer(name, buf.dtype.name, name in self._written)
        return f"{name}[{self._flat_index(buf.shape, e.indices, tx)}]"

    def _flat_index(self, shape: Sequence[Expr], indices: Sequence[Expr],
                    tx: _CTx) -> str:
        # row-major Horner form: ((i0*e1 + i1)*e2 + i2)...
        src = f"({tx.tx(indices[0])})"
        for dim in range(1, len(indices)):
            ext = self._extent_src(shape[dim], tx)
            src = f"({src} * ({ext}) + ({tx.tx(indices[dim])}))"
        return src

    def uf_src(self, e: UFCall, tx: _CTx) -> str:
        fn = e.fn.name
        if fn == "isleaf":
            self.abi.scalars.add("leaf_start")
            self.abi.ufs.add("num_children")
            return (f"repro_isleaf(leaf_start, num_children, "
                    f"{tx.tx(e.args[0])})")
        self.abi.ufs.add(fn)
        if e.fn.arity == 1:
            return f"{fn}[{tx.tx(e.args[0])}]"
        if e.fn.arity == 2:
            # 2-D UF tables are (max_children, num_nodes) row-major int32
            self.abi.scalars.add("num_nodes")
            return (f"{fn}[(({tx.tx(e.args[0])}) * num_nodes + "
                    f"({tx.tx(e.args[1])}))]")
        raise CodegenError(
            f"native codegen: UF {fn!r} of arity {e.fn.arity} unsupported")

    # -- kernels -------------------------------------------------------------
    def _emit_kernel(self, kernel: Kernel) -> Tuple[str, KernelSignature]:
        self.abi = _KernelABI()
        body: List[str] = []
        if kernel.kind == "fused":
            self._emit_fused_body(kernel, body, 1)
        elif kernel.kind in ("leaf", "level"):
            for n in kernel.nests:
                self._emit_nest(n, body, 1, "begin", "length")
        else:  # pre / hoisted / post
            for n in kernel.nests:
                if n.node_axis is not None:
                    self.abi.scalars.add("num_nodes")
                    self._emit_nest(n, body, 1, "0", "num_nodes")
                else:
                    self._emit_nest(n, body, 1, None, None)

        sig = self.abi.signature(kernel, self.module)
        head = [f"// kernel {kernel.name} (kind={kernel.kind})"]
        if kernel.kind == "fused":
            head.append(f"// persistent kernel: {kernel.barriers_per_level} "
                        f"global barrier(s) per level")
        params = []
        for name, dtype_name, writable in sig.arrays:
            ct = NATIVE_CTYPES[dtype_name]
            const = "" if writable else "const "
            params.append(f"{const}{ct}* {name}")
        for name, dtype_name in sig.packed:
            params.append(f"const {NATIVE_CTYPES[dtype_name]}* "
                          f"{_packed_name(name)}")
        params += ["const int64_t* S", "int64_t begin", "int64_t length"]
        head.append(f"void {sig.symbol}(")
        head.append("    " + ",\n    ".join(params) + ") {")
        for i, s in enumerate(sig.scalars):
            head.append(f"  const int64_t {s} = S[{i}];")
        if not sig.scalars:
            head.append("  (void)S;")
        if kernel.kind not in ("leaf", "level"):
            head.append("  (void)begin; (void)length;")
        return "\n".join(head + body + ["}", ""]), sig

    def _emit_fused_body(self, kernel: Kernel, out: List[str],
                         indent: int) -> None:
        pad = "  " * indent
        leaf_nests = [n for n in kernel.nests if n.phase == "leaf"]
        level_nests = [n for n in kernel.nests if n.phase == "level"]
        self.abi.ufs.update(("batch_begin", "batch_length"))
        self.abi.scalars.update(("num_batches", "level_start"))
        if leaf_nests:
            self.abi.scalars.add("leaf_batch_count")
            out.append(f"{pad}// leaf phase (specialized leaf batches)")
            out.append(f"{pad}for (int64_t _lb = 0; _lb < leaf_batch_count; "
                       f"++_lb) {{")
            out.append(f"{pad}  const int64_t _begin = "
                       f"(int64_t)batch_begin[_lb];")
            out.append(f"{pad}  const int64_t _length = "
                       f"(int64_t)batch_length[_lb];")
            for n in leaf_nests:
                self._emit_nest(n, out, indent + 1, "_begin", "_length")
            out.append(f"{pad}}}")
        out.append(f"{pad}// internal batches: the dependence-carrying loop; "
                   f"one global barrier per iteration (App. A.4)")
        out.append(f"{pad}for (int64_t _b = level_start; _b < num_batches; "
                   f"++_b) {{")
        out.append(f"{pad}  const int64_t _begin = "
                   f"(int64_t)batch_begin[_b];")
        out.append(f"{pad}  const int64_t _length = "
                   f"(int64_t)batch_length[_b];")
        for n in level_nests:
            self._emit_nest(n, out, indent + 1, "_begin", "_length")
        out.append(f"{pad}}}")

    # -- nests ---------------------------------------------------------------
    def _emit_nest(self, nest: OpNest, out: List[str], indent: int,
                   begin_src: Optional[str],
                   length_src: Optional[str]) -> None:
        if len(nest.lets) > 1:
            raise CodegenError(
                f"native codegen: nest {nest.name} has {len(nest.lets)} "
                f"lets; only the node-id binding is supported")
        if nest.lets and nest.node_axis is None:
            raise CodegenError(
                f"native codegen: nest {nest.name} binds a let without a "
                f"node axis")
        contraction = self._match_contraction(nest)
        if contraction is not None:
            self._emit_contraction(nest, contraction, out, indent,
                                   begin_src, length_src)
            return
        pad = "  " * indent
        out.append(f"{pad}// {nest.name} [{nest.tag}]")
        env: Dict[str, str] = {}
        tx = _CTx(self, env)
        depth = 0
        for ax in nest.axes:
            p = "  " * (indent + depth)
            v = ax.var.name
            if ax.kind == "node":
                if length_src is None:
                    self.abi.scalars.add("num_nodes")
                length = length_src if length_src is not None else "num_nodes"
                out.append(f"{p}for (int64_t {v} = 0; {v} < {length}; "
                           f"++{v}) {{")
                env[v] = v
                depth += 1
                if nest.lets:
                    node_var, _ = nest.lets[0]
                    b = begin_src if begin_src is not None else "0"
                    out.append(f"{p}  const int64_t {node_var.name} = "
                               f"({b}) + {v};")
                    env[node_var.name] = node_var.name
            else:
                b = tx.tx(ax.begin)
                e = tx.tx(ax.extent)
                out.append(f"{p}for (int64_t {v} = {b}; {v} < ({b}) + ({e}); "
                           f"++{v}) {{")
                env[v] = v
                depth += 1
        p = "  " * (indent + depth)
        close_pred = False
        if nest.predicate is not None:
            out.append(f"{p}if ({tx.tx(nest.predicate)}) {{")
            p += "  "
            close_pred = True

        body = nest.body
        if isinstance(body, Reduce):
            val_src = self._emit_reduce(body, tx, out, p)
        else:
            val_src = tx.tx(body)
        target = self._store_target(nest, tx)
        out.append(f"{p}{target} = {val_src};")

        if close_pred:
            out.append("  " * (indent + depth) + "}")
        for d in range(depth - 1, -1, -1):
            out.append("  " * (indent + d) + "}")

    def _store_target(self, nest: OpNest, tx: _CTx) -> str:
        buf = nest.out
        self.abi.buffer(buf.name, buf.dtype.name, True)
        return f"{buf.name}[{self._flat_index(buf.shape, nest.out_indices, tx)}]"

    # -- contractions --------------------------------------------------------
    def _match_contraction(self, nest: OpNest) -> Optional[_Contraction]:
        """The nest as a weight contraction, or ``None`` (scalar path).

        Matches a single constant-extent float32 ``sum`` of ``W * x``
        where ``W`` is a never-written buffer indexed ``[j, r]`` — the
        innermost output axis and the reduce axis — and ``x`` is a row
        whose last index is ``r`` (its other indices — node ids, child
        gathers, the remaining output axes — select the row).
        """
        red = nest.body
        if not (isinstance(red, Reduce) and red.op == "sum"
                and is_zero(red.init) and len(red.axes) == 1
                and nest.predicate is None):
            return None
        body, r = red.body, red.axes[0]
        col = nest.out_indices[-1]
        if not (isinstance(body, BinOp) and body.op == "mul"
                and isinstance(body.a, TensorRead)
                and isinstance(body.b, TensorRead)
                and isinstance(r.extent, Const) and r.extent.value >= 1
                and isinstance(col, Var)):
            return None
        j = next((a for a in nest.axes if a.var.name == col.name), None)
        rows = [a for a in nest.axes if a is not j]
        # rows flatten to one index: the node axis, if any, outermost and
        # constant extents inside it
        if j is None or not _is_const_axis(j) or not all(
                _is_const_axis(a) or (i == 0 and a.kind == "node")
                for i, a in enumerate(rows)):
            return None
        jr = (col.name, r.var.name)
        for w, x in ((body.a, body.b), (body.b, body.a)):
            row_vars = {name for i in list(x.indices[:-1])
                        + list(nest.out_indices[:-1]) for name in free_vars(i)}
            if (tuple(i.name if isinstance(i, Var) else None
                      for i in w.indices) == jr
                    and w.buffer.name not in self._written
                    and _packed_name(w.buffer.name) not in self.module.buffers
                    and isinstance(x.indices[-1], Var)
                    and x.indices[-1].name == r.var.name
                    and not row_vars & set(jr)
                    and x.buffer.name != nest.out.name
                    and {w.buffer.dtype.name, x.buffer.dtype.name,
                         nest.out.dtype.name} == {"float32"}):
                return _Contraction(weight=w.buffer, row=x, col=j,
                                    n_cols=int(j.extent.value),
                                    n_red=int(r.extent.value))
        return None

    def _emit_contraction(self, nest: OpNest, m: _Contraction,
                          out: List[str], indent: int,
                          begin_src: Optional[str],
                          length_src: Optional[str]) -> None:
        """Register-tiled, vectorized contraction schedule.

        Vector lanes are distinct output columns and rows go
        ``_TILE_ROWS`` at a time, so a loaded weight vector feeds one
        accumulator per row.  Every output starts from its first product
        and adds the rest in ascending reduce order, multiply then add —
        the operation sequence of :meth:`_emit_loop_reduce`, hence the
        same bits.
        """
        pad = "  " * indent
        self.abi.packed[m.weight.name] = m.weight.dtype.name
        w_src = _packed_name(m.weight.name)
        row_axes = [a for a in nest.axes if a is not m.col]
        rows_src = str(math.prod(int(a.extent.value) for a in row_axes
                                 if a.kind != "node"))
        if nest.node_axis is not None:
            if length_src is None:
                self.abi.scalars.add("num_nodes")
                length_src = "num_nodes"
            rows_src = f"({length_src}) * {rows_src}"
        out.append(f"{pad}// {nest.name} [{nest.tag}] contraction: "
                   f"{_TILE_ROWS}x{_TILE_VECS * _LANES} register tiles over "
                   f"{w_src}[{m.n_red}][{m.n_cols}]")
        rows, q = self._fresh("rows"), self._fresh("q")
        out.append(f"{pad}const int64_t {rows} = {rows_src};")
        out.append(f"{pad}int64_t {q} = 0;")
        r_name = m.row.indices[-1].name
        for nrows in range(_TILE_ROWS, 0, -1):
            out.append(f"{pad}for (; {q} + {nrows} <= {rows}; "
                       f"{q} += {nrows}) {{")
            xs: List[str] = []
            os_: List[str] = []
            for s in range(nrows):
                env = self._bind_row(nest, row_axes,
                                     f"{q} + {s}" if s else q, begin_src,
                                     out, pad + "  ")
                tx = _CTx(self, {**env, m.col.var.name: "0", r_name: "0"})
                xs.append(self._fresh("x"))
                os_.append(self._fresh("o"))
                out.append(f"{pad}  const float* {xs[-1]} = "
                           f"&{self.read_src(m.row, tx)};")
                out.append(f"{pad}  float* {os_[-1]} = "
                           f"&{self._store_target(nest, tx)};")
            self._emit_tiles(m, w_src, xs, os_, out, pad + "  ")
            out.append(f"{pad}}}")

    def _bind_row(self, nest: OpNest, row_axes: Sequence[AxisSpec],
                  row_src: str, begin_src: Optional[str], out: List[str],
                  pad: str) -> Dict[str, str]:
        """Decode a flattened row index into the nest's row-axis variables."""
        env: Dict[str, str] = {}
        stride = 1
        for ax in reversed(row_axes):
            src = row_src if stride == 1 else f"({row_src}) / {stride}"
            if ax.kind != "node":
                ext = int(ax.extent.value)
                src = f"({src}) % {ext}"
                stride *= ext
            ident = self._fresh(ax.var.name + "_")
            out.append(f"{pad}const int64_t {ident} = {src};")
            env[ax.var.name] = ident
            if ax.kind == "node" and nest.lets:
                node_var = nest.lets[0][0].name
                node = self._fresh(node_var + "_")
                out.append(f"{pad}const int64_t {node} = "
                           f"({begin_src or '0'}) + {ident};")
                env[node_var] = node
        return env

    def _emit_tiles(self, m: _Contraction, w_src: str, xs: Sequence[str],
                    os_: Sequence[str], out: List[str], pad: str) -> None:
        """Cover the output columns of ``len(xs)`` rows: full tiles, one
        narrower vector tile, then scalar columns."""
        full = _TILE_VECS * _LANES
        done = m.n_cols - m.n_cols % full
        if done:
            jv = self._fresh("j")
            out.append(f"{pad}for (int64_t {jv} = 0; {jv} < {done}; "
                       f"{jv} += {full}) {{")
            self._emit_tile(m, w_src, xs, os_, jv, _TILE_VECS, out,
                            pad + "  ")
            out.append(f"{pad}}}")
        rem_vecs = (m.n_cols - done) // _LANES
        if rem_vecs:
            out.append(f"{pad}{{")
            self._emit_tile(m, w_src, xs, os_, str(done), rem_vecs, out,
                            pad + "  ")
            out.append(f"{pad}}}")
            done += rem_vecs * _LANES
        if done < m.n_cols:
            jv = self._fresh("j")
            out.append(f"{pad}for (int64_t {jv} = {done}; {jv} < {m.n_cols}; "
                       f"++{jv}) {{")
            for s, (x, o) in enumerate(zip(xs, os_)):
                acc = f"_ac{s}"
                out.append(f"{pad}  float {acc} = {w_src}[{jv}] * {x}[0];")
                out.append(f"{pad}  for (int64_t _kr = 1; _kr < {m.n_red}; "
                           f"++_kr) {acc} = {acc} + {w_src}[_kr * {m.n_cols} "
                           f"+ {jv}] * {x}[_kr];")
                out.append(f"{pad}  {o}[{jv}] = {acc};")
            out.append(f"{pad}}}")

    def _emit_tile(self, m: _Contraction, w_src: str, xs: Sequence[str],
                   os_: Sequence[str], col_src: str, nvec: int,
                   out: List[str], pad: str) -> None:
        """One ``len(xs)`` x ``nvec``-vector accumulator tile at ``col_src``."""
        cells = [(s, v) for s in range(len(xs)) for v in range(nvec)]

        def step(first: bool, p: str) -> None:
            decl = "repro_vf " if first else ""
            at = "0" if first else "_kr"
            for s, x in enumerate(xs):
                out.append(f"{p}{decl}_sx{s} = repro_vf_splat({x}[{at}]);")
            for v in range(nvec):
                out.append(f"{p}{decl}_wv{v} = "
                           f"repro_vf_load(_wp + {v * _LANES});")
            for s, v in cells:
                acc = f"_ac{s}_{v}"
                out.append(f"{p}{decl}{acc} = " + (
                    f"_wv{v} * _sx{s};" if first
                    else f"{acc} + _wv{v} * _sx{s};"))

        out.append(f"{pad}const float* _wp = {w_src} + {col_src};")
        step(True, pad)
        out.append(f"{pad}for (int64_t _kr = 1; _kr < {m.n_red}; ++_kr) {{")
        out.append(f"{pad}  _wp += {m.n_cols};")
        step(False, pad + "  ")
        out.append(f"{pad}}}")
        for s, v in cells:
            out.append(f"{pad}repro_vf_store({os_[s]} + {col_src} + "
                       f"{v * _LANES}, _ac{s}_{v});")

    # -- reductions ----------------------------------------------------------
    def _emit_reduce(self, red: Reduce, tx: _CTx, out: List[str],
                     pad: str) -> str:
        variable = any(isinstance(x, UFCall)
                       for ax in red.axes for x in walk(ax.extent))
        if variable:
            return self._emit_masked_child_reduce(red, tx, out, pad)
        return self._emit_loop_reduce(red, tx, out, pad)

    def _emit_masked_child_reduce(self, red: Reduce, tx: _CTx,
                                  out: List[str], pad: str) -> str:
        if len(red.axes) != 1 or red.op != "sum":
            raise CodegenError(
                "variable-extent reductions must be single-axis sums")
        k = red.axes[0]
        ct = NATIVE_CTYPES[red.body.dtype.name]
        zero = c_float_literal(0.0, red.body.dtype.name)
        acc = self._fresh("acc")
        kv = self._fresh("k")
        inner = tx.child({k.var.name: kv})
        self.abi.scalars.add("max_children")
        out.append(f"{pad}{ct} {acc} = {zero};")
        out.append(f"{pad}for (int64_t {kv} = 0; {kv} < max_children; "
                   f"++{kv}) {{")
        # lazy ternary: never dereferences an invalid (-1) child slot, and
        # accumulates in the same slot order as the masked NumPy loop
        out.append(f"{pad}  {acc} = {acc} + (({kv} < ({inner.tx(k.extent)})) "
                   f"? ({inner.tx(red.body)}) : {zero});")
        out.append(f"{pad}}}")
        if not is_zero(red.init):
            return f"({acc} + {tx.tx(red.init)})"
        return acc

    def _emit_loop_reduce(self, red: Reduce, tx: _CTx, out: List[str],
                          pad: str) -> str:
        """Serial first-assign/fold loop, mirroring the Python fallback.

        The Python target may instead route matching ``sum(read * read)``
        bodies through BLAS einsum, whose accumulation order differs;
        those kernels are tolerance-gated (see
        :func:`parity_classification`).
        """
        ct = NATIVE_CTYPES[red.body.dtype.name]
        acc = self._fresh("acc")
        first = self._fresh("first")
        out.append(f"{pad}{ct} {acc} = {tx.tx(red.init)};")
        out.append(f"{pad}int {first} = 1;")
        env_extra: Dict[str, str] = {}
        depth = 0
        for ax in red.axes:
            lv = self._fresh("r")
            p = pad + "  " * depth
            out.append(f"{p}for (int64_t {lv} = 0; {lv} < "
                       f"(int64_t)({tx.tx(ax.extent)}); ++{lv}) {{")
            env_extra[ax.var.name] = lv
            depth += 1
        inner = tx.child(env_extra)
        p = pad + "  " * depth
        v = self._fresh("v")
        out.append(f"{p}{ct} {v} = {inner.tx(red.body)};")
        if red.op == "sum":
            fold = f"{acc} + {v}"
        else:
            fn = tx._minmax(red.op, red.body.dtype)
            fold = f"{fn}({acc}, {v})"
        out.append(f"{p}if ({first}) {{ {acc} = {v}; {first} = 0; }} "
                   f"else {{ {acc} = {fold}; }}")
        for d in range(depth - 1, -1, -1):
            out.append(pad + "  " * d + "}")
        if red.op == "sum" and not is_zero(red.init):
            return f"({acc} + {tx.tx(red.init)})"
        return acc


def generate_c_module(
        module: ILModule) -> Tuple[str, Dict[str, KernelSignature]]:
    """Emit the executable C source and per-kernel launch signatures.

    Requires operator nests (modules reloaded from serialized artifacts
    lack them; they keep the prebuilt ``.so``'s recorded signatures or
    fall back to Python execution).
    """
    return NativeCodegen(module).generate()


def parity_classification(module: ILModule) -> Dict[str, Dict]:
    """Per-kernel parity expectation of native vs. Python execution.

    ``{"bitwise": bool, "reasons": [...]}`` per kernel name.  A kernel is
    bitwise-exact unless it contains (a) a transcendental intrinsic
    (libm scalar code vs. NumPy's SIMD vector math may differ in the last
    ulp) or (b) a constant-extent ``sum(read * read)`` reduction that the
    Python target may route through BLAS einsum, which reassociates the
    accumulation.  Classification is conservative: a matching einsum
    pattern counts as tolerance even if the Python generator's operand
    matcher bails to the (bitwise) serial loop.
    """
    report: Dict[str, Dict] = {}
    for kernel in module.kernels:
        reasons: List[str] = []
        for nest in kernel.nests:
            exprs = [nest.body] + list(nest.out_indices)
            if nest.predicate is not None:
                exprs.append(nest.predicate)
            for e in exprs:
                for x in walk(e):
                    if isinstance(x, Call) and x.func in _TRANSCENDENTALS:
                        r = (f"{nest.name}: transcendental {x.func!r} "
                             f"(libm vs NumPy SIMD)")
                        if r not in reasons:
                            reasons.append(r)
            body = nest.body
            if (isinstance(body, Reduce) and body.op == "sum"
                    and is_zero(body.init)
                    and isinstance(body.body, BinOp) and body.body.op == "mul"
                    and isinstance(body.body.a, TensorRead)
                    and isinstance(body.body.b, TensorRead)
                    and not any(isinstance(x, UFCall)
                                for ax in body.axes
                                for x in walk(ax.extent))):
                reasons.append(f"{nest.name}: BLAS-reassociated einsum "
                               f"contraction")
        report[kernel.name] = {"bitwise": not reasons, "reasons": reasons}
    return report


def module_to_c(mod: ILModule) -> str:
    """Render the module's C source.

    Modules with operator nests get the complete native source (what the
    JIT compiles); nest-less modules (artifact reloads) keep the legacy
    CUDA-flavoured sketch.
    """
    if mod.kernels and all(k.nests for k in mod.kernels):
        try:
            src, _ = generate_c_module(mod)
            return src
        except CodegenError:
            pass  # sketch fallback below
    parts = [f"// ===== module {mod.name} ====="]
    for buf in mod.buffers.values():
        shape = "x".join(expr_to_str(s) for s in buf.shape)
        parts.append(f"// buffer {buf.name}: {shape} {buf.dtype} @{buf.scope}")
    for k in mod.kernels:
        parts.append("")
        parts.append(kernel_to_c(k))
    return "\n".join(parts)
