"""C target code generation.

One generator lives here, :func:`generate_c_module`: complete, portable,
self-contained C99 that ``runtime/native.py`` compiles with the system
compiler into a ``.so`` and launches through ``ctypes``.  It needs the
module's operator nests; an artifact reload has none and reads the source
its compile wrote to disk.

The generator mirrors ``python_codegen.PythonCodegen`` construct
for construct so the two targets agree bitwise wherever the arithmetic
is reassociation-free:

* elementwise nests translate to loop nests over the same iteration
  domain, with flat row-major buffer indexing;
* variable-extent child reductions become a serial loop over the
  compile-time ``max_children`` accumulating ``(k < extent) ? body : 0``
  in the same slot order as the masked NumPy loop;
* constant-extent reductions become serial first-assign/fold loops.

On top of that it makes three schedule choices, none visible in the IR:

* **Contractions** — ``out[rows.., j] = sum_r W[j, r] * x[rows.., r]``
  with ``W`` a never-written weight and ``x`` a per-node row, possibly
  gathered through ``child[...]`` — get a schedule instead of a fold.
  The rows (node axis times the other output axes, flattened) go two at
  a time through one outlined microkernel per ``(n_red, n_cols, rows)``
  shape, shared by every nest of that shape; inside, the columns ``j``
  go a *panel* (four vectors) at a time, held in 2 x 4 float32 vector
  accumulators: each loaded weight vector feeds both rows, each row
  element is splat across the lanes, and ``r`` walks its extent in
  ascending order starting from the first product, multiply then add.
  A lane is one output element, so every output sees exactly the fold's
  operation sequence and the result is bitwise the fold's.  The kernel
  takes ``W`` packed as column panels through an extra pointer
  (``<W>_P``; :attr:`KernelSignature.packed`,
  :func:`repro.runtime.kernels.panel_packed`) so that a tile streams its
  ``[n_red][panel]`` block front to back; the launcher packs once per
  weight array.  Columns past the full panels take one narrower vector
  tile, then scalar columns.  Everything the matcher refuses (min/max,
  non-constant extents, both operands node-indexed, guarded nests,
  dtypes other than float32) keeps the fold.
* **Two ISA variants** (:data:`VARIANTS`).  Every kernel body and
  microkernel is emitted at 4 lanes (``k_<name>_base``, portable 16-byte
  vectors) and, under ``REPRO_AVX2`` (x86-64, GCC/Clang), again at 8
  lanes inside ``__attribute__((target("avx2")))`` functions
  (``k_<name>_avx2``).  A constructor asks
  ``__builtin_cpu_supports("avx2")`` once; the exported ``k_<name>``
  forwards to the variant it allows and ``repro_lanes()`` reports it, so
  the launcher packs panels of that width.  No ``-march`` flag: the
  ``.so`` runs wherever it is loaded.  Lanes stay distinct outputs and
  products are rounded before they are added (no FMA), so both variants
  produce the fold's bits.  (32-byte vectors compiled *without* AVX run
  several times slower than 16-byte ones, hence two bodies, not one.)
* **Lane loops** (:class:`_VTx`).  An elementwise nest whose innermost
  axis is a constant extent stored at unit stride, whose reads are
  unit-stride or invariant in it, runs that axis ``lanes`` iterations per
  step — masked child-sums included, their slot mask being the same for
  every lane — and the extent's tail as one partial vector through the
  same operations.  float32 ``exp`` / ``sigmoid`` / ``tanh`` lower to the
  prelude's own polynomials (``repro_vexpf<lanes>`` ...; the scalar
  ``repro_expf`` ... are their lane 0), so C-target bits do not depend
  on the host's libm.

Where the two targets run different code — BLAS einsum contractions,
which reassociate, and the transcendentals (the prelude's polynomials,
libm ``log`` / ``erf``, vs NumPy's) — results are only
tolerance-comparable; :func:`parity_classification` reports, per kernel,
whether bitwise parity is expected and why not when it is not.

Kernel entry points use one uniform ABI so the host-side launcher stays
trivial::

    void k_<name>[_<variant>](<buf ptrs...>, <const int32_t* uf arrays...>,
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

#: C spelling per intrinsic, by float width.  float32 ``tanh`` /
#: ``sigmoid`` / ``exp`` are the prelude's own polynomials (lane 0 of the
#: vector functions elementwise nests call); the rest is libm.
_NATIVE_CALLS = {
    "float32": {"tanh": "repro_tanhf", "exp": "repro_expf", "log": "logf",
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

#: float32 intrinsics with a vector form in the prelude (the lanes of an
#: elementwise nest call ``repro_v<name><lanes>``)
_VECTOR_CALLS = {"tanh": "tanhf", "sigmoid": "sigmoidf", "exp": "expf",
                 "relu": "reluf"}

#: intrinsics whose C and NumPy implementations are different code, so
#: results agree to tolerance only.  (``sqrt`` is correctly rounded by
#: both; relu and the rational approximations are plain arithmetic.)
_TRANSCENDENTALS = frozenset({"tanh", "sigmoid", "exp", "log", "erf"})

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

/* Branchless-form stable sigmoid: the same formula as the Python target's
 * sigmoid_fast (exp of a non-positive argument, one divide). */
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

'''

#: float32 vector helpers, instantiated once per ISA variant (``@L@``
#: lanes, ``@B@`` bytes, ``@T@`` the variant's function attribute).  A
#: 32-byte vector must never cross a function boundary compiled without
#: AVX, so the small ones are ``always_inline``; the three polynomials
#: stay out of line (one copy per variant, or ``cc`` time grows by half)
#: and carry the variant's target attribute like their callers.
_C_VECTOR_PRELUDE = '''\
/* ---- @L@-lane float32 vectors (@B@ bytes; GCC/Clang vector extension).
 * One output element per lane, so a lane sees exactly the scalar loop's
 * operation sequence. */
typedef float repro_vf@L@ __attribute__((vector_size(@B@)));
typedef int32_t repro_vi@L@ __attribute__((vector_size(@B@)));
#define REPRO_V@L@ @T@static inline __attribute__((always_inline))
#define REPRO_VMATH@L@ @T@static __attribute__((noinline, unused))
REPRO_V@L@ repro_vf@L@ repro_vload@L@(const float* p) {
  repro_vf@L@ v; __builtin_memcpy(&v, p, sizeof v); return v;
}
REPRO_V@L@ void repro_vstore@L@(float* p, repro_vf@L@ v) {
  __builtin_memcpy(p, &v, sizeof v);
}
/* the first n lanes only (an extent's tail): no byte past them is touched */
REPRO_V@L@ repro_vf@L@ repro_vloadn@L@(const float* p, int n) {
  repro_vf@L@ v = {0.0f}; __builtin_memcpy(&v, p, n * sizeof(float)); return v;
}
REPRO_V@L@ void repro_vstoren@L@(float* p, repro_vf@L@ v, int n) {
  __builtin_memcpy(p, &v, n * sizeof(float));
}
/* a shuffle, not a {x, x, ..} literal: GCC lowers the literal to one
 * insert per lane inside target("avx2") functions */
REPRO_V@L@ repro_vf@L@ repro_vsplat@L@(float x) {
  repro_vf@L@ v = {x};
#if defined(__clang__)
  return __builtin_shufflevector(v, v, @ZEROS@);
#else
  return __builtin_shuffle(v, (repro_vi@L@){0});
#endif
}
REPRO_V@L@ repro_vf@L@ repro_vselect@L@(repro_vi@L@ m, repro_vf@L@ a,
                                      repro_vf@L@ b) {
  return (repro_vf@L@)(((repro_vi@L@)a & m) | ((repro_vi@L@)b & ~m));
}
REPRO_V@L@ repro_vf@L@ repro_vreluf@L@(repro_vf@L@ x) {
  return (repro_vf@L@)((repro_vi@L@)x & (x > repro_vsplat@L@(0.0f)));
}
/* exp: clamp to the float range, n = round(x / ln 2) by the 1.5 * 2^23
 * trick, two-constant ln 2 reduction, Cephes' degree-5 polynomial, then
 * 2^n through the exponent bits in two halves so that results down to
 * the smallest subnormal and up to FLT_MAX come out rounded once. */
REPRO_VMATH@L@ repro_vf@L@ repro_vexpf@L@(repro_vf@L@ x) {
  const repro_vf@L@ magic = repro_vsplat@L@(12582912.0f);
  const repro_vf@L@ hi = repro_vsplat@L@(89.0f), lo = repro_vsplat@L@(-104.0f);
  x = repro_vselect@L@(x > hi, hi, x);
  x = repro_vselect@L@(x < lo, lo, x);
  repro_vf@L@ t = x * repro_vsplat@L@(1.44269504088896341f) + magic;
  repro_vf@L@ n = t - magic;
  repro_vi@L@ ni = (repro_vi@L@)t - (repro_vi@L@)magic;
  repro_vf@L@ r = x - n * repro_vsplat@L@(0.693359375f);
  r = r - n * repro_vsplat@L@(-2.12194440e-4f);
  repro_vf@L@ p = repro_vsplat@L@(1.9875691500e-4f);
  p = p * r + repro_vsplat@L@(1.3981999507e-3f);
  p = p * r + repro_vsplat@L@(8.3334519073e-3f);
  p = p * r + repro_vsplat@L@(4.1665795894e-2f);
  p = p * r + repro_vsplat@L@(1.6666665459e-1f);
  p = p * r + repro_vsplat@L@(5.0000001201e-1f);
  p = p * (r * r) + r;
  p = p + repro_vsplat@L@(1.0f);
  repro_vi@L@ h = ni >> 1;
  return p * (repro_vf@L@)((h + 127) << 23)
           * (repro_vf@L@)((ni - h + 127) << 23);
}
/* the stable logistic: z = exp(-|x|), then 1 / (1 + z) or z / (1 + z) */
REPRO_VMATH@L@ repro_vf@L@ repro_vsigmoidf@L@(repro_vf@L@ x) {
  repro_vi@L@ sign = (repro_vi@L@)x & (repro_vi@L@)repro_vsplat@L@(-0.0f);
  repro_vf@L@ z = repro_vexpf@L@(-(repro_vf@L@)((repro_vi@L@)x ^ sign));
  return repro_vselect@L@(x >= repro_vsplat@L@(0.0f), repro_vsplat@L@(1.0f), z)
         / (repro_vsplat@L@(1.0f) + z);
}
/* tanh on |x|, sign re-attached: Cephes' odd polynomial below 0.625,
 * 1 - 2 / (exp(2|x|) + 1) from there on */
REPRO_VMATH@L@ repro_vf@L@ repro_vtanhf@L@(repro_vf@L@ x) {
  repro_vi@L@ sign = (repro_vi@L@)x & (repro_vi@L@)repro_vsplat@L@(-0.0f);
  repro_vf@L@ a = (repro_vf@L@)((repro_vi@L@)x ^ sign);
  repro_vf@L@ z = a * a;
  repro_vf@L@ p = repro_vsplat@L@(-5.70498872745e-3f);
  p = p * z + repro_vsplat@L@(2.06390887954e-2f);
  p = p * z + repro_vsplat@L@(-5.37397155531e-2f);
  p = p * z + repro_vsplat@L@(1.33314422036e-1f);
  p = p * z + repro_vsplat@L@(-3.33332819422e-1f);
  p = p * z * a + a;
  repro_vf@L@ q = repro_vsplat@L@(1.0f) - repro_vsplat@L@(2.0f)
      / (repro_vexpf@L@(a + a) + repro_vsplat@L@(1.0f));
  return (repro_vf@L@)((repro_vi@L@)repro_vselect@L@(
      a < repro_vsplat@L@(0.625f), p, q) | sign);
}
'''

#: float32 ``exp`` / ``sigmoid`` / ``tanh`` outside a lane loop: lane 0
#: of the base variant's vector function, hence the same bits as a lane
_C_SCALAR_POLYNOMIALS = '''\
static inline float repro_expf(float x) {
  return repro_vexpf4(repro_vsplat4(x))[0];
}
static inline float repro_sigmoidf(float x) {
  return repro_vsigmoidf4(repro_vsplat4(x))[0];
}
static inline float repro_tanhf(float x) {
  return repro_vtanhf4(repro_vsplat4(x))[0];
}
'''

#: the avx2 variant is compiled in when the compiler can target AVX2 per
#: function (``REPRO_AVX2``); a constructor picks the variant once, at
#: load time
_AVX2_GUARD = '''\
#if defined(__x86_64__) && defined(__GNUC__)
#define REPRO_AVX2 1
#endif
'''

_C_DISPATCH = '''\
#ifdef REPRO_AVX2
static int repro_use_avx2 = 0;
__attribute__((constructor)) static void repro_pick_variant(void) {
  __builtin_cpu_init();
  repro_use_avx2 = __builtin_cpu_supports("avx2") != 0;
}
#endif

/* float32 lanes of the variant the exported kernels dispatch to: the
 * launcher packs weight panels for that width */
int repro_lanes(void) {
#ifdef REPRO_AVX2
  if (repro_use_avx2) return 8;
#endif
  return 4;
}
'''

#: CPython entry points the linearizer section calls, in the order
#: ``repro_lin_bind`` receives their addresses (from ``ctypes.pythonapi``)
LINEARIZER_PY_API = ("PyObject_GetAttr", "PyTuple_Size", "PyTuple_GetItem",
                     "PyLong_AsLong", "Py_IncRef", "Py_DecRef",
                     "PyErr_Occurred", "PyList_Size", "PyList_GetItem",
                     "PyList_SetItem")

#: The data structure linearizer (§4.2), generated with the kernels: one
#: fixed, model-independent section, emitted once per module.  It is the
#: second walker of the one layout — ``Linearizer._build_arrays`` is the
#: other, and its oracle.  Whatever it cannot take (a cycle, over-arity,
#: a non-tuple ``children``, a non-int / out-of-range ``word``, a failed
#: allocation) it refuses — a zero return, possibly with a pending Python
#: error the caller discards — and the Python builder re-runs on the same
#: roots, so every error message has one source.  Compiled unoptimised:
#: it is bound by the attribute loads, and ``cc`` time is ``setup_s``.
_C_LINEARIZER = '''\
/* ---- linearizer: pointer structure -> the int32 block
 *   child[mc][n] | num_children[n] | words[n] | batch_begin[L] |
 *   batch_length[L] | roots[r]
 * No Python.h, no libpython: CPython is reached through the pointers
 * repro_lin_bind() was handed, and callers hold the GIL (ctypes.PyDLL). */
#include <stdlib.h>
#include <string.h>
#if defined(__clang__)
#pragma clang optimize off
#elif defined(__GNUC__)
#pragma GCC push_options
#pragma GCC optimize ("O0")
#endif

static struct {
  void* (*getattr)(void*, void*);
  intptr_t (*tuple_size)(void*);
  void* (*tuple_item)(void*, intptr_t);
  long (*as_long)(void*);
  void (*incref)(void*);
  void (*decref)(void*);
  void* (*err_occurred)(void);
  intptr_t (*list_size)(void*);
  void* (*list_item)(void*, intptr_t);
  int (*list_set)(void*, intptr_t, void*);
} repro_py;
static void* repro_py_children;  /* the str objects "children", "word" */
static void* repro_py_word;

void repro_lin_bind(void* const* fns, void* children, void* word) {
  memcpy(&repro_py, fns, sizeof repro_py);
  repro_py.incref(children);
  repro_py.incref(word);
  repro_py_children = children;
  repro_py_word = word;
}

/* a finished node, by post-order index; `level` is its height until
 * repro_lin_fill() overwrites it with the node's Appendix-B id */
typedef struct { void* obj; int32_t level, word, first, arity; } repro_lin_node;
/* an entered (gray) node: `kids` is an owned reference to its children */
typedef struct { void* obj; void* kids; int32_t arity, next, word; } repro_lin_frame;
typedef struct {
  repro_lin_node* nodes;   int64_t n, cap_n;
  int32_t* edges;          int64_t ne, cap_e;   /* children, post-order indices */
  repro_lin_frame* stack;  int64_t ns, cap_s;
  int32_t* vals;           int64_t nv, cap_v;   /* finished children awaiting their parent */
  void** keys; int32_t* slots; int64_t nt, cap_t;  /* Node* -> index, -1 while gray */
  int32_t* rootp;          int64_t nr;
  int64_t levels, max_children, word_limit;
} repro_lin;

static void repro_lin_free(repro_lin* c) {
  for (int64_t i = 0; i < c->ns; ++i) repro_py.decref(c->stack[i].kids);
  free(c->nodes); free(c->edges); free(c->stack); free(c->vals);
  free(c->keys); free(c->slots); free(c->rootp); free(c);
}

/* make room for `need` elements behind the pointer `slot` points at */
static int repro_lin_grow(void* slot, int64_t* cap, size_t elem, int64_t need) {
  if (need <= *cap) return 1;
  int64_t cap2 = *cap ? *cap : 64;
  while (cap2 < need) cap2 *= 2;
  void* p;
  memcpy(&p, slot, sizeof p);
  p = realloc(p, (size_t)cap2 * elem);
  if (!p) return 0;
  memcpy(slot, &p, sizeof p);
  *cap = cap2;
  return 1;
}

/* the slot `key` sits in, or the empty one it would take */
static int64_t repro_lin_slot(const repro_lin* c, void* key) {
  uint64_t h = (uint64_t)(uintptr_t)key * 0x9E3779B97F4A7C15ull;
  int64_t i = (int64_t)((h >> 20) & (uint64_t)(c->cap_t - 1));
  while (c->keys[i] && c->keys[i] != key) i = (i + 1) & (c->cap_t - 1);
  return i;
}

static int repro_lin_insert(repro_lin* c, void* key, int32_t value) {
  if (2 * (c->nt + 1) > c->cap_t) {  /* regrow at half full */
    int64_t old = c->cap_t, cap2 = old ? 2 * old : 128;
    void** keys = c->keys; int32_t* slots = c->slots;
    void** k2 = (void**)calloc((size_t)cap2, sizeof *k2);
    int32_t* s2 = (int32_t*)malloc((size_t)cap2 * sizeof *s2);
    if (!k2 || !s2) { free(k2); free(s2); return 0; }
    c->keys = k2; c->slots = s2; c->cap_t = cap2;
    for (int64_t i = 0; i < old; ++i) if (keys[i]) {
      int64_t j = repro_lin_slot(c, keys[i]);
      k2[j] = keys[i]; s2[j] = slots[i];
    }
    free(keys); free(slots);
  }
  int64_t i = repro_lin_slot(c, key);
  c->keys[i] = key; c->slots[i] = value; c->nt++;
  return 1;
}

/* `obj` has every child on `vals`: number it, leave its index there */
static int repro_lin_finish(repro_lin* c, void* obj, int32_t arity, int32_t word) {
  if (!repro_lin_grow(&c->nodes, &c->cap_n, sizeof *c->nodes, c->n + 1)
      || !repro_lin_grow(&c->edges, &c->cap_e, sizeof *c->edges, c->ne + arity)
      || !repro_lin_grow(&c->vals, &c->cap_v, sizeof *c->vals, c->nv + 1)
      || c->n + 1 >= INT32_MAX || c->ne + arity >= INT32_MAX)  /* ids are int32 */
    return 0;
  int32_t level = 0;
  c->nv -= arity;
  for (int32_t k = 0; k < arity; ++k) {
    int32_t kid = c->vals[c->nv + k];
    c->edges[c->ne + k] = kid;
    if (c->nodes[kid].level >= level) level = c->nodes[kid].level + 1;
  }
  repro_lin_node nd = { obj, level, word, (int32_t)c->ne, arity };
  c->ne += arity;
  if (level >= c->levels) c->levels = level + 1;
  c->vals[c->nv++] = (int32_t)c->n;
  c->nodes[c->n++] = nd;
  return 1;
}

/* follow an edge (or a root listing) to `obj`: a finished node's index
 * goes on `vals`, a new leaf is finished on the spot, a new interior
 * node is entered; a gray one closes a cycle */
static int repro_lin_enter(repro_lin* c, void* obj) {
  if (c->cap_t) {
    int64_t i = repro_lin_slot(c, obj);
    if (c->keys[i]) {
      if (c->slots[i] < 0) return 0;
      if (!repro_lin_grow(&c->vals, &c->cap_v, sizeof *c->vals, c->nv + 1))
        return 0;
      c->vals[c->nv++] = c->slots[i];
      return 1;
    }
  }
  void* w = repro_py.getattr(obj, repro_py_word);
  if (!w) return 0;
  long word = repro_py.as_long(w);
  repro_py.decref(w);
  if ((word == -1 && repro_py.err_occurred()) || word < INT32_MIN || word > INT32_MAX)
    return 0;
  void* kids = repro_py.getattr(obj, repro_py_children);
  if (!kids) return 0;
  intptr_t arity = repro_py.tuple_size(kids);  /* -1, error set: not a tuple */
  int ok = arity >= 0 && arity <= c->max_children;
  if (ok && c->word_limit >= 0)
    ok = word >= (arity ? -1 : 0) && word < c->word_limit;
  if (ok && arity == 0)
    ok = repro_lin_insert(c, obj, (int32_t)c->n)
         && repro_lin_finish(c, obj, 0, (int32_t)word);
  else if (ok)
    ok = repro_lin_insert(c, obj, -1)
         && repro_lin_grow(&c->stack, &c->cap_s, sizeof *c->stack, c->ns + 1);
  if (!ok || arity == 0) {
    repro_py.decref(kids);
    return ok;
  }
  repro_lin_frame f = { obj, kids, (int32_t)arity, 0, (int32_t)word };
  c->stack[c->ns++] = f;
  return 1;
}

/* Walk `roots` (a list of Node).  Returns the context for
 * repro_lin_fill() and dims = {nodes, levels, widest level}, or NULL. */
void* repro_lin_walk(void* roots, int64_t max_children, int64_t word_limit,
                     int64_t* dims) {
  intptr_t nr = repro_py.list_size(roots);
  repro_lin* c = nr > 0 ? (repro_lin*)calloc(1, sizeof *c) : NULL;
  if (!c) return NULL;
  c->max_children = max_children;
  c->word_limit = word_limit;
  c->rootp = (int32_t*)malloc((size_t)nr * sizeof *c->rootp);
  int ok = c->rootp != NULL;
  for (intptr_t r = 0; ok && r < nr; ++r) {
    void* root = repro_py.list_item(roots, r);
    ok = root && repro_lin_enter(c, root);
    while (ok && c->ns) {
      repro_lin_frame* f = &c->stack[c->ns - 1];
      if (f->next < f->arity) {
        void* kid = repro_py.tuple_item(f->kids, f->next++);
        ok = kid && repro_lin_enter(c, kid);
      } else {
        repro_lin_frame done = *f;
        c->ns--;
        ok = repro_lin_finish(c, done.obj, done.arity, done.word);
        if (ok) c->slots[repro_lin_slot(c, done.obj)] = (int32_t)(c->n - 1);
        repro_py.decref(done.kids);
      }
    }
    if (ok) c->rootp[c->nr++] = c->vals[--c->nv];
  }
  if (!ok) { repro_lin_free(c); return NULL; }
  /* level populations, kept in `vals` for repro_lin_fill() */
  c->nv = 0;
  if (!repro_lin_grow(&c->vals, &c->cap_v, sizeof *c->vals, c->levels)) {
    repro_lin_free(c);
    return NULL;
  }
  memset(c->vals, 0, (size_t)c->levels * sizeof *c->vals);
  for (int64_t p = 0; p < c->n; ++p) c->vals[c->nodes[p].level]++;
  dims[0] = c->n; dims[1] = c->levels; dims[2] = 0;
  for (int64_t h = 0; h < c->levels; ++h)
    if (c->vals[h] > dims[2]) dims[2] = c->vals[h];
  return c;
}

static int repro_lin_cmp(const void* a, const void* b) {
  int32_t x = *(const int32_t*)a, y = *(const int32_t*)b;
  return (x > y) - (x < y);
}

/* Fill `block` (laid out as above for this walk's dims) and `order`
 * (a list of `nodes` entries: id -> Node), then free the context; a
 * NULL `block` only frees it.  Returns 0 when done, -1 on refusal. */
int repro_lin_fill(void* ctx, int32_t* block, void* order) {
  repro_lin* c = (repro_lin*)ctx;
  int64_t n = c->n, mc = c->max_children, levels = c->levels;
  int ok = block != NULL && repro_py.list_size(order) == n;
  if (ok) {
    int32_t* child = block;
    int32_t* num_children = child + mc * n;
    int32_t* words = num_children + n;
    int32_t* begin = words + n;
    int32_t* length = begin + levels;
    int32_t* roots = length + levels;
    /* batches run leaves first and are numbered last to first */
    int64_t seen = 0;
    for (int64_t h = 0; h < levels; ++h) {
      length[h] = c->vals[h];
      seen += length[h];
      begin[h] = (int32_t)(n - seen);
    }
    for (int64_t p = 0; ok && p < n; ++p) {  /* post-order within a level */
      repro_lin_node* nd = &c->nodes[p];
      int32_t id = begin[nd->level]++;
      nd->level = id;
      num_children[id] = nd->arity;
      words[id] = nd->word;
      for (int64_t k = 0; k < mc; ++k)
        child[k * n + id] = k < nd->arity
            ? c->nodes[c->edges[nd->first + k]].level : -1;
      repro_py.incref(nd->obj);  /* list_set steals it, even when it fails */
      ok = repro_py.list_set(order, id, nd->obj) == 0;
    }
    for (int64_t h = 0; h < levels; ++h) begin[h] -= length[h];
    for (int64_t r = 0; r < c->nr; ++r) roots[r] = c->nodes[c->rootp[r]].level;
    qsort(roots, (size_t)c->nr, sizeof *roots, repro_lin_cmp);
  }
  repro_lin_free(c);
  return ok ? 0 : -1;
}

#if defined(__clang__)
#pragma clang optimize on
#elif defined(__GNUC__)
#pragma GCC pop_options
#endif
'''

_C_EPILOGUE = '''\

#ifdef __cplusplus
}  /* extern "C" */
#endif
'''


#: how a launcher must lay out ``KernelSignature.packed`` weights; part
#: of every serialized signature so that a library built for another
#: layout is never launched
PACKED_LAYOUT = "panel"


@dataclass(frozen=True)
class KernelSignature:
    """The native launch ABI of one kernel.

    ``arrays`` lists the pointer parameters in declaration order as
    ``(name, numpy dtype name, writable)`` — workspace buffers first
    (module declaration order), then the int32 UF index arrays
    (alphabetical).  ``packed`` lists, after them, ``(weight name, numpy
    dtype name)`` for every const pointer that must receive the weight
    packed as column panels (:func:`repro.runtime.kernels.panel_packed`,
    at the width of the variant the library dispatches to).  ``scalars``
    lists, in :data:`NATIVE_SCALARS` order, the entries of the ``S``
    int64 vector.
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
                "packed_layout": PACKED_LAYOUT,
                "scalars": list(self.scalars)}

    @classmethod
    def from_json(cls, data: dict) -> "KernelSignature":
        if "packed" not in data:
            # a record written before packed weights existed cannot say
            # whether its library expects them: never guess an ABI
            raise NativeError(
                f"kernel {data['name']}: launch signature predates the "
                f"packed-weight ABI (no 'packed' entry)")
        if data.get("packed_layout") != PACKED_LAYOUT:
            # e.g. no entry at all: the library reads transposed weights
            raise NativeError(
                f"kernel {data['name']}: launch signature was written for "
                f"packed layout {data.get('packed_layout', 'transpose')!r}, "
                f"this launcher packs {PACKED_LAYOUT!r}")
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


#: ISA variants every kernel body is emitted at, as ``name -> float32
#: lanes``.  ``base`` is portable 16-byte vector code; ``avx2`` is the same
#: generator at 32 bytes inside ``target("avx2")`` functions, compiled in
#: on x86-64 and chosen at load time.  ``k_<kernel>_<variant>`` is exported
#: for each; ``k_<kernel>`` dispatches.
VARIANTS = {"base": 4, "avx2": 8}

#: contraction register tile: rows x vectors of output columns.  2 x 4
#: accumulators, 4 weight vectors and 2 row splats fill 14 of the 16
#: vector registers of x86-64 (xmm or ymm alike).
_TILE_ROWS = 2
_TILE_VECS = 4


def panel_width(lanes: int) -> int:
    """Columns of one packed weight panel at ``lanes``: a tile's width."""
    return _TILE_VECS * lanes


def _packed_name(weight: str) -> str:
    """C parameter receiving ``weight`` packed as column panels."""
    return f"{weight}_P"


def _variant_target(variant: str) -> str:
    """Function attribute that compiles a definition for ``variant``."""
    if variant == "base":
        return ""
    return f'__attribute__((target("{variant}"))) '


def native_prelude() -> str:
    """What every generated module opens with: the scalar helpers, then
    per ISA variant the vector type and its helpers (the avx2 ones behind
    ``REPRO_AVX2``)."""
    def vectors(variant: str) -> str:
        lanes = VARIANTS[variant]
        return (_C_VECTOR_PRELUDE.replace("@L@", str(lanes))
                .replace("@B@", str(4 * lanes))
                .replace("@T@", _variant_target(variant))
                .replace("@ZEROS@", ", ".join("0" * lanes)))

    return "\n".join([_C_PRELUDE, vectors("base"), _C_SCALAR_POLYNOMIALS,
                      _AVX2_GUARD, "#ifdef REPRO_AVX2", vectors("avx2"),
                      "#endif", ""])


class _NotVectorizable(Exception):
    """An elementwise nest the lane loop does not cover (scalar loops)."""


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

    def __init__(self, gen: "NativeCodegen", env: Dict[str, str],
                 clamp: bool = False):
        self.gen = gen
        self.env = env
        #: floor gathered (UF-valued) tensor indices at 0.  For reads whose
        #: value is masked downstream but whose gather is not: a child
        #: slot past a node's arity holds ``-1``
        self.clamp = clamp

    def child(self, extra: Dict[str, str]) -> "_CTx":
        return _CTx(self.gen, {**self.env, **extra}, self.clamp)

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


class _VTx:
    """Expression -> float32 vector C source inside a lane loop.

    The lane loop replaces a nest's innermost axis ``lane``: each lane is
    one iteration, ``n`` lanes are live (``None``: all of them).  A
    sub-expression that does not mention the axis is evaluated once by
    the scalar translator and splat; one that does must be built from
    unit-stride reads, arithmetic, lane-uniform selects and the
    intrinsics of :data:`_VECTOR_CALLS` — anything else raises
    :class:`_NotVectorizable` and the nest keeps its scalar loops.
    """

    def __init__(self, tx: _CTx, lane: str, n: Optional[int]):
        self.tx = tx
        self.lane = lane
        self.n = n
        self.lanes = tx.gen.lanes

    def child(self, extra: Dict[str, str]) -> "_VTx":
        return _VTx(self.tx.child(extra), self.lane, self.n)

    def load(self, addr: str) -> str:
        if self.n is None:
            return f"repro_vload{self.lanes}({addr})"
        return f"repro_vloadn{self.lanes}({addr}, {self.n})"

    def store(self, addr: str, value: str) -> str:
        if self.n is None:
            return f"repro_vstore{self.lanes}({addr}, {value})"
        return f"repro_vstoren{self.lanes}({addr}, {value}, {self.n})"

    def splat(self, scalar: str) -> str:
        return f"repro_vsplat{self.lanes}({scalar})"

    def uniform(self, e: Expr) -> bool:
        return self.lane not in free_vars(e)

    def vec(self, e: Expr) -> str:
        if e.dtype.name != "float32":
            raise _NotVectorizable
        if self.uniform(e):
            return self.splat(self.tx.tx(e))
        if isinstance(e, TensorRead):
            last = e.indices[-1]
            if not (isinstance(last, Var) and last.name == self.lane
                    and all(self.uniform(i) for i in e.indices[:-1])):
                raise _NotVectorizable
            return self.load(f"&{self.tx.gen.read_src(e, self.tx)}")
        if isinstance(e, BinOp) and e.op in ("add", "sub", "mul", "div"):
            return f"({self.vec(e.a)} {_INFIX[e.op]} {self.vec(e.b)})"
        if isinstance(e, UnaryOp) and e.op == "neg":
            return f"(-{self.vec(e.a)})"
        if isinstance(e, Call) and e.func in _VECTOR_CALLS:
            return (f"repro_v{_VECTOR_CALLS[e.func]}{self.lanes}"
                    f"({self.vec(e.args[0])})")
        if isinstance(e, Select) and self.uniform(e.cond):
            return (f"({self.tx.tx(e.cond)} ? {self.vec(e.then_)} : "
                    f"{self.vec(e.else_)})")
        raise _NotVectorizable


class NativeCodegen:
    """Generates the self-contained C module and per-kernel signatures."""

    def __init__(self, module: ILModule):
        self.module = module
        self.abi = _KernelABI()  # rebound per kernel
        self._tmp = 0
        self._written: frozenset = frozenset(
            n.out.name for k in module.kernels for n in k.nests)
        # rebound per ISA variant
        self.variant, self.lanes, self.target = "base", VARIANTS["base"], ""
        self._microkernels: Dict[str, str] = {}

    # -- public ------------------------------------------------------------
    def generate(self) -> Tuple[str, Dict[str, KernelSignature]]:
        if not self.module.kernels or not all(
                k.nests for k in self.module.kernels):
            raise CodegenError("native codegen requires operator nests")
        parts = [self._header(), native_prelude()]
        signatures: Dict[str, KernelSignature] = {}
        for variant, lanes in VARIANTS.items():
            self.variant, self.lanes = variant, lanes
            self.target = _variant_target(variant)
            self._tmp, self._microkernels = 0, {}
            kernels = []
            for kernel in self.module.kernels:
                src, signatures[kernel.name] = self._emit_kernel(kernel)
                kernels.append(src)
            section = list(self._microkernels.values()) + kernels
            parts += (section if variant == "base"
                      else ["#ifdef REPRO_AVX2", *section, "#endif"])
        parts.append(_C_DISPATCH)
        parts += [self._dispatcher(signatures[k.name])
                  for k in self.module.kernels]
        parts += [_C_LINEARIZER, _C_EPILOGUE]
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

    @staticmethod
    def _params(sig: KernelSignature) -> List[Tuple[str, str]]:
        """``(C type, name)`` of every parameter of ``sig``'s entry points."""
        params = [(("" if writable else "const ")
                   + f"{NATIVE_CTYPES[dtype_name]}*", name)
                  for name, dtype_name, writable in sig.arrays]
        params += [(f"const {NATIVE_CTYPES[dtype_name]}*", _packed_name(name))
                   for name, dtype_name in sig.packed]
        return params + [("const int64_t*", "S"), ("int64_t", "begin"),
                         ("int64_t", "length")]

    def _dispatcher(self, sig: KernelSignature) -> str:
        """The exported ``k_<name>``: the variant picked at load time."""
        params = self._params(sig)
        decl = ",\n    ".join(f"{ct} {name}" for ct, name in params)
        args = ", ".join(name for _, name in params)
        return "\n".join([
            f"void {sig.symbol}(", f"    {decl}) {{",
            "#ifdef REPRO_AVX2",
            f"  if (repro_use_avx2) {{ {sig.symbol}_avx2({args}); return; }}",
            "#endif",
            f"  {sig.symbol}_base({args});", "}", ""])

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
        def index(i: Expr) -> str:
            src = tx.tx(i)
            if tx.clamp and any(isinstance(x, UFCall) for x in walk(i)):
                return f"repro_imax({src}, 0)"
            return src

        # row-major Horner form: ((i0*e1 + i1)*e2 + i2)...
        src = f"({index(indices[0])})"
        for dim in range(1, len(indices)):
            ext = self._extent_src(shape[dim], tx)
            src = f"({src} * ({ext}) + ({index(indices[dim])}))"
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
        head = [f"// kernel {kernel.name} (kind={kernel.kind}), "
                f"{self.variant} variant"]
        if kernel.kind == "fused":
            head.append(f"// persistent kernel: {kernel.barriers_per_level} "
                        f"global barrier(s) per level")
        head.append(f"{self.target}void {sig.symbol}_{self.variant}(")
        head.append("    " + ",\n    ".join(
            f"{ct} {name}" for ct, name in self._params(sig)) + ") {")
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
        out.append(f"{'  ' * indent}// {nest.name} [{nest.tag}]")
        mark = self._tmp
        try:
            lines: List[str] = []
            self._emit_loops(nest, lines, indent, begin_src, length_src,
                             self._lane_axis(nest))
        except _NotVectorizable:
            self._tmp, lines = mark, []
            self._emit_loops(nest, lines, indent, begin_src, length_src, None)
        out.extend(lines)

    def _lane_axis(self, nest: OpNest) -> AxisSpec:
        """The innermost axis, when its iterations may run as vector lanes.

        It must be a constant extent that the store walks at unit stride,
        and a lane may read the output buffer only in its own column
        (other columns of the row are written by the other lanes).
        """
        lane = nest.axes[-1] if nest.axes else None
        col = nest.out_indices[-1] if nest.out_indices else None
        if (lane is None or lane.kind == "node" or not _is_const_axis(lane)
                or nest.out.dtype.name != "float32"
                or not (isinstance(col, Var) and col.name == lane.var.name)
                or any(lane.var.name in free_vars(i)
                       for i in nest.out_indices[:-1])
                or any(isinstance(x, TensorRead)
                       and x.buffer.name == nest.out.name
                       and x.indices[-1].key() != col.key()
                       for x in walk(nest.body))):
            raise _NotVectorizable
        return lane

    def _emit_loops(self, nest: OpNest, out: List[str], indent: int,
                    begin_src: Optional[str], length_src: Optional[str],
                    lane: Optional[AxisSpec]) -> None:
        """The nest's loops, guard and store; ``lane``, its innermost
        axis, runs as vector lanes instead of a loop."""
        env: Dict[str, str] = {}
        tx = _CTx(self, env)
        depth = 0
        for ax in nest.axes:
            if ax is lane:
                continue
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
                    self._bind_node(nest, v, begin_src, env, out, p + "  ")
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
            if lane is not None and lane.var.name in free_vars(nest.predicate):
                raise _NotVectorizable
            out.append(f"{p}if ({tx.tx(nest.predicate)}) {{")
            p += "  "
            close_pred = True

        if lane is not None:
            self._emit_lanes(nest, lane, tx, out, p)
        else:
            body = nest.body
            if isinstance(body, Reduce):
                val_src = self._emit_reduce(body, tx, out, p)
            else:
                val_src = tx.tx(body)
            out.append(f"{p}{self._store_target(nest, tx)} = {val_src};")

        if close_pred:
            out.append("  " * (indent + depth) + "}")
        for d in range(depth - 1, -1, -1):
            out.append("  " * (indent + d) + "}")

    def _bind_node(self, nest: OpNest, idx_src: str, begin_src: Optional[str],
                   env: Dict[str, str], out: List[str], pad: str,
                   ident: Optional[str] = None) -> None:
        """Bind the nest's node-id let, if anything the nest computes
        mentions it (an unused binding is a compiler warning)."""
        node_var = nest.lets[0][0].name
        exprs = [nest.body, *nest.out_indices]
        if nest.predicate is not None:
            exprs.append(nest.predicate)
        if any(node_var in free_vars(e) for e in exprs):
            ident = ident or node_var
            out.append(f"{pad}const int64_t {ident} = "
                       f"({begin_src or '0'}) + {idx_src};")
            env[node_var] = ident

    def _store_target(self, nest: OpNest, tx: _CTx) -> str:
        buf = nest.out
        self.abi.buffer(buf.name, buf.dtype.name, True)
        return f"{buf.name}[{self._flat_index(buf.shape, nest.out_indices, tx)}]"

    # -- lane loops ----------------------------------------------------------
    def _emit_lanes(self, nest: OpNest, lane: AxisSpec, tx: _CTx,
                    out: List[str], pad: str) -> None:
        """``lane``'s extent, ``self.lanes`` iterations per step, then the
        tail as one partial vector (same operations, fewer live lanes)."""
        v, extent = lane.var.name, int(lane.extent.value)
        full = extent - extent % self.lanes
        if full:
            out.append(f"{pad}for (int64_t {v} = 0; {v} < {full}; "
                       f"{v} += {self.lanes}) {{")
            self._emit_lane_step(nest, _VTx(tx.child({v: v}), v, None), out,
                                 pad + "  ")
            out.append(f"{pad}}}")
        if extent > full:
            out.append(f"{pad}{{")
            self._emit_lane_step(
                nest, _VTx(tx.child({v: str(full)}), v, extent - full), out,
                pad + "  ")
            out.append(f"{pad}}}")

    def _emit_lane_step(self, nest: OpNest, vtx: _VTx, out: List[str],
                        pad: str) -> None:
        body = nest.body
        if isinstance(body, Reduce):
            val_src = self._emit_lane_child_reduce(body, vtx, out, pad)
        else:
            val_src = vtx.vec(body)
        target = self._store_target(nest, vtx.tx)
        out.append(f"{pad}{vtx.store('&' + target, val_src)};")

    def _emit_lane_child_reduce(self, red: Reduce, vtx: _VTx, out: List[str],
                                pad: str) -> str:
        """:meth:`_emit_masked_child_reduce` over vectors: the slot mask
        is the same for every lane, so it stays a scalar ternary."""
        k = red.axes[0]
        if not (len(red.axes) == 1 and red.op == "sum" and vtx.uniform(k.extent)
                and any(isinstance(x, UFCall) for x in walk(k.extent))):
            raise _NotVectorizable
        acc = self._fresh("acc")
        kv = self._fresh("k")
        inner = vtx.child({k.var.name: kv})
        zero = vtx.splat("0.0f")
        self.abi.scalars.add("max_children")
        out.append(f"{pad}repro_vf{self.lanes} {acc} = {zero};")
        out.append(f"{pad}for (int64_t {kv} = 0; {kv} < max_children; "
                   f"++{kv}) {{")
        out.append(f"{pad}  {acc} = {acc} + (({kv} < "
                   f"({inner.tx.tx(k.extent)})) ? ({inner.vec(red.body)}) : "
                   f"{zero});")
        out.append(f"{pad}}}")
        if not is_zero(red.init):
            return f"({acc} + {vtx.vec(red.init)})"
        return acc

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
        """Rows ``_TILE_ROWS`` at a time through the shape's microkernel.

        A gathered row index is floored at 0: the slot past a node's
        arity holds ``-1``, and whatever that row contracts to is masked
        by every reader downstream, so any in-bounds row will do.
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
        out.append(f"{pad}// {nest.name} [{nest.tag}] contraction over "
                   f"panel-packed {w_src}[{m.n_red}][{m.n_cols}]")
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
                tx = _CTx(self, {**env, m.col.var.name: "0", r_name: "0"},
                          clamp=True)
                xs.append(f"&{self.read_src(m.row, tx)}")
                os_.append(f"&{self._store_target(nest, tx)}")
            out.append(f"{pad}  {self._microkernel(m, nrows)}({w_src}, "
                       f"{', '.join(xs + os_)});")
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
                self._bind_node(
                    nest, ident, begin_src, env, out, pad,
                    self._fresh(nest.lets[0][0].name + "_"))
        return env

    def _microkernel(self, m: _Contraction, nrows: int) -> str:
        """Name of the outlined ``nrows``-row microkernel of ``m``'s shape
        (emitted once per variant, shared by every nest of that shape):
        ``(P, x0.., o0..)`` contracts rows ``x*`` with the panels ``P``
        into output rows ``o*``."""
        name = f"repro_mk{m.n_red}x{m.n_cols}r{nrows}_{self.variant}"
        if name not in self._microkernels:
            xs = [f"x{s}" for s in range(nrows)]
            os_ = [f"o{s}" for s in range(nrows)]
            params = (["const float* P"] + [f"const float* {x}" for x in xs]
                      + [f"float* {o}" for o in os_])
            lines = [f"static __attribute__((noinline)) {self.target}void "
                     f"{name}(", f"    {', '.join(params)}) {{"]
            self._emit_tiles(m, xs, os_, lines, "  ")
            self._microkernels[name] = "\n".join(lines + ["}", ""])
        return name

    def _emit_tiles(self, m: _Contraction, xs: Sequence[str],
                    os_: Sequence[str], out: List[str], pad: str) -> None:
        """Cover the output columns of ``len(xs)`` rows: full panels, the
        vectors of the partial panel, then its scalar columns.

        ``P`` holds ``n_cols // panel`` blocks of ``[n_red][panel]``, then
        the remaining columns as one ``[n_red][tail]`` block
        (:func:`repro.runtime.kernels.panel_packed`), so a tile's reduce
        loop streams its block front to back.
        """
        panel = panel_width(self.lanes)
        done = m.n_cols - m.n_cols % panel
        tail = m.n_cols - done
        if done:
            out.append(f"{pad}for (int64_t _j = 0; _j < {done}; "
                       f"_j += {panel}) {{")
            self._emit_tile(m, f"P + _j * {m.n_red}", panel, xs, os_, "_j",
                            _TILE_VECS, out, pad + "  ")
            out.append(f"{pad}}}")
        tail_src = f"P + {done * m.n_red}"
        rem_vecs = tail // self.lanes
        if rem_vecs:
            out.append(f"{pad}{{")
            self._emit_tile(m, tail_src, tail, xs, os_, str(done), rem_vecs,
                            out, pad + "  ")
            out.append(f"{pad}}}")
        first = done + rem_vecs * self.lanes
        if first < m.n_cols:
            out.append(f"{pad}for (int64_t _j = {first}; _j < {m.n_cols}; "
                       f"++_j) {{")
            out.append(f"{pad}  const float* _wp = {tail_src} + (_j - {done});")
            for s, (x, o) in enumerate(zip(xs, os_)):
                acc = f"_ac{s}"
                out.append(f"{pad}  float {acc} = _wp[0] * {x}[0];")
                out.append(f"{pad}  for (int64_t _kr = 1; _kr < {m.n_red}; "
                           f"++_kr) {acc} = {acc} + _wp[_kr * {tail}] * "
                           f"{x}[_kr];")
                out.append(f"{pad}  {o}[_j] = {acc};")
            out.append(f"{pad}}}")

    def _emit_tile(self, m: _Contraction, w_src: str, stride: int,
                   xs: Sequence[str], os_: Sequence[str], col_src: str,
                   nvec: int, out: List[str], pad: str) -> None:
        """One ``len(xs)`` x ``nvec``-vector accumulator tile at column
        ``col_src``, over the ``[n_red][stride]`` block at ``w_src``.

        Every output starts from its first product and adds the rest in
        ascending reduce order, multiply then add — the operation
        sequence of :meth:`_emit_loop_reduce`, hence the same bits.
        """
        lanes = self.lanes
        cells = [(s, v) for s in range(len(xs)) for v in range(nvec)]

        def step(first: bool, p: str) -> None:
            decl = f"repro_vf{lanes} " if first else ""
            at = "0" if first else "_kr"
            for s, x in enumerate(xs):
                out.append(f"{p}{decl}_sx{s} = repro_vsplat{lanes}({x}[{at}]);")
            for v in range(nvec):
                out.append(f"{p}{decl}_wv{v} = "
                           f"repro_vload{lanes}(_wp + {v * lanes});")
            for s, v in cells:
                acc = f"_ac{s}_{v}"
                out.append(f"{p}{decl}{acc} = " + (
                    f"_wv{v} * _sx{s};" if first
                    else f"{acc} + _wv{v} * _sx{s};"))

        out.append(f"{pad}const float* _wp = {w_src};")
        step(True, pad)
        out.append(f"{pad}for (int64_t _kr = 1; _kr < {m.n_red}; ++_kr) {{")
        out.append(f"{pad}  _wp += {stride};")
        step(False, pad + "  ")
        out.append(f"{pad}}}")
        for s, v in cells:
            out.append(f"{pad}repro_vstore{lanes}({os_[s]} + {col_src} + "
                       f"{v * lanes}, _ac{s}_{v});")

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
        :func:`parity_classification`).  Gathered indices are floored at
        0 as in :meth:`_emit_contraction`: nothing guards these reads.
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
        inner = _CTx(self, {**tx.env, **env_extra}, clamp=True)
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
    bitwise-exact unless it contains (a) a transcendental intrinsic —
    float32 ``exp`` / ``tanh`` / ``sigmoid`` are the C prelude's own
    polynomials (1-3 ulp, the same bits on every host) where the Python
    target calls NumPy's; ``log`` / ``erf`` and everything float64 are the
    host's libm — or (b) a constant-extent ``sum(read * read)`` reduction
    that the Python target may route through BLAS einsum, which
    reassociates the accumulation.  Classification is conservative: a
    matching einsum pattern counts as tolerance even if the Python
    generator's operand matcher bails to the (bitwise) serial loop.
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
                        own = (x.func in _VECTOR_CALLS
                               and x.dtype.name == "float32")
                        r = (f"{nest.name}: transcendental {x.func!r} ("
                             + ("prelude polynomial" if own else "libm")
                             + " vs NumPy)")
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
