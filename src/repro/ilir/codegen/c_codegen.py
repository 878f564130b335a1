"""C target code generation.

One generator lives here, :func:`generate_c_module`: complete, portable,
self-contained C99 that ``runtime/native.py`` compiles with the system
compiler into a ``.so`` and launches through ``ctypes``.  It renders the
module's operator nests, which a module reloaded from an artifact carries
too, so a reload renders the same source byte for byte.  The source is
one text in :data:`PARTS` that the preprocessor selects (``REPRO_PART``),
so that the build may compile them as concurrent units and link them, and
holds every ISA variant; a build may keep one of the wide ones
(``REPRO_WIDE``, :func:`wide_define`).

The generator mirrors ``python_codegen.PythonCodegen`` construct
for construct so the two targets agree bitwise wherever the arithmetic
is reassociation-free:

* elementwise nests translate to loop nests over the same iteration
  domain, with flat row-major buffer indexing;
* variable-extent child reductions become a serial loop over the
  compile-time ``max_children`` accumulating ``(k < extent) ? body : 0``
  in the same slot order as the masked NumPy loop;
* constant-extent reductions become serial first-assign/fold loops.

On top of that it makes four schedule choices, none visible in the IR:

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
* **Three ISA variants** (:data:`VARIANTS`).  Every kernel body and
  microkernel is emitted at 4 lanes (``k_<name>_base``, portable 16-byte
  vectors) and, on x86-64 with GCC/Clang (``REPRO_X86``), again at 8
  lanes inside ``__attribute__((target("avx2")))`` functions
  (``k_<name>_avx2``) and at 16 inside ``target("avx512f")`` ones
  (``k_<name>_avx512f``), each wide variant in a part of its own.  A
  constructor asks ``__builtin_cpu_supports`` once, widest first, among
  the variants the build holds (``repro_held()``); ``repro_lanes()``
  reports the one it picked, whose entry points the launchers bind and
  whose width they pack panels at.  No ``-march`` flag: the ``.so`` runs
  wherever it is loaded.  Lanes stay distinct outputs and products are
  rounded before they are added (no FMA), so every variant produces the
  fold's bits.  (Wide vectors compiled
  *without* their ISA run several times slower than 16-byte ones, hence
  a body per variant, not one.)
* **Lane loops** (:class:`_VTx`).  An elementwise nest whose innermost
  axis is a constant extent stored at unit stride, whose reads are
  unit-stride or invariant in it, runs that axis ``lanes`` iterations per
  step — masked child-sums included, their slot mask being the same for
  every lane — and the extent's tail as one partial vector through the
  same operations.  float32 ``exp`` / ``sigmoid`` / ``tanh`` lower to the
  prelude's own polynomials (``repro_vexpf<lanes>`` ...; the scalar
  ``repro_expf`` ... are their lane 0), so C-target bits do not depend
  on the host's libm.
* **Column teams** (:class:`_Team`).  A ``fused`` kernel is the body every
  member of a team of ``team`` threads runs (``k_<name>_<variant>_team``)
  plus the entry point that launches it through the prelude's pthread
  runtime (:data:`_C_TEAM`).  The nests between two barriers form a
  segment of tickets: one per whole column panel of the nests split
  along their output columns — a contraction's ``j`` or a lane loop's
  axis; the partial panel is the last ticket — running that column range
  of each in order, and one per nest that is not split.  Member ``t``
  takes its own share of a segment's tickets first, then the others'
  from the back.  Each output is still one thread's, through the same
  operations, so the bits do not depend on the team size or on who took
  what.  Barriers go before a nest whose buffers cross tickets' columns
  since the last one and at the end of every batch iteration;
  ``repro_team_columns()`` reports the widest split extent, from which
  the launcher sizes the team.

Where the two targets run different code — BLAS einsum contractions,
which reassociate, and the transcendentals (the prelude's polynomials,
libm ``log`` / ``erf``, vs NumPy's) — results are only
tolerance-comparable; :func:`parity_classification` reports, per kernel,
whether bitwise parity is expected and why not when it is not.

Kernel entry points use one uniform ABI so the host-side launcher stays
trivial::

    void k_<name>_<variant>(<buf ptrs...>, <const int32_t* uf arrays...>,
                            <const packed weight ptrs...>,
                            const int64_t* S, int64_t begin, int64_t length,
                            int64_t team);

``S`` packs the scalar parameters the kernel mentions (a
:class:`KernelSignature` records which, in order); ``begin``/``length``
carry the batch window for ``leaf``/``level`` kernels and are ignored by
the other kinds; ``team`` is the members a ``fused`` kernel splits its
columns across, ignored by the other kinds.  Each entry point has a
wrapper of one signature for every kernel, ``k_<name>_<variant>_w(char*
const* p, const int64_t* slots, S, begin, length, team)``, that reads
pointer ``j`` from ``p[slots[j]]``.  The runtime part names no kernel: its
host program, ``void repro_execute(const char* argv)``
(:data:`_C_HOST_ENTRY`), runs the host tables that the plan packs
(:func:`pack_tables`) as data: it places every scratch buffer in the
call's slab and every linearizer array in its block, binds ``S`` and runs
the host schedule through a table of those wrappers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import CodegenError
from ...ir import (BinOp, Call, Cast, Const, Expr, Reduce, Select, TensorRead,
                   UFCall, UnaryOp, Var, expr_to_str, free_vars, is_zero, walk)
from ...linearizer.linearize import uf_term
from ..buffer import ILBuffer
from ..host import ALIGN, ENTRY_HEAD, PHASES, HostTables
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
                "sigmoid": "repro_sigmoidf", "relu": "repro_reluf"},
    "float64": {"tanh": "tanh", "exp": "exp", "log": "log",
                "sqrt": "sqrt", "erf": "erf",
                "sigmoid": "repro_sigmoid", "relu": "repro_relu"},
}

#: float32 intrinsics with a vector form in the prelude (the lanes of an
#: elementwise nest call ``repro_v<name><lanes>``)
_VECTOR_CALLS = {"tanh": "tanhf", "sigmoid": "sigmoidf", "exp": "expf",
                 "relu": "reluf"}

#: intrinsics whose C and NumPy implementations are different code, so
#: results agree to tolerance only.  (``sqrt`` is correctly rounded by
#: both; relu is plain arithmetic.)
_TRANSCENDENTALS = frozenset({"tanh", "sigmoid", "exp", "log", "erf"})

_C_PRELUDE = '''\
#include <math.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* a build with -DREPRO_WIDE=k holds, besides the runtime (part 0) and the
 * base variant (part 1), only the wide variant of part k; without it, every
 * variant.  A parted build compiles each part it holds as a unit of its own
 * (-DREPRO_PART=k) and links them; without REPRO_PART the source is every
 * part it holds at once */
#ifdef REPRO_WIDE
#define REPRO_HOLDS(k) ((k) <= 1 || (k) == REPRO_WIDE)
#else
#define REPRO_HOLDS(k) 1
#endif
#ifdef REPRO_PART
#define REPRO_IN(k) (REPRO_PART == (k) && REPRO_HOLDS(k))
#else
#define REPRO_IN(k) REPRO_HOLDS(k)
#endif

static inline float repro_minf(float a, float b) { return a < b ? a : b; }
static inline float repro_maxf(float a, float b) { return a > b ? a : b; }
static inline double repro_min(double a, double b) { return a < b ? a : b; }
static inline double repro_max(double a, double b) { return a > b ? a : b; }
static inline int64_t repro_imin(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t repro_imax(int64_t a, int64_t b) { return a > b ? a : b; }
/* a gathered index of -1 (a missing child, a memo stub's word) reads the
 * last row, as NumPy's does */
static inline int64_t repro_wrap(int64_t i, int64_t n) { return i < 0 ? i + n : i; }

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

static inline int64_t repro_isleaf(int64_t leaf_start,
                                   const int32_t* num_children, int64_t n) {
  return leaf_start >= 0 ? (n >= leaf_start) : (num_children[n] == 0);
}

'''

#: The column team a fused kernel runs as (pthreads only).  Every member
#: runs the kernel's body; the work between two waits is a *segment* of
#: tickets (a column panel of the segment's split nests, or one nest that
#: is not split).  Member ``t`` takes the tickets of its own share first,
#: then helps the others from the back of theirs, and a segment is over
#: when all its tickets are done — so a member that wakes late, runs slow
#: or never comes leaves its work to the others instead of holding them
#: up.  One team per library: workers start at the first teamed launch,
#: park on a condvar as soon as it ends, and a fork child forgets them.  A
#: launch teams only when no other fused launch of the library is in
#: flight, and a worker stops helping as soon as one starts, so two
#: callers never ask the CPUs for more than their own threads.  A worker
#: that cannot be created shrinks the team.  Waits spin with ``pause``,
#: then yield.  The runtime part of a module defines the team once, with
#: hidden visibility (:data:`_C_TEAM`); the kernel parts call it through
#: the declarations of :data:`_C_TEAM_API`, so a library has one team
#: however its parts were compiled.
_C_TEAM_API = '''\
/* ---- column teams: every member runs the body; a segment's tickets go
 * to their share's member first, to the others when it is behind.  The
 * runtime part defines the team, once per library */
#define REPRO_TEAM __attribute__((visibility("hidden")))

typedef struct {
  int64_t t, T;   /* this member; the team's size, which is its shares */
  int64_t seg;    /* the segment it is in, from 1 */
  int64_t count;  /* tickets it ran in this segment */
  int64_t next;   /* a team of one: the segment's next ticket */
  int quit;       /* stopped helping: takes no more tickets */
} repro_member;
typedef void (*repro_team_body)(void* const* args, repro_member* m);

REPRO_TEAM int64_t repro_team_take(repro_member* m, int64_t P);
REPRO_TEAM int repro_team_wait(repro_member* m, int64_t P);
REPRO_TEAM void repro_team_run(repro_team_body body, void* const* args,
                               int64_t size);

/* what the body calls per ticket and per segment: a team of one takes
 * its tickets in order and never waits */
static inline int64_t repro_team_claim(repro_member* m, int64_t P) {
  if (m->T < 2) return m->next < P ? m->next++ : -1;
  return repro_team_take(m, P);
}

static inline int repro_team_sync(repro_member* m, int64_t P) {
  if (m->T < 2) {
    m->next = 0;
    return 0;
  }
  return repro_team_wait(m, P);
}
'''

_C_TEAM = '''\
/* ---- the column team */
#include <pthread.h>
#include <sched.h>
#include <signal.h>

#define REPRO_TEAM_MAX 64      /* members, the launching thread included */
#define REPRO_TEAM_SPIN 2048   /* pause rounds before a wait yields */
#define REPRO_TEAM_OPEN (1ull << 31)

/* per member, a cache line each: its share's tickets not yet taken
 * (seg << 32 | lo << 16 | hi: [lo, hi) of segment seg), which it takes
 * from while the others wait on what it reported done (seg << 32 |
 * count) */
typedef struct {
  uint64_t claim;
  char pad[56];
  uint64_t done;
  char pad2[56];
} repro_share;
static repro_share repro_shares[REPRO_TEAM_MAX] __attribute__((aligned(64)));

static struct {
  int64_t inflight;       /* fused launches running on this library */
  uint64_t gate;          /* launch << 32 | REPRO_TEAM_OPEN | members in */
  pthread_mutex_t lock;   /* guards the fields below and `wake` */
  pthread_cond_t wake;
  int forks;              /* the fork-child handler is registered */
  int64_t workers;        /* started: members 1..workers */
  uint64_t launch;        /* launches published */
  repro_team_body body;
  void* const* args;
  int64_t size;
} repro_team = {0, 0, PTHREAD_MUTEX_INITIALIZER, PTHREAD_COND_INITIALIZER,
                0, 0, 0, 0, 0, 0};

/* compiled unoptimised, since cc time is set-up time: the waits and the
 * system calls gain nothing from it, nor, measured, does taking tickets */
#if defined(__clang__)
#pragma clang optimize off
#elif defined(__GNUC__)
#pragma GCC push_options
#pragma GCC optimize ("O0")
#endif

static inline void repro_team_pause(int* spin) {
  if (*spin < REPRO_TEAM_SPIN) {
    ++*spin;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  } else {
    sched_yield();
  }
}

/* the next ticket of the member's P-ticket segment, or -1: its own share
 * [u P / T, (u + 1) P / T) from the front, then the others' from the back */
REPRO_TEAM int64_t repro_team_take(repro_member* m, int64_t P) {
  if (m->quit) return -1;
  if (m->t && __atomic_load_n(&repro_team.inflight, __ATOMIC_RELAXED) > 1) {
    m->quit = 1;  /* another launch is running: its caller needs the CPU */
    return -1;
  }
  const uint64_t s = (uint64_t)m->seg;
  for (int64_t k = 0; k < m->T; ++k) {
    const int64_t u = (m->t + k) % m->T;
    uint64_t* w = &repro_shares[u].claim;
    uint64_t c = __atomic_load_n(w, __ATOMIC_RELAXED);
    for (;;) {
      int64_t lo = u * P / m->T, hi = (u + 1) * P / m->T;
      if (c >> 32 > s) break;  /* the segment is over */
      if (c >> 32 == s) {
        lo = (int64_t)(c >> 16 & 0xffff);
        hi = (int64_t)(c & 0xffff);
      }
      if (lo >= hi) break;
      const uint64_t n = s << 32 | (uint64_t)(k ? lo : lo + 1) << 16
                         | (uint64_t)(k ? hi - 1 : hi);
      if (__atomic_compare_exchange_n(w, &c, n, 0, __ATOMIC_RELAXED,
                                      __ATOMIC_RELAXED)) {
        ++m->count;
        return k ? hi - 1 : lo;
      }
    }
  }
  return -1;
}

/* the end of a segment: report, then wait until all its P tickets are
 * done; nonzero when the member stops here (its body returns) */
REPRO_TEAM int repro_team_wait(repro_member* m, int64_t P) {
  const uint64_t s = (uint64_t)m->seg++;
  __atomic_store_n(&repro_shares[m->t].done, s << 32 | (uint64_t)m->count,
                   __ATOMIC_RELEASE);
  m->count = 0;
  if (m->quit || (m->t && !(__atomic_load_n(&repro_team.gate,
                                             __ATOMIC_RELAXED)
                            & REPRO_TEAM_OPEN)))
    return 1;
  for (int spin = 0;; repro_team_pause(&spin)) {
    int64_t done = 0;
    for (int64_t u = 0; u < m->T; ++u) {
      const uint64_t d = __atomic_load_n(&repro_shares[u].done,
                                         __ATOMIC_ACQUIRE);
      if (d >> 32 > s) return 0;  /* a member is past it */
      if (d >> 32 == s) done += (int64_t)(d & 0xffffffff);
    }
    if (done == P) return 0;
  }
}

static void* repro_team_worker(void* arg) {
  const int64_t t = (int64_t)(intptr_t)arg;
  pthread_mutex_lock(&repro_team.lock);
  uint64_t seen = repro_team.launch - 1;  /* started for this launch */
  for (;;) {
    while (repro_team.launch == seen)
      pthread_cond_wait(&repro_team.wake, &repro_team.lock);
    seen = repro_team.launch;
    if (t >= repro_team.size) continue;
    repro_member m = {t, repro_team.size, 1, 0, 0, 0};
    repro_team_body body = repro_team.body;
    void* const* args = repro_team.args;
    pthread_mutex_unlock(&repro_team.lock);
    /* in only while the launch is open: the caller waits for those in */
    uint64_t g = __atomic_load_n(&repro_team.gate, __ATOMIC_ACQUIRE);
    while (g >> 32 == (seen & 0xffffffff) && (g & REPRO_TEAM_OPEN)) {
      if (__atomic_compare_exchange_n(&repro_team.gate, &g, g + 1, 0,
                                      __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE)) {
        body(args, &m);
        __atomic_fetch_sub(&repro_team.gate, 1, __ATOMIC_RELEASE);
        break;
      }
    }
    pthread_mutex_lock(&repro_team.lock);
  }
  return NULL;
}

/* a fork child has the forking thread only: no workers, no launches */
static void repro_team_forget(void) {
  pthread_mutex_init(&repro_team.lock, NULL);
  pthread_cond_init(&repro_team.wake, NULL);
  repro_team.workers = 0;
  repro_team.inflight = 0;
  repro_team.gate = 0;
}

/* publish a launch to up to `size` - 1 workers; the members it has */
static int64_t repro_team_open(repro_team_body body, void* const* args,
                               int64_t size) {
  pthread_mutex_lock(&repro_team.lock);
  if (!repro_team.forks)
    repro_team.forks = pthread_atfork(NULL, NULL, repro_team_forget) == 0;
  if (size > REPRO_TEAM_MAX) size = REPRO_TEAM_MAX;
  if (repro_team.forks && repro_team.workers + 1 < size) {
    sigset_t all, old;  /* workers take no signals: they stay the caller's */
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    while (repro_team.workers + 1 < size) {
      pthread_t th;
      if (pthread_create(&th, NULL, repro_team_worker,
                         (void*)(intptr_t)(repro_team.workers + 1)) != 0)
        break;
      pthread_detach(th);
      repro_team.workers++;
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
  }
  if (size > repro_team.workers + 1) size = repro_team.workers + 1;
  if (size > 1) {
    for (int64_t u = 0; u < size; ++u) {
      __atomic_store_n(&repro_shares[u].claim, 0, __ATOMIC_RELAXED);
      __atomic_store_n(&repro_shares[u].done, 0, __ATOMIC_RELAXED);
    }
    repro_team.launch++;
    repro_team.body = body;
    repro_team.args = args;
    repro_team.size = size;
    __atomic_store_n(&repro_team.gate, (repro_team.launch & 0xffffffff) << 32
                     | REPRO_TEAM_OPEN, __ATOMIC_RELEASE);
    pthread_cond_broadcast(&repro_team.wake);
  }
  pthread_mutex_unlock(&repro_team.lock);
  return size;
}

/* run `body` as a team of up to `size`, the caller being member 0: alone
 * when another fused launch of this library is in flight.  The body ends
 * waiting for its last segment, so all the work is done when it returns;
 * then the launch closes and the members still in are waited for */
REPRO_TEAM void repro_team_run(repro_team_body body, void* const* args,
                               int64_t size) {
  repro_member m = {0, 1, 1, 0, 0, 0};
  if (__atomic_fetch_add(&repro_team.inflight, 1, __ATOMIC_ACQ_REL) == 0
      && size > 1)
    m.T = repro_team_open(body, args, size);
  body(args, &m);
  if (m.T > 1) {
    uint64_t g = __atomic_and_fetch(&repro_team.gate, ~REPRO_TEAM_OPEN,
                                    __ATOMIC_ACQ_REL);
    for (int spin = 0; g & (REPRO_TEAM_OPEN - 1); repro_team_pause(&spin))
      g = __atomic_load_n(&repro_team.gate, __ATOMIC_ACQUIRE);
  }
  __atomic_fetch_sub(&repro_team.inflight, 1, __ATOMIC_RELEASE);
}

#if defined(__clang__)
#pragma clang optimize on
#elif defined(__GNUC__)
#pragma GCC pop_options
#endif
'''

#: float32 vector helpers, instantiated once per ISA variant (``@L@``
#: lanes, ``@B@`` bytes, ``@T@`` the variant's function attribute).  A
#: 32- or 64-byte vector must never cross a function boundary compiled
#: without its ISA, so the small ones are ``always_inline``; the three
#: polynomials stay out of line (one copy per variant, or ``cc`` time
#: grows by half) and carry the variant's target attribute like their
#: callers.
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

#: CPython entry points the linearizer section calls, in the order
#: ``repro_lin_bind`` receives their addresses (from ``ctypes.pythonapi``)
LINEARIZER_PY_API = ("PyObject_GetAttr", "PyTuple_Size", "PyTuple_GetItem",
                     "PyLong_AsLong", "Py_IncRef", "Py_DecRef",
                     "PyErr_Occurred", "PyList_Size", "PyList_GetItem",
                     "PyList_SetItem", "PyObject_GetBuffer",
                     "PyBuffer_Release")

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
  int (*get_buffer)(void*, void*, int);
  void (*release_buffer)(void*);
} repro_py;
/* CPython's Py_buffer (stable ABI since 3.11) */
typedef struct {
  void* buf; void* obj; intptr_t len, itemsize; int readonly, ndim;
  char* format; intptr_t *shape, *strides, *suboffsets; void* internal;
} repro_py_buffer;
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

/* Fill `block` (a writable buffer of exactly the int32s laid out as
 * above for this walk's dims) and `order` (a list of `nodes` entries:
 * id -> Node), then free the context; an `order` of any other length
 * only frees it.  Returns the block's data address when done, 0 on
 * refusal. */
intptr_t repro_lin_fill(void* ctx, void* block, void* order) {
  repro_lin* c = (repro_lin*)ctx;
  int64_t n = c->n, mc = c->max_children, levels = c->levels;
  repro_py_buffer view;
  int held = repro_py.list_size(order) == n
             && repro_py.get_buffer(block, &view, 1 /* PyBUF_WRITABLE */) == 0;
  int ok = held && view.len == (intptr_t)sizeof(int32_t)
                               * ((mc + 2) * n + 2 * levels + c->nr);
  intptr_t at = ok ? (intptr_t)view.buf : 0;
  if (ok) {
    int32_t* child = (int32_t*)view.buf;
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
  if (held) repro_py.release_buffer(&view);
  repro_lin_free(c);
  return ok ? at : 0;
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


@dataclass(frozen=True)
class KernelSignature:
    """The native launch ABI of one kernel.

    ``arrays`` lists the pointer parameters in declaration order as
    ``(name, numpy dtype name, writable)`` — workspace buffers first
    (module declaration order), then the int32 UF index arrays
    (alphabetical).  ``packed`` lists, after them, ``(weight name, numpy
    dtype name)`` for every const pointer that must receive the weight
    packed as column panels (:func:`repro.runtime.kernels.panel_packed`,
    at the width of the launcher's variant).  ``scalars``
    lists, in :data:`NATIVE_SCALARS` order, the entries of the ``S``
    int64 vector.
    """

    name: str
    kind: str
    arrays: Tuple[Tuple[str, str, bool], ...]
    packed: Tuple[Tuple[str, str], ...]
    scalars: Tuple[str, ...]

    @property
    def symbol(self) -> str:
        return f"k_{self.name}"


#: ISA variants every kernel body is emitted at, as ``name -> float32
#: lanes``, narrowest first.  ``base`` is portable 16-byte vector code;
#: ``avx2`` and ``avx512f`` are the same generator at 32 and 64 bytes
#: inside ``target("<variant>")`` functions, compiled in on x86-64.  A
#: build holds ``base`` and every wide variant, or one of them
#: (:func:`wide_define`); the library picks the widest it holds that the
#: CPU runs when it loads.  ``k_<kernel>_<variant>`` and its wrapper are
#: exported for each held.
VARIANTS = {"base": 4, "avx2": 8, "avx512f": 16}

#: the variants past ``base``, each in a part of its own
_WIDE = tuple(VARIANTS)[1:]

#: contraction register tile: rows x vectors of output columns.  2 x 4
#: accumulators, 4 weight vectors and 2 row splats fill 14 of the 16
#: vector registers of x86-64 (xmm or ymm alike; half of avx512f's 32).
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


#: the parts of a generated module's source, by ``REPRO_PART`` number:
#: the runtime (the column team, the variant pick, the host entry, the
#: linearizer; the same text for every module), then each ISA variant's
#: kernels, microkernels and wrappers (``base`` also reports the team's
#: columns).  ``runtime/native.py`` compiles the parts a
#: build holds (:func:`held_parts`) as concurrent units and links the
#: objects; without ``REPRO_PART`` the source is one unit.
PARTS = ("runtime", *VARIANTS)

_PARTS_DEFINE = re.compile(r"^#define REPRO_PARTS (\d+)$", re.MULTILINE)


def source_parts(source: str) -> int:
    """The parts ``source`` declares (``#define REPRO_PARTS <n>``); 1, one
    unit, for a source that declares none."""
    m = _PARTS_DEFINE.search(source)
    return int(m.group(1)) if m else 1


def wide_define(variant: str) -> str:
    """The build flag that keeps, of the wide variants, ``variant``'s part
    only (none of them for ``base``): the runtime, ``base`` and it."""
    return f"-DREPRO_WIDE={PARTS.index(variant)}"


_WIDE_FLAG = re.compile(r"-DREPRO_WIDE=(\d+)$")


def held_parts(parts: int, flags: Sequence[str]) -> List[int]:
    """The parts of a ``parts``-part source that a build with ``flags``
    compiles: every one, or, under a :func:`wide_define` flag, parts 0
    and 1 and the one it names (``REPRO_HOLDS`` in the prelude)."""
    wide = [int(m.group(1)) for f in flags if (m := _WIDE_FLAG.match(f))]
    return [k for k in range(parts) if not wide or k <= 1 or k == wide[-1]]


def _variant_macro(variant: str) -> str:
    """Defined when the build holds the wide ``variant`` and the compiler
    targets it per function."""
    return f"REPRO_{variant.upper()}"


def _part_guard(part: str) -> str:
    """The ``#if`` that opens ``part``'s section of a source: a wide
    variant's also needs its macro (:func:`_variant_macro`)."""
    guard = f"#if REPRO_IN({PARTS.index(part)})"
    if part in _WIDE:
        guard += f" && defined({_variant_macro(part)})"
    return guard


def _variant_macros() -> str:
    """The wide variants are compiled in where GCC/Clang targets x86-64
    (``REPRO_X86``), each when the build holds it."""
    lines = ["#if defined(__x86_64__) && defined(__GNUC__)",
             "#define REPRO_X86 1", "#endif"]
    for v in _WIDE:
        lines += [f"#if defined(REPRO_X86) && REPRO_HOLDS({PARTS.index(v)})",
                  f"#define {_variant_macro(v)} 1", "#endif"]
    return "\n".join(lines) + "\n"


def native_prelude() -> str:
    """What every part of a generated module opens with: the scalar
    helpers, the column team's declarations, then per ISA variant the
    vector type and its helpers (a wide variant's in its own part only)."""
    def vectors(variant: str) -> str:
        lanes = VARIANTS[variant]
        return (_C_VECTOR_PRELUDE.replace("@L@", str(lanes))
                .replace("@B@", str(4 * lanes))
                .replace("@T@", _variant_target(variant))
                .replace("@ZEROS@", ", ".join("0" * lanes)))

    out = [_C_PRELUDE, _C_TEAM_API, vectors("base"), _C_SCALAR_POLYNOMIALS,
           _variant_macros()]
    for v in _WIDE:
        out += [_part_guard(v), vectors(v), "#endif"]
    return "\n".join(out + [""])


def _dispatch_source() -> str:
    """The runtime part's variant pick: a constructor setting
    ``repro_pick`` to the part of the widest variant the build holds that
    the CPU runs, then ``repro_lanes()`` and ``repro_held()``."""
    base = PARTS.index("base")
    pick, held = [], [f"  int held = 1 << {base};"]
    for v in reversed(_WIDE):
        pick += [f"#ifdef {_variant_macro(v)}",
                 f'  if (__builtin_cpu_supports("{v}")) {{ repro_pick = '
                 f'{PARTS.index(v)}; return; }}', "#endif"]
    for v in _WIDE:
        held += [f"#ifdef {_variant_macro(v)}",
                 f"  held |= 1 << {PARTS.index(v)};", "#endif"]
    lanes = ", ".join(str(VARIANTS.get(p, 0)) for p in PARTS)
    return "\n".join([
        "/* the part of the variant the launchers run: the",
        " * widest one this build holds that the CPU runs, picked at load */",
        f"static int repro_pick = {base};",
        "__attribute__((constructor)) static void repro_pick_variant(void) {",
        "#ifdef REPRO_X86", "  __builtin_cpu_init();", "#endif", *pick, "}",
        "",
        "/* float32 lanes of the variant the launchers run: the",
        " * launcher packs weight panels for that width */",
        "int repro_lanes(void) {",
        f"  static const int lanes[] = {{{lanes}}};",
        "  return lanes[repro_pick];", "}", "",
        "/* the variants this build holds, as a mask of their parts */",
        "int repro_held(void) {", *held, "  return held;", "}", ""])


_C_DISPATCH = _dispatch_source()


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


def _clip(end: str, whole: int, extent: int) -> str:
    """The end of the whole steps (vectors, panels) in a ticket ending at
    ``end``: the whole ones stop at ``whole`` of the axis' ``extent``."""
    return end if whole == extent else f"repro_imin({end}, {whole})"


#: one buffer access of a nest, as the barrier placement sees it: the
#: buffer, the column count of the split when the access is at the nest's
#: own column (``None``: any column), whether it writes, and whether it
#: reads rows through a child accessor — rows of earlier levels, never the
#: ones this level writes: the linearizer numbers batches down from the
#: last row, and a missing child's ``-1`` reads that row, the first
#: batch's, whose nodes are leaves and gather no children
_Access = Tuple[str, Optional[int], bool, bool]

#: Names of uninterpreted functions that follow structure edges.
CHILD_FN_PREFIXES = ("left", "right", "child")


def is_child_access(e: Expr) -> bool:
    """Does ``e`` select a row through a child accessor (``left(node)``)?"""
    return isinstance(e, UFCall) and e.fn.name.startswith(CHILD_FN_PREFIXES)


class _Team:
    """The segments of one fused kernel body: the nests since the last
    barrier, each with the column count it is split along (``None``: not
    split), and their accesses, which decide where the next barrier
    goes."""

    def __init__(self) -> None:
        self.nests: List[Tuple[OpNest, Optional[int]]] = []
        self.barriers = 0
        self.barriers_per_level = 0
        self._written: Dict[str, set] = {}  # buffer -> keys
        self._read: Dict[str, set] = {}

    def conflicts(self, accesses: Sequence[_Access]) -> bool:
        """Would these accesses meet data of another ticket (or let another
        ticket meet data this one still reads) without a barrier?"""
        for buf, key, write, _ in accesses:
            prev = set(self._written.get(buf, ()))
            if write:
                prev |= self._read.get(buf, set())
            if prev and (key is None or prev != {key}):
                return True
        return False

    def record(self, nest: OpNest, key: Optional[int],
               accesses: Sequence[_Access]) -> None:
        self.nests.append((nest, key))
        for buf, key, write, earlier in accesses:
            if write:
                self._written.setdefault(buf, set()).add(key)
            elif not earlier:
                self._read.setdefault(buf, set()).add(key)

    def tickets(self, panel: int
                ) -> List[Tuple[int, Optional[int], List[OpNest]]]:
        """The segment's tickets as runs ``(count, n_cols, nests)``: one
        ticket per ``panel`` columns of each split column count, running
        that column range of its nests in order, then one ticket per nest
        that is not split.  The runs share no data (:meth:`conflicts`), so
        any member may take any ticket."""
        split: Dict[int, List[OpNest]] = {}
        alone: List[Tuple[int, Optional[int], List[OpNest]]] = []
        for nest, key in self.nests:
            if key is None:
                alone.append((1, None, [nest]))
            else:
                split.setdefault(key, []).append(nest)
        return [(-(-n // panel), n, nests)
                for n, nests in split.items()] + alone

    def close(self) -> None:
        self.barriers += 1
        self.nests = []
        self._written.clear()
        self._read.clear()


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
        #: wrap gathered (UF-valued) tensor indices of -1 to the last row,
        #: as NumPy does.  For reads whose value is masked downstream but
        #: whose gather is not: a child slot past a node's arity holds
        #: ``-1``.  (Gathers through ``words`` wrap always.)
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
        #: the split of the fused kernel being emitted (``None`` outside)
        self._team: Optional[_Team] = None
        #: the widest column extent any fused kernel splits
        self._team_columns = 0
        #: fused kernel name -> global barriers its team runs per level
        #: (may exceed the ILIR count: codegen adds one wherever a nest
        #: reads columns another ticket wrote)
        self.barriers_per_level: Dict[str, int] = {}

    # -- public ------------------------------------------------------------
    def generate(self) -> Tuple[str, Dict[str, KernelSignature]]:
        signatures: Dict[str, KernelSignature] = {}
        sections: Dict[str, List[str]] = {}
        for variant, lanes in VARIANTS.items():
            self.variant, self.lanes = variant, lanes
            self.target = _variant_target(variant)
            self._tmp, self._microkernels = 0, {}
            kernels = []
            for kernel in self.module.kernels:
                src, signatures[kernel.name] = self._emit_kernel(kernel)
                kernels.append(src)
            sections[variant] = list(self._microkernels.values()) + kernels
        sections["base"].append(
            "/* output columns of the widest nest a fused kernel splits "
            "(0: none); the\n * launcher sizes the team it passes from "
            "it */\n"
            f"int64_t repro_team_columns(void) {{ return "
            f"{self._team_columns}; }}\n")
        sections["runtime"] = [_C_TEAM, _C_DISPATCH, _C_HOST_ENTRY,
                               _C_LINEARIZER]
        out = [self._header(), native_prelude()]
        for k, part in enumerate(PARTS):
            out += [f"/* ======== part {k}: {part} ======== */",
                    _part_guard(part), *sections[part], "#endif", ""]
        out.append(_C_EPILOGUE)
        return "\n".join(out), signatures

    def _header(self) -> str:
        lines = [f"// ===== module {self.module.name} =====",
                 "// Generated by repro.ilir.codegen.c_codegen — do not edit."]
        for buf in self.module.buffers.values():
            shape = "x".join(expr_to_str(s) for s in buf.shape)
            lines.append(
                f"// buffer {buf.name}: {shape} {buf.dtype} @{buf.scope}")
        lines += [f"// parts: {', '.join(PARTS)}; each builds on its own "
                  f"under -DREPRO_PART=<k>",
                  f"#define REPRO_PARTS {len(PARTS)}", ""]
        return "\n".join(lines)

    @staticmethod
    def _pointers(sig: KernelSignature) -> List[Tuple[str, str]]:
        """``(C type, name)`` of the pointer parameters of ``sig``'s entry
        points: arrays, packed weights, then ``S``."""
        params = [(("" if writable else "const ")
                   + f"{NATIVE_CTYPES[dtype_name]}*", name)
                  for name, dtype_name, writable in sig.arrays]
        params += [(f"const {NATIVE_CTYPES[dtype_name]}*", _packed_name(name))
                   for name, dtype_name in sig.packed]
        return params + [("const int64_t*", "S")]

    @classmethod
    def _params(cls, sig: KernelSignature) -> List[Tuple[str, str]]:
        """``(C type, name)`` of every parameter of ``sig``'s entry points."""
        return cls._pointers(sig) + [("int64_t", "begin"),
                                     ("int64_t", "length"),
                                     ("int64_t", "team")]

    @staticmethod
    def _opening(head: str, params: Sequence[Tuple[str, str]]) -> str:
        """A function definition's first lines, up to its ``{``."""
        decl = ",\n    ".join(f"{ct} {name}" for ct, name in params)
        return f"{head}(\n    {decl}) {{"

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
        def index(dim: int) -> str:
            # a word of -1 (an interior node's "absent") reads the last row,
            # as NumPy and the oracle do, whether or not the value is used
            i = indices[dim]
            src = tx.tx(i)
            if any(isinstance(x, UFCall) and (tx.clamp or x.fn.name == "words")
                   for x in walk(i)):
                return f"repro_wrap({src}, {self._extent_src(shape[dim], tx)})"
            return src

        # row-major Horner form: ((i0*e1 + i1)*e2 + i2)...
        src = f"({index(0)})"
        for dim in range(1, len(indices)):
            ext = self._extent_src(shape[dim], tx)
            src = f"({src} * ({ext}) + ({index(dim)}))"
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
        team: Optional[_Team] = None
        if kernel.kind == "fused":
            team = self._team = _Team()
            try:
                self._emit_fused_body(kernel, body, 1)
            finally:
                self._team = None
            self.barriers_per_level[kernel.name] = team.barriers_per_level
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
        entry = f"{sig.symbol}_{self.variant}"
        scalars = [f"  const int64_t {s} = S[{i}];"
                   for i, s in enumerate(sig.scalars)] or ["  (void)S;"]
        head = [f"// kernel {kernel.name} (kind={kernel.kind}), "
                f"{self.variant} variant"]
        if team is None:
            head += [self._opening(f"{self.target}void {entry}",
                                   self._params(sig)), *scalars]
            head.append("  (void)team;" if kernel.kind in ("leaf", "level")
                        else "  (void)begin; (void)length; (void)team;")
            return "\n".join(head + body + ["}", ""]
                             + self._wrapper(sig, entry)), sig
        # a fused kernel is the body every member of its team runs, then
        # the entry point that launches the team over it
        pointers = self._pointers(sig)
        head += [f"// persistent kernel: {team.barriers_per_level} global "
                 f"barrier(s) per level; every member of the launch's",
                 "// team runs this body, taking tickets (column panels) of "
                 "each segment",
                 f"static {self.target}void {entry}_team(void* const* A, "
                 f"repro_member* _m) {{"]
        head += [f"  {ct} {name} = ({ct})A[{i}];"
                 for i, (ct, name) in enumerate(pointers)]
        head += scalars
        launch = [
            self._opening(f"{self.target}void {entry}", self._params(sig)),
            "  void* const A[] = {"
            + ", ".join(f"(void*){name}" for _, name in pointers) + "};",
            "  (void)begin; (void)length;",
            f"  repro_team_run({entry}_team, A, team);", "}", ""]
        return "\n".join(head + body + ["}", ""] + launch
                         + self._wrapper(sig, entry)), sig

    def _wrapper(self, sig: KernelSignature, entry: str) -> List[str]:
        """``<entry>_w``, what the host entry launches: ``entry`` called
        with its pointers read from the address vector ``p`` at the
        launch's ``slots``, in signature order."""
        args = [f"({ct})p[slots[{j}]]"
                for j, (ct, _) in enumerate(self._pointers(sig)[:-1])]
        return [f"void {entry}_w(char* const* p, const int64_t* slots, "
                "const int64_t* S,\n    int64_t begin, int64_t length, "
                "int64_t team) {",
                f"  {entry}({', '.join(args)},\n      S, begin, length, "
                "team);", "}", ""]

    def _emit_fused_body(self, kernel: Kernel, out: List[str],
                         indent: int) -> None:
        """The phases of a persistent kernel, as every team member runs
        them: each run of nests between two barriers is a segment of
        tickets (:meth:`_emit_segment`).

        Barriers go where codegen puts them: before a nest whose data
        crosses tickets' columns since the last one (:meth:`_Team.conflicts`),
        and at the end of every batch iteration (the paper's barrier; it
        also covers the per-level scratch and child reads of state).  The
        last one ends the kernel: a member returns with all work done.
        """
        pad = "  " * indent
        team = self._team
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
                self._emit_team_nest(n, out, indent + 1)
            self._emit_segment(out, indent + 1, "end of the leaf batch")
            out.append(f"{pad}}}")
        out.append(f"{pad}// internal batches: the dependence-carrying loop "
                   f"(App. A.4)")
        out.append(f"{pad}for (int64_t _b = level_start; _b < num_batches; "
                   f"++_b) {{")
        out.append(f"{pad}  const int64_t _begin = "
                   f"(int64_t)batch_begin[_b];")
        out.append(f"{pad}  const int64_t _length = "
                   f"(int64_t)batch_length[_b];")
        first = team.barriers
        for n in level_nests:
            self._emit_team_nest(n, out, indent + 1)
        self._emit_segment(out, indent + 1, "end of the level")
        team.barriers_per_level = team.barriers - first
        out.append(f"{pad}}}")

    def _emit_team_nest(self, nest: OpNest, out: List[str],
                        indent: int) -> None:
        """Add ``nest`` to the open segment, split along its output
        columns or not; end the segment first when its accesses need a
        barrier."""
        team = self._team
        axis = self._split_axis(nest)
        key = None if axis is None else int(axis.extent.value)
        accesses: List[_Access] = [(nest.out.name, key, True, False)]
        for e in nest.exprs():
            for x in walk(e):
                if isinstance(x, TensorRead) and x.buffer.name in self._written:
                    last = x.indices[-1]
                    own = (axis is not None and isinstance(last, Var)
                           and last.name == axis.var.name)
                    accesses.append((x.buffer.name, key if own else None,
                                     False, is_child_access(x.indices[0])))
        if team.conflicts(accesses):
            self._emit_segment(out, indent,
                               f"{nest.name} meets other tickets' columns")
        team.record(nest, key, accesses)
        if key is not None:
            self._team_columns = max(self._team_columns, key)

    def _emit_segment(self, out: List[str], indent: int, why: str) -> None:
        """The open segment: a loop taking its tickets until none is left
        (``repro_team_claim`` in :data:`_C_TEAM`), then the barrier — the
        wait for the tickets other members took."""
        team = self._team
        panel = panel_width(self.lanes)
        runs = team.tickets(panel)
        if not runs:
            return
        total = sum(count for count, _, _ in runs)
        if total > 0xFFFF:
            raise CodegenError(
                f"native codegen: a fused-kernel segment of {total} tickets "
                f"(at most 65535)")
        pad = "  " * indent
        out.append(f"{pad}for (int64_t _k; (_k = repro_team_claim(_m, "
                   f"{total})) >= 0;) {{")
        inner, first = indent + 1, 0
        for i, (count, n_cols, nests) in enumerate(runs):
            if len(runs) > 1:
                inner = indent + 2
                out.append(f"{pad}  " + (
                    f"if (_k < {count}) {{" if i == 0 else
                    f"}} else if (_k < {first + count}) {{"
                    if i < len(runs) - 1 else "} else {"))
            cols = None
            if n_cols is not None:
                k = "_k" if not first else f"(_k - {first})"
                end = (f"_j0 + {panel}" if n_cols % panel == 0
                       else f"repro_imin(_j0 + {panel}, {n_cols})")
                out.append(f"{'  ' * inner}const int64_t _j0 = {k} * {panel}"
                           f", _j1 = {end};")
                cols = ("_j0", "_j1")
            for nest in nests:
                self._emit_nest(nest, out, inner, "_begin", "_length", cols)
            first += count
        if len(runs) > 1:
            out.append(f"{pad}  }}")
        out.append(f"{pad}}}")
        out.append(f"{pad}if (repro_team_sync(_m, {total})) return;  // {why}")
        team.close()

    def _split_axis(self, nest: OpNest) -> Optional[AxisSpec]:
        """The output-column axis a team splits ``nest`` along — a
        contraction's ``j`` or a lane loop's axis — or ``None``."""
        contraction = self._match_contraction(nest)
        if contraction is not None:
            return contraction.col
        try:
            return self._lane_axis(nest)
        except _NotVectorizable:
            return None

    # -- nests ---------------------------------------------------------------
    def _emit_nest(self, nest: OpNest, out: List[str], indent: int,
                   begin_src: Optional[str], length_src: Optional[str],
                   cols: Optional[Tuple[str, str]] = None) -> None:
        """``cols``: the ``(j0, j1)`` output columns of a team ticket (see
        :meth:`_split_axis`); ``None``, all of them."""
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
                                   begin_src, length_src, cols)
            return
        out.append(f"{'  ' * indent}// {nest.name} [{nest.tag}]")
        mark = self._tmp
        try:
            lines: List[str] = []
            self._emit_loops(nest, lines, indent, begin_src, length_src,
                             self._lane_axis(nest), cols)
        except _NotVectorizable:
            self._tmp, lines = mark, []
            self._emit_loops(nest, lines, indent, begin_src, length_src, None,
                             cols)
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
                    lane: Optional[AxisSpec],
                    cols: Optional[Tuple[str, str]] = None) -> None:
        """The nest's loops, guard and store; ``lane``, its innermost
        axis, runs as vector lanes instead of a loop.  ``cols`` bounds
        the innermost axis to a team ticket's columns."""
        env: Dict[str, str] = {}
        tx = _CTx(self, env)
        depth = 0
        for ax in nest.axes:
            if ax is lane:
                continue
            p = "  " * (indent + depth)
            v = ax.var.name
            if cols is not None and ax is nest.axes[-1]:
                out.append(f"{p}for (int64_t {v} = {cols[0]}; {v} < {cols[1]}; "
                           f"++{v}) {{")
                env[v] = v
                depth += 1
            elif ax.kind == "node":
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
            self._emit_lanes(nest, lane, tx, out, p, cols)
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
                    out: List[str], pad: str,
                    cols: Optional[Tuple[str, str]] = None) -> None:
        """``lane``'s extent (``cols``: a team ticket's panel of it, so
        whole vectors), ``self.lanes`` iterations per step, then the tail
        as one partial vector (same operations, fewer live lanes), which
        only the ticket that ends the axis runs."""
        v, extent = lane.var.name, int(lane.extent.value)
        full = extent - extent % self.lanes
        lo, stop, tail = "0", f"{v} < {full}", "{"
        if cols is not None:
            lo, stop = cols[0], f"{v} < {_clip(cols[1], full, extent)}"
            tail = f"if ({cols[1]} > {full}) {{"
        if full:
            out.append(f"{pad}for (int64_t {v} = {lo}; {stop}; "
                       f"{v} += {self.lanes}) {{")
            self._emit_lane_step(nest, _VTx(tx.child({v: v}), v, None), out,
                                 pad + "  ")
            out.append(f"{pad}}}")
        elif cols is not None:
            out.append(f"{pad}(void){lo};  // one partial vector: {lo} == 0")
        if extent > full:
            out.append(f"{pad}{tail}")
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
                          length_src: Optional[str],
                          cols: Optional[Tuple[str, str]] = None) -> None:
        """Rows ``_TILE_ROWS`` at a time through the shape's microkernel,
        over the columns ``cols`` (default: all of them).

        A gathered row index of ``-1`` — the slot past a node's arity —
        reads the last row, as NumPy does: whatever it contracts to is
        masked by every reader downstream, and that row is the first
        batch's, never one a level writes while another member reads it
        (see :data:`_Access`).
        """
        pad = "  " * indent
        j0, j1 = cols or ("0", str(m.n_cols))
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
                       f"{', '.join(xs + os_)}, {j0}, {j1});")
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
        ``(P, x0.., o0.., j0, j1)`` contracts rows ``x*`` with the panels
        ``P`` into columns ``[j0, j1)`` of output rows ``o*`` — whole
        panels, the last ticket's running through the end."""
        name = f"repro_mk{m.n_red}x{m.n_cols}r{nrows}_{self.variant}"
        if name not in self._microkernels:
            xs = [f"x{s}" for s in range(nrows)]
            os_ = [f"o{s}" for s in range(nrows)]
            params = (["const float* P"] + [f"const float* {x}" for x in xs]
                      + [f"float* {o}" for o in os_]
                      + ["int64_t j0", "int64_t j1"])
            lines = [f"static __attribute__((noinline)) {self.target}void "
                     f"{name}(", f"    {', '.join(params)}) {{"]
            self._emit_tiles(m, xs, os_, lines, "  ")
            self._microkernels[name] = "\n".join(lines + ["}", ""])
        return name

    def _emit_tiles(self, m: _Contraction, xs: Sequence[str],
                    os_: Sequence[str], out: List[str], pad: str) -> None:
        """Cover the output columns ``[j0, j1)`` of ``len(xs)`` rows: the
        full panels among them, then — when the range runs to the end —
        the vectors of the partial panel and its scalar columns.

        ``P`` holds ``n_cols // panel`` blocks of ``[n_red][panel]``, then
        the remaining columns as one ``[n_red][tail]`` block
        (:func:`repro.runtime.kernels.panel_packed`), so a tile's reduce
        loop streams its block front to back.
        """
        panel = panel_width(self.lanes)
        done = m.n_cols - m.n_cols % panel
        tail = m.n_cols - done
        if done:
            out.append(f"{pad}for (int64_t _j = j0; "
                       f"_j < {_clip('j1', done, m.n_cols)}; _j += {panel}) {{")
            self._emit_tile(m, f"P + _j * {m.n_red}", panel, xs, os_, "_j",
                            _TILE_VECS, out, pad + "  ")
            out.append(f"{pad}}}")
        else:
            out.append(f"{pad}(void)j0;  // one partial panel: j0 == 0")
        if not tail:
            return
        out.append(f"{pad}if (j1 > {done}) {{")
        outer, pad = pad, pad + "  "
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
        out.append(f"{outer}}}")

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
        :func:`parity_classification`).  Gathered indices of ``-1`` read
        the last row as in :meth:`_emit_contraction`: nothing guards these
        reads.
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


_C_HOST_ENTRY = '''\
/* ---- the host program, the same for every module: one call runs one
 * execute from the tables the host plan packs (c_codegen.pack_tables).
 * `argv` is the call's int64 vector: the head (repro.ilir.host
 * .ENTRY_HEAD), then per scratch buffer an address in place of its slab
 * slice (0: none), the dense parameters and the packed panels.  A launch's
 * slots index the address vector p: the scratch buffers, the linearizer
 * arrays, then those given arrays; the plan checked that each lies in it.
 * A dry run writes each launch's pointers and S vector instead of
 * launching.  No Python object is touched: the caller drops the GIL.
 * Compiled unoptimised, like the team. */
#include <string.h>
#include <time.h>
#if defined(__clang__)
#pragma clang optimize off
#elif defined(__GNUC__)
#pragma GCC push_options
#pragma GCC optimize ("O0")
#endif

/* what a launch calls: the wrapper of a kernel's variant */
typedef void (*repro_wrapper)(char* const* p, const int64_t* slots,
                              const int64_t* S, int64_t begin,
                              int64_t length, int64_t team);

/* the head of argv; the phases; the tables' opening int64s (the counts,
 * the scalar template and the block terms of batch_begin and
 * batch_length), after which come the slab and block terms, then the
 * launches */
enum { @HEAD@, REPRO_HEAD };
enum { @PHASES@ };
enum { REPRO_T_SCRATCH, REPRO_T_BLOCK, REPRO_T_GIVEN, REPRO_T_LAUNCHES,
       REPRO_T_MAX_CHILDREN, REPRO_T_SPECIALIZE, REPRO_T_BEGIN,
       REPRO_T_LENGTH = REPRO_T_BEGIN + 3,
       REPRO_T_TERMS = REPRO_T_LENGTH + 3 };

static int64_t repro_host_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* bytes into the block of the linearizer array at term (a, b, r) */
static int64_t repro_block_at(const int64_t* term, int64_t mc, int64_t n,
                              int64_t levels) {
  return 4 * ((term[0] + term[1] * mc) * n + term[2] * levels);
}

/* run launch i over a batch window, timed when profiling */
#define REPRO_LAUNCH(i, begin_, length_, team_) do { \\
    const int64_t t0_ = times ? repro_host_ns() : 0; \\
    fn[i](p, L[i].slots, L[i].S, begin_, length_, team_); \\
    if (times) { \\
      times[2 * (i)] += repro_host_ns() - t0_; \\
      times[2 * (i) + 1]++; \\
    } \\
  } while (0)

void repro_execute(const char* argv) {
  int64_t head[REPRO_HEAD];
  memcpy(head, argv, sizeof head);
  const int64_t* const tab = (const int64_t*)(intptr_t)head[REPRO_A_TABLES];
  const int64_t ns = tab[REPRO_T_SCRATCH], nb = tab[REPRO_T_BLOCK];
  const int64_t ng = tab[REPRO_T_GIVEN], nl = tab[REPRO_T_LAUNCHES];
  int64_t a[REPRO_HEAD + ns + ng];
  memcpy(a, argv, sizeof a);
  const repro_wrapper* const fn =
      (const repro_wrapper*)(intptr_t)a[REPRO_A_LAUNCHES];
  int64_t* const times = (int64_t*)(intptr_t)a[REPRO_A_TIMES];
  int64_t* dry = (int64_t*)(intptr_t)a[REPRO_A_DRY];
  char* const block = (char*)(intptr_t)a[REPRO_A_BLOCK];
  char* const slab = (char*)(intptr_t)a[REPRO_A_SLAB];
  const int64_t n = a[REPRO_A_NUM_NODES], levels = a[REPRO_A_NUM_BATCHES];
  const int64_t mbl = a[REPRO_A_MAX_BATCH_LEN], mc = a[REPRO_A_MAX_CHILDREN];
  /* the scalar template: max_children's override, if any; unspecialized,
   * no batch runs as leaves */
  const int64_t mct = tab[REPRO_T_MAX_CHILDREN] >= 0
      ? tab[REPRO_T_MAX_CHILDREN] : mc;
  const int64_t lbc = tab[REPRO_T_SPECIALIZE]
      ? a[REPRO_A_LEAF_BATCH_COUNT] : 0;
  /* the S scalars, in NATIVE_SCALARS order */
  const int64_t s[] = {
      @SCALARS@};
  const int32_t* const begin = (const int32_t*)(
      block + repro_block_at(tab + REPRO_T_BEGIN, mc, n, levels));
  const int32_t* const length = (const int32_t*)(
      block + repro_block_at(tab + REPRO_T_LENGTH, mc, n, levels));
  /* the address vector */
  const int64_t* t = tab + REPRO_T_TERMS;
  char* p[ns + nb + ng];
  for (int64_t i = 0; i < ns; ++i, t += 3)
    p[i] = a[REPRO_HEAD + i] ? (char*)(intptr_t)a[REPRO_HEAD + i]
           : slab + ((t[0] + t[1] * n + t[2] * mbl) & -@ALIGN@);
  for (int64_t i = ns; i < ns + nb; ++i, t += 3)
    p[i] = block + repro_block_at(t, mc, n, levels);
  for (int64_t i = 0; i < ng; ++i)
    p[ns + nb + i] = (char*)(intptr_t)a[REPRO_HEAD + ns + i];
  /* per launch: its phase, its slots (after their count) and its S */
  struct { int64_t phase; const int64_t* slots; int64_t S[@NS@]; } L[nl];
  for (int64_t i = 0; i < nl; ++i) {
    L[i].phase = t[0];
    L[i].slots = t + 2;
    t += 2 + t[1];
    for (int64_t j = 0; j < t[0]; ++j) L[i].S[j] = s[t[1 + j]];
    if (dry) {
      for (int64_t j = 0; j < L[i].slots[-1]; ++j)
        *dry++ = (int64_t)(intptr_t)p[L[i].slots[j]];
      for (int64_t j = 0; j < t[0]; ++j) *dry++ = L[i].S[j];
    }
    t += 1 + t[0];
  }
  if (dry) return;
  /* the host schedule, launches in phase order: a leaf launch per leaf
   * batch, each batch from level_start through every level launch, the
   * others once */
  for (int64_t i = 0; i < nl; ++i) {
    if (L[i].phase == REPRO_LEAF) {
      for (int64_t b = 0; b < lbc; ++b)
        REPRO_LAUNCH(i, begin[b], length[b], 1);
    } else if (L[i].phase == REPRO_LEVEL) {
      int64_t last = i;
      while (last + 1 < nl && L[last + 1].phase == REPRO_LEVEL) ++last;
      for (int64_t b = lbc; b < levels; ++b)
        for (int64_t k = i; k <= last; ++k)
          REPRO_LAUNCH(k, begin[b], length[b], 1);
      i = last;
    } else {
      REPRO_LAUNCH(i, 0, 0, L[i].phase == REPRO_FUSED ? a[REPRO_A_TEAM] : 1);
    }
  }
}

#if defined(__clang__)
#pragma clang optimize on
#elif defined(__GNUC__)
#pragma GCC pop_options
#endif
'''

# the S scalars the entry does not read from argv as is are its locals
_C_HOST_ENTRY = (
    _C_HOST_ENTRY
    .replace("@HEAD@", ", ".join(f"REPRO_A_{x.upper()}" for x in ENTRY_HEAD))
    .replace("@PHASES@", ", ".join(f"REPRO_{x.upper()}" for x in PHASES))
    .replace("@SCALARS@", ", ".join(
        {"num_nodes": "n", "num_batches": "levels", "max_batch_len": "mbl",
         "leaf_batch_count": "lbc", "level_start": "lbc",
         "max_children": "mct"}.get(x) or f"a[REPRO_A_{x.upper()}]"
        for x in NATIVE_SCALARS))
    .replace("@NS@", str(len(NATIVE_SCALARS)))
    .replace("@ALIGN@", str(ALIGN)))


def pack_tables(tables: HostTables, launches) -> Optional[np.ndarray]:
    """``tables`` as the int64 array ``repro_execute`` runs with the
    launchers ``launches`` (``(kernel name, launcher)`` in launch order):
    the numbers of scratch buffers, linearizer arrays, given arrays and
    launches; the ``max_children`` override or -1, and ``specialize``; the
    block terms of ``batch_begin`` and ``batch_length``, each scratch
    buffer's slab term and each linearizer array's block term; then per
    launch its phase, slots and ``S`` indices (in ``NATIVE_SCALARS``), each
    list after its length.  None unless each launch has one slot per
    pointer of its launcher, every one inside the address vector."""
    out = [len(tables.scratch), len(tables.block),
           len(tables.dense) + len(tables.panels), len(tables.launches),
           -1 if tables.max_children is None else tables.max_children,
           int(tables.specialize),
           *uf_term("batch_begin")[:3], *uf_term("batch_length")[:3]]
    size = sum(out[:3])
    for term in tables.terms[:-1] + tuple(t for _, t, _ in tables.block):
        out += term
    for (phase, _, slots), (_, fn) in zip(tables.launches, launches):
        if (len(slots) != len(fn.abi_arrays) + len(fn.abi_packed)
                or not all(0 <= k < size for k in slots)):
            return None
        scalars = [NATIVE_SCALARS.index(x) for x in fn.signature.scalars]
        out += [PHASES.index(phase), len(slots), *slots, len(scalars),
                *scalars]
    return np.array(out, np.int64)


def generate_c_module(
        module: ILModule) -> Tuple[str, Dict[str, KernelSignature]]:
    """Emit the executable C source and per-kernel launch signatures,
    a deterministic function of the module (a reloaded artifact renders
    the bytes its compile rendered)."""
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
