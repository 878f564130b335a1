// ===== module treelstm =====
// Generated by repro.ilir.codegen.c_codegen — do not edit.
// buffer rnn_h_ph: num_nodesx8 float32 @global
// buffer rnn_c_ph: num_nodesx8 float32 @global
// buffer Emb: 50x8 float32 @param
// buffer Ui: 8x8 float32 @register
// buffer Uo: 8x8 float32 @register
// buffer Uu: 8x8 float32 @register
// buffer Uf: 8x8 float32 @register
// buffer bi: 8 float32 @register
// buffer bo: 8 float32 @register
// buffer bu: 8 float32 @register
// buffer bf: 8 float32 @register
// buffer h_tilde: max_batch_lenx8 float32 @shared
// buffer mi: max_batch_lenx8 float32 @shared
// buffer mo: max_batch_lenx8 float32 @shared
// buffer mu: max_batch_lenx8 float32 @shared
// buffer gi: max_batch_lenx8 float32 @shared
// buffer go: max_batch_lenx8 float32 @shared
// buffer gu: max_batch_lenx8 float32 @shared
// buffer mf: max_batch_lenx2x8 float32 @shared
// buffer gf: max_batch_lenx2x8 float32 @shared
// buffer fc_sum: max_batch_lenx8 float32 @shared
// parts: runtime, base, avx2, avx512f; each builds on its own under -DREPRO_PART=<k>
#define REPRO_PARTS 4

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

/* ---- 4-lane float32 vectors (16 bytes; GCC/Clang vector extension).
 * One output element per lane, so a lane sees exactly the scalar loop's
 * operation sequence. */
typedef float repro_vf4 __attribute__((vector_size(16)));
typedef int32_t repro_vi4 __attribute__((vector_size(16)));
#define REPRO_V4 static inline __attribute__((always_inline))
#define REPRO_VMATH4 static __attribute__((noinline, unused))
REPRO_V4 repro_vf4 repro_vload4(const float* p) {
  repro_vf4 v; __builtin_memcpy(&v, p, sizeof v); return v;
}
REPRO_V4 void repro_vstore4(float* p, repro_vf4 v) {
  __builtin_memcpy(p, &v, sizeof v);
}
/* the first n lanes only (an extent's tail): no byte past them is touched */
REPRO_V4 repro_vf4 repro_vloadn4(const float* p, int n) {
  repro_vf4 v = {0.0f}; __builtin_memcpy(&v, p, n * sizeof(float)); return v;
}
REPRO_V4 void repro_vstoren4(float* p, repro_vf4 v, int n) {
  __builtin_memcpy(p, &v, n * sizeof(float));
}
/* a shuffle, not a {x, x, ..} literal: GCC lowers the literal to one
 * insert per lane inside target("avx2") functions */
REPRO_V4 repro_vf4 repro_vsplat4(float x) {
  repro_vf4 v = {x};
#if defined(__clang__)
  return __builtin_shufflevector(v, v, 0, 0, 0, 0);
#else
  return __builtin_shuffle(v, (repro_vi4){0});
#endif
}
REPRO_V4 repro_vf4 repro_vselect4(repro_vi4 m, repro_vf4 a,
                                      repro_vf4 b) {
  return (repro_vf4)(((repro_vi4)a & m) | ((repro_vi4)b & ~m));
}
REPRO_V4 repro_vf4 repro_vreluf4(repro_vf4 x) {
  return (repro_vf4)((repro_vi4)x & (x > repro_vsplat4(0.0f)));
}
/* exp: clamp to the float range, n = round(x / ln 2) by the 1.5 * 2^23
 * trick, two-constant ln 2 reduction, Cephes' degree-5 polynomial, then
 * 2^n through the exponent bits in two halves so that results down to
 * the smallest subnormal and up to FLT_MAX come out rounded once. */
REPRO_VMATH4 repro_vf4 repro_vexpf4(repro_vf4 x) {
  const repro_vf4 magic = repro_vsplat4(12582912.0f);
  const repro_vf4 hi = repro_vsplat4(89.0f), lo = repro_vsplat4(-104.0f);
  x = repro_vselect4(x > hi, hi, x);
  x = repro_vselect4(x < lo, lo, x);
  repro_vf4 t = x * repro_vsplat4(1.44269504088896341f) + magic;
  repro_vf4 n = t - magic;
  repro_vi4 ni = (repro_vi4)t - (repro_vi4)magic;
  repro_vf4 r = x - n * repro_vsplat4(0.693359375f);
  r = r - n * repro_vsplat4(-2.12194440e-4f);
  repro_vf4 p = repro_vsplat4(1.9875691500e-4f);
  p = p * r + repro_vsplat4(1.3981999507e-3f);
  p = p * r + repro_vsplat4(8.3334519073e-3f);
  p = p * r + repro_vsplat4(4.1665795894e-2f);
  p = p * r + repro_vsplat4(1.6666665459e-1f);
  p = p * r + repro_vsplat4(5.0000001201e-1f);
  p = p * (r * r) + r;
  p = p + repro_vsplat4(1.0f);
  repro_vi4 h = ni >> 1;
  return p * (repro_vf4)((h + 127) << 23)
           * (repro_vf4)((ni - h + 127) << 23);
}
/* the stable logistic: z = exp(-|x|), then 1 / (1 + z) or z / (1 + z) */
REPRO_VMATH4 repro_vf4 repro_vsigmoidf4(repro_vf4 x) {
  repro_vi4 sign = (repro_vi4)x & (repro_vi4)repro_vsplat4(-0.0f);
  repro_vf4 z = repro_vexpf4(-(repro_vf4)((repro_vi4)x ^ sign));
  return repro_vselect4(x >= repro_vsplat4(0.0f), repro_vsplat4(1.0f), z)
         / (repro_vsplat4(1.0f) + z);
}
/* tanh on |x|, sign re-attached: Cephes' odd polynomial below 0.625,
 * 1 - 2 / (exp(2|x|) + 1) from there on */
REPRO_VMATH4 repro_vf4 repro_vtanhf4(repro_vf4 x) {
  repro_vi4 sign = (repro_vi4)x & (repro_vi4)repro_vsplat4(-0.0f);
  repro_vf4 a = (repro_vf4)((repro_vi4)x ^ sign);
  repro_vf4 z = a * a;
  repro_vf4 p = repro_vsplat4(-5.70498872745e-3f);
  p = p * z + repro_vsplat4(2.06390887954e-2f);
  p = p * z + repro_vsplat4(-5.37397155531e-2f);
  p = p * z + repro_vsplat4(1.33314422036e-1f);
  p = p * z + repro_vsplat4(-3.33332819422e-1f);
  p = p * z * a + a;
  repro_vf4 q = repro_vsplat4(1.0f) - repro_vsplat4(2.0f)
      / (repro_vexpf4(a + a) + repro_vsplat4(1.0f));
  return (repro_vf4)((repro_vi4)repro_vselect4(
      a < repro_vsplat4(0.625f), p, q) | sign);
}

static inline float repro_expf(float x) {
  return repro_vexpf4(repro_vsplat4(x))[0];
}
static inline float repro_sigmoidf(float x) {
  return repro_vsigmoidf4(repro_vsplat4(x))[0];
}
static inline float repro_tanhf(float x) {
  return repro_vtanhf4(repro_vsplat4(x))[0];
}

#if defined(__x86_64__) && defined(__GNUC__)
#define REPRO_X86 1
#endif
#if defined(REPRO_X86) && REPRO_HOLDS(2)
#define REPRO_AVX2 1
#endif
#if defined(REPRO_X86) && REPRO_HOLDS(3)
#define REPRO_AVX512F 1
#endif

#if REPRO_IN(2) && defined(REPRO_AVX2)
/* ---- 8-lane float32 vectors (32 bytes; GCC/Clang vector extension).
 * One output element per lane, so a lane sees exactly the scalar loop's
 * operation sequence. */
typedef float repro_vf8 __attribute__((vector_size(32)));
typedef int32_t repro_vi8 __attribute__((vector_size(32)));
#define REPRO_V8 __attribute__((target("avx2"))) static inline __attribute__((always_inline))
#define REPRO_VMATH8 __attribute__((target("avx2"))) static __attribute__((noinline, unused))
REPRO_V8 repro_vf8 repro_vload8(const float* p) {
  repro_vf8 v; __builtin_memcpy(&v, p, sizeof v); return v;
}
REPRO_V8 void repro_vstore8(float* p, repro_vf8 v) {
  __builtin_memcpy(p, &v, sizeof v);
}
/* the first n lanes only (an extent's tail): no byte past them is touched */
REPRO_V8 repro_vf8 repro_vloadn8(const float* p, int n) {
  repro_vf8 v = {0.0f}; __builtin_memcpy(&v, p, n * sizeof(float)); return v;
}
REPRO_V8 void repro_vstoren8(float* p, repro_vf8 v, int n) {
  __builtin_memcpy(p, &v, n * sizeof(float));
}
/* a shuffle, not a {x, x, ..} literal: GCC lowers the literal to one
 * insert per lane inside target("avx2") functions */
REPRO_V8 repro_vf8 repro_vsplat8(float x) {
  repro_vf8 v = {x};
#if defined(__clang__)
  return __builtin_shufflevector(v, v, 0, 0, 0, 0, 0, 0, 0, 0);
#else
  return __builtin_shuffle(v, (repro_vi8){0});
#endif
}
REPRO_V8 repro_vf8 repro_vselect8(repro_vi8 m, repro_vf8 a,
                                      repro_vf8 b) {
  return (repro_vf8)(((repro_vi8)a & m) | ((repro_vi8)b & ~m));
}
REPRO_V8 repro_vf8 repro_vreluf8(repro_vf8 x) {
  return (repro_vf8)((repro_vi8)x & (x > repro_vsplat8(0.0f)));
}
/* exp: clamp to the float range, n = round(x / ln 2) by the 1.5 * 2^23
 * trick, two-constant ln 2 reduction, Cephes' degree-5 polynomial, then
 * 2^n through the exponent bits in two halves so that results down to
 * the smallest subnormal and up to FLT_MAX come out rounded once. */
REPRO_VMATH8 repro_vf8 repro_vexpf8(repro_vf8 x) {
  const repro_vf8 magic = repro_vsplat8(12582912.0f);
  const repro_vf8 hi = repro_vsplat8(89.0f), lo = repro_vsplat8(-104.0f);
  x = repro_vselect8(x > hi, hi, x);
  x = repro_vselect8(x < lo, lo, x);
  repro_vf8 t = x * repro_vsplat8(1.44269504088896341f) + magic;
  repro_vf8 n = t - magic;
  repro_vi8 ni = (repro_vi8)t - (repro_vi8)magic;
  repro_vf8 r = x - n * repro_vsplat8(0.693359375f);
  r = r - n * repro_vsplat8(-2.12194440e-4f);
  repro_vf8 p = repro_vsplat8(1.9875691500e-4f);
  p = p * r + repro_vsplat8(1.3981999507e-3f);
  p = p * r + repro_vsplat8(8.3334519073e-3f);
  p = p * r + repro_vsplat8(4.1665795894e-2f);
  p = p * r + repro_vsplat8(1.6666665459e-1f);
  p = p * r + repro_vsplat8(5.0000001201e-1f);
  p = p * (r * r) + r;
  p = p + repro_vsplat8(1.0f);
  repro_vi8 h = ni >> 1;
  return p * (repro_vf8)((h + 127) << 23)
           * (repro_vf8)((ni - h + 127) << 23);
}
/* the stable logistic: z = exp(-|x|), then 1 / (1 + z) or z / (1 + z) */
REPRO_VMATH8 repro_vf8 repro_vsigmoidf8(repro_vf8 x) {
  repro_vi8 sign = (repro_vi8)x & (repro_vi8)repro_vsplat8(-0.0f);
  repro_vf8 z = repro_vexpf8(-(repro_vf8)((repro_vi8)x ^ sign));
  return repro_vselect8(x >= repro_vsplat8(0.0f), repro_vsplat8(1.0f), z)
         / (repro_vsplat8(1.0f) + z);
}
/* tanh on |x|, sign re-attached: Cephes' odd polynomial below 0.625,
 * 1 - 2 / (exp(2|x|) + 1) from there on */
REPRO_VMATH8 repro_vf8 repro_vtanhf8(repro_vf8 x) {
  repro_vi8 sign = (repro_vi8)x & (repro_vi8)repro_vsplat8(-0.0f);
  repro_vf8 a = (repro_vf8)((repro_vi8)x ^ sign);
  repro_vf8 z = a * a;
  repro_vf8 p = repro_vsplat8(-5.70498872745e-3f);
  p = p * z + repro_vsplat8(2.06390887954e-2f);
  p = p * z + repro_vsplat8(-5.37397155531e-2f);
  p = p * z + repro_vsplat8(1.33314422036e-1f);
  p = p * z + repro_vsplat8(-3.33332819422e-1f);
  p = p * z * a + a;
  repro_vf8 q = repro_vsplat8(1.0f) - repro_vsplat8(2.0f)
      / (repro_vexpf8(a + a) + repro_vsplat8(1.0f));
  return (repro_vf8)((repro_vi8)repro_vselect8(
      a < repro_vsplat8(0.625f), p, q) | sign);
}

#endif
#if REPRO_IN(3) && defined(REPRO_AVX512F)
/* ---- 16-lane float32 vectors (64 bytes; GCC/Clang vector extension).
 * One output element per lane, so a lane sees exactly the scalar loop's
 * operation sequence. */
typedef float repro_vf16 __attribute__((vector_size(64)));
typedef int32_t repro_vi16 __attribute__((vector_size(64)));
#define REPRO_V16 __attribute__((target("avx512f"))) static inline __attribute__((always_inline))
#define REPRO_VMATH16 __attribute__((target("avx512f"))) static __attribute__((noinline, unused))
REPRO_V16 repro_vf16 repro_vload16(const float* p) {
  repro_vf16 v; __builtin_memcpy(&v, p, sizeof v); return v;
}
REPRO_V16 void repro_vstore16(float* p, repro_vf16 v) {
  __builtin_memcpy(p, &v, sizeof v);
}
/* the first n lanes only (an extent's tail): no byte past them is touched */
REPRO_V16 repro_vf16 repro_vloadn16(const float* p, int n) {
  repro_vf16 v = {0.0f}; __builtin_memcpy(&v, p, n * sizeof(float)); return v;
}
REPRO_V16 void repro_vstoren16(float* p, repro_vf16 v, int n) {
  __builtin_memcpy(p, &v, n * sizeof(float));
}
/* a shuffle, not a {x, x, ..} literal: GCC lowers the literal to one
 * insert per lane inside target("avx2") functions */
REPRO_V16 repro_vf16 repro_vsplat16(float x) {
  repro_vf16 v = {x};
#if defined(__clang__)
  return __builtin_shufflevector(v, v, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
#else
  return __builtin_shuffle(v, (repro_vi16){0});
#endif
}
REPRO_V16 repro_vf16 repro_vselect16(repro_vi16 m, repro_vf16 a,
                                      repro_vf16 b) {
  return (repro_vf16)(((repro_vi16)a & m) | ((repro_vi16)b & ~m));
}
REPRO_V16 repro_vf16 repro_vreluf16(repro_vf16 x) {
  return (repro_vf16)((repro_vi16)x & (x > repro_vsplat16(0.0f)));
}
/* exp: clamp to the float range, n = round(x / ln 2) by the 1.5 * 2^23
 * trick, two-constant ln 2 reduction, Cephes' degree-5 polynomial, then
 * 2^n through the exponent bits in two halves so that results down to
 * the smallest subnormal and up to FLT_MAX come out rounded once. */
REPRO_VMATH16 repro_vf16 repro_vexpf16(repro_vf16 x) {
  const repro_vf16 magic = repro_vsplat16(12582912.0f);
  const repro_vf16 hi = repro_vsplat16(89.0f), lo = repro_vsplat16(-104.0f);
  x = repro_vselect16(x > hi, hi, x);
  x = repro_vselect16(x < lo, lo, x);
  repro_vf16 t = x * repro_vsplat16(1.44269504088896341f) + magic;
  repro_vf16 n = t - magic;
  repro_vi16 ni = (repro_vi16)t - (repro_vi16)magic;
  repro_vf16 r = x - n * repro_vsplat16(0.693359375f);
  r = r - n * repro_vsplat16(-2.12194440e-4f);
  repro_vf16 p = repro_vsplat16(1.9875691500e-4f);
  p = p * r + repro_vsplat16(1.3981999507e-3f);
  p = p * r + repro_vsplat16(8.3334519073e-3f);
  p = p * r + repro_vsplat16(4.1665795894e-2f);
  p = p * r + repro_vsplat16(1.6666665459e-1f);
  p = p * r + repro_vsplat16(5.0000001201e-1f);
  p = p * (r * r) + r;
  p = p + repro_vsplat16(1.0f);
  repro_vi16 h = ni >> 1;
  return p * (repro_vf16)((h + 127) << 23)
           * (repro_vf16)((ni - h + 127) << 23);
}
/* the stable logistic: z = exp(-|x|), then 1 / (1 + z) or z / (1 + z) */
REPRO_VMATH16 repro_vf16 repro_vsigmoidf16(repro_vf16 x) {
  repro_vi16 sign = (repro_vi16)x & (repro_vi16)repro_vsplat16(-0.0f);
  repro_vf16 z = repro_vexpf16(-(repro_vf16)((repro_vi16)x ^ sign));
  return repro_vselect16(x >= repro_vsplat16(0.0f), repro_vsplat16(1.0f), z)
         / (repro_vsplat16(1.0f) + z);
}
/* tanh on |x|, sign re-attached: Cephes' odd polynomial below 0.625,
 * 1 - 2 / (exp(2|x|) + 1) from there on */
REPRO_VMATH16 repro_vf16 repro_vtanhf16(repro_vf16 x) {
  repro_vi16 sign = (repro_vi16)x & (repro_vi16)repro_vsplat16(-0.0f);
  repro_vf16 a = (repro_vf16)((repro_vi16)x ^ sign);
  repro_vf16 z = a * a;
  repro_vf16 p = repro_vsplat16(-5.70498872745e-3f);
  p = p * z + repro_vsplat16(2.06390887954e-2f);
  p = p * z + repro_vsplat16(-5.37397155531e-2f);
  p = p * z + repro_vsplat16(1.33314422036e-1f);
  p = p * z + repro_vsplat16(-3.33332819422e-1f);
  p = p * z * a + a;
  repro_vf16 q = repro_vsplat16(1.0f) - repro_vsplat16(2.0f)
      / (repro_vexpf16(a + a) + repro_vsplat16(1.0f));
  return (repro_vf16)((repro_vi16)repro_vselect16(
      a < repro_vsplat16(0.625f), p, q) | sign);
}

#endif

/* ======== part 0: runtime ======== */
#if REPRO_IN(0)
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

/* the part of the variant the launchers run: the
 * widest one this build holds that the CPU runs, picked at load */
static int repro_pick = 1;
__attribute__((constructor)) static void repro_pick_variant(void) {
#ifdef REPRO_X86
  __builtin_cpu_init();
#endif
#ifdef REPRO_AVX512F
  if (__builtin_cpu_supports("avx512f")) { repro_pick = 3; return; }
#endif
#ifdef REPRO_AVX2
  if (__builtin_cpu_supports("avx2")) { repro_pick = 2; return; }
#endif
}

/* float32 lanes of the variant the launchers run: the
 * launcher packs weight panels for that width */
int repro_lanes(void) {
  static const int lanes[] = {0, 4, 8, 16};
  return lanes[repro_pick];
}

/* the variants this build holds, as a mask of their parts */
int repro_held(void) {
  int held = 1 << 1;
#ifdef REPRO_AVX2
  held |= 1 << 2;
#endif
#ifdef REPRO_AVX512F
  held |= 1 << 3;
#endif
  return held;
}

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
enum { REPRO_A_LAUNCHES, REPRO_A_TEAM, REPRO_A_TABLES, REPRO_A_TIMES, REPRO_A_DRY, REPRO_A_BLOCK, REPRO_A_SLAB, REPRO_A_NUM_NODES, REPRO_A_NUM_LEAVES, REPRO_A_NUM_BATCHES, REPRO_A_LEAF_START, REPRO_A_MAX_BATCH_LEN, REPRO_A_LEAF_BATCH_COUNT, REPRO_A_MAX_CHILDREN, REPRO_HEAD };
enum { REPRO_PRE, REPRO_LEAF, REPRO_LEVEL, REPRO_FUSED, REPRO_POST };
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
#define REPRO_LAUNCH(i, begin_, length_, team_) do { \
    const int64_t t0_ = times ? repro_host_ns() : 0; \
    fn[i](p, L[i].slots, L[i].S, begin_, length_, team_); \
    if (times) { \
      times[2 * (i)] += repro_host_ns() - t0_; \
      times[2 * (i) + 1]++; \
    } \
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
      n, a[REPRO_A_NUM_LEAVES], levels, a[REPRO_A_LEAF_START], mbl, lbc, mct, lbc};
  const int32_t* const begin = (const int32_t*)(
      block + repro_block_at(tab + REPRO_T_BEGIN, mc, n, levels));
  const int32_t* const length = (const int32_t*)(
      block + repro_block_at(tab + REPRO_T_LENGTH, mc, n, levels));
  /* the address vector */
  const int64_t* t = tab + REPRO_T_TERMS;
  char* p[ns + nb + ng];
  for (int64_t i = 0; i < ns; ++i, t += 3)
    p[i] = a[REPRO_HEAD + i] ? (char*)(intptr_t)a[REPRO_HEAD + i]
           : slab + ((t[0] + t[1] * n + t[2] * mbl) & -64);
  for (int64_t i = ns; i < ns + nb; ++i, t += 3)
    p[i] = block + repro_block_at(t, mc, n, levels);
  for (int64_t i = 0; i < ng; ++i)
    p[ns + nb + i] = (char*)(intptr_t)a[REPRO_HEAD + ns + i];
  /* per launch: its phase, its slots (after their count) and its S */
  struct { int64_t phase; const int64_t* slots; int64_t S[8]; } L[nl];
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

#endif

/* ======== part 1: base ======== */
#if REPRO_IN(1)
static __attribute__((noinline)) void repro_mk8x8r2_base(
    const float* P, const float* x0, const float* x1, float* o0, float* o1, int64_t j0, int64_t j1) {
  (void)j0;  // one partial panel: j0 == 0
  if (j1 > 0) {
    {
      const float* _wp = P + 0;
      repro_vf4 _sx0 = repro_vsplat4(x0[0]);
      repro_vf4 _sx1 = repro_vsplat4(x1[0]);
      repro_vf4 _wv0 = repro_vload4(_wp + 0);
      repro_vf4 _wv1 = repro_vload4(_wp + 4);
      repro_vf4 _ac0_0 = _wv0 * _sx0;
      repro_vf4 _ac0_1 = _wv1 * _sx0;
      repro_vf4 _ac1_0 = _wv0 * _sx1;
      repro_vf4 _ac1_1 = _wv1 * _sx1;
      for (int64_t _kr = 1; _kr < 8; ++_kr) {
        _wp += 8;
        _sx0 = repro_vsplat4(x0[_kr]);
        _sx1 = repro_vsplat4(x1[_kr]);
        _wv0 = repro_vload4(_wp + 0);
        _wv1 = repro_vload4(_wp + 4);
        _ac0_0 = _ac0_0 + _wv0 * _sx0;
        _ac0_1 = _ac0_1 + _wv1 * _sx0;
        _ac1_0 = _ac1_0 + _wv0 * _sx1;
        _ac1_1 = _ac1_1 + _wv1 * _sx1;
      }
      repro_vstore4(o0 + 0 + 0, _ac0_0);
      repro_vstore4(o0 + 0 + 4, _ac0_1);
      repro_vstore4(o1 + 0 + 0, _ac1_0);
      repro_vstore4(o1 + 0 + 4, _ac1_1);
    }
  }
}

static __attribute__((noinline)) void repro_mk8x8r1_base(
    const float* P, const float* x0, float* o0, int64_t j0, int64_t j1) {
  (void)j0;  // one partial panel: j0 == 0
  if (j1 > 0) {
    {
      const float* _wp = P + 0;
      repro_vf4 _sx0 = repro_vsplat4(x0[0]);
      repro_vf4 _wv0 = repro_vload4(_wp + 0);
      repro_vf4 _wv1 = repro_vload4(_wp + 4);
      repro_vf4 _ac0_0 = _wv0 * _sx0;
      repro_vf4 _ac0_1 = _wv1 * _sx0;
      for (int64_t _kr = 1; _kr < 8; ++_kr) {
        _wp += 8;
        _sx0 = repro_vsplat4(x0[_kr]);
        _wv0 = repro_vload4(_wp + 0);
        _wv1 = repro_vload4(_wp + 4);
        _ac0_0 = _ac0_0 + _wv0 * _sx0;
        _ac0_1 = _ac0_1 + _wv1 * _sx0;
      }
      repro_vstore4(o0 + 0 + 0, _ac0_0);
      repro_vstore4(o0 + 0 + 4, _ac0_1);
    }
  }
}

// kernel fused (kind=fused), base variant
// persistent kernel: 2 global barrier(s) per level; every member of the launch's
// team runs this body, taking tickets (column panels) of each segment
static void k_fused_base_team(void* const* A, repro_member* _m) {
  float* rnn_h_ph = (float*)A[0];
  float* rnn_c_ph = (float*)A[1];
  const float* Emb = (const float*)A[2];
  const float* bi = (const float*)A[3];
  const float* bo = (const float*)A[4];
  const float* bu = (const float*)A[5];
  const float* bf = (const float*)A[6];
  float* h_tilde = (float*)A[7];
  float* mi = (float*)A[8];
  float* mo = (float*)A[9];
  float* mu = (float*)A[10];
  float* gi = (float*)A[11];
  float* go = (float*)A[12];
  float* gu = (float*)A[13];
  float* mf = (float*)A[14];
  float* gf = (float*)A[15];
  float* fc_sum = (float*)A[16];
  const int32_t* batch_begin = (const int32_t*)A[17];
  const int32_t* batch_length = (const int32_t*)A[18];
  const int32_t* child = (const int32_t*)A[19];
  const int32_t* num_children = (const int32_t*)A[20];
  const int32_t* words = (const int32_t*)A[21];
  const float* Ui_P = (const float*)A[22];
  const float* Uo_P = (const float*)A[23];
  const float* Uu_P = (const float*)A[24];
  const float* Uf_P = (const float*)A[25];
  const int64_t* S = (const int64_t*)A[26];
  const int64_t num_nodes = S[0];
  const int64_t num_batches = S[1];
  const int64_t leaf_batch_count = S[2];
  const int64_t max_children = S[3];
  const int64_t level_start = S[4];
  // leaf phase (specialized leaf batches)
  for (int64_t _lb = 0; _lb < leaf_batch_count; ++_lb) {
    const int64_t _begin = (int64_t)batch_begin[_lb];
    const int64_t _length = (int64_t)batch_length[_lb];
    for (int64_t _k; (_k = repro_team_claim(_m, 1)) >= 0;) {
      const int64_t _j0 = _k * 16, _j1 = repro_imin(_j0 + 16, 8);
      // leaf_h [gather]
      for (int64_t n_idx = 0; n_idx < _length; ++n_idx) {
        const int64_t n = (_begin) + n_idx;
        for (int64_t i = _j0; i < _j1; i += 4) {
          repro_vstore4(&rnn_h_ph[((n) * (8) + (i))], repro_vload4(&Emb[((repro_wrap(words[n], 50)) * (8) + (i))]));
        }
      }
    }
    if (repro_team_sync(_m, 1)) return;  // end of the leaf batch
  }
  // internal batches: the dependence-carrying loop (App. A.4)
  for (int64_t _b = level_start; _b < num_batches; ++_b) {
    const int64_t _begin = (int64_t)batch_begin[_b];
    const int64_t _length = (int64_t)batch_length[_b];
    for (int64_t _k; (_k = repro_team_claim(_m, 1)) >= 0;) {
      const int64_t _j0 = _k * 16, _j1 = repro_imin(_j0 + 16, 8);
      // h_tilde [childsum]
      for (int64_t n_idx_2 = 0; n_idx_2 < _length; ++n_idx_2) {
        const int64_t n_2 = (_begin) + n_idx_2;
        for (int64_t i_2 = _j0; i_2 < _j1; i_2 += 4) {
          repro_vf4 _acc1 = repro_vsplat4(0.0f);
          for (int64_t _k2 = 0; _k2 < max_children; ++_k2) {
            _acc1 = _acc1 + ((_k2 < (num_children[n_2])) ? (repro_vload4(&rnn_h_ph[((child[((_k2) * num_nodes + (n_2))]) * (8) + (i_2))])) : repro_vsplat4(0.0f));
          }
          repro_vstore4(&h_tilde[((n_idx_2) * (8) + (i_2))], _acc1);
        }
      }
    }
    if (repro_team_sync(_m, 1)) return;  // mi meets other tickets' columns
    for (int64_t _k; (_k = repro_team_claim(_m, 1)) >= 0;) {
      const int64_t _j0 = _k * 16, _j1 = repro_imin(_j0 + 16, 8);
      // mi [matvec] contraction over panel-packed Ui_P[8][8]
      const int64_t _rows3 = (_length) * 1;
      int64_t _q4 = 0;
      for (; _q4 + 2 <= _rows3; _q4 += 2) {
        const int64_t _n_idx_3_5 = _q4;
        const int64_t _n_idx_3_7 = _q4 + 1;
        repro_mk8x8r2_base(Ui_P, &h_tilde[((_n_idx_3_5) * (8) + (0))], &h_tilde[((_n_idx_3_7) * (8) + (0))], &mi[((_n_idx_3_5) * (8) + (0))], &mi[((_n_idx_3_7) * (8) + (0))], _j0, _j1);
      }
      for (; _q4 + 1 <= _rows3; _q4 += 1) {
        const int64_t _n_idx_3_9 = _q4;
        repro_mk8x8r1_base(Ui_P, &h_tilde[((_n_idx_3_9) * (8) + (0))], &mi[((_n_idx_3_9) * (8) + (0))], _j0, _j1);
      }
      // mo [matvec] contraction over panel-packed Uo_P[8][8]
      const int64_t _rows11 = (_length) * 1;
      int64_t _q12 = 0;
      for (; _q12 + 2 <= _rows11; _q12 += 2) {
        const int64_t _n_idx_4_13 = _q12;
        const int64_t _n_idx_4_15 = _q12 + 1;
        repro_mk8x8r2_base(Uo_P, &h_tilde[((_n_idx_4_13) * (8) + (0))], &h_tilde[((_n_idx_4_15) * (8) + (0))], &mo[((_n_idx_4_13) * (8) + (0))], &mo[((_n_idx_4_15) * (8) + (0))], _j0, _j1);
      }
      for (; _q12 + 1 <= _rows11; _q12 += 1) {
        const int64_t _n_idx_4_17 = _q12;
        repro_mk8x8r1_base(Uo_P, &h_tilde[((_n_idx_4_17) * (8) + (0))], &mo[((_n_idx_4_17) * (8) + (0))], _j0, _j1);
      }
      // mu [matvec] contraction over panel-packed Uu_P[8][8]
      const int64_t _rows19 = (_length) * 1;
      int64_t _q20 = 0;
      for (; _q20 + 2 <= _rows19; _q20 += 2) {
        const int64_t _n_idx_5_21 = _q20;
        const int64_t _n_idx_5_23 = _q20 + 1;
        repro_mk8x8r2_base(Uu_P, &h_tilde[((_n_idx_5_21) * (8) + (0))], &h_tilde[((_n_idx_5_23) * (8) + (0))], &mu[((_n_idx_5_21) * (8) + (0))], &mu[((_n_idx_5_23) * (8) + (0))], _j0, _j1);
      }
      for (; _q20 + 1 <= _rows19; _q20 += 1) {
        const int64_t _n_idx_5_25 = _q20;
        repro_mk8x8r1_base(Uu_P, &h_tilde[((_n_idx_5_25) * (8) + (0))], &mu[((_n_idx_5_25) * (8) + (0))], _j0, _j1);
      }
      // gi [elementwise]
      for (int64_t n_idx_6 = 0; n_idx_6 < _length; ++n_idx_6) {
        for (int64_t i_6 = _j0; i_6 < _j1; i_6 += 4) {
          repro_vstore4(&gi[((n_idx_6) * (8) + (i_6))], repro_vsigmoidf4((repro_vload4(&mi[((n_idx_6) * (8) + (i_6))]) + repro_vload4(&bi[(i_6)]))));
        }
      }
      // go [elementwise]
      for (int64_t n_idx_7 = 0; n_idx_7 < _length; ++n_idx_7) {
        for (int64_t i_7 = _j0; i_7 < _j1; i_7 += 4) {
          repro_vstore4(&go[((n_idx_7) * (8) + (i_7))], repro_vsigmoidf4((repro_vload4(&mo[((n_idx_7) * (8) + (i_7))]) + repro_vload4(&bo[(i_7)]))));
        }
      }
      // gu [elementwise]
      for (int64_t n_idx_8 = 0; n_idx_8 < _length; ++n_idx_8) {
        for (int64_t i_8 = _j0; i_8 < _j1; i_8 += 4) {
          repro_vstore4(&gu[((n_idx_8) * (8) + (i_8))], repro_vtanhf4((repro_vload4(&mu[((n_idx_8) * (8) + (i_8))]) + repro_vload4(&bu[(i_8)]))));
        }
      }
      // mf [matvec] contraction over panel-packed Uf_P[8][8]
      const int64_t _rows27 = (_length) * 2;
      int64_t _q28 = 0;
      for (; _q28 + 2 <= _rows27; _q28 += 2) {
        const int64_t _i_9_29 = (_q28) % 2;
        const int64_t _n_idx_9_30 = (_q28) / 2;
        const int64_t _n_9_31 = (_begin) + _n_idx_9_30;
        const int64_t _i_9_32 = (_q28 + 1) % 2;
        const int64_t _n_idx_9_33 = (_q28 + 1) / 2;
        const int64_t _n_9_34 = (_begin) + _n_idx_9_33;
        repro_mk8x8r2_base(Uf_P, &rnn_h_ph[((repro_wrap(child[((_i_9_29) * num_nodes + (_n_9_31))], num_nodes)) * (8) + (0))], &rnn_h_ph[((repro_wrap(child[((_i_9_32) * num_nodes + (_n_9_34))], num_nodes)) * (8) + (0))], &mf[(((_n_idx_9_30) * (2) + (_i_9_29)) * (8) + (0))], &mf[(((_n_idx_9_33) * (2) + (_i_9_32)) * (8) + (0))], _j0, _j1);
      }
      for (; _q28 + 1 <= _rows27; _q28 += 1) {
        const int64_t _i_9_35 = (_q28) % 2;
        const int64_t _n_idx_9_36 = (_q28) / 2;
        const int64_t _n_9_37 = (_begin) + _n_idx_9_36;
        repro_mk8x8r1_base(Uf_P, &rnn_h_ph[((repro_wrap(child[((_i_9_35) * num_nodes + (_n_9_37))], num_nodes)) * (8) + (0))], &mf[(((_n_idx_9_36) * (2) + (_i_9_35)) * (8) + (0))], _j0, _j1);
      }
      // gf [elementwise]
      for (int64_t n_idx_10 = 0; n_idx_10 < _length; ++n_idx_10) {
        for (int64_t i_11 = 0; i_11 < (0) + (2); ++i_11) {
          for (int64_t i_12 = _j0; i_12 < _j1; i_12 += 4) {
            repro_vstore4(&gf[(((n_idx_10) * (2) + (i_11)) * (8) + (i_12))], repro_vsigmoidf4((repro_vload4(&mf[(((n_idx_10) * (2) + (i_11)) * (8) + (i_12))]) + repro_vload4(&bf[(i_12)]))));
          }
        }
      }
      // fc_sum [childsum]
      for (int64_t n_idx_11 = 0; n_idx_11 < _length; ++n_idx_11) {
        const int64_t n_11 = (_begin) + n_idx_11;
        for (int64_t i_13 = _j0; i_13 < _j1; i_13 += 4) {
          repro_vf4 _acc38 = repro_vsplat4(0.0f);
          for (int64_t _k39 = 0; _k39 < max_children; ++_k39) {
            _acc38 = _acc38 + ((_k39 < (num_children[n_11])) ? ((repro_vload4(&gf[(((n_idx_11) * (2) + (_k39)) * (8) + (i_13))]) * repro_vload4(&rnn_c_ph[((child[((_k39) * num_nodes + (n_11))]) * (8) + (i_13))]))) : repro_vsplat4(0.0f));
          }
          repro_vstore4(&fc_sum[((n_idx_11) * (8) + (i_13))], _acc38);
        }
      }
      // rec_c [elementwise]
      for (int64_t n_idx_12 = 0; n_idx_12 < _length; ++n_idx_12) {
        const int64_t n_12 = (_begin) + n_idx_12;
        for (int64_t i_14 = _j0; i_14 < _j1; i_14 += 4) {
          repro_vstore4(&rnn_c_ph[((n_12) * (8) + (i_14))], ((repro_vload4(&gi[((n_idx_12) * (8) + (i_14))]) * repro_vload4(&gu[((n_idx_12) * (8) + (i_14))])) + repro_vload4(&fc_sum[((n_idx_12) * (8) + (i_14))])));
        }
      }
      // rec_h [elementwise]
      for (int64_t n_idx_13 = 0; n_idx_13 < _length; ++n_idx_13) {
        const int64_t n_14 = (_begin) + n_idx_13;
        for (int64_t i_16 = _j0; i_16 < _j1; i_16 += 4) {
          repro_vstore4(&rnn_h_ph[((n_14) * (8) + (i_16))], (repro_vload4(&go[((n_idx_13) * (8) + (i_16))]) * repro_vtanhf4(repro_vload4(&rnn_c_ph[((n_14) * (8) + (i_16))]))));
        }
      }
    }
    if (repro_team_sync(_m, 1)) return;  // end of the level
  }
}

void k_fused_base(
    float* rnn_h_ph,
    float* rnn_c_ph,
    const float* Emb,
    const float* bi,
    const float* bo,
    const float* bu,
    const float* bf,
    float* h_tilde,
    float* mi,
    float* mo,
    float* mu,
    float* gi,
    float* go,
    float* gu,
    float* mf,
    float* gf,
    float* fc_sum,
    const int32_t* batch_begin,
    const int32_t* batch_length,
    const int32_t* child,
    const int32_t* num_children,
    const int32_t* words,
    const float* Ui_P,
    const float* Uo_P,
    const float* Uu_P,
    const float* Uf_P,
    const int64_t* S,
    int64_t begin,
    int64_t length,
    int64_t team) {
  void* const A[] = {(void*)rnn_h_ph, (void*)rnn_c_ph, (void*)Emb, (void*)bi, (void*)bo, (void*)bu, (void*)bf, (void*)h_tilde, (void*)mi, (void*)mo, (void*)mu, (void*)gi, (void*)go, (void*)gu, (void*)mf, (void*)gf, (void*)fc_sum, (void*)batch_begin, (void*)batch_length, (void*)child, (void*)num_children, (void*)words, (void*)Ui_P, (void*)Uo_P, (void*)Uu_P, (void*)Uf_P, (void*)S};
  (void)begin; (void)length;
  repro_team_run(k_fused_base_team, A, team);
}

void k_fused_base_w(char* const* p, const int64_t* slots, const int64_t* S,
    int64_t begin, int64_t length, int64_t team) {
  k_fused_base((float*)p[slots[0]], (float*)p[slots[1]], (const float*)p[slots[2]], (const float*)p[slots[3]], (const float*)p[slots[4]], (const float*)p[slots[5]], (const float*)p[slots[6]], (float*)p[slots[7]], (float*)p[slots[8]], (float*)p[slots[9]], (float*)p[slots[10]], (float*)p[slots[11]], (float*)p[slots[12]], (float*)p[slots[13]], (float*)p[slots[14]], (float*)p[slots[15]], (float*)p[slots[16]], (const int32_t*)p[slots[17]], (const int32_t*)p[slots[18]], (const int32_t*)p[slots[19]], (const int32_t*)p[slots[20]], (const int32_t*)p[slots[21]], (const float*)p[slots[22]], (const float*)p[slots[23]], (const float*)p[slots[24]], (const float*)p[slots[25]],
      S, begin, length, team);
}

/* output columns of the widest nest a fused kernel splits (0: none); the
 * launcher sizes the team it passes from it */
int64_t repro_team_columns(void) { return 8; }

#endif

/* ======== part 2: avx2 ======== */
#if REPRO_IN(2) && defined(REPRO_AVX2)
static __attribute__((noinline)) __attribute__((target("avx2"))) void repro_mk8x8r2_avx2(
    const float* P, const float* x0, const float* x1, float* o0, float* o1, int64_t j0, int64_t j1) {
  (void)j0;  // one partial panel: j0 == 0
  if (j1 > 0) {
    {
      const float* _wp = P + 0;
      repro_vf8 _sx0 = repro_vsplat8(x0[0]);
      repro_vf8 _sx1 = repro_vsplat8(x1[0]);
      repro_vf8 _wv0 = repro_vload8(_wp + 0);
      repro_vf8 _ac0_0 = _wv0 * _sx0;
      repro_vf8 _ac1_0 = _wv0 * _sx1;
      for (int64_t _kr = 1; _kr < 8; ++_kr) {
        _wp += 8;
        _sx0 = repro_vsplat8(x0[_kr]);
        _sx1 = repro_vsplat8(x1[_kr]);
        _wv0 = repro_vload8(_wp + 0);
        _ac0_0 = _ac0_0 + _wv0 * _sx0;
        _ac1_0 = _ac1_0 + _wv0 * _sx1;
      }
      repro_vstore8(o0 + 0 + 0, _ac0_0);
      repro_vstore8(o1 + 0 + 0, _ac1_0);
    }
  }
}

static __attribute__((noinline)) __attribute__((target("avx2"))) void repro_mk8x8r1_avx2(
    const float* P, const float* x0, float* o0, int64_t j0, int64_t j1) {
  (void)j0;  // one partial panel: j0 == 0
  if (j1 > 0) {
    {
      const float* _wp = P + 0;
      repro_vf8 _sx0 = repro_vsplat8(x0[0]);
      repro_vf8 _wv0 = repro_vload8(_wp + 0);
      repro_vf8 _ac0_0 = _wv0 * _sx0;
      for (int64_t _kr = 1; _kr < 8; ++_kr) {
        _wp += 8;
        _sx0 = repro_vsplat8(x0[_kr]);
        _wv0 = repro_vload8(_wp + 0);
        _ac0_0 = _ac0_0 + _wv0 * _sx0;
      }
      repro_vstore8(o0 + 0 + 0, _ac0_0);
    }
  }
}

// kernel fused (kind=fused), avx2 variant
// persistent kernel: 2 global barrier(s) per level; every member of the launch's
// team runs this body, taking tickets (column panels) of each segment
static __attribute__((target("avx2"))) void k_fused_avx2_team(void* const* A, repro_member* _m) {
  float* rnn_h_ph = (float*)A[0];
  float* rnn_c_ph = (float*)A[1];
  const float* Emb = (const float*)A[2];
  const float* bi = (const float*)A[3];
  const float* bo = (const float*)A[4];
  const float* bu = (const float*)A[5];
  const float* bf = (const float*)A[6];
  float* h_tilde = (float*)A[7];
  float* mi = (float*)A[8];
  float* mo = (float*)A[9];
  float* mu = (float*)A[10];
  float* gi = (float*)A[11];
  float* go = (float*)A[12];
  float* gu = (float*)A[13];
  float* mf = (float*)A[14];
  float* gf = (float*)A[15];
  float* fc_sum = (float*)A[16];
  const int32_t* batch_begin = (const int32_t*)A[17];
  const int32_t* batch_length = (const int32_t*)A[18];
  const int32_t* child = (const int32_t*)A[19];
  const int32_t* num_children = (const int32_t*)A[20];
  const int32_t* words = (const int32_t*)A[21];
  const float* Ui_P = (const float*)A[22];
  const float* Uo_P = (const float*)A[23];
  const float* Uu_P = (const float*)A[24];
  const float* Uf_P = (const float*)A[25];
  const int64_t* S = (const int64_t*)A[26];
  const int64_t num_nodes = S[0];
  const int64_t num_batches = S[1];
  const int64_t leaf_batch_count = S[2];
  const int64_t max_children = S[3];
  const int64_t level_start = S[4];
  // leaf phase (specialized leaf batches)
  for (int64_t _lb = 0; _lb < leaf_batch_count; ++_lb) {
    const int64_t _begin = (int64_t)batch_begin[_lb];
    const int64_t _length = (int64_t)batch_length[_lb];
    for (int64_t _k; (_k = repro_team_claim(_m, 1)) >= 0;) {
      const int64_t _j0 = _k * 32, _j1 = repro_imin(_j0 + 32, 8);
      // leaf_h [gather]
      for (int64_t n_idx = 0; n_idx < _length; ++n_idx) {
        const int64_t n = (_begin) + n_idx;
        for (int64_t i = _j0; i < _j1; i += 8) {
          repro_vstore8(&rnn_h_ph[((n) * (8) + (i))], repro_vload8(&Emb[((repro_wrap(words[n], 50)) * (8) + (i))]));
        }
      }
    }
    if (repro_team_sync(_m, 1)) return;  // end of the leaf batch
  }
  // internal batches: the dependence-carrying loop (App. A.4)
  for (int64_t _b = level_start; _b < num_batches; ++_b) {
    const int64_t _begin = (int64_t)batch_begin[_b];
    const int64_t _length = (int64_t)batch_length[_b];
    for (int64_t _k; (_k = repro_team_claim(_m, 1)) >= 0;) {
      const int64_t _j0 = _k * 32, _j1 = repro_imin(_j0 + 32, 8);
      // h_tilde [childsum]
      for (int64_t n_idx_2 = 0; n_idx_2 < _length; ++n_idx_2) {
        const int64_t n_2 = (_begin) + n_idx_2;
        for (int64_t i_2 = _j0; i_2 < _j1; i_2 += 8) {
          repro_vf8 _acc1 = repro_vsplat8(0.0f);
          for (int64_t _k2 = 0; _k2 < max_children; ++_k2) {
            _acc1 = _acc1 + ((_k2 < (num_children[n_2])) ? (repro_vload8(&rnn_h_ph[((child[((_k2) * num_nodes + (n_2))]) * (8) + (i_2))])) : repro_vsplat8(0.0f));
          }
          repro_vstore8(&h_tilde[((n_idx_2) * (8) + (i_2))], _acc1);
        }
      }
    }
    if (repro_team_sync(_m, 1)) return;  // mi meets other tickets' columns
    for (int64_t _k; (_k = repro_team_claim(_m, 1)) >= 0;) {
      const int64_t _j0 = _k * 32, _j1 = repro_imin(_j0 + 32, 8);
      // mi [matvec] contraction over panel-packed Ui_P[8][8]
      const int64_t _rows3 = (_length) * 1;
      int64_t _q4 = 0;
      for (; _q4 + 2 <= _rows3; _q4 += 2) {
        const int64_t _n_idx_3_5 = _q4;
        const int64_t _n_idx_3_7 = _q4 + 1;
        repro_mk8x8r2_avx2(Ui_P, &h_tilde[((_n_idx_3_5) * (8) + (0))], &h_tilde[((_n_idx_3_7) * (8) + (0))], &mi[((_n_idx_3_5) * (8) + (0))], &mi[((_n_idx_3_7) * (8) + (0))], _j0, _j1);
      }
      for (; _q4 + 1 <= _rows3; _q4 += 1) {
        const int64_t _n_idx_3_9 = _q4;
        repro_mk8x8r1_avx2(Ui_P, &h_tilde[((_n_idx_3_9) * (8) + (0))], &mi[((_n_idx_3_9) * (8) + (0))], _j0, _j1);
      }
      // mo [matvec] contraction over panel-packed Uo_P[8][8]
      const int64_t _rows11 = (_length) * 1;
      int64_t _q12 = 0;
      for (; _q12 + 2 <= _rows11; _q12 += 2) {
        const int64_t _n_idx_4_13 = _q12;
        const int64_t _n_idx_4_15 = _q12 + 1;
        repro_mk8x8r2_avx2(Uo_P, &h_tilde[((_n_idx_4_13) * (8) + (0))], &h_tilde[((_n_idx_4_15) * (8) + (0))], &mo[((_n_idx_4_13) * (8) + (0))], &mo[((_n_idx_4_15) * (8) + (0))], _j0, _j1);
      }
      for (; _q12 + 1 <= _rows11; _q12 += 1) {
        const int64_t _n_idx_4_17 = _q12;
        repro_mk8x8r1_avx2(Uo_P, &h_tilde[((_n_idx_4_17) * (8) + (0))], &mo[((_n_idx_4_17) * (8) + (0))], _j0, _j1);
      }
      // mu [matvec] contraction over panel-packed Uu_P[8][8]
      const int64_t _rows19 = (_length) * 1;
      int64_t _q20 = 0;
      for (; _q20 + 2 <= _rows19; _q20 += 2) {
        const int64_t _n_idx_5_21 = _q20;
        const int64_t _n_idx_5_23 = _q20 + 1;
        repro_mk8x8r2_avx2(Uu_P, &h_tilde[((_n_idx_5_21) * (8) + (0))], &h_tilde[((_n_idx_5_23) * (8) + (0))], &mu[((_n_idx_5_21) * (8) + (0))], &mu[((_n_idx_5_23) * (8) + (0))], _j0, _j1);
      }
      for (; _q20 + 1 <= _rows19; _q20 += 1) {
        const int64_t _n_idx_5_25 = _q20;
        repro_mk8x8r1_avx2(Uu_P, &h_tilde[((_n_idx_5_25) * (8) + (0))], &mu[((_n_idx_5_25) * (8) + (0))], _j0, _j1);
      }
      // gi [elementwise]
      for (int64_t n_idx_6 = 0; n_idx_6 < _length; ++n_idx_6) {
        for (int64_t i_6 = _j0; i_6 < _j1; i_6 += 8) {
          repro_vstore8(&gi[((n_idx_6) * (8) + (i_6))], repro_vsigmoidf8((repro_vload8(&mi[((n_idx_6) * (8) + (i_6))]) + repro_vload8(&bi[(i_6)]))));
        }
      }
      // go [elementwise]
      for (int64_t n_idx_7 = 0; n_idx_7 < _length; ++n_idx_7) {
        for (int64_t i_7 = _j0; i_7 < _j1; i_7 += 8) {
          repro_vstore8(&go[((n_idx_7) * (8) + (i_7))], repro_vsigmoidf8((repro_vload8(&mo[((n_idx_7) * (8) + (i_7))]) + repro_vload8(&bo[(i_7)]))));
        }
      }
      // gu [elementwise]
      for (int64_t n_idx_8 = 0; n_idx_8 < _length; ++n_idx_8) {
        for (int64_t i_8 = _j0; i_8 < _j1; i_8 += 8) {
          repro_vstore8(&gu[((n_idx_8) * (8) + (i_8))], repro_vtanhf8((repro_vload8(&mu[((n_idx_8) * (8) + (i_8))]) + repro_vload8(&bu[(i_8)]))));
        }
      }
      // mf [matvec] contraction over panel-packed Uf_P[8][8]
      const int64_t _rows27 = (_length) * 2;
      int64_t _q28 = 0;
      for (; _q28 + 2 <= _rows27; _q28 += 2) {
        const int64_t _i_9_29 = (_q28) % 2;
        const int64_t _n_idx_9_30 = (_q28) / 2;
        const int64_t _n_9_31 = (_begin) + _n_idx_9_30;
        const int64_t _i_9_32 = (_q28 + 1) % 2;
        const int64_t _n_idx_9_33 = (_q28 + 1) / 2;
        const int64_t _n_9_34 = (_begin) + _n_idx_9_33;
        repro_mk8x8r2_avx2(Uf_P, &rnn_h_ph[((repro_wrap(child[((_i_9_29) * num_nodes + (_n_9_31))], num_nodes)) * (8) + (0))], &rnn_h_ph[((repro_wrap(child[((_i_9_32) * num_nodes + (_n_9_34))], num_nodes)) * (8) + (0))], &mf[(((_n_idx_9_30) * (2) + (_i_9_29)) * (8) + (0))], &mf[(((_n_idx_9_33) * (2) + (_i_9_32)) * (8) + (0))], _j0, _j1);
      }
      for (; _q28 + 1 <= _rows27; _q28 += 1) {
        const int64_t _i_9_35 = (_q28) % 2;
        const int64_t _n_idx_9_36 = (_q28) / 2;
        const int64_t _n_9_37 = (_begin) + _n_idx_9_36;
        repro_mk8x8r1_avx2(Uf_P, &rnn_h_ph[((repro_wrap(child[((_i_9_35) * num_nodes + (_n_9_37))], num_nodes)) * (8) + (0))], &mf[(((_n_idx_9_36) * (2) + (_i_9_35)) * (8) + (0))], _j0, _j1);
      }
      // gf [elementwise]
      for (int64_t n_idx_10 = 0; n_idx_10 < _length; ++n_idx_10) {
        for (int64_t i_11 = 0; i_11 < (0) + (2); ++i_11) {
          for (int64_t i_12 = _j0; i_12 < _j1; i_12 += 8) {
            repro_vstore8(&gf[(((n_idx_10) * (2) + (i_11)) * (8) + (i_12))], repro_vsigmoidf8((repro_vload8(&mf[(((n_idx_10) * (2) + (i_11)) * (8) + (i_12))]) + repro_vload8(&bf[(i_12)]))));
          }
        }
      }
      // fc_sum [childsum]
      for (int64_t n_idx_11 = 0; n_idx_11 < _length; ++n_idx_11) {
        const int64_t n_11 = (_begin) + n_idx_11;
        for (int64_t i_13 = _j0; i_13 < _j1; i_13 += 8) {
          repro_vf8 _acc38 = repro_vsplat8(0.0f);
          for (int64_t _k39 = 0; _k39 < max_children; ++_k39) {
            _acc38 = _acc38 + ((_k39 < (num_children[n_11])) ? ((repro_vload8(&gf[(((n_idx_11) * (2) + (_k39)) * (8) + (i_13))]) * repro_vload8(&rnn_c_ph[((child[((_k39) * num_nodes + (n_11))]) * (8) + (i_13))]))) : repro_vsplat8(0.0f));
          }
          repro_vstore8(&fc_sum[((n_idx_11) * (8) + (i_13))], _acc38);
        }
      }
      // rec_c [elementwise]
      for (int64_t n_idx_12 = 0; n_idx_12 < _length; ++n_idx_12) {
        const int64_t n_12 = (_begin) + n_idx_12;
        for (int64_t i_14 = _j0; i_14 < _j1; i_14 += 8) {
          repro_vstore8(&rnn_c_ph[((n_12) * (8) + (i_14))], ((repro_vload8(&gi[((n_idx_12) * (8) + (i_14))]) * repro_vload8(&gu[((n_idx_12) * (8) + (i_14))])) + repro_vload8(&fc_sum[((n_idx_12) * (8) + (i_14))])));
        }
      }
      // rec_h [elementwise]
      for (int64_t n_idx_13 = 0; n_idx_13 < _length; ++n_idx_13) {
        const int64_t n_14 = (_begin) + n_idx_13;
        for (int64_t i_16 = _j0; i_16 < _j1; i_16 += 8) {
          repro_vstore8(&rnn_h_ph[((n_14) * (8) + (i_16))], (repro_vload8(&go[((n_idx_13) * (8) + (i_16))]) * repro_vtanhf8(repro_vload8(&rnn_c_ph[((n_14) * (8) + (i_16))]))));
        }
      }
    }
    if (repro_team_sync(_m, 1)) return;  // end of the level
  }
}

__attribute__((target("avx2"))) void k_fused_avx2(
    float* rnn_h_ph,
    float* rnn_c_ph,
    const float* Emb,
    const float* bi,
    const float* bo,
    const float* bu,
    const float* bf,
    float* h_tilde,
    float* mi,
    float* mo,
    float* mu,
    float* gi,
    float* go,
    float* gu,
    float* mf,
    float* gf,
    float* fc_sum,
    const int32_t* batch_begin,
    const int32_t* batch_length,
    const int32_t* child,
    const int32_t* num_children,
    const int32_t* words,
    const float* Ui_P,
    const float* Uo_P,
    const float* Uu_P,
    const float* Uf_P,
    const int64_t* S,
    int64_t begin,
    int64_t length,
    int64_t team) {
  void* const A[] = {(void*)rnn_h_ph, (void*)rnn_c_ph, (void*)Emb, (void*)bi, (void*)bo, (void*)bu, (void*)bf, (void*)h_tilde, (void*)mi, (void*)mo, (void*)mu, (void*)gi, (void*)go, (void*)gu, (void*)mf, (void*)gf, (void*)fc_sum, (void*)batch_begin, (void*)batch_length, (void*)child, (void*)num_children, (void*)words, (void*)Ui_P, (void*)Uo_P, (void*)Uu_P, (void*)Uf_P, (void*)S};
  (void)begin; (void)length;
  repro_team_run(k_fused_avx2_team, A, team);
}

void k_fused_avx2_w(char* const* p, const int64_t* slots, const int64_t* S,
    int64_t begin, int64_t length, int64_t team) {
  k_fused_avx2((float*)p[slots[0]], (float*)p[slots[1]], (const float*)p[slots[2]], (const float*)p[slots[3]], (const float*)p[slots[4]], (const float*)p[slots[5]], (const float*)p[slots[6]], (float*)p[slots[7]], (float*)p[slots[8]], (float*)p[slots[9]], (float*)p[slots[10]], (float*)p[slots[11]], (float*)p[slots[12]], (float*)p[slots[13]], (float*)p[slots[14]], (float*)p[slots[15]], (float*)p[slots[16]], (const int32_t*)p[slots[17]], (const int32_t*)p[slots[18]], (const int32_t*)p[slots[19]], (const int32_t*)p[slots[20]], (const int32_t*)p[slots[21]], (const float*)p[slots[22]], (const float*)p[slots[23]], (const float*)p[slots[24]], (const float*)p[slots[25]],
      S, begin, length, team);
}

#endif

/* ======== part 3: avx512f ======== */
#if REPRO_IN(3) && defined(REPRO_AVX512F)
static __attribute__((noinline)) __attribute__((target("avx512f"))) void repro_mk8x8r2_avx512f(
    const float* P, const float* x0, const float* x1, float* o0, float* o1, int64_t j0, int64_t j1) {
  (void)j0;  // one partial panel: j0 == 0
  if (j1 > 0) {
    for (int64_t _j = 0; _j < 8; ++_j) {
      const float* _wp = P + 0 + (_j - 0);
      float _ac0 = _wp[0] * x0[0];
      for (int64_t _kr = 1; _kr < 8; ++_kr) _ac0 = _ac0 + _wp[_kr * 8] * x0[_kr];
      o0[_j] = _ac0;
      float _ac1 = _wp[0] * x1[0];
      for (int64_t _kr = 1; _kr < 8; ++_kr) _ac1 = _ac1 + _wp[_kr * 8] * x1[_kr];
      o1[_j] = _ac1;
    }
  }
}

static __attribute__((noinline)) __attribute__((target("avx512f"))) void repro_mk8x8r1_avx512f(
    const float* P, const float* x0, float* o0, int64_t j0, int64_t j1) {
  (void)j0;  // one partial panel: j0 == 0
  if (j1 > 0) {
    for (int64_t _j = 0; _j < 8; ++_j) {
      const float* _wp = P + 0 + (_j - 0);
      float _ac0 = _wp[0] * x0[0];
      for (int64_t _kr = 1; _kr < 8; ++_kr) _ac0 = _ac0 + _wp[_kr * 8] * x0[_kr];
      o0[_j] = _ac0;
    }
  }
}

// kernel fused (kind=fused), avx512f variant
// persistent kernel: 2 global barrier(s) per level; every member of the launch's
// team runs this body, taking tickets (column panels) of each segment
static __attribute__((target("avx512f"))) void k_fused_avx512f_team(void* const* A, repro_member* _m) {
  float* rnn_h_ph = (float*)A[0];
  float* rnn_c_ph = (float*)A[1];
  const float* Emb = (const float*)A[2];
  const float* bi = (const float*)A[3];
  const float* bo = (const float*)A[4];
  const float* bu = (const float*)A[5];
  const float* bf = (const float*)A[6];
  float* h_tilde = (float*)A[7];
  float* mi = (float*)A[8];
  float* mo = (float*)A[9];
  float* mu = (float*)A[10];
  float* gi = (float*)A[11];
  float* go = (float*)A[12];
  float* gu = (float*)A[13];
  float* mf = (float*)A[14];
  float* gf = (float*)A[15];
  float* fc_sum = (float*)A[16];
  const int32_t* batch_begin = (const int32_t*)A[17];
  const int32_t* batch_length = (const int32_t*)A[18];
  const int32_t* child = (const int32_t*)A[19];
  const int32_t* num_children = (const int32_t*)A[20];
  const int32_t* words = (const int32_t*)A[21];
  const float* Ui_P = (const float*)A[22];
  const float* Uo_P = (const float*)A[23];
  const float* Uu_P = (const float*)A[24];
  const float* Uf_P = (const float*)A[25];
  const int64_t* S = (const int64_t*)A[26];
  const int64_t num_nodes = S[0];
  const int64_t num_batches = S[1];
  const int64_t leaf_batch_count = S[2];
  const int64_t max_children = S[3];
  const int64_t level_start = S[4];
  // leaf phase (specialized leaf batches)
  for (int64_t _lb = 0; _lb < leaf_batch_count; ++_lb) {
    const int64_t _begin = (int64_t)batch_begin[_lb];
    const int64_t _length = (int64_t)batch_length[_lb];
    for (int64_t _k; (_k = repro_team_claim(_m, 1)) >= 0;) {
      const int64_t _j0 = _k * 64, _j1 = repro_imin(_j0 + 64, 8);
      // leaf_h [gather]
      for (int64_t n_idx = 0; n_idx < _length; ++n_idx) {
        const int64_t n = (_begin) + n_idx;
        (void)_j0;  // one partial vector: _j0 == 0
        if (_j1 > 0) {
          repro_vstoren16(&rnn_h_ph[((n) * (8) + (0))], repro_vloadn16(&Emb[((repro_wrap(words[n], 50)) * (8) + (0))], 8), 8);
        }
      }
    }
    if (repro_team_sync(_m, 1)) return;  // end of the leaf batch
  }
  // internal batches: the dependence-carrying loop (App. A.4)
  for (int64_t _b = level_start; _b < num_batches; ++_b) {
    const int64_t _begin = (int64_t)batch_begin[_b];
    const int64_t _length = (int64_t)batch_length[_b];
    for (int64_t _k; (_k = repro_team_claim(_m, 1)) >= 0;) {
      const int64_t _j0 = _k * 64, _j1 = repro_imin(_j0 + 64, 8);
      // h_tilde [childsum]
      for (int64_t n_idx_2 = 0; n_idx_2 < _length; ++n_idx_2) {
        const int64_t n_2 = (_begin) + n_idx_2;
        (void)_j0;  // one partial vector: _j0 == 0
        if (_j1 > 0) {
          repro_vf16 _acc1 = repro_vsplat16(0.0f);
          for (int64_t _k2 = 0; _k2 < max_children; ++_k2) {
            _acc1 = _acc1 + ((_k2 < (num_children[n_2])) ? (repro_vloadn16(&rnn_h_ph[((child[((_k2) * num_nodes + (n_2))]) * (8) + (0))], 8)) : repro_vsplat16(0.0f));
          }
          repro_vstoren16(&h_tilde[((n_idx_2) * (8) + (0))], _acc1, 8);
        }
      }
    }
    if (repro_team_sync(_m, 1)) return;  // mi meets other tickets' columns
    for (int64_t _k; (_k = repro_team_claim(_m, 1)) >= 0;) {
      const int64_t _j0 = _k * 64, _j1 = repro_imin(_j0 + 64, 8);
      // mi [matvec] contraction over panel-packed Ui_P[8][8]
      const int64_t _rows3 = (_length) * 1;
      int64_t _q4 = 0;
      for (; _q4 + 2 <= _rows3; _q4 += 2) {
        const int64_t _n_idx_3_5 = _q4;
        const int64_t _n_idx_3_7 = _q4 + 1;
        repro_mk8x8r2_avx512f(Ui_P, &h_tilde[((_n_idx_3_5) * (8) + (0))], &h_tilde[((_n_idx_3_7) * (8) + (0))], &mi[((_n_idx_3_5) * (8) + (0))], &mi[((_n_idx_3_7) * (8) + (0))], _j0, _j1);
      }
      for (; _q4 + 1 <= _rows3; _q4 += 1) {
        const int64_t _n_idx_3_9 = _q4;
        repro_mk8x8r1_avx512f(Ui_P, &h_tilde[((_n_idx_3_9) * (8) + (0))], &mi[((_n_idx_3_9) * (8) + (0))], _j0, _j1);
      }
      // mo [matvec] contraction over panel-packed Uo_P[8][8]
      const int64_t _rows11 = (_length) * 1;
      int64_t _q12 = 0;
      for (; _q12 + 2 <= _rows11; _q12 += 2) {
        const int64_t _n_idx_4_13 = _q12;
        const int64_t _n_idx_4_15 = _q12 + 1;
        repro_mk8x8r2_avx512f(Uo_P, &h_tilde[((_n_idx_4_13) * (8) + (0))], &h_tilde[((_n_idx_4_15) * (8) + (0))], &mo[((_n_idx_4_13) * (8) + (0))], &mo[((_n_idx_4_15) * (8) + (0))], _j0, _j1);
      }
      for (; _q12 + 1 <= _rows11; _q12 += 1) {
        const int64_t _n_idx_4_17 = _q12;
        repro_mk8x8r1_avx512f(Uo_P, &h_tilde[((_n_idx_4_17) * (8) + (0))], &mo[((_n_idx_4_17) * (8) + (0))], _j0, _j1);
      }
      // mu [matvec] contraction over panel-packed Uu_P[8][8]
      const int64_t _rows19 = (_length) * 1;
      int64_t _q20 = 0;
      for (; _q20 + 2 <= _rows19; _q20 += 2) {
        const int64_t _n_idx_5_21 = _q20;
        const int64_t _n_idx_5_23 = _q20 + 1;
        repro_mk8x8r2_avx512f(Uu_P, &h_tilde[((_n_idx_5_21) * (8) + (0))], &h_tilde[((_n_idx_5_23) * (8) + (0))], &mu[((_n_idx_5_21) * (8) + (0))], &mu[((_n_idx_5_23) * (8) + (0))], _j0, _j1);
      }
      for (; _q20 + 1 <= _rows19; _q20 += 1) {
        const int64_t _n_idx_5_25 = _q20;
        repro_mk8x8r1_avx512f(Uu_P, &h_tilde[((_n_idx_5_25) * (8) + (0))], &mu[((_n_idx_5_25) * (8) + (0))], _j0, _j1);
      }
      // gi [elementwise]
      for (int64_t n_idx_6 = 0; n_idx_6 < _length; ++n_idx_6) {
        (void)_j0;  // one partial vector: _j0 == 0
        if (_j1 > 0) {
          repro_vstoren16(&gi[((n_idx_6) * (8) + (0))], repro_vsigmoidf16((repro_vloadn16(&mi[((n_idx_6) * (8) + (0))], 8) + repro_vloadn16(&bi[(0)], 8))), 8);
        }
      }
      // go [elementwise]
      for (int64_t n_idx_7 = 0; n_idx_7 < _length; ++n_idx_7) {
        (void)_j0;  // one partial vector: _j0 == 0
        if (_j1 > 0) {
          repro_vstoren16(&go[((n_idx_7) * (8) + (0))], repro_vsigmoidf16((repro_vloadn16(&mo[((n_idx_7) * (8) + (0))], 8) + repro_vloadn16(&bo[(0)], 8))), 8);
        }
      }
      // gu [elementwise]
      for (int64_t n_idx_8 = 0; n_idx_8 < _length; ++n_idx_8) {
        (void)_j0;  // one partial vector: _j0 == 0
        if (_j1 > 0) {
          repro_vstoren16(&gu[((n_idx_8) * (8) + (0))], repro_vtanhf16((repro_vloadn16(&mu[((n_idx_8) * (8) + (0))], 8) + repro_vloadn16(&bu[(0)], 8))), 8);
        }
      }
      // mf [matvec] contraction over panel-packed Uf_P[8][8]
      const int64_t _rows27 = (_length) * 2;
      int64_t _q28 = 0;
      for (; _q28 + 2 <= _rows27; _q28 += 2) {
        const int64_t _i_9_29 = (_q28) % 2;
        const int64_t _n_idx_9_30 = (_q28) / 2;
        const int64_t _n_9_31 = (_begin) + _n_idx_9_30;
        const int64_t _i_9_32 = (_q28 + 1) % 2;
        const int64_t _n_idx_9_33 = (_q28 + 1) / 2;
        const int64_t _n_9_34 = (_begin) + _n_idx_9_33;
        repro_mk8x8r2_avx512f(Uf_P, &rnn_h_ph[((repro_wrap(child[((_i_9_29) * num_nodes + (_n_9_31))], num_nodes)) * (8) + (0))], &rnn_h_ph[((repro_wrap(child[((_i_9_32) * num_nodes + (_n_9_34))], num_nodes)) * (8) + (0))], &mf[(((_n_idx_9_30) * (2) + (_i_9_29)) * (8) + (0))], &mf[(((_n_idx_9_33) * (2) + (_i_9_32)) * (8) + (0))], _j0, _j1);
      }
      for (; _q28 + 1 <= _rows27; _q28 += 1) {
        const int64_t _i_9_35 = (_q28) % 2;
        const int64_t _n_idx_9_36 = (_q28) / 2;
        const int64_t _n_9_37 = (_begin) + _n_idx_9_36;
        repro_mk8x8r1_avx512f(Uf_P, &rnn_h_ph[((repro_wrap(child[((_i_9_35) * num_nodes + (_n_9_37))], num_nodes)) * (8) + (0))], &mf[(((_n_idx_9_36) * (2) + (_i_9_35)) * (8) + (0))], _j0, _j1);
      }
      // gf [elementwise]
      for (int64_t n_idx_10 = 0; n_idx_10 < _length; ++n_idx_10) {
        for (int64_t i_11 = 0; i_11 < (0) + (2); ++i_11) {
          (void)_j0;  // one partial vector: _j0 == 0
          if (_j1 > 0) {
            repro_vstoren16(&gf[(((n_idx_10) * (2) + (i_11)) * (8) + (0))], repro_vsigmoidf16((repro_vloadn16(&mf[(((n_idx_10) * (2) + (i_11)) * (8) + (0))], 8) + repro_vloadn16(&bf[(0)], 8))), 8);
          }
        }
      }
      // fc_sum [childsum]
      for (int64_t n_idx_11 = 0; n_idx_11 < _length; ++n_idx_11) {
        const int64_t n_11 = (_begin) + n_idx_11;
        (void)_j0;  // one partial vector: _j0 == 0
        if (_j1 > 0) {
          repro_vf16 _acc38 = repro_vsplat16(0.0f);
          for (int64_t _k39 = 0; _k39 < max_children; ++_k39) {
            _acc38 = _acc38 + ((_k39 < (num_children[n_11])) ? ((repro_vloadn16(&gf[(((n_idx_11) * (2) + (_k39)) * (8) + (0))], 8) * repro_vloadn16(&rnn_c_ph[((child[((_k39) * num_nodes + (n_11))]) * (8) + (0))], 8))) : repro_vsplat16(0.0f));
          }
          repro_vstoren16(&fc_sum[((n_idx_11) * (8) + (0))], _acc38, 8);
        }
      }
      // rec_c [elementwise]
      for (int64_t n_idx_12 = 0; n_idx_12 < _length; ++n_idx_12) {
        const int64_t n_12 = (_begin) + n_idx_12;
        (void)_j0;  // one partial vector: _j0 == 0
        if (_j1 > 0) {
          repro_vstoren16(&rnn_c_ph[((n_12) * (8) + (0))], ((repro_vloadn16(&gi[((n_idx_12) * (8) + (0))], 8) * repro_vloadn16(&gu[((n_idx_12) * (8) + (0))], 8)) + repro_vloadn16(&fc_sum[((n_idx_12) * (8) + (0))], 8)), 8);
        }
      }
      // rec_h [elementwise]
      for (int64_t n_idx_13 = 0; n_idx_13 < _length; ++n_idx_13) {
        const int64_t n_14 = (_begin) + n_idx_13;
        (void)_j0;  // one partial vector: _j0 == 0
        if (_j1 > 0) {
          repro_vstoren16(&rnn_h_ph[((n_14) * (8) + (0))], (repro_vloadn16(&go[((n_idx_13) * (8) + (0))], 8) * repro_vtanhf16(repro_vloadn16(&rnn_c_ph[((n_14) * (8) + (0))], 8))), 8);
        }
      }
    }
    if (repro_team_sync(_m, 1)) return;  // end of the level
  }
}

__attribute__((target("avx512f"))) void k_fused_avx512f(
    float* rnn_h_ph,
    float* rnn_c_ph,
    const float* Emb,
    const float* bi,
    const float* bo,
    const float* bu,
    const float* bf,
    float* h_tilde,
    float* mi,
    float* mo,
    float* mu,
    float* gi,
    float* go,
    float* gu,
    float* mf,
    float* gf,
    float* fc_sum,
    const int32_t* batch_begin,
    const int32_t* batch_length,
    const int32_t* child,
    const int32_t* num_children,
    const int32_t* words,
    const float* Ui_P,
    const float* Uo_P,
    const float* Uu_P,
    const float* Uf_P,
    const int64_t* S,
    int64_t begin,
    int64_t length,
    int64_t team) {
  void* const A[] = {(void*)rnn_h_ph, (void*)rnn_c_ph, (void*)Emb, (void*)bi, (void*)bo, (void*)bu, (void*)bf, (void*)h_tilde, (void*)mi, (void*)mo, (void*)mu, (void*)gi, (void*)go, (void*)gu, (void*)mf, (void*)gf, (void*)fc_sum, (void*)batch_begin, (void*)batch_length, (void*)child, (void*)num_children, (void*)words, (void*)Ui_P, (void*)Uo_P, (void*)Uu_P, (void*)Uf_P, (void*)S};
  (void)begin; (void)length;
  repro_team_run(k_fused_avx512f_team, A, team);
}

void k_fused_avx512f_w(char* const* p, const int64_t* slots, const int64_t* S,
    int64_t begin, int64_t length, int64_t team) {
  k_fused_avx512f((float*)p[slots[0]], (float*)p[slots[1]], (const float*)p[slots[2]], (const float*)p[slots[3]], (const float*)p[slots[4]], (const float*)p[slots[5]], (const float*)p[slots[6]], (float*)p[slots[7]], (float*)p[slots[8]], (float*)p[slots[9]], (float*)p[slots[10]], (float*)p[slots[11]], (float*)p[slots[12]], (float*)p[slots[13]], (float*)p[slots[14]], (float*)p[slots[15]], (float*)p[slots[16]], (const int32_t*)p[slots[17]], (const int32_t*)p[slots[18]], (const int32_t*)p[slots[19]], (const int32_t*)p[slots[20]], (const int32_t*)p[slots[21]], (const float*)p[slots[22]], (const float*)p[slots[23]], (const float*)p[slots[24]], (const float*)p[slots[25]],
      S, begin, length, team);
}

#endif


#ifdef __cplusplus
}  /* extern "C" */
#endif
