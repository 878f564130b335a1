// ===== module dagrnn =====
// Generated by repro.ilir.codegen.c_codegen — do not edit.
// buffer rnn: num_nodesx8 float32 @global
// buffer Feat: 4000x8 float32 @param
// buffer U: 8x8 float32 @register
// buffer b: 8 float32 @register
// buffer h_sum: max_batch_lenx8 float32 @shared
// buffer mu: max_batch_lenx8 float32 @shared

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
#define REPRO_AVX2 1
#endif

#ifdef REPRO_AVX2
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

static __attribute__((noinline)) void repro_mk8x8r2_base(
    const float* P, const float* x0, const float* x1, float* o0, float* o1) {
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

static __attribute__((noinline)) void repro_mk8x8r1_base(
    const float* P, const float* x0, float* o0) {
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

// kernel fused (kind=fused), base variant
// persistent kernel: 1 global barrier(s) per level
void k_fused_base(
    float* rnn,
    const float* Feat,
    const float* b,
    float* h_sum,
    float* mu,
    const int32_t* batch_begin,
    const int32_t* batch_length,
    const int32_t* child,
    const int32_t* num_children,
    const int32_t* words,
    const float* U_P,
    const int64_t* S,
    int64_t begin,
    int64_t length) {
  const int64_t num_nodes = S[0];
  const int64_t num_batches = S[1];
  const int64_t leaf_batch_count = S[2];
  const int64_t max_children = S[3];
  const int64_t level_start = S[4];
  (void)begin; (void)length;
  // leaf phase (specialized leaf batches)
  for (int64_t _lb = 0; _lb < leaf_batch_count; ++_lb) {
    const int64_t _begin = (int64_t)batch_begin[_lb];
    const int64_t _length = (int64_t)batch_length[_lb];
    // leaf_h [gather]
    for (int64_t n_idx = 0; n_idx < _length; ++n_idx) {
      const int64_t n = (_begin) + n_idx;
      for (int64_t i = 0; i < 8; i += 4) {
        repro_vstore4(&rnn[((n) * (8) + (i))], repro_vtanhf4((repro_vload4(&Feat[((words[n]) * (8) + (i))]) + repro_vload4(&b[(i)]))));
      }
    }
  }
  // internal batches: the dependence-carrying loop; one global barrier per iteration (App. A.4)
  for (int64_t _b = level_start; _b < num_batches; ++_b) {
    const int64_t _begin = (int64_t)batch_begin[_b];
    const int64_t _length = (int64_t)batch_length[_b];
    // h_sum [childsum]
    for (int64_t n_idx_1 = 0; n_idx_1 < _length; ++n_idx_1) {
      const int64_t n_1 = (_begin) + n_idx_1;
      for (int64_t i_1 = 0; i_1 < 8; i_1 += 4) {
        repro_vf4 _acc1 = repro_vsplat4(0.0f);
        for (int64_t _k2 = 0; _k2 < max_children; ++_k2) {
          _acc1 = _acc1 + ((_k2 < (num_children[n_1])) ? (repro_vload4(&rnn[((child[((_k2) * num_nodes + (n_1))]) * (8) + (i_1))])) : repro_vsplat4(0.0f));
        }
        repro_vstore4(&h_sum[((n_idx_1) * (8) + (i_1))], _acc1);
      }
    }
    // mu [matvec] contraction over panel-packed U_P[8][8]
    const int64_t _rows3 = (_length) * 1;
    int64_t _q4 = 0;
    for (; _q4 + 2 <= _rows3; _q4 += 2) {
      const int64_t _n_idx_2_5 = _q4;
      const int64_t _n_idx_2_7 = _q4 + 1;
      repro_mk8x8r2_base(U_P, &h_sum[((_n_idx_2_5) * (8) + (0))], &h_sum[((_n_idx_2_7) * (8) + (0))], &mu[((_n_idx_2_5) * (8) + (0))], &mu[((_n_idx_2_7) * (8) + (0))]);
    }
    for (; _q4 + 1 <= _rows3; _q4 += 1) {
      const int64_t _n_idx_2_9 = _q4;
      repro_mk8x8r1_base(U_P, &h_sum[((_n_idx_2_9) * (8) + (0))], &mu[((_n_idx_2_9) * (8) + (0))]);
    }
    // rec_h [gather]
    for (int64_t n_idx_3 = 0; n_idx_3 < _length; ++n_idx_3) {
      const int64_t n_3 = (_begin) + n_idx_3;
      for (int64_t i_3 = 0; i_3 < 8; i_3 += 4) {
        repro_vstore4(&rnn[((n_3) * (8) + (i_3))], repro_vtanhf4(((repro_vload4(&mu[((n_idx_3) * (8) + (i_3))]) + repro_vload4(&Feat[((words[n_3]) * (8) + (i_3))])) + repro_vload4(&b[(i_3)]))));
      }
    }
  }
}

#ifdef REPRO_AVX2
static __attribute__((noinline)) __attribute__((target("avx2"))) void repro_mk8x8r2_avx2(
    const float* P, const float* x0, const float* x1, float* o0, float* o1) {
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

static __attribute__((noinline)) __attribute__((target("avx2"))) void repro_mk8x8r1_avx2(
    const float* P, const float* x0, float* o0) {
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

// kernel fused (kind=fused), avx2 variant
// persistent kernel: 1 global barrier(s) per level
__attribute__((target("avx2"))) void k_fused_avx2(
    float* rnn,
    const float* Feat,
    const float* b,
    float* h_sum,
    float* mu,
    const int32_t* batch_begin,
    const int32_t* batch_length,
    const int32_t* child,
    const int32_t* num_children,
    const int32_t* words,
    const float* U_P,
    const int64_t* S,
    int64_t begin,
    int64_t length) {
  const int64_t num_nodes = S[0];
  const int64_t num_batches = S[1];
  const int64_t leaf_batch_count = S[2];
  const int64_t max_children = S[3];
  const int64_t level_start = S[4];
  (void)begin; (void)length;
  // leaf phase (specialized leaf batches)
  for (int64_t _lb = 0; _lb < leaf_batch_count; ++_lb) {
    const int64_t _begin = (int64_t)batch_begin[_lb];
    const int64_t _length = (int64_t)batch_length[_lb];
    // leaf_h [gather]
    for (int64_t n_idx = 0; n_idx < _length; ++n_idx) {
      const int64_t n = (_begin) + n_idx;
      for (int64_t i = 0; i < 8; i += 8) {
        repro_vstore8(&rnn[((n) * (8) + (i))], repro_vtanhf8((repro_vload8(&Feat[((words[n]) * (8) + (i))]) + repro_vload8(&b[(i)]))));
      }
    }
  }
  // internal batches: the dependence-carrying loop; one global barrier per iteration (App. A.4)
  for (int64_t _b = level_start; _b < num_batches; ++_b) {
    const int64_t _begin = (int64_t)batch_begin[_b];
    const int64_t _length = (int64_t)batch_length[_b];
    // h_sum [childsum]
    for (int64_t n_idx_1 = 0; n_idx_1 < _length; ++n_idx_1) {
      const int64_t n_1 = (_begin) + n_idx_1;
      for (int64_t i_1 = 0; i_1 < 8; i_1 += 8) {
        repro_vf8 _acc1 = repro_vsplat8(0.0f);
        for (int64_t _k2 = 0; _k2 < max_children; ++_k2) {
          _acc1 = _acc1 + ((_k2 < (num_children[n_1])) ? (repro_vload8(&rnn[((child[((_k2) * num_nodes + (n_1))]) * (8) + (i_1))])) : repro_vsplat8(0.0f));
        }
        repro_vstore8(&h_sum[((n_idx_1) * (8) + (i_1))], _acc1);
      }
    }
    // mu [matvec] contraction over panel-packed U_P[8][8]
    const int64_t _rows3 = (_length) * 1;
    int64_t _q4 = 0;
    for (; _q4 + 2 <= _rows3; _q4 += 2) {
      const int64_t _n_idx_2_5 = _q4;
      const int64_t _n_idx_2_7 = _q4 + 1;
      repro_mk8x8r2_avx2(U_P, &h_sum[((_n_idx_2_5) * (8) + (0))], &h_sum[((_n_idx_2_7) * (8) + (0))], &mu[((_n_idx_2_5) * (8) + (0))], &mu[((_n_idx_2_7) * (8) + (0))]);
    }
    for (; _q4 + 1 <= _rows3; _q4 += 1) {
      const int64_t _n_idx_2_9 = _q4;
      repro_mk8x8r1_avx2(U_P, &h_sum[((_n_idx_2_9) * (8) + (0))], &mu[((_n_idx_2_9) * (8) + (0))]);
    }
    // rec_h [gather]
    for (int64_t n_idx_3 = 0; n_idx_3 < _length; ++n_idx_3) {
      const int64_t n_3 = (_begin) + n_idx_3;
      for (int64_t i_3 = 0; i_3 < 8; i_3 += 8) {
        repro_vstore8(&rnn[((n_3) * (8) + (i_3))], repro_vtanhf8(((repro_vload8(&mu[((n_idx_3) * (8) + (i_3))]) + repro_vload8(&Feat[((words[n_3]) * (8) + (i_3))])) + repro_vload8(&b[(i_3)]))));
      }
    }
  }
}

#endif
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

void k_fused(
    float* rnn,
    const float* Feat,
    const float* b,
    float* h_sum,
    float* mu,
    const int32_t* batch_begin,
    const int32_t* batch_length,
    const int32_t* child,
    const int32_t* num_children,
    const int32_t* words,
    const float* U_P,
    const int64_t* S,
    int64_t begin,
    int64_t length) {
#ifdef REPRO_AVX2
  if (repro_use_avx2) { k_fused_avx2(rnn, Feat, b, h_sum, mu, batch_begin, batch_length, child, num_children, words, U_P, S, begin, length); return; }
#endif
  k_fused_base(rnn, Feat, b, h_sum, mu, batch_begin, batch_length, child, num_children, words, U_P, S, begin, length);
}


#ifdef __cplusplus
}  /* extern "C" */
#endif
