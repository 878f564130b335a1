// ===== module treegru =====
// Generated by repro.ilir.codegen.c_codegen — do not edit.
// buffer rnn: num_nodesx8 float32 @global
// buffer Emb: 50x8 float32 @param
// buffer Uz: 8x8 float32 @register
// buffer Ur: 8x8 float32 @register
// buffer Uh: 8x8 float32 @register
// buffer bz: 8 float32 @register
// buffer br: 8 float32 @register
// buffer bh: 8 float32 @register
// buffer h_sum: max_batch_lenx8 float32 @shared
// buffer mz: max_batch_lenx8 float32 @shared
// buffer mr: max_batch_lenx8 float32 @shared
// buffer z: max_batch_lenx8 float32 @shared
// buffer r: max_batch_lenx8 float32 @shared
// buffer rh_in: max_batch_lenx8 float32 @shared
// buffer mh: max_batch_lenx8 float32 @shared
// buffer hprime: max_batch_lenx8 float32 @shared

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

// kernel fused (kind=fused)
// persistent kernel: 2 global barrier(s) per level
void k_fused(
    float* rnn,
    const float* Emb,
    const float* bz,
    const float* br,
    const float* bh,
    float* h_sum,
    float* mz,
    float* mr,
    float* z,
    float* r,
    float* rh_in,
    float* mh,
    float* hprime,
    const int32_t* batch_begin,
    const int32_t* batch_length,
    const int32_t* child,
    const int32_t* num_children,
    const int32_t* words,
    const float* Uz_T,
    const float* Ur_T,
    const float* Uh_T,
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
      for (int64_t i = 0; i < (0) + (8); ++i) {
        rnn[((n) * (8) + (i))] = Emb[((words[n]) * (8) + (i))];
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
      for (int64_t i_1 = 0; i_1 < (0) + (8); ++i_1) {
        float _acc1 = 0.0f;
        for (int64_t _k2 = 0; _k2 < max_children; ++_k2) {
          _acc1 = _acc1 + ((_k2 < (num_children[n_1])) ? (rnn[((child[((_k2) * num_nodes + (n_1))]) * (8) + (i_1))]) : 0.0f);
        }
        h_sum[((n_idx_1) * (8) + (i_1))] = _acc1;
      }
    }
    // mz [matvec] contraction: 2x16 register tiles over Uz_T[8][8]
    const int64_t _rows3 = (_length) * 1;
    int64_t _q4 = 0;
    for (; _q4 + 2 <= _rows3; _q4 += 2) {
      const int64_t _n_idx_2_5 = _q4;
      const int64_t _n_2_6 = (_begin) + _n_idx_2_5;
      const float* _x7 = &h_sum[((_n_idx_2_5) * (8) + (0))];
      float* _o8 = &mz[((_n_idx_2_5) * (8) + (0))];
      const int64_t _n_idx_2_9 = _q4 + 1;
      const int64_t _n_2_10 = (_begin) + _n_idx_2_9;
      const float* _x11 = &h_sum[((_n_idx_2_9) * (8) + (0))];
      float* _o12 = &mz[((_n_idx_2_9) * (8) + (0))];
      {
        const float* _wp = Uz_T + 0;
        repro_vf _sx0 = repro_vf_splat(_x7[0]);
        repro_vf _sx1 = repro_vf_splat(_x11[0]);
        repro_vf _wv0 = repro_vf_load(_wp + 0);
        repro_vf _wv1 = repro_vf_load(_wp + 4);
        repro_vf _ac0_0 = _wv0 * _sx0;
        repro_vf _ac0_1 = _wv1 * _sx0;
        repro_vf _ac1_0 = _wv0 * _sx1;
        repro_vf _ac1_1 = _wv1 * _sx1;
        for (int64_t _kr = 1; _kr < 8; ++_kr) {
          _wp += 8;
          _sx0 = repro_vf_splat(_x7[_kr]);
          _sx1 = repro_vf_splat(_x11[_kr]);
          _wv0 = repro_vf_load(_wp + 0);
          _wv1 = repro_vf_load(_wp + 4);
          _ac0_0 = _ac0_0 + _wv0 * _sx0;
          _ac0_1 = _ac0_1 + _wv1 * _sx0;
          _ac1_0 = _ac1_0 + _wv0 * _sx1;
          _ac1_1 = _ac1_1 + _wv1 * _sx1;
        }
        repro_vf_store(_o8 + 0 + 0, _ac0_0);
        repro_vf_store(_o8 + 0 + 4, _ac0_1);
        repro_vf_store(_o12 + 0 + 0, _ac1_0);
        repro_vf_store(_o12 + 0 + 4, _ac1_1);
      }
    }
    for (; _q4 + 1 <= _rows3; _q4 += 1) {
      const int64_t _n_idx_2_13 = _q4;
      const int64_t _n_2_14 = (_begin) + _n_idx_2_13;
      const float* _x15 = &h_sum[((_n_idx_2_13) * (8) + (0))];
      float* _o16 = &mz[((_n_idx_2_13) * (8) + (0))];
      {
        const float* _wp = Uz_T + 0;
        repro_vf _sx0 = repro_vf_splat(_x15[0]);
        repro_vf _wv0 = repro_vf_load(_wp + 0);
        repro_vf _wv1 = repro_vf_load(_wp + 4);
        repro_vf _ac0_0 = _wv0 * _sx0;
        repro_vf _ac0_1 = _wv1 * _sx0;
        for (int64_t _kr = 1; _kr < 8; ++_kr) {
          _wp += 8;
          _sx0 = repro_vf_splat(_x15[_kr]);
          _wv0 = repro_vf_load(_wp + 0);
          _wv1 = repro_vf_load(_wp + 4);
          _ac0_0 = _ac0_0 + _wv0 * _sx0;
          _ac0_1 = _ac0_1 + _wv1 * _sx0;
        }
        repro_vf_store(_o16 + 0 + 0, _ac0_0);
        repro_vf_store(_o16 + 0 + 4, _ac0_1);
      }
    }
    // mr [matvec] contraction: 2x16 register tiles over Ur_T[8][8]
    const int64_t _rows17 = (_length) * 1;
    int64_t _q18 = 0;
    for (; _q18 + 2 <= _rows17; _q18 += 2) {
      const int64_t _n_idx_3_19 = _q18;
      const int64_t _n_3_20 = (_begin) + _n_idx_3_19;
      const float* _x21 = &h_sum[((_n_idx_3_19) * (8) + (0))];
      float* _o22 = &mr[((_n_idx_3_19) * (8) + (0))];
      const int64_t _n_idx_3_23 = _q18 + 1;
      const int64_t _n_3_24 = (_begin) + _n_idx_3_23;
      const float* _x25 = &h_sum[((_n_idx_3_23) * (8) + (0))];
      float* _o26 = &mr[((_n_idx_3_23) * (8) + (0))];
      {
        const float* _wp = Ur_T + 0;
        repro_vf _sx0 = repro_vf_splat(_x21[0]);
        repro_vf _sx1 = repro_vf_splat(_x25[0]);
        repro_vf _wv0 = repro_vf_load(_wp + 0);
        repro_vf _wv1 = repro_vf_load(_wp + 4);
        repro_vf _ac0_0 = _wv0 * _sx0;
        repro_vf _ac0_1 = _wv1 * _sx0;
        repro_vf _ac1_0 = _wv0 * _sx1;
        repro_vf _ac1_1 = _wv1 * _sx1;
        for (int64_t _kr = 1; _kr < 8; ++_kr) {
          _wp += 8;
          _sx0 = repro_vf_splat(_x21[_kr]);
          _sx1 = repro_vf_splat(_x25[_kr]);
          _wv0 = repro_vf_load(_wp + 0);
          _wv1 = repro_vf_load(_wp + 4);
          _ac0_0 = _ac0_0 + _wv0 * _sx0;
          _ac0_1 = _ac0_1 + _wv1 * _sx0;
          _ac1_0 = _ac1_0 + _wv0 * _sx1;
          _ac1_1 = _ac1_1 + _wv1 * _sx1;
        }
        repro_vf_store(_o22 + 0 + 0, _ac0_0);
        repro_vf_store(_o22 + 0 + 4, _ac0_1);
        repro_vf_store(_o26 + 0 + 0, _ac1_0);
        repro_vf_store(_o26 + 0 + 4, _ac1_1);
      }
    }
    for (; _q18 + 1 <= _rows17; _q18 += 1) {
      const int64_t _n_idx_3_27 = _q18;
      const int64_t _n_3_28 = (_begin) + _n_idx_3_27;
      const float* _x29 = &h_sum[((_n_idx_3_27) * (8) + (0))];
      float* _o30 = &mr[((_n_idx_3_27) * (8) + (0))];
      {
        const float* _wp = Ur_T + 0;
        repro_vf _sx0 = repro_vf_splat(_x29[0]);
        repro_vf _wv0 = repro_vf_load(_wp + 0);
        repro_vf _wv1 = repro_vf_load(_wp + 4);
        repro_vf _ac0_0 = _wv0 * _sx0;
        repro_vf _ac0_1 = _wv1 * _sx0;
        for (int64_t _kr = 1; _kr < 8; ++_kr) {
          _wp += 8;
          _sx0 = repro_vf_splat(_x29[_kr]);
          _wv0 = repro_vf_load(_wp + 0);
          _wv1 = repro_vf_load(_wp + 4);
          _ac0_0 = _ac0_0 + _wv0 * _sx0;
          _ac0_1 = _ac0_1 + _wv1 * _sx0;
        }
        repro_vf_store(_o30 + 0 + 0, _ac0_0);
        repro_vf_store(_o30 + 0 + 4, _ac0_1);
      }
    }
    // z [elementwise]
    for (int64_t n_idx_4 = 0; n_idx_4 < _length; ++n_idx_4) {
      const int64_t n_4 = (_begin) + n_idx_4;
      for (int64_t i_4 = 0; i_4 < (0) + (8); ++i_4) {
        z[((n_idx_4) * (8) + (i_4))] = repro_sigmoidf((mz[((n_idx_4) * (8) + (i_4))] + bz[(i_4)]));
      }
    }
    // r [elementwise]
    for (int64_t n_idx_5 = 0; n_idx_5 < _length; ++n_idx_5) {
      const int64_t n_5 = (_begin) + n_idx_5;
      for (int64_t i_5 = 0; i_5 < (0) + (8); ++i_5) {
        r[((n_idx_5) * (8) + (i_5))] = repro_sigmoidf((mr[((n_idx_5) * (8) + (i_5))] + br[(i_5)]));
      }
    }
    // rh_in [elementwise]
    for (int64_t n_idx_6 = 0; n_idx_6 < _length; ++n_idx_6) {
      const int64_t n_6 = (_begin) + n_idx_6;
      for (int64_t i_6 = 0; i_6 < (0) + (8); ++i_6) {
        rh_in[((n_idx_6) * (8) + (i_6))] = (r[((n_idx_6) * (8) + (i_6))] * h_sum[((n_idx_6) * (8) + (i_6))]);
      }
    }
    // mh [matvec] contraction: 2x16 register tiles over Uh_T[8][8]
    const int64_t _rows31 = (_length) * 1;
    int64_t _q32 = 0;
    for (; _q32 + 2 <= _rows31; _q32 += 2) {
      const int64_t _n_idx_7_33 = _q32;
      const int64_t _n_7_34 = (_begin) + _n_idx_7_33;
      const float* _x35 = &rh_in[((_n_idx_7_33) * (8) + (0))];
      float* _o36 = &mh[((_n_idx_7_33) * (8) + (0))];
      const int64_t _n_idx_7_37 = _q32 + 1;
      const int64_t _n_7_38 = (_begin) + _n_idx_7_37;
      const float* _x39 = &rh_in[((_n_idx_7_37) * (8) + (0))];
      float* _o40 = &mh[((_n_idx_7_37) * (8) + (0))];
      {
        const float* _wp = Uh_T + 0;
        repro_vf _sx0 = repro_vf_splat(_x35[0]);
        repro_vf _sx1 = repro_vf_splat(_x39[0]);
        repro_vf _wv0 = repro_vf_load(_wp + 0);
        repro_vf _wv1 = repro_vf_load(_wp + 4);
        repro_vf _ac0_0 = _wv0 * _sx0;
        repro_vf _ac0_1 = _wv1 * _sx0;
        repro_vf _ac1_0 = _wv0 * _sx1;
        repro_vf _ac1_1 = _wv1 * _sx1;
        for (int64_t _kr = 1; _kr < 8; ++_kr) {
          _wp += 8;
          _sx0 = repro_vf_splat(_x35[_kr]);
          _sx1 = repro_vf_splat(_x39[_kr]);
          _wv0 = repro_vf_load(_wp + 0);
          _wv1 = repro_vf_load(_wp + 4);
          _ac0_0 = _ac0_0 + _wv0 * _sx0;
          _ac0_1 = _ac0_1 + _wv1 * _sx0;
          _ac1_0 = _ac1_0 + _wv0 * _sx1;
          _ac1_1 = _ac1_1 + _wv1 * _sx1;
        }
        repro_vf_store(_o36 + 0 + 0, _ac0_0);
        repro_vf_store(_o36 + 0 + 4, _ac0_1);
        repro_vf_store(_o40 + 0 + 0, _ac1_0);
        repro_vf_store(_o40 + 0 + 4, _ac1_1);
      }
    }
    for (; _q32 + 1 <= _rows31; _q32 += 1) {
      const int64_t _n_idx_7_41 = _q32;
      const int64_t _n_7_42 = (_begin) + _n_idx_7_41;
      const float* _x43 = &rh_in[((_n_idx_7_41) * (8) + (0))];
      float* _o44 = &mh[((_n_idx_7_41) * (8) + (0))];
      {
        const float* _wp = Uh_T + 0;
        repro_vf _sx0 = repro_vf_splat(_x43[0]);
        repro_vf _wv0 = repro_vf_load(_wp + 0);
        repro_vf _wv1 = repro_vf_load(_wp + 4);
        repro_vf _ac0_0 = _wv0 * _sx0;
        repro_vf _ac0_1 = _wv1 * _sx0;
        for (int64_t _kr = 1; _kr < 8; ++_kr) {
          _wp += 8;
          _sx0 = repro_vf_splat(_x43[_kr]);
          _wv0 = repro_vf_load(_wp + 0);
          _wv1 = repro_vf_load(_wp + 4);
          _ac0_0 = _ac0_0 + _wv0 * _sx0;
          _ac0_1 = _ac0_1 + _wv1 * _sx0;
        }
        repro_vf_store(_o44 + 0 + 0, _ac0_0);
        repro_vf_store(_o44 + 0 + 4, _ac0_1);
      }
    }
    // hprime [elementwise]
    for (int64_t n_idx_8 = 0; n_idx_8 < _length; ++n_idx_8) {
      const int64_t n_8 = (_begin) + n_idx_8;
      for (int64_t i_8 = 0; i_8 < (0) + (8); ++i_8) {
        hprime[((n_idx_8) * (8) + (i_8))] = tanhf((mh[((n_idx_8) * (8) + (i_8))] + bh[(i_8)]));
      }
    }
    // rec_h [elementwise]
    for (int64_t n_idx_9 = 0; n_idx_9 < _length; ++n_idx_9) {
      const int64_t n_9 = (_begin) + n_idx_9;
      for (int64_t i_9 = 0; i_9 < (0) + (8); ++i_9) {
        rnn[((n_9) * (8) + (i_9))] = ((z[((n_idx_9) * (8) + (i_9))] * h_sum[((n_idx_9) * (8) + (i_9))]) + ((1.0f - z[((n_idx_9) * (8) + (i_9))]) * hprime[((n_idx_9) * (8) + (i_9))]));
      }
    }
  }
}


#ifdef __cplusplus
}  /* extern "C" */
#endif
