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
// persistent kernel: 1 global barrier(s) per level
void k_fused(
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
    const float* Ui_T,
    const float* Uo_T,
    const float* Uu_T,
    const float* Uf_T,
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
        rnn_h_ph[((n) * (8) + (i))] = Emb[((words[n]) * (8) + (i))];
      }
    }
  }
  // internal batches: the dependence-carrying loop; one global barrier per iteration (App. A.4)
  for (int64_t _b = level_start; _b < num_batches; ++_b) {
    const int64_t _begin = (int64_t)batch_begin[_b];
    const int64_t _length = (int64_t)batch_length[_b];
    // h_tilde [childsum]
    for (int64_t n_idx_2 = 0; n_idx_2 < _length; ++n_idx_2) {
      const int64_t n_2 = (_begin) + n_idx_2;
      for (int64_t i_2 = 0; i_2 < (0) + (8); ++i_2) {
        float _acc1 = 0.0f;
        for (int64_t _k2 = 0; _k2 < max_children; ++_k2) {
          _acc1 = _acc1 + ((_k2 < (num_children[n_2])) ? (rnn_h_ph[((child[((_k2) * num_nodes + (n_2))]) * (8) + (i_2))]) : 0.0f);
        }
        h_tilde[((n_idx_2) * (8) + (i_2))] = _acc1;
      }
    }
    // mi [matvec] contraction: 2x16 register tiles over Ui_T[8][8]
    const int64_t _rows3 = (_length) * 1;
    int64_t _q4 = 0;
    for (; _q4 + 2 <= _rows3; _q4 += 2) {
      const int64_t _n_idx_3_5 = _q4;
      const int64_t _n_3_6 = (_begin) + _n_idx_3_5;
      const float* _x7 = &h_tilde[((_n_idx_3_5) * (8) + (0))];
      float* _o8 = &mi[((_n_idx_3_5) * (8) + (0))];
      const int64_t _n_idx_3_9 = _q4 + 1;
      const int64_t _n_3_10 = (_begin) + _n_idx_3_9;
      const float* _x11 = &h_tilde[((_n_idx_3_9) * (8) + (0))];
      float* _o12 = &mi[((_n_idx_3_9) * (8) + (0))];
      {
        const float* _wp = Ui_T + 0;
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
      const int64_t _n_idx_3_13 = _q4;
      const int64_t _n_3_14 = (_begin) + _n_idx_3_13;
      const float* _x15 = &h_tilde[((_n_idx_3_13) * (8) + (0))];
      float* _o16 = &mi[((_n_idx_3_13) * (8) + (0))];
      {
        const float* _wp = Ui_T + 0;
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
    // mo [matvec] contraction: 2x16 register tiles over Uo_T[8][8]
    const int64_t _rows17 = (_length) * 1;
    int64_t _q18 = 0;
    for (; _q18 + 2 <= _rows17; _q18 += 2) {
      const int64_t _n_idx_4_19 = _q18;
      const int64_t _n_4_20 = (_begin) + _n_idx_4_19;
      const float* _x21 = &h_tilde[((_n_idx_4_19) * (8) + (0))];
      float* _o22 = &mo[((_n_idx_4_19) * (8) + (0))];
      const int64_t _n_idx_4_23 = _q18 + 1;
      const int64_t _n_4_24 = (_begin) + _n_idx_4_23;
      const float* _x25 = &h_tilde[((_n_idx_4_23) * (8) + (0))];
      float* _o26 = &mo[((_n_idx_4_23) * (8) + (0))];
      {
        const float* _wp = Uo_T + 0;
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
      const int64_t _n_idx_4_27 = _q18;
      const int64_t _n_4_28 = (_begin) + _n_idx_4_27;
      const float* _x29 = &h_tilde[((_n_idx_4_27) * (8) + (0))];
      float* _o30 = &mo[((_n_idx_4_27) * (8) + (0))];
      {
        const float* _wp = Uo_T + 0;
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
    // mu [matvec] contraction: 2x16 register tiles over Uu_T[8][8]
    const int64_t _rows31 = (_length) * 1;
    int64_t _q32 = 0;
    for (; _q32 + 2 <= _rows31; _q32 += 2) {
      const int64_t _n_idx_5_33 = _q32;
      const int64_t _n_5_34 = (_begin) + _n_idx_5_33;
      const float* _x35 = &h_tilde[((_n_idx_5_33) * (8) + (0))];
      float* _o36 = &mu[((_n_idx_5_33) * (8) + (0))];
      const int64_t _n_idx_5_37 = _q32 + 1;
      const int64_t _n_5_38 = (_begin) + _n_idx_5_37;
      const float* _x39 = &h_tilde[((_n_idx_5_37) * (8) + (0))];
      float* _o40 = &mu[((_n_idx_5_37) * (8) + (0))];
      {
        const float* _wp = Uu_T + 0;
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
      const int64_t _n_idx_5_41 = _q32;
      const int64_t _n_5_42 = (_begin) + _n_idx_5_41;
      const float* _x43 = &h_tilde[((_n_idx_5_41) * (8) + (0))];
      float* _o44 = &mu[((_n_idx_5_41) * (8) + (0))];
      {
        const float* _wp = Uu_T + 0;
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
    // gi [elementwise]
    for (int64_t n_idx_6 = 0; n_idx_6 < _length; ++n_idx_6) {
      const int64_t n_6 = (_begin) + n_idx_6;
      for (int64_t i_6 = 0; i_6 < (0) + (8); ++i_6) {
        gi[((n_idx_6) * (8) + (i_6))] = repro_sigmoidf((mi[((n_idx_6) * (8) + (i_6))] + bi[(i_6)]));
      }
    }
    // go [elementwise]
    for (int64_t n_idx_7 = 0; n_idx_7 < _length; ++n_idx_7) {
      const int64_t n_7 = (_begin) + n_idx_7;
      for (int64_t i_7 = 0; i_7 < (0) + (8); ++i_7) {
        go[((n_idx_7) * (8) + (i_7))] = repro_sigmoidf((mo[((n_idx_7) * (8) + (i_7))] + bo[(i_7)]));
      }
    }
    // gu [elementwise]
    for (int64_t n_idx_8 = 0; n_idx_8 < _length; ++n_idx_8) {
      const int64_t n_8 = (_begin) + n_idx_8;
      for (int64_t i_8 = 0; i_8 < (0) + (8); ++i_8) {
        gu[((n_idx_8) * (8) + (i_8))] = tanhf((mu[((n_idx_8) * (8) + (i_8))] + bu[(i_8)]));
      }
    }
    // mf [matvec] contraction: 2x16 register tiles over Uf_T[8][8]
    const int64_t _rows45 = (_length) * 2;
    int64_t _q46 = 0;
    for (; _q46 + 2 <= _rows45; _q46 += 2) {
      const int64_t _i_9_47 = (_q46) % 2;
      const int64_t _n_idx_9_48 = (_q46) / 2;
      const int64_t _n_9_49 = (_begin) + _n_idx_9_48;
      const float* _x50 = &rnn_h_ph[((child[((_i_9_47) * num_nodes + (_n_9_49))]) * (8) + (0))];
      float* _o51 = &mf[(((_n_idx_9_48) * (2) + (_i_9_47)) * (8) + (0))];
      const int64_t _i_9_52 = (_q46 + 1) % 2;
      const int64_t _n_idx_9_53 = (_q46 + 1) / 2;
      const int64_t _n_9_54 = (_begin) + _n_idx_9_53;
      const float* _x55 = &rnn_h_ph[((child[((_i_9_52) * num_nodes + (_n_9_54))]) * (8) + (0))];
      float* _o56 = &mf[(((_n_idx_9_53) * (2) + (_i_9_52)) * (8) + (0))];
      {
        const float* _wp = Uf_T + 0;
        repro_vf _sx0 = repro_vf_splat(_x50[0]);
        repro_vf _sx1 = repro_vf_splat(_x55[0]);
        repro_vf _wv0 = repro_vf_load(_wp + 0);
        repro_vf _wv1 = repro_vf_load(_wp + 4);
        repro_vf _ac0_0 = _wv0 * _sx0;
        repro_vf _ac0_1 = _wv1 * _sx0;
        repro_vf _ac1_0 = _wv0 * _sx1;
        repro_vf _ac1_1 = _wv1 * _sx1;
        for (int64_t _kr = 1; _kr < 8; ++_kr) {
          _wp += 8;
          _sx0 = repro_vf_splat(_x50[_kr]);
          _sx1 = repro_vf_splat(_x55[_kr]);
          _wv0 = repro_vf_load(_wp + 0);
          _wv1 = repro_vf_load(_wp + 4);
          _ac0_0 = _ac0_0 + _wv0 * _sx0;
          _ac0_1 = _ac0_1 + _wv1 * _sx0;
          _ac1_0 = _ac1_0 + _wv0 * _sx1;
          _ac1_1 = _ac1_1 + _wv1 * _sx1;
        }
        repro_vf_store(_o51 + 0 + 0, _ac0_0);
        repro_vf_store(_o51 + 0 + 4, _ac0_1);
        repro_vf_store(_o56 + 0 + 0, _ac1_0);
        repro_vf_store(_o56 + 0 + 4, _ac1_1);
      }
    }
    for (; _q46 + 1 <= _rows45; _q46 += 1) {
      const int64_t _i_9_57 = (_q46) % 2;
      const int64_t _n_idx_9_58 = (_q46) / 2;
      const int64_t _n_9_59 = (_begin) + _n_idx_9_58;
      const float* _x60 = &rnn_h_ph[((child[((_i_9_57) * num_nodes + (_n_9_59))]) * (8) + (0))];
      float* _o61 = &mf[(((_n_idx_9_58) * (2) + (_i_9_57)) * (8) + (0))];
      {
        const float* _wp = Uf_T + 0;
        repro_vf _sx0 = repro_vf_splat(_x60[0]);
        repro_vf _wv0 = repro_vf_load(_wp + 0);
        repro_vf _wv1 = repro_vf_load(_wp + 4);
        repro_vf _ac0_0 = _wv0 * _sx0;
        repro_vf _ac0_1 = _wv1 * _sx0;
        for (int64_t _kr = 1; _kr < 8; ++_kr) {
          _wp += 8;
          _sx0 = repro_vf_splat(_x60[_kr]);
          _wv0 = repro_vf_load(_wp + 0);
          _wv1 = repro_vf_load(_wp + 4);
          _ac0_0 = _ac0_0 + _wv0 * _sx0;
          _ac0_1 = _ac0_1 + _wv1 * _sx0;
        }
        repro_vf_store(_o61 + 0 + 0, _ac0_0);
        repro_vf_store(_o61 + 0 + 4, _ac0_1);
      }
    }
    // gf [elementwise]
    for (int64_t n_idx_10 = 0; n_idx_10 < _length; ++n_idx_10) {
      const int64_t n_10 = (_begin) + n_idx_10;
      for (int64_t i_11 = 0; i_11 < (0) + (2); ++i_11) {
        for (int64_t i_12 = 0; i_12 < (0) + (8); ++i_12) {
          gf[(((n_idx_10) * (2) + (i_11)) * (8) + (i_12))] = repro_sigmoidf((mf[(((n_idx_10) * (2) + (i_11)) * (8) + (i_12))] + bf[(i_12)]));
        }
      }
    }
    // fc_sum [childsum]
    for (int64_t n_idx_11 = 0; n_idx_11 < _length; ++n_idx_11) {
      const int64_t n_11 = (_begin) + n_idx_11;
      for (int64_t i_13 = 0; i_13 < (0) + (8); ++i_13) {
        float _acc62 = 0.0f;
        for (int64_t _k63 = 0; _k63 < max_children; ++_k63) {
          _acc62 = _acc62 + ((_k63 < (num_children[n_11])) ? ((gf[(((n_idx_11) * (2) + (_k63)) * (8) + (i_13))] * rnn_c_ph[((child[((_k63) * num_nodes + (n_11))]) * (8) + (i_13))])) : 0.0f);
        }
        fc_sum[((n_idx_11) * (8) + (i_13))] = _acc62;
      }
    }
    // rec_c [elementwise]
    for (int64_t n_idx_12 = 0; n_idx_12 < _length; ++n_idx_12) {
      const int64_t n_12 = (_begin) + n_idx_12;
      for (int64_t i_14 = 0; i_14 < (0) + (8); ++i_14) {
        rnn_c_ph[((n_12) * (8) + (i_14))] = ((gi[((n_idx_12) * (8) + (i_14))] * gu[((n_idx_12) * (8) + (i_14))]) + fc_sum[((n_idx_12) * (8) + (i_14))]);
      }
    }
    // rec_h [elementwise]
    for (int64_t n_idx_13 = 0; n_idx_13 < _length; ++n_idx_13) {
      const int64_t n_14 = (_begin) + n_idx_13;
      for (int64_t i_16 = 0; i_16 < (0) + (8); ++i_16) {
        rnn_h_ph[((n_14) * (8) + (i_16))] = (go[((n_idx_13) * (8) + (i_16))] * tanhf(rnn_c_ph[((n_14) * (8) + (i_16))]));
      }
    }
  }
}


#ifdef __cplusplus
}  /* extern "C" */
#endif
