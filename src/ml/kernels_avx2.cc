// AVX2 + FMA tier of the fast ML kernel table (ml/kernels_simd.h).
//
// This translation unit is compiled with -mavx2 -mfma (src/CMakeLists.txt)
// while the rest of the build stays at the portable baseline ISA; the
// dispatch layer in ml/kernels.cc only selects this table after a CPUID
// check, so the binary remains runnable on pre-AVX2 hardware. When the
// toolchain cannot target AVX2 at all, Avx2KernelOps() compiles to a
// nullptr stub and the portable table is used unconditionally.
//
// The tiles, the int8 epilogue, the activation quantizer and the row-block
// driver come from ml/kernels_tiles.h over the 8-float trait below (a
// 16-column tile is two ymm vectors). That header's code has internal
// linkage, so these -mavx2 copies never merge with the AVX-512 TU's (a weak
// symbol could resolve to the AVX-512 copy here). What stays here is
// AVX2-only, and the AVX-512 tier runs it too:
//  * dot_rows processes four b rows per a-row pass with independent
//    accumulators, then reduces them with a hadd tree;
//  * accum_outer streams fused multiply-adds over 16-column strips of the
//    accumulation target.
// No path branches on values (no zero-skip — that branch is the reference
// backend's documented pessimization).

#include "ml/kernels_simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "ml/kernels_tiles.h"

namespace arecel {
namespace mlk {
namespace {

inline float HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

// The vector trait of ml/kernels_tiles.h: 8 floats / 8 int32 per vector.
struct Avx2Vec {
  using F = __m256;
  using I = __m256i;
  static constexpr size_t kWidth = 8;

  static F Zero() { return _mm256_setzero_ps(); }
  static F Set1(float x) { return _mm256_set1_ps(x); }
  static F Load(const float* p) { return _mm256_loadu_ps(p); }
  static F LoadPartial(const float* p, size_t count) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_maskload_ps(
        p, _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                              lane));
  }
  static void Store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static F Add(F a, F b) { return _mm256_add_ps(a, b); }
  static F Mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F Min(F a, F b) { return _mm256_min_ps(a, b); }
  static F Max(F a, F b) { return _mm256_max_ps(a, b); }
  static F Fmadd(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
  static float ReduceMin(F v) {
    __m128 m = _mm_min_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    m = _mm_min_ps(m, _mm_movehl_ps(m, m));
    return _mm_cvtss_f32(_mm_min_ss(m, _mm_shuffle_ps(m, m, 1)));
  }
  static float ReduceMax(F v) {
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    return _mm_cvtss_f32(_mm_max_ss(m, _mm_shuffle_ps(m, m, 1)));
  }

  static I Set1I(int32_t x) { return _mm256_set1_epi32(x); }
  static I LoadI(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static void StoreI(void* p, I v) {
    _mm256_storeu_si256(static_cast<__m256i*>(p), v);
  }
  static I SubI(I a, I b) { return _mm256_sub_epi32(a, b); }
  static I MulloI(I a, I b) { return _mm256_mullo_epi32(a, b); }
  static F ToFloat(I v) { return _mm256_cvtepi32_ps(v); }
  static I Truncate(F v) { return _mm256_cvttps_epi32(v); }
  // u8*s8 pair sums cannot saturate maddubs' int16: activations are 7-bit.
  static I DotU8S8(I acc, I a, I b) {
    return _mm256_add_epi32(
        acc, _mm256_madd_epi16(_mm256_maddubs_epi16(a, b),
                               _mm256_set1_epi16(1)));
  }
  static void StoreCodes(uint8_t* dst, I codes) {
    const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(codes),
                                        _mm256_extracti128_si256(codes, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst),
                     _mm_packus_epi16(p16, p16));
  }
};

void DotRowsAvx2(const float* a, size_t lda, const float* b, size_t ldb,
                 float* out, size_t ldo, size_t i_lo, size_t i_hi, size_t k,
                 size_t n) {
  for (size_t i = i_lo; i < i_hi; ++i) {
    const float* a_row = a + i * lda;
    float* out_row = out + i * ldo;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * ldb;
      const float* b1 = b0 + ldb;
      const float* b2 = b1 + ldb;
      const float* b3 = b2 + ldb;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      size_t kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        const __m256 av = _mm256_loadu_ps(a_row + kk);
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + kk), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + kk), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + kk), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + kk), acc3);
      }
      // hadd tree: four 8-wide accumulators -> one 4-float vector of sums.
      const __m256 h01 = _mm256_hadd_ps(acc0, acc1);
      const __m256 h23 = _mm256_hadd_ps(acc2, acc3);
      const __m256 h = _mm256_hadd_ps(h01, h23);
      __m128 sums = _mm_add_ps(_mm256_castps256_ps128(h),
                               _mm256_extractf128_ps(h, 1));
      alignas(16) float tail[4];
      _mm_store_ps(tail, sums);
      for (; kk < k; ++kk) {
        const float av = a_row[kk];
        tail[0] += av * b0[kk];
        tail[1] += av * b1[kk];
        tail[2] += av * b2[kk];
        tail[3] += av * b3[kk];
      }
      out_row[j] = tail[0];
      out_row[j + 1] = tail[1];
      out_row[j + 2] = tail[2];
      out_row[j + 3] = tail[3];
    }
    for (; j < n; ++j) {
      const float* b_row = b + j * ldb;
      __m256 acc = _mm256_setzero_ps();
      size_t kk = 0;
      for (; kk + 8 <= k; kk += 8)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a_row + kk),
                              _mm256_loadu_ps(b_row + kk), acc);
      float sum = HSum(acc);
      for (; kk < k; ++kk) sum += a_row[kk] * b_row[kk];
      out_row[j] = sum;
    }
  }
}

void AccumOuterAvx2(const float* a, size_t lda, const float* b, size_t ldb,
                    float* out, size_t ldo, size_t k_lo, size_t k_hi,
                    size_t m, size_t n) {
  for (size_t kk = k_lo; kk < k_hi; ++kk) {
    const float* a_row = a + kk * lda;
    const float* b_row = b + kk * ldb;
    for (size_t i = 0; i < m; ++i) {
      const __m256 av = _mm256_set1_ps(a_row[i]);
      float* out_row = out + i * ldo;
      size_t j = 0;
      for (; j + 16 <= n; j += 16) {
        const __m256 o0 = _mm256_loadu_ps(out_row + j);
        const __m256 o1 = _mm256_loadu_ps(out_row + j + 8);
        _mm256_storeu_ps(out_row + j,
                         _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + j), o0));
        _mm256_storeu_ps(
            out_row + j + 8,
            _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + j + 8), o1));
      }
      for (; j + 8 <= n; j += 8) {
        const __m256 o = _mm256_loadu_ps(out_row + j);
        _mm256_storeu_ps(out_row + j,
                         _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + j), o));
      }
      const float av_scalar = a_row[i];
      for (; j < n; ++j) out_row[j] += av_scalar * b_row[j];
    }
  }
}

constexpr KernelOps kAvx2Ops = {
    DenseRows<Avx2Vec>,
    DotRowsAvx2,
    AccumOuterAvx2,
    PackedDenseRows<Avx2Vec>,
    QuantDenseRows<Avx2Vec>,
    QuantizeRows<Avx2Vec>,
    "avx2-fma",
};

}  // namespace

const KernelOps* Avx2KernelOps() { return &kAvx2Ops; }

}  // namespace mlk
}  // namespace arecel

#else  // !(__AVX2__ && __FMA__)

namespace arecel {
namespace mlk {

const KernelOps* Avx2KernelOps() { return nullptr; }

}  // namespace mlk
}  // namespace arecel

#endif
