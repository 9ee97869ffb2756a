// AVX-512 (F + BW) tier of the fast ML kernel table (ml/kernels_simd.h),
// compiled with -mavx512f -mavx512bw (src/CMakeLists.txt) and selected at
// runtime only after a CPUID check for both features, so the binary stays
// runnable on AVX2-only hardware.
//
// This tier must be bit-identical to the AVX2 tier, so that runtime ISA
// dispatch never perturbs the fast backend's numerics (goldens and the
// serve path's "bit-identical to direct inference" guarantees):
//  * the tiles, the int8 epilogue and the activation quantizer are the
//    AVX2 tier's own source (ml/kernels_tiles.h) over the 16-float trait
//    below; a 16-column tile is one zmm, and the arithmetic is lane-
//    independent, so wider vectors only regroup lanes. That header's code
//    has internal linkage, so these -mavx512f copies never merge with the
//    AVX2 TU's;
//  * dot_rows and accum_outer forward to the AVX2 table: dot_rows
//    reduces across lanes (hadd tree), where a 512-bit rewrite would change
//    summation order; accum_outer only serves training, which this tier
//    does not accelerate.
// What is AVX-512 only is the VNNI accumulation of quant_dense_rows, with
// its CPUID probe and 4-tile register block.

#include "ml/kernels_simd.h"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include <cstdlib>
#include <cstring>

#include "ml/kernels_tiles.h"

namespace arecel {
namespace mlk {
namespace {

// The vector trait of ml/kernels_tiles.h: 16 floats / 16 int32 per vector.
struct Avx512Vec {
  using F = __m512;
  using I = __m512i;
  static constexpr size_t kWidth = 16;

  static F Zero() { return _mm512_setzero_ps(); }
  static F Set1(float x) { return _mm512_set1_ps(x); }
  static F Load(const float* p) { return _mm512_loadu_ps(p); }
  static F LoadPartial(const float* p, size_t count) {
    return _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << count) - 1u),
                                 p);
  }
  static void Store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static F Add(F a, F b) { return _mm512_add_ps(a, b); }
  static F Mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F Min(F a, F b) { return _mm512_min_ps(a, b); }
  static F Max(F a, F b) { return _mm512_max_ps(a, b); }
  static F Fmadd(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }
  static float ReduceMin(F v) { return _mm512_reduce_min_ps(v); }
  static float ReduceMax(F v) { return _mm512_reduce_max_ps(v); }

  static I Set1I(int32_t x) { return _mm512_set1_epi32(x); }
  static I LoadI(const void* p) { return _mm512_loadu_si512(p); }
  static void StoreI(void* p, I v) { _mm512_storeu_si512(p, v); }
  static I SubI(I a, I b) { return _mm512_sub_epi32(a, b); }
  static I MulloI(I a, I b) { return _mm512_mullo_epi32(a, b); }
  static F ToFloat(I v) { return _mm512_cvtepi32_ps(v); }
  static I Truncate(F v) { return _mm512_cvttps_epi32(v); }
  // u8*s8 pair sums cannot saturate maddubs' int16: activations are 7-bit.
  static I DotU8S8(I acc, I a, I b) {
    return _mm512_add_epi32(
        acc, _mm512_madd_epi16(_mm512_maddubs_epi16(a, b),
                               _mm512_set1_epi16(1)));
  }
  // Masked byte stores on xmm need AVX512VL, which this TU does not enable,
  // so the 16 codes go out as one full 16-byte store.
  static void StoreCodes(uint8_t* dst, I codes) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm512_cvtepi32_epi8(codes));
  }
};

// The AVX2 table is always compiled when this TU is (-mavx512f implies
// AVX2 support in the compiler), and any CPU passing the avx512f+bw CPUID
// check runs AVX2 code; the portable fallback is for form only.
const KernelOps& Avx2Ops() {
  const KernelOps* avx2 = Avx2KernelOps();
  return avx2 != nullptr ? *avx2 : PortableKernelOps();
}

void DotRowsAvx512(const float* a, size_t lda, const float* b, size_t ldb,
                   float* out, size_t ldo, size_t i_lo, size_t i_hi, size_t k,
                   size_t n) {
  Avx2Ops().dot_rows(a, lda, b, ldb, out, ldo, i_lo, i_hi, k, n);
}

void AccumOuterAvx512(const float* a, size_t lda, const float* b, size_t ldb,
                      float* out, size_t ldo, size_t k_lo, size_t k_hi,
                      size_t m, size_t n) {
  Avx2Ops().accum_outer(a, lda, b, ldb, out, ldo, k_lo, k_hi, m, n);
}

// AVX512-VNNI accumulation: vpdpbusd computes the four u8*s8 products of a
// k-group and adds them into the int32 accumulator in one instruction —
// exactly the arithmetic of DotU8S8's maddubs/madd/add triple (products are
// sign-extended and summed at 32 bits, no intermediate saturation), so the
// accumulators and therefore the outputs are bit-identical between the two
// forms. R rows x NT consecutive 16-column tiles share one register block:
// blocking across tiles amortizes the per-group activation broadcast over
// NT dpbusd issues — the broadcast chain, not the multiply, is what bounds
// the single-tile form. Accumulation is exact int32, so the block shape
// cannot change results.
#pragma GCC push_options
#pragma GCC target("avx512vnni")
template <size_t R, size_t NT>
void QuantBlockVnni(const uint8_t* aq, size_t lda_q, const int8_t* bq,
                    size_t k_pad, const float* a_scales, const int32_t* a_zps,
                    const float* w_scales, const int32_t* w_col_sums,
                    const float* bias, bool relu, float* out, size_t ldo,
                    size_t i, size_t jbase0, size_t col_begin,
                    size_t col_end) {
  __m512i acc[NT][R][kLanes<Avx512Vec>];  // one zmm per row and tile.
  const uint8_t* a_rows[R];
  const int8_t* tps[NT];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) a_rows[r] = aq + (i + r) * lda_q;
#pragma GCC unroll 4
  for (size_t t = 0; t < NT; ++t) {
    tps[t] = bq + (jbase0 + t * kPackTileCols) * k_pad;
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) acc[t][r][0] = _mm512_setzero_si512();
  }
  for (size_t kg = 0; kg < k_pad; kg += kQuantKGroup) {
    __m512i bv[NT];
#pragma GCC unroll 4
    for (size_t t = 0; t < NT; ++t)
      bv[t] = _mm512_load_si512(tps[t] + kg * kPackTileCols);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      int32_t a4;
      std::memcpy(&a4, a_rows[r] + kg, sizeof(a4));
      const __m512i av = _mm512_set1_epi32(a4);
#pragma GCC unroll 4
      for (size_t t = 0; t < NT; ++t)
        acc[t][r][0] = _mm512_dpbusd_epi32(acc[t][r][0], av, bv[t]);
    }
  }
  for (size_t t = 0; t < NT; ++t) {
    QuantTileEpilogue<Avx512Vec, R>(acc[t], a_scales, a_zps, w_scales,
                                    w_col_sums, bias, relu, out, ldo, i,
                                    jbase0 + t * kPackTileCols, col_begin,
                                    col_end);
  }
}
#pragma GCC pop_options

// Micro-dispatch between the two accumulation forms: probed once per
// process (ARECEL_ML_VNNI=0 forces the maddubs form, e.g. to cover both
// paths in tests on VNNI hardware). Both produce bit-identical results, so
// this is purely a throughput choice.
bool UseAvx512Vnni() {
  static const bool use = [] {
    const char* env = std::getenv("ARECEL_ML_VNNI");
    if (env != nullptr && env[0] == '0' && env[1] == '\0') return false;
    return __builtin_cpu_supports("avx512vnni") != 0;
  }();
  return use;
}

void QuantDenseRowsAvx512(const uint8_t* aq, size_t lda_q,
                          const float* a_scales, const int32_t* a_zps,
                          const int8_t* bq, size_t k_pad, size_t n_pad,
                          const float* w_scales, const int32_t* w_col_sums,
                          const float* bias, bool relu, float* out,
                          size_t ldo, size_t i_lo, size_t i_hi,
                          size_t col_begin, size_t cols) {
  if (!UseAvx512Vnni()) {
    QuantDenseRows<Avx512Vec>(aq, lda_q, a_scales, a_zps, bq, k_pad, n_pad,
                              w_scales, w_col_sums, bias, relu, out, ldo,
                              i_lo, i_hi, col_begin, cols);
    return;
  }
  const size_t col_end = col_begin + cols;
  // Tiles whose 16 columns all lie inside the window, [t_full_lo,
  // t_full_hi): only those take the 4-tile block.
  const size_t t_full_lo = (col_begin + kPackTileCols - 1) / kPackTileCols;
  const size_t t_full_hi = col_end / kPackTileCols;
  ForEachRowBlock(i_lo, i_hi, [&]<size_t R>(RowBlock<R>, size_t i) {
    size_t t = col_begin / kPackTileCols;
    while (t * kPackTileCols < col_end) {
      if constexpr (R == 4) {
        if (t >= t_full_lo && t + 4 <= t_full_hi) {
          QuantBlockVnni<4, 4>(aq, lda_q, bq, k_pad, a_scales, a_zps,
                               w_scales, w_col_sums, bias, relu, out, ldo, i,
                               t * kPackTileCols, col_begin, col_end);
          t += 4;
          continue;
        }
      }
      QuantBlockVnni<R, 1>(aq, lda_q, bq, k_pad, a_scales, a_zps, w_scales,
                           w_col_sums, bias, relu, out, ldo, i,
                           t * kPackTileCols, col_begin, col_end);
      ++t;
    }
  });
}

constexpr KernelOps kAvx512Ops = {
    DenseRows<Avx512Vec>,
    DotRowsAvx512,
    AccumOuterAvx512,
    PackedDenseRows<Avx512Vec>,
    QuantDenseRowsAvx512,
    QuantizeRows<Avx512Vec>,
    "avx512",
};

}  // namespace

const KernelOps* Avx512KernelOps() { return &kAvx512Ops; }

}  // namespace mlk
}  // namespace arecel

#else  // !(__AVX512F__ && __AVX512BW__)

namespace arecel {
namespace mlk {

const KernelOps* Avx512KernelOps() { return nullptr; }

}  // namespace mlk
}  // namespace arecel

#endif
