#ifndef ARECEL_ML_KERNELS_TILES_H_
#define ARECEL_ML_KERNELS_TILES_H_

// The tile kernels shared by the AVX2 and AVX-512 tiers of the ML kernel
// table (ml/kernels_simd.h), written once over a per-ISA vector trait `S`
// and included only by the two SIMD translation units: kernels_avx2.cc
// covers a 16-column tile as 2 x 8 lanes, kernels_avx512.cc as 1 x 16.
//
// A trait provides, as static members:
//   F, I, kWidth      float / int32 vector types and floats per vector
//   Zero Set1 Load Store Add Mul Min Max Fmadd
//   LoadPartial       the first `count` (1..kWidth) floats, zeros after,
//                     reading nothing past them
//   ReduceMin ReduceMax                          horizontal, exact
//   Set1I LoadI StoreI SubI MulloI ToFloat Truncate
//   DotU8S8           acc + per-int32 sums of four u8*s8 products
//   StoreCodes        kWidth int32 codes in [0, 127] -> kWidth bytes
//
// Linkage rule: the two TUs compile with different -m flags, so everything
// here has internal linkage (an unnamed namespace, instantiated on traits
// that are themselves internal). An external-linkage inline function would
// leave a weak copy in each object, and the linker could keep the AVX-512
// one for the AVX2 path.
//
// Numeric contract: every fp32 tile keeps one FMA chain per output column
// in k order, so the lane grouping never changes a result; the int8 tile
// accumulates exactly and dequantizes with QuantEpilogue's float sequence.
//
// Fixed-count loops carry `#pragma GCC unroll`: the default -O2 build does
// not fully unroll loops that grow code, and an accumulator array left
// rolled lives in memory rather than in registers.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "ml/kernels_simd.h"
#include "ml/packed.h"

namespace arecel {
namespace mlk {
namespace {

template <typename S>
inline constexpr size_t kLanes = kPackTileCols / S::kWidth;

// Forces a product through a register so GCC's -ffp-contract=fast cannot
// fuse it with the following add (kernels_simd.h, QuantEpilogue).
template <typename V>
inline V Unfused(V v) {
  asm("" : "+v"(v));
  return v;
}

template <size_t R>
struct RowBlock {};

// The row-block driver: calls fn(RowBlock<R>{}, i) over [i_lo, i_hi) in
// blocks of four rows, then once for the remaining 1-3 rows.
template <typename Fn>
inline void ForEachRowBlock(size_t i_lo, size_t i_hi, const Fn& fn) {
  size_t i = i_lo;
  for (; i + 4 <= i_hi; i += 4) fn(RowBlock<4>{}, i);
  switch (i_hi - i) {
    case 3: fn(RowBlock<3>{}, i); break;
    case 2: fn(RowBlock<2>{}, i); break;
    case 1: fn(RowBlock<1>{}, i); break;
    default: break;
  }
}

// The columns [c_lo, c_hi) of the 16-column tile at `jbase` that fall
// inside the output window [col_begin, col_end). Tile column c lands at
// output column jbase + c - col_begin.
struct TileSpan {
  size_t c_lo, c_hi;
  bool full() const { return c_lo == 0 && c_hi == kPackTileCols; }
};

inline TileSpan SpanOf(size_t jbase, size_t col_begin, size_t col_end) {
  return {jbase < col_begin ? col_begin - jbase : 0,
          std::min(col_end - jbase, kPackTileCols)};
}

// ---- fp32 ------------------------------------------------------------------

// Lane l of a 16-float strip at p of which only the first `cols` are
// valid: zeros past them, and nothing past them is read.
template <typename S>
inline typename S::F LoadLane(const float* p, size_t l, size_t cols) {
  const size_t lo = l * S::kWidth;
  if (cols >= lo + S::kWidth) return S::Load(p + lo);
  return cols > lo ? S::LoadPartial(p + lo, cols - lo) : S::Zero();
}

// R rows x one 16-column tile: acc[r] = act(bias + sum over k of
// a[r][kk] * b[kk][0..16)). Each loaded strip of b feeds all R rows, and
// each column is one FMA chain in k order. kPartial reads only the first
// `cols` columns of each b row (the last tile of an unpadded matrix).
template <typename S, size_t R, bool kPartial>
inline void Fp32Tile(const float* a, size_t lda, const float* b, size_t ldb,
                     size_t k, size_t cols,
                     const typename S::F (&bias)[kLanes<S>], bool relu,
                     typename S::F (&acc)[R][kLanes<S>]) {
  using F = typename S::F;
  const float* a_rows[R];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    a_rows[r] = a + r * lda;
#pragma GCC unroll 2
    for (size_t l = 0; l < kLanes<S>; ++l) acc[r][l] = bias[l];
  }
  for (size_t kk = 0; kk < k; ++kk) {
    F bv[kLanes<S>];
#pragma GCC unroll 2
    for (size_t l = 0; l < kLanes<S>; ++l) {
      if constexpr (kPartial) {
        bv[l] = LoadLane<S>(b + kk * ldb, l, cols);
      } else {
        bv[l] = S::Load(b + kk * ldb + l * S::kWidth);
      }
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const F av = S::Set1(a_rows[r][kk]);
#pragma GCC unroll 2
      for (size_t l = 0; l < kLanes<S>; ++l)
        acc[r][l] = S::Fmadd(av, bv[l], acc[r][l]);
    }
  }
  if (relu) {
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r)
#pragma GCC unroll 2
      for (size_t l = 0; l < kLanes<S>; ++l)
        acc[r][l] = S::Max(acc[r][l], S::Zero());
  }
}

// The bias vectors of the tile at column j, whose first `cols` columns
// exist (zeros for a null bias).
template <typename S>
inline void TileBias(const float* bias, size_t j, size_t cols,
                     typename S::F (&bias_v)[kLanes<S>]) {
  for (size_t l = 0; l < kLanes<S>; ++l)
    bias_v[l] = bias != nullptr ? LoadLane<S>(bias + j, l, cols) : S::Zero();
}

// Stores rows i..i+R-1 of a finished tile. A tile wholly inside the window
// is stored as vectors; an edge tile spills and copies its covered columns,
// since an offset vector store could form a pointer before `out`.
template <typename S, size_t R>
inline void StoreTile(const typename S::F (&acc)[R][kLanes<S>], float* out,
                      size_t ldo, size_t i, size_t jbase, size_t col_begin,
                      TileSpan span) {
  if (span.full()) {
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      float* o = out + (i + r) * ldo + (jbase - col_begin);
#pragma GCC unroll 2
      for (size_t l = 0; l < kLanes<S>; ++l)
        S::Store(o + l * S::kWidth, acc[r][l]);
    }
    return;
  }
  alignas(64) float tmp[kPackTileCols];
  for (size_t r = 0; r < R; ++r) {
    for (size_t l = 0; l < kLanes<S>; ++l)
      S::Store(tmp + l * S::kWidth, acc[r][l]);
    float* o = out + (i + r) * ldo;
    for (size_t c = span.c_lo; c < span.c_hi; ++c)
      o[jbase + c - col_begin] = tmp[c];
  }
}

// KernelOps::dense_rows. Columns past the last whole tile run as one
// partial tile, so every output column is the same FMA chain as in
// packed_dense_rows.
template <typename S>
void DenseRows(const float* a, size_t lda, const float* b, size_t ldb,
               const float* bias, bool relu, float* out, size_t ldo,
               size_t i_lo, size_t i_hi, size_t k, size_t n) {
  using F = typename S::F;
  ForEachRowBlock(i_lo, i_hi, [&]<size_t R>(RowBlock<R>, size_t i) {
    for (size_t j = 0; j < n; j += kPackTileCols) {
      const size_t cols = std::min(n - j, kPackTileCols);
      F bias_v[kLanes<S>];
      TileBias<S>(bias, j, cols, bias_v);
      F acc[R][kLanes<S>];
      if (cols == kPackTileCols) {
        Fp32Tile<S, R, false>(a + i * lda, lda, b + j, ldb, k, cols, bias_v,
                              relu, acc);
      } else {
        Fp32Tile<S, R, true>(a + i * lda, lda, b + j, ldb, k, cols, bias_v,
                             relu, acc);
      }
      StoreTile<S, R>(acc, out, ldo, i, j, 0, {0, cols});
    }
  });
}

// KernelOps::packed_dense_rows. The full 16-wide tile is computed even when
// the window covers part of it; StoreTile writes just the covered columns.
template <typename S>
void PackedDenseRows(const float* a, size_t lda, const float* bp, size_t k,
                     size_t n, const float* bias, bool relu, float* out,
                     size_t ldo, size_t i_lo, size_t i_hi, size_t col_begin,
                     size_t cols) {
  using F = typename S::F;
  const size_t col_end = col_begin + cols;
  const size_t j0 = col_begin / kPackTileCols * kPackTileCols;
  ForEachRowBlock(i_lo, i_hi, [&]<size_t R>(RowBlock<R>, size_t i) {
    for (size_t jbase = j0; jbase < col_end; jbase += kPackTileCols) {
      F bias_v[kLanes<S>];
      TileBias<S>(bias, jbase, std::min(n - jbase, kPackTileCols), bias_v);
      F acc[R][kLanes<S>];
      Fp32Tile<S, R, false>(a + i * lda, lda, bp + jbase * k, kPackTileCols,
                            k, kPackTileCols, bias_v, relu, acc);
      StoreTile<S, R>(acc, out, ldo, i, jbase, col_begin,
                      SpanOf(jbase, col_begin, col_end));
    }
  });
}

// ---- int8 ------------------------------------------------------------------

// Dequantizes and stores rows i..i+R-1 of one int8 tile, performing
// QuantEpilogue's float sequence lane-wise: exact int32 subtract, one
// multiply by the pre-multiplied scale, one separately rounded add of bias.
// Scales and column sums are padded to whole tiles; the bias (n entries)
// is read only up to col_end, which never exceeds n.
template <typename S, size_t R>
inline void QuantTileEpilogue(const typename S::I (&acc)[R][kLanes<S>],
                              const float* a_scales, const int32_t* a_zps,
                              const float* w_scales,
                              const int32_t* w_col_sums, const float* bias,
                              bool relu, float* out, size_t ldo, size_t i,
                              size_t jbase, size_t col_begin,
                              size_t col_end) {
  using F = typename S::F;
  using I = typename S::I;
  F bias_v[kLanes<S>];
  TileBias<S>(bias, jbase, std::min(col_end - jbase, kPackTileCols), bias_v);
  F v[R][kLanes<S>];
#pragma GCC unroll 2
  for (size_t l = 0; l < kLanes<S>; ++l) {
    const I sums = S::LoadI(w_col_sums + jbase + l * S::kWidth);
    const F w_scale = S::Load(w_scales + jbase + l * S::kWidth);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const I zp_sums = S::MulloI(S::Set1I(a_zps[i + r]), sums);
      const F scale = S::Mul(S::Set1(a_scales[i + r]), w_scale);
      const F dq = S::Mul(S::ToFloat(S::SubI(acc[r][l], zp_sums)), scale);
      v[r][l] = S::Add(Unfused(dq), bias_v[l]);
      if (relu) v[r][l] = S::Max(v[r][l], S::Zero());
    }
  }
  StoreTile<S, R>(v, out, ldo, i, jbase, col_begin,
                  SpanOf(jbase, col_begin, col_end));
}

// R rows x one 16-column int8 tile at `tp`. A 64-byte packed group is 16
// columns x 4 k bytes; lane l takes the kWidth columns starting at
// l * kWidth, and the R rows share each group load.
template <typename S, size_t R>
inline void QuantTile(const uint8_t* aq, size_t lda_q, const int8_t* tp,
                      size_t k_pad, const float* a_scales,
                      const int32_t* a_zps, const float* w_scales,
                      const int32_t* w_col_sums, const float* bias, bool relu,
                      float* out, size_t ldo, size_t i, size_t jbase,
                      size_t col_begin, size_t col_end) {
  using I = typename S::I;
  I acc[R][kLanes<S>];
  const uint8_t* a_rows[R];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    a_rows[r] = aq + (i + r) * lda_q;
#pragma GCC unroll 2
    for (size_t l = 0; l < kLanes<S>; ++l) acc[r][l] = S::Set1I(0);
  }
  for (size_t kg = 0; kg < k_pad; kg += kQuantKGroup) {
    const int8_t* group = tp + kg * kPackTileCols;
    I bv[kLanes<S>];
#pragma GCC unroll 2
    for (size_t l = 0; l < kLanes<S>; ++l)
      bv[l] = S::LoadI(group + l * S::kWidth * kQuantKGroup);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      int32_t a4;
      std::memcpy(&a4, a_rows[r] + kg, sizeof(a4));
      const I av = S::Set1I(a4);
#pragma GCC unroll 2
      for (size_t l = 0; l < kLanes<S>; ++l)
        acc[r][l] = S::DotU8S8(acc[r][l], av, bv[l]);
    }
  }
  QuantTileEpilogue<S, R>(acc, a_scales, a_zps, w_scales, w_col_sums, bias,
                          relu, out, ldo, i, jbase, col_begin, col_end);
}

// KernelOps::quant_dense_rows (the maddubs form).
template <typename S>
void QuantDenseRows(const uint8_t* aq, size_t lda_q, const float* a_scales,
                    const int32_t* a_zps, const int8_t* bq, size_t k_pad,
                    size_t n_pad, const float* w_scales,
                    const int32_t* w_col_sums, const float* bias, bool relu,
                    float* out, size_t ldo, size_t i_lo, size_t i_hi,
                    size_t col_begin, size_t cols) {
  (void)n_pad;
  const size_t col_end = col_begin + cols;
  const size_t j0 = col_begin / kPackTileCols * kPackTileCols;
  ForEachRowBlock(i_lo, i_hi, [&]<size_t R>(RowBlock<R>, size_t i) {
    for (size_t jbase = j0; jbase < col_end; jbase += kPackTileCols)
      QuantTile<S, R>(aq, lda_q, bq + jbase * k_pad, k_pad, a_scales, a_zps,
                      w_scales, w_col_sums, bias, relu, out, ldo, i, jbase,
                      col_begin, col_end);
  });
}

// KernelOps::quantize_rows. Replicates QuantizeRowsPortable exactly: every
// element takes the same mul / add / max / min / truncate sequence (mul and
// add separately rounded), and the k % kWidth tail runs through one
// zero-filled vector rather than a scalar loop. The zeros are harmless in
// the range pass because the range includes 0 by construction, and the
// min/max reductions are exact, so scales and zero points match the
// portable tier bit for bit.
template <typename S>
void QuantizeRows(const float* a, size_t lda, size_t k, uint8_t* aq,
                  size_t lda_q, float* a_scales, int32_t* a_zps, size_t i_lo,
                  size_t i_hi) {
  using F = typename S::F;
  const F vzero = S::Zero();
  const F vcap = S::Set1(127.5f);
  const size_t kv = k / S::kWidth * S::kWidth;
  for (size_t i = i_lo; i < i_hi; ++i) {
    const float* row = a + i * lda;
    uint8_t* dst = aq + i * lda_q;
    const F tail = kv < k ? S::LoadPartial(row + kv, k - kv) : vzero;
    F vmin = vzero, vmax = vzero;
    for (size_t kk = 0; kk < kv; kk += S::kWidth) {
      const F v = S::Load(row + kk);
      vmin = S::Min(vmin, v);
      vmax = S::Max(vmax, v);
    }
    if (kv < k) {
      vmin = S::Min(vmin, tail);
      vmax = S::Max(vmax, tail);
    }
    const float min_v = S::ReduceMin(vmin);
    const float range = S::ReduceMax(vmax) - min_v;
    const float scale = range > 0.0f ? range / 127.0f : 1.0f;
    const int32_t zp = static_cast<int32_t>(
        std::clamp<long>(std::lrintf(-min_v / scale), 0, 127));
    a_scales[i] = scale;
    a_zps[i] = zp;
    const F vinv = S::Set1(1.0f / scale);
    const F vzp = S::Set1(static_cast<float>(zp) + 0.5f);
    const auto codes = [&](F v) {
      const F q = S::Add(Unfused(S::Mul(v, vinv)), vzp);
      return S::Truncate(S::Min(S::Max(q, vzero), vcap));
    };
    for (size_t kk = 0; kk < kv; kk += S::kWidth)
      S::StoreCodes(dst + kk, codes(S::Load(row + kk)));
    if (kv < k) {
      alignas(16) uint8_t tmp[16];
      S::StoreCodes(tmp, codes(tail));
      std::memcpy(dst + kv, tmp, k - kv);
    }
    for (size_t kk = k; kk < lda_q; ++kk) dst[kk] = 0;
  }
}

}  // namespace
}  // namespace mlk
}  // namespace arecel

#endif  // ARECEL_ML_KERNELS_TILES_H_
