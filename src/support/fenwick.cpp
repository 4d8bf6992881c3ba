// NOTE ON COMPILE FLAGS: like philox.cpp, this TU is compiled with the
// host CPU's full SIMD ISA when FAIRCHAIN_LANE_SIMD is on.  Safe for the
// same reasons: only non-inline members are defined here (no ODR leak),
// and the descent arithmetic is compare / masked-select / subtract with a
// single standalone multiply — nothing FP contraction could fuse, so the
// selected indices are bit-identical at any ISA level.

#include "support/fenwick.hpp"

#include <algorithm>

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)
#include <immintrin.h>
#define FAIRCHAIN_FENWICK_AVX512 1
#endif

namespace fairchain {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::size_t HighestPowerOfTwoAtMost(std::size_t size) {
  if (size == 0) return 0;
  std::size_t mask = 1;
  while (mask * 2 <= size) mask *= 2;
  return mask;
}

}  // namespace

void FenwickSampler::Build(const std::vector<double>& weights) {
  size_ = weights.size();
  mask_ = HighestPowerOfTwoAtMost(size_);
  // The branchless descents probe nodes up to 2 x mask_ - 1 without a
  // bounds check; nodes beyond size_ hold +inf so `t <= remaining` can
  // never take them (see SampleFlat).
  const std::size_t slots = size_ + 1 > 2 * mask_ ? size_ + 1 : 2 * mask_;
  tree_.assign(slots, kInf);
  for (std::size_t k = 0; k <= size_; ++k) tree_[k] = 0.0;
  total_ = 0.0;
  // O(m) construction: place each element, then push its running sum to the
  // immediate parent; every node receives exactly the sums it needs.
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t k = i + 1;
    tree_[k] += weights[i];
    total_ += weights[i];
    const std::size_t parent = k + (k & (~k + 1));
    if (parent <= size_) tree_[parent] += tree_[k];
  }
}

void FenwickSampler::SampleFlatLanes(const double* u01, std::size_t lanes,
                                     std::uint32_t* out) const {
  const double* tree = tree_.data();
  if (size_ == 2) {
    // SampleTwo, branchless across lanes: both compares broadcast against
    // the same two nodes, and the rare rounding-overran fallback is folded
    // in as a second select (LastPositive is loop-invariant here).
    const std::uint32_t last = static_cast<std::uint32_t>(LastPositive());
    const double node1 = tree[1];
    const double node2 = tree[2];
    for (std::size_t l = 0; l < lanes; ++l) {
      const double remaining = u01[l] * total_;
      const std::uint32_t pick = node1 <= remaining ? 1u : 0u;
      out[l] = node2 <= remaining ? last : pick;
    }
    return;
  }
  // General descent in fixed-width groups: tail slots beyond `lanes` are
  // padded with remaining = 0.0 and their results discarded.  Pad lanes
  // are safe wherever they descend — every probe is bounded by the same
  // invariant as the live lanes (index + bit <= 2 * mask_ - 1, and Build
  // pads the tree to 2 * mask_ slots) — so every level stays full-width
  // and branch-free.  The AVX-512 body (GCC scalarises the portable loop,
  // so the gather descent is written by hand) walks 8 lanes per register:
  // one vgatherqpd, one compare-to-mask, and two masked updates per level
  // — decision-for-decision the scalar SampleFlat chain.
#if FAIRCHAIN_FENWICK_AVX512
  // The gather and the narrowing convert take explicit all-lanes masks
  // and zero sources: same bits as the unmasked intrinsics, whose
  // _mm512_undefined_* pass-through trips GCC 12's -Wmaybe-uninitialized.
  constexpr __mmask8 kAll = 0xFF;
  const __m512d total = _mm512_set1_pd(total_);
  for (std::size_t base = 0; base < lanes; base += 8) {
    const std::size_t n = lanes - base;
    const __mmask8 live =
        n >= 8 ? static_cast<__mmask8>(0xFF)
               : static_cast<__mmask8>((1u << n) - 1u);
    __m512d remaining =
        _mm512_mul_pd(_mm512_maskz_loadu_pd(live, u01 + base), total);
    __m512i index = _mm512_setzero_si512();
    for (std::size_t bit = mask_; bit != 0; bit >>= 1) {
      const __m512i probe =
          _mm512_add_epi64(index, _mm512_set1_epi64(
                                      static_cast<long long>(bit)));
      const __m512d t = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kAll,
                                                 probe, tree, 8);
      const __mmask8 take = _mm512_cmp_pd_mask(t, remaining, _CMP_LE_OQ);
      index = _mm512_mask_mov_epi64(index, take, probe);
      remaining = _mm512_mask_sub_pd(remaining, take, remaining, t);
    }
    _mm256_mask_storeu_epi32(out + base, live,
                             _mm512_maskz_cvtepi64_epi32(kAll, index));
  }
#else   // portable fixed-width fallback
  constexpr std::size_t kChunk = 16;
  for (std::size_t base = 0; base < lanes; base += kChunk) {
    const std::size_t n = std::min(kChunk, lanes - base);
    double remaining[kChunk];
    std::uint64_t index[kChunk];
    for (std::size_t l = 0; l < kChunk; ++l) {
      remaining[l] = l < n ? u01[base + l] * total_ : 0.0;
      index[l] = 0;
    }
    for (std::size_t bit = mask_; bit != 0; bit >>= 1) {
      for (std::size_t l = 0; l < kChunk; ++l) {  // dependency-free
        const double t = tree[index[l] + bit];
        const bool take = t <= remaining[l];
        index[l] += take ? bit : 0;
        remaining[l] -= take ? t : 0.0;
      }
    }
    for (std::size_t l = 0; l < n; ++l) {
      out[base + l] = static_cast<std::uint32_t>(index[l]);
    }
  }
#endif
  for (std::size_t l = 0; l < lanes; ++l) {
    if (out[l] >= size_) {  // rounding overran: rare, off the hot loop
      out[l] = static_cast<std::uint32_t>(LastPositive());
    }
  }
}

void FenwickLanes::Build(const std::vector<double>& weights,
                         std::size_t lanes) {
  size_ = weights.size();
  mask_ = HighestPowerOfTwoAtMost(size_);
  lane_count_ = lanes;
  totals_.assign(lanes, 0.0);
  const std::size_t slots = size_ + 1 > 2 * mask_ ? size_ + 1 : 2 * mask_;
  tree_.assign(slots * lanes, kInf);
  for (std::size_t k = 0; k <= size_; ++k) {
    for (std::size_t l = 0; l < lanes; ++l) tree_[k * lanes + l] = 0.0;
  }
  // Build lane 0's column with the scalar O(m) recurrence, then replicate
  // node-wise: every lane starts from the cell's common stake vector.
  double total = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t k = i + 1;
    tree_[k * lanes] += weights[i];
    total += weights[i];
    const std::size_t parent = k + (k & (~k + 1));
    if (parent <= size_) tree_[parent * lanes] += tree_[k * lanes];
  }
  for (std::size_t k = 1; k <= size_; ++k) {
    const double node = tree_[k * lanes];
    for (std::size_t l = 1; l < lanes; ++l) tree_[k * lanes + l] = node;
  }
  for (std::size_t l = 0; l < lanes; ++l) totals_[l] = total;
}

}  // namespace fairchain
