// NOTE ON COMPILE FLAGS: this translation unit (and only this one) is
// compiled with the host CPU's full SIMD ISA when available (see the
// FAIRCHAIN_LANE_SIMD block in CMakeLists.txt).  That is safe here because
//   (a) every function defined in this file is a non-inline member or free
//       function, so no ISA-specific code can leak into other TUs via the
//       ODR, and
//   (b) the arithmetic is integer mixing plus a single exact multiply by
//       2^-53 — there are no mul+add chains for FP contraction to fuse, so
//       the output is bit-identical at any ISA level.  The flag changes
//       speed, never bytes.

#include "support/philox.hpp"

#include <algorithm>

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)
#include <immintrin.h>
#define FAIRCHAIN_PHILOX_AVX512 1
#endif

#include "support/rng.hpp"

namespace fairchain {

Philox4x32::Key Philox4x32::KeyFromSeed(std::uint64_t seed) {
  // One SplitMix64 round decorrelates adjacent seeds (campaign cells often
  // use seed, seed+1, ...) before the bits become the cipher key.
  SplitMix64 mixer(seed);
  const std::uint64_t mixed = mixer.Next();
  return Key{static_cast<std::uint32_t>(mixed),
             static_cast<std::uint32_t>(mixed >> 32)};
}

std::uint64_t PhiloxDraw(Philox4x32::Key key, std::uint64_t lane,
                         std::uint64_t draw_index) {
  const std::uint64_t block_index = draw_index >> 1;
  const Philox4x32::Block block = Philox4x32::Encrypt(
      {static_cast<std::uint32_t>(block_index),
       static_cast<std::uint32_t>(block_index >> 32),
       static_cast<std::uint32_t>(lane),
       static_cast<std::uint32_t>(lane >> 32)},
      key);
  if ((draw_index & 1) == 0) {
    return block[0] | (static_cast<std::uint64_t>(block[1]) << 32);
  }
  return block[2] | (static_cast<std::uint64_t>(block[3]) << 32);
}

void PhiloxLanes::Reset(std::uint64_t seed, std::uint64_t first_lane,
                        std::size_t lanes) {
  key_ = Philox4x32::KeyFromSeed(seed);
  first_lane_ = first_lane;
  lane_count_ = lanes;
  next_draw_ = 0;
  buffered_first_ = kInvalidBuffer;
  const std::size_t needed = 2 * kBlocksAhead * lanes;
  if (buffer_.size() < needed) buffer_.resize(needed);
}

void PhiloxLanes::Refill(std::uint64_t first_block) {
  // Structure-of-arrays Philox: the four counter words of a chunk of lanes
  // live in four uint64 columns whose values stay 32-bit-clean, so the
  // 32x32->64 round multiplies are exactly the shape of vpmuludq.  Two
  // bodies below compute the identical schedule: an explicit AVX-512
  // kernel (8 lanes per register, vpmuludq + masked stores — GCC's
  // auto-vectorizer scalarises the portable loop, so this path is written
  // by hand) and the portable chunked loop for every other target.
  // Bit-for-bit the same schedule as Philox4x32::Encrypt — pinned
  // draw-for-draw against PhiloxStream by tests/support/philox_test.cpp.
  //
  // Per-round key schedule, shared by every lane and block: round r uses
  // key + r * weyl (the 9 bumps of the sequential Encrypt, precomputed).
  std::uint32_t k0[10];
  std::uint32_t k1[10];
  k0[0] = key_[0];
  k1[0] = key_[1];
  for (int r = 1; r < 10; ++r) {
    k0[r] = k0[r - 1] + Philox4x32::kWeyl0;
    k1[r] = k1[r - 1] + Philox4x32::kWeyl1;
  }
  double* rows = buffer_.data();
  const std::size_t stride = lane_count_;
#if FAIRCHAIN_PHILOX_AVX512
  // Shifts and multiplies use the all-lanes zero-masked forms: same
  // instruction and bits as the unmasked intrinsics, whose
  // _mm512_undefined_* pass-through source trips GCC 12's
  // -Wmaybe-uninitialized.
  constexpr __mmask8 kAll = 0xFF;
  const __m512i mult0 = _mm512_set1_epi64(Philox4x32::kMult0);
  const __m512i mult1 = _mm512_set1_epi64(Philox4x32::kMult1);
  const __m512i mask32 = _mm512_set1_epi64(0xFFFFFFFFu);
  const __m512d scale = _mm512_set1_pd(0x1.0p-53);
  const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  for (std::size_t base = 0; base < lane_count_; base += 8) {
    const std::size_t n = lane_count_ - base;
    const __mmask8 live =
        n >= 8 ? static_cast<__mmask8>(0xFF)
               : static_cast<__mmask8>((1u << n) - 1u);
    const __m512i lane =
        _mm512_add_epi64(_mm512_set1_epi64(first_lane_ + base), iota);
    const __m512i lane_lo = _mm512_and_si512(lane, mask32);
    const __m512i lane_hi = _mm512_maskz_srli_epi64(kAll, lane, 32);
    // The kBlocksAhead cipher chains of this lane group are independent;
    // iterating them back to back lets the out-of-order core overlap
    // their multiply latencies.  Values are carried UNMASKED between
    // rounds: vpmuludq reads only the low 32 bits of each element, and
    // the one place the high half matters (the packed output) masks once
    // at the end — trimming 4 ANDs from every round.
    for (std::size_t j = 0; j < kBlocksAhead; ++j) {
      const std::uint64_t block_index = first_block + j;
      __m512i x0 = _mm512_set1_epi64(block_index & 0xFFFFFFFFu);
      __m512i x1 = _mm512_set1_epi64(block_index >> 32);
      __m512i x2 = lane_lo;
      __m512i x3 = lane_hi;
      for (int r = 0; r < 10; ++r) {
        const __m512i product0 = _mm512_maskz_mul_epu32(kAll, mult0, x0);
        const __m512i product1 = _mm512_maskz_mul_epu32(kAll, mult1, x2);
        const __m512i w0 = _mm512_set1_epi64(k0[r]);
        const __m512i w1 = _mm512_set1_epi64(k1[r]);
        // srli fills the high half with zeros and w is a 32-bit value, so
        // the LOW 32 bits of each new word are exact; the high halves
        // carry stale xor noise that the pack below discards.
        x0 = _mm512_xor_si512(
            _mm512_xor_si512(_mm512_maskz_srli_epi64(kAll, product1, 32),
                             x1),
            w0);
        x1 = product1;
        x2 = _mm512_xor_si512(
            _mm512_xor_si512(_mm512_maskz_srli_epi64(kAll, product0, 32),
                             x3),
            w1);
        x3 = product0;
      }
      const __m512i even =
          _mm512_or_si512(_mm512_and_si512(x0, mask32),
                          _mm512_maskz_slli_epi64(kAll, x1, 32));
      const __m512i odd =
          _mm512_or_si512(_mm512_and_si512(x2, mask32),
                          _mm512_maskz_slli_epi64(kAll, x3, 32));
      const __m512d lo = _mm512_mul_pd(
          _mm512_cvtepu64_pd(_mm512_maskz_srli_epi64(kAll, even, 11)), scale);
      const __m512d hi = _mm512_mul_pd(
          _mm512_cvtepu64_pd(_mm512_maskz_srli_epi64(kAll, odd, 11)), scale);
      _mm512_mask_storeu_pd(rows + (2 * j + 0) * stride + base, live, lo);
      _mm512_mask_storeu_pd(rows + (2 * j + 1) * stride + base, live, hi);
    }
  }
#else   // portable structure-of-arrays fallback
  constexpr std::size_t kChunk = 16;
  for (std::size_t j = 0; j < kBlocksAhead; ++j) {
    const std::uint64_t block_index = first_block + j;
    const std::uint32_t c0 = static_cast<std::uint32_t>(block_index);
    const std::uint32_t c1 = static_cast<std::uint32_t>(block_index >> 32);
    double* low = rows + (2 * j + 0) * stride;
    double* spare = rows + (2 * j + 1) * stride;
    for (std::size_t base = 0; base < lane_count_; base += kChunk) {
      // Always run the full chunk — the tail lanes beyond lane_count_ are
      // computed and discarded, which keeps the round loops branch-free
      // and full-width instead of growing a scalar remainder loop.
      std::uint64_t x0[kChunk];
      std::uint64_t x1[kChunk];
      std::uint64_t x2[kChunk];
      std::uint64_t x3[kChunk];
      for (std::size_t l = 0; l < kChunk; ++l) {
        const std::uint64_t lane = first_lane_ + base + l;
        x0[l] = c0;
        x1[l] = c1;
        x2[l] = static_cast<std::uint32_t>(lane);
        x3[l] = lane >> 32;
      }
      for (int r = 0; r < 10; ++r) {
        const std::uint64_t w0 = k0[r];
        const std::uint64_t w1 = k1[r];
        for (std::size_t l = 0; l < kChunk; ++l) {
          const std::uint64_t product0 = Philox4x32::kMult0 * x0[l];
          const std::uint64_t product1 = Philox4x32::kMult1 * x2[l];
          x0[l] = ((product1 >> 32) ^ x1[l] ^ w0) & 0xFFFFFFFFu;
          x1[l] = product1 & 0xFFFFFFFFu;
          x2[l] = ((product0 >> 32) ^ x3[l] ^ w1) & 0xFFFFFFFFu;
          x3[l] = product0 & 0xFFFFFFFFu;
        }
      }
      const std::size_t n = std::min(kChunk, lane_count_ - base);
      for (std::size_t l = 0; l < n; ++l) {
        const std::uint64_t even = x0[l] | (x1[l] << 32);
        const std::uint64_t odd = x2[l] | (x3[l] << 32);
        low[base + l] = static_cast<double>(even >> 11) * 0x1.0p-53;
        spare[base + l] = static_cast<double>(odd >> 11) * 0x1.0p-53;
      }
    }
  }
#endif
  buffered_first_ = first_block;
}

}  // namespace fairchain
