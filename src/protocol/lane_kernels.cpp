// The fused static-income batch kernel — out-of-line body of
// lanes::RunStaticIncomeLaneSteps (declared in lane_steps.hpp).
//
// NOTE ON COMPILE FLAGS: like support/philox.cpp and support/fenwick.cpp,
// this TU is compiled with the host CPU's full SIMD ISA when
// FAIRCHAIN_LANE_SIMD is on.  Safe for the same reasons: only a non-inline
// free function is defined here (no ODR leak), and the arithmetic is
// compare / masked-select / subtract / add with standalone multiplies —
// no mul+add chain for FP contraction to fuse, so winners and credited
// sums are bit-identical at any ISA level.
//
// Why fuse: the per-step reference loop (kept below as the portable
// fallback) pays a function call, descent setup, and an income scatter per
// step.  The static-income dynamic reads the SAME frozen tree every step
// and touches only the income matrix, so a whole batch can share the
// setup:
//   * uniforms come zero-copy from the Philox row buffer (no per-step
//     copy through a stack array);
//   * two adjacent steps' descents interleave, giving the out-of-order
//     core four independent gather chains instead of two — the gather
//     latency of step A hides behind step B's compares;
//   * the two-miner game (the paper's default cell shape) skips the
//     descent entirely and keeps its K-lane income rows in registers for
//     the whole batch: one masked compare + two masked adds per step, no
//     loads or stores until the batch ends.
//
// Bit-exactness contract (pinned by the lane conformance tests): winners
// equal FenwickSampler::SampleFlat decision-for-decision, per-miner income
// cells receive the same additions in the same step order as
// CreditIncomeLanes, and the shared total is accumulated by repeated
// addition in LaneStakeState::FinishKernelSteps — so the fused batch is
// byte-identical to the per-step loop, which is byte-identical to a
// scalar PhiloxStream replay.

#include "protocol/lane_steps.hpp"

#include <cstddef>
#include <cstdint>

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)
#include <immintrin.h>
#define FAIRCHAIN_LANES_AVX512 1
#endif

namespace fairchain::protocol::lanes {

#if FAIRCHAIN_LANES_AVX512
namespace {

// Gathers and narrowing converts take this explicit all-lanes mask with a
// zero source: same bits as the unmasked intrinsics, whose
// _mm512_undefined_* pass-through trips GCC 12's -Wmaybe-uninitialized.
constexpr __mmask8 kAll = 0xFF;

__mmask8 LiveMask(std::size_t lanes_left) {
  return lanes_left >= 8 ? static_cast<__mmask8>(0xFF)
                         : static_cast<__mmask8>((1u << lanes_left) - 1u);
}

/// Two-miner batch: the income matrix is 2 rows of K <= kMaxFenwickLanes
/// doubles — at most 8 zmm registers — so it stays register-resident
/// across the whole batch.  Per step and 8-lane group: one masked row
/// load of uniforms, two broadcast compares, one mask-arithmetic winner
/// select, two masked adds.  Matches the SampleFlatLanes two-element
/// path: winner = over ? LastPositive() : (node1 <= remaining ? 1 : 0).
///
/// The group count is a TEMPLATE parameter: with a compile-time bound the
/// group loops fully unroll and the accumulators are promoted from an
/// indexed stack array to registers — with a runtime bound GCC spills
/// every accumulator to the stack on each step, which costs more than the
/// arithmetic it carries.
template <std::size_t kGroups>
void RunTwoMinerBatch(LaneStakeState& block, double w,
                      std::uint64_t step_count, PhiloxLanes& rng) {
  const FenwickSampler& sampler = block.shared_sampler();
  const double* tree = sampler.tree_data();
  const std::size_t lanes = block.lane_count();
  double* income = block.income_data();
  const __mmask8 last_is_1 =
      sampler.LastPositive() == 1 ? static_cast<__mmask8>(0xFF)
                                  : static_cast<__mmask8>(0x00);
  const __m512d node1 = _mm512_set1_pd(tree[1]);
  const __m512d node2 = _mm512_set1_pd(tree[2]);
  const __m512d total = _mm512_set1_pd(sampler.Total());
  const __m512d wv = _mm512_set1_pd(w);
  __mmask8 live[kGroups];
  __m512d acc0[kGroups];  // income row of miner 0, one vector per group
  __m512d acc1[kGroups];  // income row of miner 1
  for (std::size_t g = 0; g < kGroups; ++g) {
    live[g] = LiveMask(lanes - 8 * g);
    acc0[g] = _mm512_maskz_loadu_pd(live[g], income + 8 * g);
    acc1[g] = _mm512_maskz_loadu_pd(live[g], income + lanes + 8 * g);
  }
  for (std::uint64_t s = 0; s < step_count; ++s) {
    const double* u = rng.NextRow();  // consumed before the next NextRow
    for (std::size_t g = 0; g < kGroups; ++g) {
      const __m512d remaining =
          _mm512_mul_pd(_mm512_maskz_loadu_pd(live[g], u + 8 * g), total);
      const __mmask8 take1 =
          _mm512_cmp_pd_mask(node1, remaining, _CMP_LE_OQ);
      const __mmask8 over =
          _mm512_cmp_pd_mask(node2, remaining, _CMP_LE_OQ);
      // Miner 1 wins a lane iff it took node1 without rounding overrunning
      // the root, or it overran and miner 1 is the LastPositive fallback.
      const __mmask8 won1 = static_cast<__mmask8>(
          (take1 & static_cast<__mmask8>(~over)) | (over & last_is_1));
      acc1[g] = _mm512_mask_add_pd(acc1[g], won1, acc1[g], wv);
      acc0[g] = _mm512_mask_add_pd(acc0[g], static_cast<__mmask8>(~won1),
                                   acc0[g], wv);
      // Dead tail lanes accumulate w too (they start at maskz 0.0 and are
      // always in ~won1); the masked stores below discard them.
    }
  }
  for (std::size_t g = 0; g < kGroups; ++g) {
    _mm512_mask_storeu_pd(income + 8 * g, live[g], acc0[g]);
    _mm512_mask_storeu_pd(income + lanes + 8 * g, live[g], acc1[g]);
  }
}

/// Dispatches the lane count to a compile-time group count.
void RunTwoMinerBatchDispatch(LaneStakeState& block, double w,
                              std::uint64_t step_count, PhiloxLanes& rng) {
  static_assert(kMaxFenwickLanes <= 32);
  switch ((block.lane_count() + 7) / 8) {
    case 1: RunTwoMinerBatch<1>(block, w, step_count, rng); break;
    case 2: RunTwoMinerBatch<2>(block, w, step_count, rng); break;
    case 3: RunTwoMinerBatch<3>(block, w, step_count, rng); break;
    default: RunTwoMinerBatch<4>(block, w, step_count, rng); break;
  }
}

/// General-m batch: steps are processed in PAIRS, the two descents
/// interleaved instruction-for-instruction.  Each descent level is a
/// serial gather -> compare -> blend chain; interleaving two independent
/// steps (x the independent 8-lane groups) keeps the gather unit busy
/// while the sibling chain's compare retires.  Credits stay scalar: each
/// lane adds the same `w` to one cell per step in step order, identical
/// to CreditIncomeLanes.
void RunGeneralBatch(LaneStakeState& block, double w,
                     std::uint64_t step_count, PhiloxLanes& rng) {
  const FenwickSampler& sampler = block.shared_sampler();
  const double* tree = sampler.tree_data();
  const std::size_t lanes = block.lane_count();
  const std::size_t mask = sampler.descent_mask();
  const std::size_t size = sampler.size();
  double* income = block.income_data();
  const __m512d total = _mm512_set1_pd(sampler.Total());
  double ua[kMaxFenwickLanes];
  double ub[kMaxFenwickLanes];
  std::uint32_t wa[kMaxFenwickLanes];
  std::uint32_t wb[kMaxFenwickLanes];
  const auto credit = [&](std::uint32_t* winners) {
    for (std::size_t l = 0; l < lanes; ++l) {
      if (winners[l] >= size) {  // rounding overran: rare, off the hot path
        winners[l] = static_cast<std::uint32_t>(sampler.LastPositive());
      }
      income[winners[l] * lanes + l] += w;
    }
  };
  const std::uint64_t pairs = step_count / 2;
  for (std::uint64_t p = 0; p < pairs; ++p) {
    // Copy the two rows out of the Philox buffer: the second fill may
    // refill (and overwrite) the buffer, so the zero-copy NextRow pointer
    // of the first row cannot be held across it.
    rng.FillUniformDoubles(ua);
    rng.FillUniformDoubles(ub);
    for (std::size_t base = 0; base < lanes; base += 8) {
      const __mmask8 live = LiveMask(lanes - base);
      __m512d rem_a =
          _mm512_mul_pd(_mm512_maskz_loadu_pd(live, ua + base), total);
      __m512d rem_b =
          _mm512_mul_pd(_mm512_maskz_loadu_pd(live, ub + base), total);
      __m512i idx_a = _mm512_setzero_si512();
      __m512i idx_b = _mm512_setzero_si512();
      for (std::size_t bit = mask; bit != 0; bit >>= 1) {
        const __m512i bitv = _mm512_set1_epi64(static_cast<long long>(bit));
        const __m512i probe_a = _mm512_add_epi64(idx_a, bitv);
        const __m512i probe_b = _mm512_add_epi64(idx_b, bitv);
        const __m512d t_a = _mm512_mask_i64gather_pd(
            _mm512_setzero_pd(), kAll, probe_a, tree, 8);
        const __m512d t_b = _mm512_mask_i64gather_pd(
            _mm512_setzero_pd(), kAll, probe_b, tree, 8);
        const __mmask8 take_a = _mm512_cmp_pd_mask(t_a, rem_a, _CMP_LE_OQ);
        const __mmask8 take_b = _mm512_cmp_pd_mask(t_b, rem_b, _CMP_LE_OQ);
        idx_a = _mm512_mask_mov_epi64(idx_a, take_a, probe_a);
        idx_b = _mm512_mask_mov_epi64(idx_b, take_b, probe_b);
        rem_a = _mm512_mask_sub_pd(rem_a, take_a, rem_a, t_a);
        rem_b = _mm512_mask_sub_pd(rem_b, take_b, rem_b, t_b);
      }
      _mm256_mask_storeu_epi32(wa + base, live,
                               _mm512_maskz_cvtepi64_epi32(kAll, idx_a));
      _mm256_mask_storeu_epi32(wb + base, live,
                               _mm512_maskz_cvtepi64_epi32(kAll, idx_b));
    }
    credit(wa);
    credit(wb);
  }
  if (step_count & 1) {  // odd tail: one step through the lane descent
    rng.FillUniformDoubles(ua);
    sampler.SampleFlatLanes(ua, lanes, wa);
    for (std::size_t l = 0; l < lanes; ++l) {
      income[wa[l] * lanes + l] += w;
    }
  }
}

}  // namespace
#endif  // FAIRCHAIN_LANES_AVX512

void RunStaticIncomeLaneSteps(LaneStakeState& block, double w,
                              std::uint64_t step_count, PhiloxLanes& rng) {
#if FAIRCHAIN_LANES_AVX512
  if (block.shared_sampler().size() == 2) {
    RunTwoMinerBatchDispatch(block, w, step_count, rng);
  } else {
    RunGeneralBatch(block, w, step_count, rng);
  }
  block.FinishKernelSteps(w, step_count);
#else
  // Portable reference loop: fill -> lane descent -> SoA credit per step.
  // This IS the semantics the fused bodies above must reproduce.
  double u[kMaxFenwickLanes];
  std::uint32_t winner[kMaxFenwickLanes];
  const std::size_t lane_count = block.lane_count();
  const FenwickSampler& sampler = block.shared_sampler();
  for (std::uint64_t s = 0; s < step_count; ++s) {
    rng.FillUniformDoubles(u);
    sampler.SampleFlatLanes(u, lane_count, winner);
    block.CreditIncomeLanes(winner, w);
    block.AdvanceStep();
  }
#endif
}

}  // namespace fairchain::protocol::lanes
