// C-PoS: the compound Proof-of-Stake incentive model of Ethereum 2.0
// (Section 2.4), generalised as in the paper's analysis.
//
// Each mining epoch:
//   * P proposer slots ("shards") are filled independently, each by a miner
//     drawn with probability proportional to current stake; a miner winning
//     X slots receives a proposer reward of w * X / P;
//   * every miner additionally receives an inflation (attester) reward of
//     v * (stake share) — deterministic and exactly proportional.
// Both are computed from the stakes at the start of the epoch, and both
// compound (or are withheld until the next boundary).
//
// The inflation reward dilutes the variance contributed by proposer
// selection, which is why C-PoS achieves robust fairness far more easily
// than ML-PoS (Theorem 4.10); with v = 0 and P = 1, C-PoS degenerates to
// ML-PoS exactly.
//
// The epoch kernel.  The slot counts X are Multinomial(P, S / T).  Up to
// kChainMaxMiners miners they are drawn as a chain of conditional
// binomials over the flat stakes — O(m) per epoch, stopping once every
// slot is assigned, and a single Bin(P, S_A / (S_A + S_B)) draw for the
// paper's two-miner game.  Above it they are P Fenwick descents,
// O(P log m).  With v > 0 every miner is credited in one fused O(m) sweep
// (inflation plus slot rewards) followed by one O(m) tree rebuild: every
// epoch above the crossover, once per Step / RunSteps call below it (the
// chain never reads the tree).  With v = 0 only the winners are
// credited, O(log m) each: once per distinct winner below the crossover,
// once per slot above it.
//
// Per epoch at P = 32 and v = 0.1 (BM_Batched_CPosEpochInflation, Pareto
// stakes, gcc Release, 4-CPU AVX-512 host): the chain costs ~0.07 µs at
// m = 2 and ~0.4 µs at m = 10, against ~0.4-0.7 and ~1.4 µs for the
// P-descent kernel it replaced there.  The descents win from m ≈ 96 on
// (flat and Pareto stakes, v = 0 and v = 0.1), which sets kChainMaxMiners.

#ifndef FAIRCHAIN_PROTOCOL_C_POS_HPP_
#define FAIRCHAIN_PROTOCOL_C_POS_HPP_

#include <cstddef>
#include <cstdint>

#include "protocol/incentive_model.hpp"

namespace fairchain::protocol {

/// Compound PoS: sharded proposer lottery plus proportional inflation.
class CPosModel : public IncentiveModel {
 public:
  /// Creates a C-PoS model.
  ///
  /// \param w       total proposer reward per epoch (> 0)
  /// \param v       total inflation (attester) reward per epoch (>= 0)
  /// \param shards  number of proposer slots P per epoch (>= 1);
  ///                Ethereum 2.0 uses P = 32
  CPosModel(double w, double v, std::uint32_t shards);

  std::string name() const override { return "C-PoS"; }
  void Step(StakeState& state, RngStream& rng) const override;
  void RunSteps(StakeState& state, std::uint64_t step_begin,
                std::uint64_t step_count, RngStream& rng) const override;
  double RewardPerStep() const override { return w_ + v_; }

  /// Per-slot proposer selection probability (= stake share).
  double WinProbability(const StakeState& state, std::size_t i) const override;

  bool RewardCompounds() const override { return true; }

  double proposer_reward() const { return w_; }
  double inflation_reward() const { return v_; }
  std::uint32_t shards() const { return shards_; }

  /// Largest miner count whose epochs draw the slot counts as conditional
  /// binomials; larger populations use P Fenwick descents.  The measured
  /// crossover M* of the two kernels at P = 32 (see the file comment).
  static constexpr std::size_t kChainMaxMiners = 64;

 private:
  /// One epoch's slot draws and credits (the body Step and RunSteps share);
  /// `withholding` is hoisted so the batched loop branches once, not per
  /// credit.  May leave the stake sampler stale below the crossover; the
  /// callers SyncSampler before returning.
  void RunEpoch(StakeState& state, RngStream& rng, bool withholding) const;

  double w_;
  double v_;
  std::uint32_t shards_;
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_C_POS_HPP_
