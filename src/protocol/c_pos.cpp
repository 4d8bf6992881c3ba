#include "protocol/c_pos.hpp"

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "math/distributions.hpp"

namespace fairchain::protocol {

namespace {

// Slot counts as a chain of conditional binomials over the flat stakes:
// X_i | X_0..X_{i-1} ~ Bin(P - Σ_{j<i} X_j, S_i / Σ_{j>=i} S_j), which is
// Multinomial(P, S/T) exactly.  Writes slots[i] for the miners that won
// and appends them to `winners`; returns the winner count.  The chain
// stops as soon as no slots remain.  A zero-stake miner has p = 0 and
// takes no draw; the last positive-stake miner has p = S_i / S_i = 1
// exactly (every later suffix sum is +0.0), so it takes the remainder and
// the chain never runs past it (the `i < n` bound is only a backstop).
std::size_t DrawSlotsByChain(const StakeState& state, std::uint32_t shards,
                             RngStream& rng, std::uint32_t* slots,
                             std::size_t* winners) {
  const std::size_t n = state.miner_count();
  double suffix[CPosModel::kChainMaxMiners + 1];
  suffix[n] = 0.0;
  for (std::size_t i = n; i-- > 0;) suffix[i] = suffix[i + 1] + state.stake(i);
  std::size_t winner_count = 0;
  std::uint64_t remaining = shards;
  for (std::size_t i = 0; remaining != 0 && i < n; ++i) {
    const double stake = state.stake(i);
    if (!(stake > 0.0)) continue;
    // fl(S_i + x) >= S_i for x >= 0, so p never exceeds 1.
    const std::uint64_t won =
        math::SampleBinomial(rng, remaining, stake / suffix[i]);
    // Branch-free bookkeeping: whether a miner wins is a coin flip.
    slots[i] = static_cast<std::uint32_t>(won);
    winners[winner_count] = i;
    winner_count += won != 0 ? 1 : 0;
    remaining -= won;
  }
  return winner_count;
}

}  // namespace

CPosModel::CPosModel(double w, double v, std::uint32_t shards)
    : w_(w), v_(v), shards_(shards) {
  ValidateReward(w, "CPosModel: w");
  if (v < 0.0) throw std::invalid_argument("CPosModel: v must be >= 0");
  if (shards == 0) {
    throw std::invalid_argument("CPosModel: shards must be >= 1");
  }
}

void CPosModel::Step(StakeState& state, RngStream& rng) const {
  RunEpoch(state, rng, /*withholding=*/state.withhold_period() != 0);
  state.SyncSampler();
}

void CPosModel::RunEpoch(StakeState& state, RngStream& rng,
                         bool withholding) const {
  // Every reward in an epoch is computed against the epoch-start stakes
  // (the paper's X ~ Bin(P, S_A / (S_A + S_B)) snapshot): all slots are
  // drawn before anything is credited.  The scratch buffers belong to the
  // state, sized on their first use; slot_counts is all zero between
  // epochs.
  std::vector<std::size_t>& winners = state.index_scratch();
  if (winners.size() < shards_) winners.resize(shards_);
  const double per_slot_reward = w_ / static_cast<double>(shards_);
  auto credit = [&state, withholding](std::size_t i, double amount) {
    if (withholding) {
      state.CreditWithheld(i, amount);
    } else {
      state.CreditCompounding(i, amount);
    }
  };
  // With inflation every miner moves: one fused O(m) sweep credits
  // inflation and slot rewards together, and the tree is rebuilt once —
  // at the end of Step / RunSteps for the chain, which never reads it.
  if (state.miner_count() <= kChainMaxMiners) {
    std::uint32_t* slots = state.slot_counts();
    const std::size_t winner_count =
        DrawSlotsByChain(state, shards_, rng, slots, winners.data());
    if (v_ > 0.0) {
      state.CreditProportionalAndSlots(v_ / state.total_stake(),
                                       per_slot_reward, slots);
      return;
    }
    // No inflation: only the distinct winners move.
    for (std::size_t k = 0; k < winner_count; ++k) {
      const std::size_t i = winners[k];
      credit(i, per_slot_reward * slots[i]);
      slots[i] = 0;
    }
    return;
  }

  // Above the crossover: P descents through the stake sampler.
  for (std::uint32_t slot = 0; slot < shards_; ++slot) {
    winners[slot] = state.SampleProportionalToStake(rng);
  }
  if (v_ > 0.0) {
    std::uint32_t* slots = state.slot_counts();
    for (std::uint32_t slot = 0; slot < shards_; ++slot) {
      ++slots[winners[slot]];
    }
    state.CreditProportionalAndSlots(v_ / state.total_stake(),
                                     per_slot_reward, slots);
    state.SyncSampler();  // the next epoch descends the tree
    return;
  }
  // No inflation: one O(log m) credit per slot.  Tallying repeat winners
  // first does not pay here: repeats are the top miners, whose update
  // paths are already cached, while the tally costs a cache miss per
  // tail winner (measured at m = 10k / 100k).
  for (std::uint32_t slot = 0; slot < shards_; ++slot) {
    credit(winners[slot], per_slot_reward);
  }
}

void CPosModel::RunSteps(StakeState& state, std::uint64_t step_begin,
                         std::uint64_t step_count, RngStream& rng) const {
  CheckRunStepsBegin(state, step_begin);
  const bool withholding = state.withhold_period() != 0;
  for (std::uint64_t s = 0; s < step_count; ++s) {
    RunEpoch(state, rng, withholding);
    state.AdvanceStep();
  }
  state.SyncSampler();
}

double CPosModel::WinProbability(const StakeState& state,
                                 std::size_t i) const {
  return state.StakeShare(i);
}

}  // namespace fairchain::protocol
