// Tests for C-PoS (Section 2.4): sharded proposer lottery + inflation
// (Theorems 3.5, 4.10).

#include "protocol/c_pos.hpp"

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "math/ks_test.hpp"
#include "math/special.hpp"
#include "protocol/ml_pos.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace fairchain::protocol {
namespace {

TEST(CPosModelTest, Metadata) {
  CPosModel model(0.01, 0.1, 32);
  EXPECT_EQ(model.name(), "C-PoS");
  EXPECT_TRUE(model.RewardCompounds());
  EXPECT_DOUBLE_EQ(model.RewardPerStep(), 0.11);
  EXPECT_DOUBLE_EQ(model.proposer_reward(), 0.01);
  EXPECT_DOUBLE_EQ(model.inflation_reward(), 0.1);
  EXPECT_EQ(model.shards(), 32u);
}

TEST(CPosModelTest, RejectsInvalidParameters) {
  EXPECT_THROW(CPosModel(0.0, 0.1, 32), std::invalid_argument);
  EXPECT_THROW(CPosModel(0.01, -0.1, 32), std::invalid_argument);
  EXPECT_THROW(CPosModel(0.01, 0.1, 0), std::invalid_argument);
}

TEST(CPosModelTest, EpochMintsExactTotalReward) {
  CPosModel model(0.01, 0.1, 32);
  StakeState state({0.2, 0.8});
  RngStream rng(1);
  model.Step(state, rng);
  state.AdvanceStep();
  EXPECT_NEAR(state.total_income(), 0.11, 1e-12);
  EXPECT_NEAR(state.total_stake(), 1.11, 1e-12);
}

TEST(CPosModelTest, InflationAloneIsExactlyProportional) {
  // With a tiny proposer reward the per-epoch credit is dominated by the
  // deterministic inflation share.
  CPosModel model(1e-12, 0.1, 1);
  StakeState state({0.2, 0.8});
  RngStream rng(2);
  model.Step(state, rng);
  EXPECT_NEAR(state.income(0), 0.1 * 0.2, 1e-10);
  EXPECT_NEAR(state.income(1), 0.1 * 0.8, 1e-10);
}

TEST(CPosModelTest, ProposerSlotsFollowBinomial) {
  // With v = 0 the income of miner A after one epoch is w * X / P with
  // X ~ Bin(P, a): check the first two moments.
  const std::uint32_t P = 32;
  const double w = 1.0;
  CPosModel model(w, 0.0, P);
  RunningStats slots;
  const RngStream master(3);
  for (std::uint64_t rep = 0; rep < 100000; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.Step(state, rng);
    slots.Add(state.income(0) * P / w);  // recover X
  }
  EXPECT_NEAR(slots.Mean(), 32 * 0.2, 0.05);
  EXPECT_NEAR(slots.Variance(), 32 * 0.2 * 0.8, 0.15);
}

TEST(CPosModelTest, ExpectationalFairness) {
  // Theorem 3.5.
  CPosModel model(0.01, 0.1, 32);
  RunningStats lambda_stats;
  const RngStream master(4);
  for (std::uint64_t rep = 0; rep < 3000; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.RunGame(state, rng, 200);
    lambda_stats.Add(state.RewardFraction(0));
  }
  EXPECT_NEAR(lambda_stats.Mean(), 0.2, 4.0 * lambda_stats.StdError());
}

TEST(CPosModelTest, InflationShrinksLambdaVariance) {
  // Theorem 4.10's mechanism: larger v => tighter lambda distribution.
  auto run_variance = [](double v) {
    CPosModel model(0.01, v, 32);
    RunningStats stats;
    const RngStream master(5);
    for (std::uint64_t rep = 0; rep < 1500; ++rep) {
      StakeState state({0.2, 0.8});
      RngStream rng = master.Split(rep);
      model.RunGame(state, rng, 500);
      stats.Add(state.RewardFraction(0));
    }
    return stats.Variance();
  };
  const double var_v0 = run_variance(0.0);
  const double var_v01 = run_variance(0.1);
  EXPECT_LT(var_v01, var_v0 / 5.0);
}

TEST(CPosModelTest, MoreShardsShrinkVariance) {
  auto run_variance = [](std::uint32_t shards) {
    CPosModel model(0.05, 0.0, shards);
    RunningStats stats;
    const RngStream master(6);
    for (std::uint64_t rep = 0; rep < 1500; ++rep) {
      StakeState state({0.2, 0.8});
      RngStream rng = master.Split(rep);
      model.RunGame(state, rng, 300);
      stats.Add(state.RewardFraction(0));
    }
    return stats.Variance();
  };
  EXPECT_LT(run_variance(32), run_variance(1));
}

TEST(CPosModelTest, DegeneratesToMlPosWithOneShardNoInflation) {
  // v = 0, P = 1 should reproduce the ML-PoS distribution (Theorem 4.10
  // remark).  Compare means and variances of final lambda.
  const double w = 0.05;
  RunningStats cpos_stats, mlpos_stats;
  const RngStream master(7);
  for (std::uint64_t rep = 0; rep < 3000; ++rep) {
    {
      CPosModel model(w, 0.0, 1);
      StakeState state({0.2, 0.8});
      RngStream rng = master.Split(rep);
      model.RunGame(state, rng, 500);
      cpos_stats.Add(state.RewardFraction(0));
    }
    {
      MlPosModel model(w);
      StakeState state({0.2, 0.8});
      RngStream rng = master.Split(rep + 1000000);
      model.RunGame(state, rng, 500);
      mlpos_stats.Add(state.RewardFraction(0));
    }
  }
  EXPECT_NEAR(cpos_stats.Mean(), mlpos_stats.Mean(), 0.01);
  EXPECT_NEAR(cpos_stats.Variance(), mlpos_stats.Variance(),
              0.35 * mlpos_stats.Variance());
}

TEST(CPosModelTest, MultiMinerConservation) {
  CPosModel model(0.01, 0.1, 32);
  StakeState state({0.1, 0.2, 0.3, 0.4});
  RngStream rng(8);
  model.RunGame(state, rng, 100);
  EXPECT_NEAR(state.total_income(), 0.11 * 100, 1e-9);
  double stake_sum = 0.0;
  for (std::size_t i = 0; i < 4; ++i) stake_sum += state.stake(i);
  EXPECT_NEAR(stake_sum, state.total_stake(), 1e-9);
  EXPECT_NEAR(state.total_stake(), 1.0 + 0.11 * 100, 1e-9);
}

// --- The epoch kernel: slot counts ---------------------------------------
//
// With v = 0 and w = P every slot pays exactly 1.0, so after one Step
// miner i's income IS its slot count X_i.  Up to kChainMaxMiners miners the
// counts come from the conditional-binomial chain, above it from P Fenwick
// descents; both must be Multinomial(P, S / T).

constexpr std::uint32_t kSlots = 32;

// Slot counts of `reps` independent epochs from `stakes`, one row per rep.
std::vector<std::vector<std::uint32_t>> DrawEpochs(
    const std::vector<double>& stakes, std::uint64_t reps,
    std::uint64_t seed) {
  const CPosModel model(static_cast<double>(kSlots), 0.0, kSlots);
  StakeState state(stakes);
  const RngStream master(seed);
  std::vector<std::vector<std::uint32_t>> epochs;
  epochs.reserve(reps);
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    state.Reset();
    RngStream rng = master.Split(rep);
    model.Step(state, rng);
    std::vector<std::uint32_t> counts(stakes.size());
    for (std::size_t i = 0; i < stakes.size(); ++i) {
      counts[i] = static_cast<std::uint32_t>(state.income(i));
      EXPECT_EQ(static_cast<double>(counts[i]), state.income(i));
    }
    epochs.push_back(std::move(counts));
  }
  return epochs;
}

// Per-miner mean and variance of the slot counts against the multinomial
// marginals Bin(P, S_i / T), and every epoch assigns exactly P slots.
void ExpectMultinomialMoments(const std::vector<double>& stakes,
                              std::uint64_t seed) {
  const std::uint64_t reps = 40000;
  const auto epochs = DrawEpochs(stakes, reps, seed);
  double total = 0.0;
  for (const double s : stakes) total += s;
  std::vector<RunningStats> stats(stakes.size());
  for (const auto& counts : epochs) {
    std::uint64_t assigned = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      stats[i].Add(counts[i]);
      assigned += counts[i];
    }
    ASSERT_EQ(assigned, kSlots);
  }
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    const double p = stakes[i] / total;
    const double mean = kSlots * p;
    const double variance = mean * (1.0 - p);
    // Central fourth moment of Bin(P, p), for the sample variance's SE.
    const double fourth =
        variance * (1.0 + 3.0 * (kSlots - 2.0) * p * (1.0 - p));
    EXPECT_NEAR(stats[i].Mean(), mean,
                5.0 * std::sqrt(variance / reps) + 1e-12)
        << "miner " << i << " of " << stakes.size();
    EXPECT_NEAR(stats[i].Variance(), variance,
                5.0 * std::sqrt((fourth - variance * variance) / reps) +
                    1e-12)
        << "miner " << i << " of " << stakes.size();
  }
}

std::vector<double> GeometricStakes(std::size_t miners) {
  std::vector<double> stakes(miners);
  for (std::size_t i = 0; i < miners; ++i) {
    stakes[i] = std::pow(0.93, static_cast<double>(i));
  }
  return stakes;
}

TEST(CPosEpochKernelTest, SlotCountsAreMultinomialTwoMiners) {
  ExpectMultinomialMoments({0.2, 0.8}, 21);
}

TEST(CPosEpochKernelTest, SlotCountsAreMultinomialThreeMiners) {
  ExpectMultinomialMoments({0.5, 0.3, 0.2}, 22);
}

TEST(CPosEpochKernelTest, SlotCountsAreMultinomialTenMiners) {
  // table1's shape: the tracked miner at 20 %, the rest split equally.
  std::vector<double> stakes(10, 0.8 / 9.0);
  stakes[0] = 0.2;
  ExpectMultinomialMoments(stakes, 23);
}

TEST(CPosEpochKernelTest, SlotCountsAreMultinomialInTheDescentBranch) {
  ExpectMultinomialMoments(GeometricStakes(CPosModel::kChainMaxMiners + 1),
                           24);
}

TEST(CPosEpochKernelTest, ZeroStakeMinerNeverWinsFirstOrLast) {
  // Both branches, the zero-stake miner placed first and placed last; with
  // inflation on, so the fused sweep runs too.
  const std::vector<std::vector<double>> populations = [] {
    std::vector<std::vector<double>> out = {{0.0, 0.3, 0.7},
                                            {0.3, 0.7, 0.0}};
    std::vector<double> wide =
        GeometricStakes(CPosModel::kChainMaxMiners + 4);
    wide.front() = 0.0;
    out.push_back(wide);
    wide.front() = 1.0;
    wide.back() = 0.0;
    out.push_back(wide);
    return out;
  }();
  const CPosModel model(0.5, 0.1, kSlots);
  for (const auto& stakes : populations) {
    const std::size_t zero = stakes.front() == 0.0 ? 0 : stakes.size() - 1;
    StakeState state(stakes);
    RngStream rng(25);
    model.RunGame(state, rng, 2000);
    EXPECT_EQ(state.income(zero), 0.0) << "m=" << stakes.size();
    EXPECT_EQ(state.stake(zero), 0.0) << "m=" << stakes.size();
    EXPECT_NEAR(state.total_income(), 0.6 * 2000, 1e-6);
  }
}

TEST(CPosEpochKernelTest, BranchesAgreeInDistributionAtTheCrossover) {
  // The same M* stakes run through the chain, and — with one zero-stake
  // miner appended, which never wins — through the descents.  Each
  // branch's marginal of every tracked miner must pass a chi-square test
  // against the exact Bin(P, S_i / T), and the branches' means agree.
  const std::size_t m = CPosModel::kChainMaxMiners;
  const std::vector<double> stakes = GeometricStakes(m);
  std::vector<double> padded = stakes;
  padded.push_back(0.0);
  const std::uint64_t reps = 20000;
  const auto chain = DrawEpochs(stakes, reps, 26);
  const auto descent = DrawEpochs(padded, reps, 27);
  double total = 0.0;
  for (const double s : stakes) total += s;
  for (const std::size_t i : {std::size_t{0}, m / 2, m - 1}) {
    const double p = stakes[i] / total;
    std::vector<double> pmf(kSlots + 1);
    for (std::uint32_t k = 0; k <= kSlots; ++k) {
      pmf[k] = math::BinomialPmf(kSlots, k, p);
    }
    RunningStats chain_stats;
    RunningStats descent_stats;
    std::vector<std::uint64_t> chain_counts(kSlots + 1, 0);
    std::vector<std::uint64_t> descent_counts(kSlots + 1, 0);
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      ++chain_counts[chain[rep][i]];
      ++descent_counts[descent[rep][i]];
      chain_stats.Add(chain[rep][i]);
      descent_stats.Add(descent[rep][i]);
    }
    EXPECT_EQ(descent.front()[m], 0u);
    EXPECT_GT(math::ChiSquareGofTest(chain_counts, pmf).p_value, 1e-4)
        << "chain, miner " << i;
    EXPECT_GT(math::ChiSquareGofTest(descent_counts, pmf).p_value, 1e-4)
        << "descent, miner " << i;
    const double variance = kSlots * p * (1.0 - p);
    EXPECT_NEAR(chain_stats.Mean(), descent_stats.Mean(),
                5.0 * std::sqrt(2.0 * variance / reps))
        << "miner " << i;
  }
}

TEST(CPosEpochKernelTest, SamplerTracksStakesAfterEveryCall) {
  // The fused sweep leaves the sampler tree stale until SyncSampler; Step
  // and RunSteps must hand the state back with a tree that selects exactly
  // like one freshly built over the final stakes.
  for (const std::size_t miners :
       {CPosModel::kChainMaxMiners, CPosModel::kChainMaxMiners + 1}) {
    for (const double v : {0.0, 0.1}) {
      const CPosModel model(0.05, v, kSlots);
      StakeState state(GeometricStakes(miners));
      RngStream rng(28);
      model.RunSteps(state, 0, 40, rng);
      model.Step(state, rng);
      std::vector<double> final_stakes(miners);
      for (std::size_t i = 0; i < miners; ++i) final_stakes[i] = state.stake(i);
      const StakeState fresh(final_stakes);
      RngStream a(29);
      RngStream b(29);
      for (int draw = 0; draw < 1000; ++draw) {
        ASSERT_EQ(state.SampleProportionalToStake(a),
                  fresh.SampleProportionalToStake(b))
            << "m=" << miners << " v=" << v << " draw " << draw;
      }
    }
  }
}

TEST(CPosModelTest, WinProbabilityIsShare) {
  CPosModel model(0.01, 0.1, 32);
  StakeState state({0.2, 0.8});
  EXPECT_DOUBLE_EQ(model.WinProbability(state, 0), 0.2);
}

}  // namespace
}  // namespace fairchain::protocol
