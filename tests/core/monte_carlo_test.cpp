// Tests for the Monte Carlo engine: determinism, checkpoint statistics,
// and convergence detection.

#include "core/monte_carlo.hpp"

#include <cmath>
#include <new>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "math/special.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/pow.hpp"

namespace fairchain::core {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.steps = 200;
  config.replications = 400;
  config.seed = 7;
  config.checkpoints = {50, 100, 200};
  return config;
}

TEST(SimulationConfigTest, ValidatesRanges) {
  SimulationConfig config = SmallConfig();
  EXPECT_NO_THROW(config.Validate());
  config.steps = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = SmallConfig();
  config.replications = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = SmallConfig();
  config.checkpoints = {0, 100};
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = SmallConfig();
  config.checkpoints = {100, 100};
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = SmallConfig();
  config.checkpoints = {100, 300};
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

TEST(LinearCheckpointsTest, EndsAtStepsAndAscends) {
  const auto cps = LinearCheckpoints(1000, 10);
  EXPECT_EQ(cps.back(), 1000u);
  for (std::size_t i = 1; i < cps.size(); ++i) EXPECT_GT(cps[i], cps[i - 1]);
}

TEST(LinearCheckpointsTest, CountCappedBySteps) {
  const auto cps = LinearCheckpoints(5, 100);
  EXPECT_EQ(cps.size(), 5u);
  EXPECT_EQ(cps.front(), 1u);
}

TEST(LinearCheckpointsTest, ExtremeHorizonDoesNotOverflow) {
  // Regression: steps * k used to wrap std::uint64_t for steps beyond
  // 2^64 / count, collapsing the schedule into garbage (non-monotone,
  // nowhere near steps).  The 128-bit intermediate keeps it exact.
  const std::uint64_t huge = (std::uint64_t{1} << 63) + 12345u;
  const auto cps = LinearCheckpoints(huge, 120);
  ASSERT_FALSE(cps.empty());
  EXPECT_EQ(cps.back(), huge);
  for (std::size_t i = 0; i < cps.size(); ++i) {
    EXPECT_LE(cps[i], huge);
    if (i > 0) {
      EXPECT_GT(cps[i], cps[i - 1]);
    }
  }
  // The all-ones horizon with a count that does not divide it.
  const std::uint64_t max = ~std::uint64_t{0};
  const auto extreme = LinearCheckpoints(max, 7);
  EXPECT_EQ(extreme.back(), max);
  for (std::size_t i = 1; i < extreme.size(); ++i) {
    EXPECT_GT(extreme[i], extreme[i - 1]);
  }
}

TEST(LogCheckpointsTest, LogSpacedAndComplete) {
  const auto cps = LogCheckpoints(100000, 20, 10);
  EXPECT_EQ(cps.front(), 10u);
  EXPECT_EQ(cps.back(), 100000u);
  for (std::size_t i = 1; i < cps.size(); ++i) EXPECT_GT(cps[i], cps[i - 1]);
  EXPECT_THROW(LogCheckpoints(10, 5, 100), std::invalid_argument);
}

TEST(LogCheckpointsTest, RoundingNeverEmitsCheckpointBeyondSteps) {
  // Regression: llround(exp(log(steps))) lands above `steps` for horizons
  // where exp/log rounding exceeds half a unit (e.g. 10^15 + 3 rounds to
  // 10^15 + 6).  The unclamped endpoint then broke strict ascent once
  // `steps` was appended, so SimulationConfig::Validate rejected every
  // schedule at those horizons.
  // The > 2^63 horizons additionally pin the conversion path: llround
  // would overflow long long there (unspecified result), so the clamp must
  // happen in the double domain.
  for (const std::uint64_t steps :
       {std::uint64_t{1000000000000003}, std::uint64_t{18014398509481985u},
        std::uint64_t{100000000000000000u},
        (std::uint64_t{1} << 63) + 12345u, ~std::uint64_t{0}}) {
    for (const std::size_t count : {std::size_t{2}, std::size_t{18}}) {
      const auto cps = LogCheckpoints(steps, count, 10);
      ASSERT_FALSE(cps.empty());
      EXPECT_EQ(cps.back(), steps);
      for (std::size_t i = 0; i < cps.size(); ++i) {
        EXPECT_LE(cps[i], steps);
        if (i > 0) {
          EXPECT_GT(cps[i], cps[i - 1]);
        }
      }
      // The schedule must satisfy the config contract it feeds.
      SimulationConfig config;
      config.steps = steps;
      config.checkpoints = cps;
      EXPECT_NO_THROW(config.Validate());
    }
  }
}

TEST(RunReplicationRangeTest, MinerOutOfRangeThrows) {
  // Regression: the public range entry point used to skip the bounds check
  // MonteCarloEngine::Run performs, handing direct callers UB via
  // initial_stakes[config.miner].
  const protocol::PowModel model(0.01);
  SimulationConfig config = SmallConfig();
  config.miner = 2;  // only two miners below
  std::vector<double> lambdas(config.checkpoints.size() *
                              config.replications);
  EXPECT_THROW(RunReplicationRange(model, {0.2, 0.8}, config, 0, 1,
                                   lambdas.data()),
               std::invalid_argument);
  EXPECT_THROW(RunReplicationRange(model, {0.2, 0.8}, config, 0, 1,
                                   lambdas.data(), nullptr),
               std::invalid_argument);
}

TEST(ReduceToResultTest, MinerOutOfRangeThrows) {
  SimulationConfig config = SmallConfig();
  config.miner = 5;
  const std::vector<double> lambdas(config.checkpoints.size() *
                                    config.replications);
  EXPECT_THROW(
      ReduceToResult("PoW", {0.2, 0.8}, config, FairnessSpec{}, lambdas),
      std::invalid_argument);
  EXPECT_THROW(ReduceToResult("PoW", {0.2, 0.8}, config, FairnessSpec{},
                              lambdas, {}),
               std::invalid_argument);
}

TEST(ReduceToResultTest, PopulationMatrixSizeMismatchThrows) {
  SimulationConfig config = SmallConfig();
  const std::vector<double> lambdas(config.checkpoints.size() *
                                    config.replications);
  const std::vector<double> wrong_size(3);
  EXPECT_THROW(ReduceToResult("PoW", {0.2, 0.8}, config, FairnessSpec{},
                              lambdas, wrong_size),
               std::invalid_argument);
}

TEST(MonteCarloEngineTest, PopulationMetricsRecordedWhenEnabled) {
  SimulationConfig config = SmallConfig();
  ASSERT_TRUE(config.population_metrics);  // on by default
  const MonteCarloEngine engine(config, FairnessSpec{});
  const protocol::MlPosModel model(0.01);
  const SimulationResult result = engine.Run(model, {0.2, 0.3, 0.5});
  for (const CheckpointStats& stats : result.checkpoints) {
    EXPECT_TRUE(std::isfinite(stats.gini));
    EXPECT_GE(stats.gini, 0.0);
    EXPECT_LT(stats.gini, 1.0);
    EXPECT_GE(stats.hhi, 1.0 / 3.0 - 1e-12);  // HHI >= 1/m
    EXPECT_LE(stats.hhi, 1.0);
    EXPECT_GE(stats.nakamoto, 1.0);
    EXPECT_LE(stats.nakamoto, 3.0);
    EXPECT_GE(stats.top_decile_share, 1.0 / 3.0 - 1e-9);
    EXPECT_LE(stats.top_decile_share, 1.0);
  }
}

TEST(MonteCarloEngineTest, PopulationMetricsNaNWhenDisabled) {
  SimulationConfig config = SmallConfig();
  config.population_metrics = false;
  const MonteCarloEngine engine(config, FairnessSpec{});
  const protocol::MlPosModel model(0.01);
  const SimulationResult result = engine.Run(model, {0.2, 0.8});
  for (const CheckpointStats& stats : result.checkpoints) {
    EXPECT_TRUE(std::isnan(stats.gini));
    EXPECT_TRUE(std::isnan(stats.hhi));
    EXPECT_TRUE(std::isnan(stats.nakamoto));
    EXPECT_TRUE(std::isnan(stats.top_decile_share));
  }
}

TEST(MonteCarloEngineTest, AutoCheckpointsWhenEmpty) {
  SimulationConfig config;
  config.steps = 50;
  config.replications = 10;
  MonteCarloEngine engine(config, FairnessSpec{});
  EXPECT_FALSE(engine.config().checkpoints.empty());
  EXPECT_EQ(engine.config().checkpoints.back(), 50u);
}

TEST(MonteCarloEngineTest, ResultShapeMatchesConfig) {
  MonteCarloEngine engine(SmallConfig(), FairnessSpec{});
  protocol::PowModel model(0.01);
  const SimulationResult result = engine.RunTwoMiner(model, 0.2);
  EXPECT_EQ(result.protocol, "PoW");
  EXPECT_DOUBLE_EQ(result.initial_share, 0.2);
  ASSERT_EQ(result.checkpoints.size(), 3u);
  EXPECT_EQ(result.checkpoints[0].step, 50u);
  EXPECT_EQ(result.checkpoints[2].step, 200u);
  EXPECT_EQ(result.final_lambdas.size(), 400u);
  EXPECT_EQ(result.Final().step, 200u);
}

TEST(MonteCarloEngineTest, DeterministicAcrossThreadCounts) {
  protocol::MlPosModel model(0.01);
  SimulationConfig config = SmallConfig();
  config.threads = 1;
  MonteCarloEngine engine1(config, FairnessSpec{});
  config.threads = 4;
  MonteCarloEngine engine4(config, FairnessSpec{});
  const auto r1 = engine1.RunTwoMiner(model, 0.2);
  const auto r4 = engine4.RunTwoMiner(model, 0.2);
  ASSERT_EQ(r1.final_lambdas.size(), r4.final_lambdas.size());
  for (std::size_t i = 0; i < r1.final_lambdas.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.final_lambdas[i], r4.final_lambdas[i]);
  }
}

TEST(MonteCarloEngineTest, SameSeedSameResult) {
  protocol::PowModel model(0.01);
  MonteCarloEngine engine(SmallConfig(), FairnessSpec{});
  const auto r1 = engine.RunTwoMiner(model, 0.2);
  const auto r2 = engine.RunTwoMiner(model, 0.2);
  EXPECT_EQ(r1.final_lambdas, r2.final_lambdas);
}

TEST(MonteCarloEngineTest, DifferentSeedsDiffer) {
  protocol::PowModel model(0.01);
  SimulationConfig config = SmallConfig();
  MonteCarloEngine e1(config, FairnessSpec{});
  config.seed = 8;
  MonteCarloEngine e2(config, FairnessSpec{});
  EXPECT_NE(e1.RunTwoMiner(model, 0.2).final_lambdas,
            e2.RunTwoMiner(model, 0.2).final_lambdas);
}

TEST(MonteCarloEngineTest, CheckpointStatsInternallyConsistent) {
  protocol::PowModel model(0.01);
  MonteCarloEngine engine(SmallConfig(), FairnessSpec{});
  const auto result = engine.RunTwoMiner(model, 0.2);
  for (const auto& cp : result.checkpoints) {
    EXPECT_LE(cp.min, cp.p05);
    EXPECT_LE(cp.p05, cp.p25);
    EXPECT_LE(cp.p25, cp.median);
    EXPECT_LE(cp.median, cp.p75);
    EXPECT_LE(cp.p75, cp.p95);
    EXPECT_LE(cp.p95, cp.max);
    EXPECT_GE(cp.unfair_probability, 0.0);
    EXPECT_LE(cp.unfair_probability, 1.0);
    EXPECT_GE(cp.mean, cp.min);
    EXPECT_LE(cp.mean, cp.max);
  }
}

TEST(MonteCarloEngineTest, PowStatisticsMatchBinomialTheory) {
  // At checkpoint n, n*lambda ~ Bin(n, a): verify mean and the unfair
  // probability against the exact binomial computation.
  protocol::PowModel model(1.0);
  SimulationConfig config;
  config.steps = 400;
  config.replications = 6000;
  config.seed = 11;
  config.checkpoints = {400};
  const FairnessSpec spec{0.1, 0.1};
  MonteCarloEngine engine(config, spec);
  const auto result = engine.RunTwoMiner(model, 0.2);
  const auto& cp = result.Final();
  EXPECT_NEAR(cp.mean, 0.2, 0.003);
  const double exact_unfair = 1.0 - math::PowDeltaExact(400, 0.2, 0.1);
  EXPECT_NEAR(cp.unfair_probability, exact_unfair, 0.025);
}

TEST(MonteCarloEngineTest, ConvergenceStepDetected) {
  // PoW with a = 0.2 converges within a few thousand blocks.
  protocol::PowModel model(0.01);
  SimulationConfig config;
  config.steps = 3000;
  config.replications = 1500;
  config.seed = 12;
  config.checkpoints = LinearCheckpoints(3000, 30);
  MonteCarloEngine engine(config, FairnessSpec{0.1, 0.1});
  const auto result = engine.RunTwoMiner(model, 0.2);
  const auto convergence = result.ConvergenceStep();
  ASSERT_TRUE(convergence.has_value());
  EXPECT_GT(*convergence, 400u);
  EXPECT_LT(*convergence, 2500u);
}

TEST(MonteCarloEngineTest, NoConvergenceReportedAsNullopt) {
  // ML-PoS at w = 0.1 never clears delta = 0.1 (limit Beta(2, 8)).
  protocol::MlPosModel model(0.1);
  SimulationConfig config;
  config.steps = 1000;
  config.replications = 1000;
  config.seed = 13;
  config.checkpoints = LinearCheckpoints(1000, 20);
  MonteCarloEngine engine(config, FairnessSpec{0.1, 0.1});
  const auto result = engine.RunTwoMiner(model, 0.2);
  EXPECT_FALSE(result.ConvergenceStep().has_value());
}

TEST(MonteCarloEngineTest, ConvergenceRequiresStayingConverged) {
  // Construct a synthetic result where unfairness dips then rises: the
  // first dip must not count.
  SimulationResult result;
  result.spec = FairnessSpec{0.1, 0.1};
  CheckpointStats cp;
  cp.step = 10;
  cp.unfair_probability = 0.05;  // dips below delta
  result.checkpoints.push_back(cp);
  cp.step = 20;
  cp.unfair_probability = 0.5;   // rises again
  result.checkpoints.push_back(cp);
  cp.step = 30;
  cp.unfair_probability = 0.08;  // final convergence
  result.checkpoints.push_back(cp);
  const auto convergence = result.ConvergenceStep();
  ASSERT_TRUE(convergence.has_value());
  EXPECT_EQ(*convergence, 30u);
}

TEST(MonteCarloEngineTest, WithholdingConfigPlumbsThrough) {
  protocol::MlPosModel model(0.05);
  SimulationConfig config = SmallConfig();
  config.withhold_period = 100;
  MonteCarloEngine engine(config, FairnessSpec{});
  const auto result = engine.RunTwoMiner(model, 0.2);
  EXPECT_EQ(result.config.withhold_period, 100u);
  // Expectational fairness still holds under withholding.
  EXPECT_NEAR(result.Final().mean, 0.2, 0.03);
}

TEST(MonteCarloEngineTest, MinerIndexOutOfRangeThrows) {
  protocol::PowModel model(0.01);
  SimulationConfig config = SmallConfig();
  config.miner = 5;
  MonteCarloEngine engine(config, FairnessSpec{});
  EXPECT_THROW(engine.Run(model, {0.2, 0.8}), std::invalid_argument);
}

TEST(MonteCarloEngineTest, TracksNonZeroMiner) {
  protocol::PowModel model(0.01);
  SimulationConfig config = SmallConfig();
  config.miner = 1;
  MonteCarloEngine engine(config, FairnessSpec{});
  const auto result = engine.Run(model, {0.2, 0.8});
  EXPECT_DOUBLE_EQ(result.initial_share, 0.8);
  EXPECT_NEAR(result.Final().mean, 0.8, 0.02);
}

TEST(MonteCarloEngineTest, RunTwoMinerValidatesShare) {
  protocol::PowModel model(0.01);
  MonteCarloEngine engine(SmallConfig(), FairnessSpec{});
  EXPECT_THROW(engine.RunTwoMiner(model, 0.0), std::invalid_argument);
  EXPECT_THROW(engine.RunTwoMiner(model, 1.0), std::invalid_argument);
}

TEST(MonteCarloEngineTest, ExpectationalReportConsistentForPow) {
  protocol::PowModel model(0.01);
  MonteCarloEngine engine(SmallConfig(), FairnessSpec{});
  const auto result = engine.RunTwoMiner(model, 0.2);
  const auto report = result.Expectational();
  EXPECT_TRUE(report.consistent);
  EXPECT_DOUBLE_EQ(report.target, 0.2);
}

TEST(MonteCarloEngineTest, FinalLambdasDroppedWhenRetentionOff) {
  protocol::MlPosModel model(0.01);
  SimulationConfig config = SmallConfig();
  const auto with = MonteCarloEngine(config, FairnessSpec{})
                        .RunTwoMiner(model, 0.2);
  config.keep_final_lambdas = false;
  const auto without = MonteCarloEngine(config, FairnessSpec{})
                           .RunTwoMiner(model, 0.2);
  ASSERT_EQ(with.final_lambdas.size(), 400u);
  EXPECT_TRUE(without.final_lambdas.empty());
  // Retention only affects the retained vector, never the statistics.
  ASSERT_EQ(with.checkpoints.size(), without.checkpoints.size());
  for (std::size_t i = 0; i < with.checkpoints.size(); ++i) {
    EXPECT_EQ(with.checkpoints[i].mean, without.checkpoints[i].mean);
    EXPECT_EQ(with.checkpoints[i].p95, without.checkpoints[i].p95);
    EXPECT_EQ(with.checkpoints[i].unfair_probability,
              without.checkpoints[i].unfair_probability);
  }
  EXPECT_THROW(without.Expectational(), std::logic_error);
}

TEST(MonteCarloEngineTest, FinalLambdasKeepReplicationOrder) {
  // final_lambdas[r] must be replication r's λ (NOT a sorted copy — the
  // reduction sorts its scratch in place for quantiles).  Cross-check
  // against a direct single-replication RunReplicationRange.
  protocol::MlPosModel model(0.01);
  SimulationConfig config = SmallConfig();
  const auto result =
      MonteCarloEngine(config, FairnessSpec{}).RunTwoMiner(model, 0.2);
  config.Validate();
  std::vector<double> lambda(config.checkpoints.size() *
                             config.replications);
  ReplicationWorkspace workspace;
  RunReplicationRange(model, {0.2, 0.8}, config, 7, 8, lambda.data(),
                      nullptr, workspace);
  const std::size_t last = config.checkpoints.size() - 1;
  EXPECT_EQ(result.final_lambdas[7],
            lambda[last * config.replications + 7]);
}

TEST(ResultMatrixSizeTest, CountsEveryPlaneAndRejectsOverflow) {
  SimulationConfig config = SmallConfig();  // 3 checkpoints x 400 reps
  EXPECT_EQ(ResultMatrixBytes(config, 5, "run"), 5u * 3u * 400u * 8u);
  EXPECT_EQ(PopulationMatrixSize(config), 4u * 3u * 400u);
  // 4 planes x 1 checkpoint x 2^62 replications wraps 64 bits.
  config.checkpoints = {200};
  config.replications = 4611686018427387904ULL;
  EXPECT_THROW((void)PopulationMatrixSize(config), std::length_error);
  try {
    (void)ResultMatrixBytes(config, 1, "my run");
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("my run: result matrices of 1 rows x "
                        "4611686018427387904 replications"),
              std::string::npos)
        << what;
  }
}

TEST(MonteCarloEngineTest, UnsizableMatricesAreRejectedNamingTheRun) {
  // 5 planes x 3 checkpoints x 2^61 replications x 8 B overflows 64 bits:
  // Run must refuse before allocating or scheduling anything, naming the
  // protocol and the request (this used to wrap to an empty matrix that
  // the kernel then wrote through).
  SimulationConfig config = SmallConfig();
  config.replications = 2305843009213693952ULL;
  const MonteCarloEngine engine(config, FairnessSpec{});
  try {
    (void)engine.RunTwoMiner(protocol::PowModel(0.01), 0.2);
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("PoW Monte Carlo run"), std::string::npos) << what;
    EXPECT_NE(what.find("2305843009213693952 replications"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("exceed 2^64 bytes"), std::string::npos) << what;
  }
}

TEST(MonteCarloEngineTest, UnallocatableMatricesNameTheRunAndBytes) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators abort on oversized allocations "
                  "instead of throwing std::bad_alloc";
#endif
  // 5 planes x 3 checkpoints x 4e13 replications x 8 B = 4.8e15 bytes: the
  // size is representable, the allocation fails.
  SimulationConfig config = SmallConfig();
  config.replications = 40000000000000ULL;
  const MonteCarloEngine engine(config, FairnessSpec{});
  try {
    (void)engine.RunTwoMiner(protocol::PowModel(0.01), 0.2);
    FAIL() << "expected std::bad_alloc";
  } catch (const std::bad_alloc& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("PoW Monte Carlo run: cannot allocate "
                        "4800000000000000 bytes"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("40000000000000 replications"), std::string::npos)
        << what;
  }
}

TEST(ReplicationWorkspaceTest, ReusedAcrossRangesWithIdenticalResults) {
  protocol::MlPosModel model(0.01);
  SimulationConfig config = SmallConfig();
  config.Validate();
  const std::vector<double> stakes = {0.2, 0.8};
  const std::size_t size = config.checkpoints.size() * config.replications;
  std::vector<double> fresh(size, 0.0);
  std::vector<double> reused(size, 0.0);
  // Reference: a fresh workspace per chunk.
  for (std::size_t begin = 0; begin < 400; begin += 100) {
    ReplicationWorkspace workspace;
    RunReplicationRange(model, stakes, config, begin, begin + 100,
                        fresh.data(), nullptr, workspace);
  }
  // One arena across all chunks (the per-worker steady state), plus a
  // rebind to a DIFFERENT cell in between to exercise reconfiguration.
  ReplicationWorkspace workspace;
  std::vector<double> other_cell(size, 0.0);
  for (std::size_t begin = 0; begin < 400; begin += 100) {
    RunReplicationRange(model, stakes, config, begin, begin + 100,
                        reused.data(), nullptr, workspace);
    RunReplicationRange(model, {0.5, 0.3, 0.2}, config, 0, 1,
                        other_cell.data(), nullptr, workspace);
  }
  EXPECT_EQ(fresh, reused);
}

TEST(ReplicationWorkspaceTest, BindValidatesStakes) {
  ReplicationWorkspace workspace;
  EXPECT_THROW(workspace.Bind({}, 0), std::invalid_argument);
  EXPECT_THROW(workspace.Bind({-1.0, 2.0}, 0), std::invalid_argument);
  workspace.Bind({0.2, 0.8}, 0);
  EXPECT_TRUE(workspace.bound());
  EXPECT_EQ(workspace.state().miner_count(), 2u);
}

}  // namespace
}  // namespace fairchain::core
