// Tests for the campaign cost model: prior ordering across protocol
// families, miner-count interpolation, EWMA refinement from observed
// chunks, and the safety properties the planner relies on (estimates are
// always finite and positive, Reset restores pure priors).

#include "sim/cost_model.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "sim/scenario_spec.hpp"

namespace fairchain::sim {
namespace {

CampaignCell Cell(const std::string& protocol, std::size_t miners = 2) {
  CampaignCell cell;
  cell.protocol = protocol;
  cell.miners = miners;
  return cell;
}

CampaignCell ChainCell(const std::string& dynamics) {
  CampaignCell cell;
  cell.protocol = dynamics;
  cell.chain_dynamics = true;
  return cell;
}

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override { CostModel::Global().Reset(); }
  void TearDown() override { CostModel::Global().Reset(); }
};

TEST_F(CostModelTest, PriorsOrderProtocolsByKernelWeight) {
  // The spread the scheduler exists to balance: a C-PoS epoch assigns P
  // slots and credits every miner per step, while a PoW step is one
  // weighted draw.  The model must reproduce the coarse ordering
  // cpos >> slpos > mlpos > pow at the same steps and miner count.
  CostModel& model = CostModel::Global();
  const std::uint64_t steps = 1000;
  const double pow_ns = model.EstimateReplicationNs(Cell("pow"), steps);
  const double mlpos_ns = model.EstimateReplicationNs(Cell("mlpos"), steps);
  const double slpos_ns = model.EstimateReplicationNs(Cell("slpos"), steps);
  const double cpos_ns = model.EstimateReplicationNs(Cell("cpos"), steps);
  EXPECT_GT(mlpos_ns, pow_ns);
  EXPECT_GT(slpos_ns, mlpos_ns);
  EXPECT_GT(cpos_ns, slpos_ns);
  // C-PoS at two miners is one conditional-binomial draw plus a two-miner
  // credit sweep: ~61 ns against ~5-6.7 ns for PoW in the recorded
  // BM_Batched_* rows (9-12x).  Assert most of that spread.
  EXPECT_GT(cpos_ns, 6.0 * pow_ns);
}

TEST_F(CostModelTest, EstimatesScaleLinearlyInSteps) {
  CostModel& model = CostModel::Global();
  const double at_1k = model.EstimateReplicationNs(Cell("pow"), 1000);
  const double at_4k = model.EstimateReplicationNs(Cell("pow"), 4000);
  EXPECT_DOUBLE_EQ(at_4k, 4.0 * at_1k);
}

TEST_F(CostModelTest, MinerCountInterpolatesMonotonically) {
  // Priors are tabulated at powers of ten; anything between interpolates
  // log-linearly, so cost must grow monotonically with the miner count.
  CostModel& model = CostModel::Global();
  const double at_2 = model.EstimateReplicationNs(Cell("pow", 2), 1000);
  const double at_10 = model.EstimateReplicationNs(Cell("pow", 10), 1000);
  const double at_50 = model.EstimateReplicationNs(Cell("pow", 50), 1000);
  const double at_100 = model.EstimateReplicationNs(Cell("pow", 100), 1000);
  EXPECT_LT(at_2, at_10);
  EXPECT_LT(at_10, at_50);
  EXPECT_LT(at_50, at_100);
}

TEST_F(CostModelTest, ChainCellsUseTheChainPrior) {
  // Chain dynamics run the event machine, not the incentive kernels: both
  // dynamics share one flat prior regardless of name.
  CostModel& model = CostModel::Global();
  const double selfish = model.EstimateReplicationNs(ChainCell("selfish"), 500);
  const double forkrace =
      model.EstimateReplicationNs(ChainCell("forkrace"), 500);
  EXPECT_DOUBLE_EQ(selfish, forkrace);
  EXPECT_GT(selfish, 0.0);
}

TEST_F(CostModelTest, UnknownProtocolFallsBackFinite) {
  CostModel& model = CostModel::Global();
  const double estimate =
      model.EstimateReplicationNs(Cell("no-such-protocol"), 1000);
  EXPECT_TRUE(std::isfinite(estimate));
  EXPECT_GT(estimate, 0.0);
}

TEST_F(CostModelTest, ObserveRefinesTowardMeasuredCost) {
  // Feed chunks that imply 100 ns/step — far above the PoW prior — and the
  // EWMA must pull the estimate most of the way there within a few
  // observations, without overshooting.
  CostModel& model = CostModel::Global();
  const CampaignCell cell = Cell("pow");
  const double prior = model.EstimateReplicationNs(cell, 1000);
  for (int i = 0; i < 8; ++i) {
    // 4 replications x 1000 steps in 400 us => 100 ns/step.
    model.Observe(cell, 1000, 4, 400000);
  }
  const double refined = model.EstimateReplicationNs(cell, 1000);
  EXPECT_GT(refined, prior);
  EXPECT_GT(refined, 0.5 * 100.0 * 1000.0);
  EXPECT_LE(refined, 100.0 * 1000.0 * 1.01);
}

TEST_F(CostModelTest, ObservationsStayInTheirMinerBucket) {
  // Refining the 100-miner bucket must not disturb 2-miner estimates:
  // their per-step costs differ by an order of magnitude and share only a
  // protocol name.
  CostModel& model = CostModel::Global();
  const double two_before = model.EstimateReplicationNs(Cell("pow", 2), 1000);
  for (int i = 0; i < 8; ++i) {
    model.Observe(Cell("pow", 100), 1000, 4, 4000000);
  }
  const double two_after = model.EstimateReplicationNs(Cell("pow", 2), 1000);
  EXPECT_DOUBLE_EQ(two_before, two_after);
}

TEST_F(CostModelTest, DegenerateObservationsAreIgnored) {
  CostModel& model = CostModel::Global();
  const CampaignCell cell = Cell("mlpos");
  const double before = model.EstimateReplicationNs(cell, 1000);
  model.Observe(cell, 0, 4, 1000);     // zero steps
  model.Observe(cell, 1000, 0, 1000);  // zero replications
  model.Observe(cell, 1000, 4, 0);     // zero wall time
  EXPECT_DOUBLE_EQ(model.EstimateReplicationNs(cell, 1000), before);
}

TEST_F(CostModelTest, ResetRestoresPriors) {
  CostModel& model = CostModel::Global();
  const CampaignCell cell = Cell("fslpos");
  const double prior = model.EstimateReplicationNs(cell, 1000);
  model.Observe(cell, 1000, 4, 4000000);
  EXPECT_NE(model.EstimateReplicationNs(cell, 1000), prior);
  model.Reset();
  EXPECT_DOUBLE_EQ(model.EstimateReplicationNs(cell, 1000), prior);
}

}  // namespace
}  // namespace fairchain::sim
