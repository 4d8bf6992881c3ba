// Tests for the campaign runner: thread-count invariance, equivalence with
// the MonteCarloEngine on a single cell, ordered streaming emission, and
// the interleaved job plan that makes campaigns parallel across cells.

#include "sim/campaign.hpp"

#include <new>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/monte_carlo.hpp"
#include "protocol/model_factory.hpp"
#include "sim/cost_model.hpp"
#include "sim/result_sink.hpp"

namespace fairchain::sim {
namespace {

ScenarioSpec SmallSpec() {
  ScenarioSpec spec;
  spec.name = "small";
  spec.description = "small grid for tests";
  spec.protocols = {"pow", "mlpos"};
  spec.allocations = {0.2, 0.3};
  spec.steps = 200;
  spec.replications = 64;
  spec.seed = 7;
  spec.checkpoint_count = 4;
  return spec;
}

// Collects rows in arrival order.
class CollectSink : public ResultSink {
 public:
  void WriteRow(const CampaignRow& row) override { rows.push_back(row); }
  std::vector<CampaignRow> rows;
};

TEST(CampaignRunnerTest, RowsArriveInCellThenCheckpointOrder) {
  CampaignOptions options;
  options.threads = 4;
  CollectSink sink;
  const auto outcomes = CampaignRunner(options).Run(SmallSpec(), {&sink});
  EXPECT_EQ(outcomes.size(), 4u);
  ASSERT_EQ(sink.rows.size(), 4u * 4u);  // 4 cells x 4 checkpoints
  for (std::size_t i = 1; i < sink.rows.size(); ++i) {
    const bool cell_advances = sink.rows[i].cell > sink.rows[i - 1].cell;
    const bool checkpoint_advances =
        sink.rows[i].cell == sink.rows[i - 1].cell &&
        sink.rows[i].checkpoint == sink.rows[i - 1].checkpoint + 1;
    EXPECT_TRUE(cell_advances || checkpoint_advances) << "row " << i;
  }
}

TEST(CampaignRunnerTest, ResultsIdenticalForAnyThreadCount) {
  auto run = [](unsigned threads) {
    CampaignOptions options;
    options.threads = threads;
    CollectSink sink;
    CampaignRunner(options).Run(SmallSpec(), {&sink});
    return sink.rows;
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].cell, parallel[i].cell);
    EXPECT_EQ(serial[i].step, parallel[i].step);
    // Bitwise equality: the determinism contract, not a tolerance check.
    EXPECT_EQ(serial[i].mean, parallel[i].mean) << i;
    EXPECT_EQ(serial[i].p05, parallel[i].p05) << i;
    EXPECT_EQ(serial[i].unfair_probability, parallel[i].unfair_probability)
        << i;
  }
}

TEST(CampaignRunnerTest, SingleCellMatchesMonteCarloEngine) {
  ScenarioSpec spec = SmallSpec();
  spec.protocols = {"mlpos"};
  spec.allocations = {0.2};

  const auto outcomes = CampaignRunner().Run(spec, {});
  ASSERT_EQ(outcomes.size(), 1u);

  // The same cell through the engine directly, seeded with the cell seed.
  core::SimulationConfig config = CellConfig(spec, 0);
  config.threads = 1;
  core::MonteCarloEngine engine(config, spec.fairness);
  const auto model = protocol::MakeModel("mlpos", 0.01, 0.1, 32);
  const auto direct = engine.RunTwoMiner(*model, 0.2);

  ASSERT_EQ(outcomes[0].result.checkpoints.size(),
            direct.checkpoints.size());
  for (std::size_t c = 0; c < direct.checkpoints.size(); ++c) {
    EXPECT_EQ(outcomes[0].result.checkpoints[c].mean,
              direct.checkpoints[c].mean);
    EXPECT_EQ(outcomes[0].result.checkpoints[c].unfair_probability,
              direct.checkpoints[c].unfair_probability);
  }
}

TEST(CampaignRunnerTest, CellConfigPlumbsFinalLambdaRetention) {
  ScenarioSpec spec = SmallSpec();
  EXPECT_TRUE(CellConfig(spec, 0).keep_final_lambdas);
  spec.keep_final_lambdas = false;
  EXPECT_FALSE(CellConfig(spec, 0).keep_final_lambdas);
  const auto outcomes = CampaignRunner().Run(spec, {});
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.result.final_lambdas.empty());
  }
}

TEST(CampaignRunnerTest, CellSeedsAreDistinctAndIndexStable) {
  const std::uint64_t master = 20210620;
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 100; ++i) seeds.insert(CellSeed(master, i));
  EXPECT_EQ(seeds.size(), 100u);
  // A cell's seed depends only on (master, index): growing the grid never
  // reseeds existing cells.
  EXPECT_EQ(CellSeed(master, 3), CellSeed(master, 3));
  EXPECT_NE(CellSeed(master, 3), CellSeed(master + 1, 3));
}

TEST(CampaignRunnerTest, PlanInterleavesAllCellsInOneBatch) {
  // Steps large enough that a single replication's modeled cost keeps the
  // per-chunk target above the 1 ms floor; the cost-aware planner then
  // splits each cell into ~threads*4/cells chunks regardless of how the
  // EWMA has drifted (equal-cost cells make the split scale-invariant).
  CostModel::Global().Reset();
  ScenarioSpec spec = SmallSpec();
  spec.steps = 200000;
  CampaignOptions options;
  options.threads = 4;
  const auto jobs = CampaignRunner(options).PlanJobs(spec);
  // Every cell contributes multiple chunks to the single submitted batch,
  // so workers drain cells concurrently rather than serially.
  std::set<std::size_t> cells;
  std::size_t chunks_of_first = 0;
  for (const ChunkJob& job : jobs) {
    cells.insert(job.cell);
    if (job.cell == 0) ++chunks_of_first;
  }
  EXPECT_EQ(cells.size(), 4u);
  EXPECT_GT(chunks_of_first, 1u);
  // Chunks tile [0, replications) exactly.
  std::size_t covered = 0;
  for (const ChunkJob& job : jobs) {
    if (job.cell == 0) covered += job.end - job.begin;
  }
  EXPECT_EQ(covered, 64u);
}

TEST(CampaignRunnerTest, TinyCellsNeverShatterBelowTheCostFloor) {
  // Degenerate case: cells so cheap that cost-proportional sizing would
  // produce sub-microsecond chunks.  The 1 ms minimum-cost floor collapses
  // each 200-step cell to a single chunk instead of shattering it into
  // per-replication slivers whose scheduling overhead dwarfs the work.
  CostModel::Global().Reset();
  CampaignOptions options;
  options.threads = 4;
  const auto jobs = CampaignRunner(options).PlanJobs(SmallSpec());
  ASSERT_EQ(jobs.size(), 4u);
  for (const ChunkJob& job : jobs) {
    EXPECT_EQ(job.begin, 0u);
    EXPECT_EQ(job.end, 64u);
    EXPECT_GT(job.cost_ns, 0.0);
  }
}

TEST(CampaignRunnerTest, OversizedCellThrowsInsteadOfAbortingThePool) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators abort on oversized allocations "
                  "instead of throwing std::bad_alloc";
#endif
  // 50 checkpoints x 4e12 replications of λ is petabytes: the first chunk's
  // matrix allocation fails on a pool worker, and the failure must surface
  // from Run on the calling thread rather than terminate the process.
  const ScenarioSpec spec = ScenarioSpec::FromText(
      "name=oversized\n"
      "protocols=pow\n"
      "reps=4000000000000\n");
  const core::ThreadPoolBackend pool(4);
  CampaignOptions options;
  options.backend = &pool;
  EXPECT_THROW(CampaignRunner(options).Run(spec, {}), std::bad_alloc);
}

TEST(CampaignRunnerTest, UnsizableMatricesAreRejectedNamingTheCell) {
  // checkpoints x 2^64-1 replications x 8 B overflows 64 bits: Run must
  // refuse the spec before planning or allocating anything, and say which
  // scenario and cell asked for how much.
  const ScenarioSpec spec = ScenarioSpec::FromText(
      "name=oversized\n"
      "protocols=pow,cpos\n"
      "reps=18446744073709551615\n");
  try {
    CampaignRunner().Run(spec, {});
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("campaign oversized cell 0 (pow)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("18446744073709551615 replications"),
              std::string::npos)
        << what;
  }
}

TEST(CampaignRunnerTest, PlanningCoversReplicationCountsNearTheLimit) {
  // Chunk arithmetic must not wrap: the plan for 2^64-1 replications ends
  // exactly at the replication count, in a handful of chunks per cell.
  ScenarioSpec spec = SmallSpec();
  spec.replications = 18446744073709551615ULL;
  const auto jobs = CampaignRunner().PlanJobs(spec);
  ASSERT_FALSE(jobs.empty());
  EXPECT_LT(jobs.size(), 1000u);
  std::size_t previous_cell = jobs.front().cell;
  std::uint64_t next_begin = 0;
  for (const ChunkJob& job : jobs) {
    if (job.cell != previous_cell) {
      EXPECT_EQ(next_begin, spec.replications);
      next_begin = 0;
      previous_cell = job.cell;
    }
    EXPECT_EQ(job.begin, next_begin);
    EXPECT_GT(job.end, job.begin);
    next_begin = job.end;
  }
  EXPECT_EQ(next_begin, spec.replications);
}

TEST(CampaignRunnerTest, UnallocatableMatricesNameTheCellAndBytes) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators abort on oversized allocations "
                  "instead of throwing std::bad_alloc";
#endif
  // 50 checkpoints x 4e12 replications x 5 planes x 8 B = 8e15 bytes: the
  // size is representable, the allocation fails.
  const ScenarioSpec spec = ScenarioSpec::FromText(
      "name=oversized\n"
      "protocols=pow\n"
      "reps=4000000000000\n");
  try {
    CampaignRunner().Run(spec, {});
    FAIL() << "expected std::bad_alloc";
  } catch (const std::bad_alloc& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("campaign oversized cell 0 (pow)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("cannot allocate 8000000000000000 bytes"),
              std::string::npos)
        << what;
  }
}

TEST(CampaignRunnerTest, WithholdPeriodReachesTheSimulation) {
  ScenarioSpec spec = SmallSpec();
  spec.protocols = {"mlpos"};
  spec.allocations = {0.2};
  spec.withhold_periods = {0, 100};
  const auto outcomes = CampaignRunner().Run(spec, {});
  ASSERT_EQ(outcomes.size(), 2u);
  // Same seed split index differs per cell, so compare configs not values:
  // the withholding cell must carry the period into its SimulationConfig.
  EXPECT_EQ(outcomes[0].result.config.withhold_period, 0u);
  EXPECT_EQ(outcomes[1].result.config.withhold_period, 100u);
}

}  // namespace
}  // namespace fairchain::sim
