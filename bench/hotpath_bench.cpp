// Hot-path benchmark (google-benchmark): ns/step of the Monte Carlo inner
// loop as a function of miner-population size m, per protocol — the repo's
// perf-trajectory baseline (BENCH_hotpath.json).
//
// Three families (compare items_per_second = steps/second):
//   * BM_Batched_*  — the shipped execution core: one virtual RunSteps
//     call amortised over a whole segment, per-protocol inner loops with
//     inlined sampler descent and credit arms, zero steady-state
//     allocation (verified by BM_ZeroAllocSteadyState* below);
//   * BM_Fenwick_*  — the previous per-step path: one virtual Step call
//     per block over the same O(log m) Fenwick sampler, kept so every run
//     restates the batching gain at any m (dispatch and call overhead
//     dominate at small m, the tree descent at large m);
//   * BM_LinearScan_* — the pre-Fenwick O(m) cumulative scan, the original
//     reference (reconstructed locally; the models no longer contain it).
//
// Populations are the pareto:1.16 heavy-tailed stakes of the
// large-population-sweep scenario, m ∈ {2, 10, 100, 1k, 10k, 100k}.
//
// Emit the JSON trajectory with:
//   bench_hotpath_bench --benchmark_out=BENCH_hotpath.json
//                       --benchmark_out_format=json
// tools/compare_hotpath_bench.py guards CI against >25% per-step
// regressions relative to the checked-in baseline.
//
// Recorded in the dev container (gcc Release, 2026-07), batched execution
// core vs the pre-batching shipped path (virtual Step + out-of-line
// sampler/credit) measured on the same machine:
//   m = 2:    PoW 14.5 -> 3.3 ns (4.4x), ML-PoS 18.4 -> 7.8 ns (2.4x),
//             FSL-PoS 18.9 -> 7.9 ns (2.4x), C-PoS 636 -> 202 ns/epoch
//             (3.2x) — dispatch/call overhead dominated, batching plus the
//             inlined credit arms and the two-element sampler fast path
//             remove it.
//   m = 100:  PoW 40.8 -> 17.5 ns (2.3x, branchless static-stake descent);
//             the compounding protocols are descent-bound, not
//             dispatch-bound, and show ~1.1-1.2x.
//   m = 10k/100k: PoW 93 -> 42 ns / 119 -> 76 ns; compounding protocols at
//             parity (the branchy descent + reinforcement path is
//             unchanged) — no regression.
// The linear-scan reference stays ~2 orders of magnitude slower than the
// tree at m = 100k.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "chain/chain_replication.hpp"
#include "core/execution_backend.hpp"
#include "core/monte_carlo.hpp"
#include "core/population.hpp"
#include "core/replication_block_workspace.hpp"
#include "core/replication_workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/campaign.hpp"
#include "protocol/c_pos.hpp"
#include "protocol/extensions.hpp"
#include "protocol/fsl_pos.hpp"
#include "protocol/lane_state.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/pow.hpp"
#include "protocol/sl_pos.hpp"
#include "protocol/stake_state.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/scenario_spec.hpp"
#include "support/philox.hpp"
#include "support/rng.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in the process bumps it.
// BM_ZeroAllocSteadyState* snapshots it around the measured region to PROVE
// the zero-steady-state-allocation property of the workspace design, not
// just assert it in a comment.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// The replaced operator new above is malloc-backed, so free() here IS the
// matched deallocator; gcc's -Wmismatched-new-delete cannot see that
// pairing once calls are inlined and flags it spuriously.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace fairchain;

std::vector<double> ParetoStakes(std::size_t miners) {
  sim::CampaignCell cell;
  cell.miners = miners;
  cell.stake_dist = "pareto:1.16";
  return cell.Stakes();
}

// The pre-Fenwick proposer selection: one uniform, one O(m) cumulative
// scan over the stakes (verbatim shape of the old PoW/ML-PoS/NEO loop).
std::size_t LinearScanProposer(const protocol::StakeState& state,
                               RngStream& rng) {
  const double target = rng.NextDouble() * state.total_stake();
  double cumulative = 0.0;
  const std::size_t n = state.miner_count();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    cumulative += state.stake(i);
    if (target < cumulative) return i;
  }
  return n - 1;
}

// Compounding protocols reset to the initial stakes every kGameSteps — the
// replication shape of real campaigns.  Without the reset the benchmark
// state drifts forever toward a degenerate single-winner distribution, so
// ns/step would depend on how many total iterations the harness happened
// to run (CI smoke runs and long local runs would measure different
// regimes).  16384 steps at w = 0.01 spans the whole realistic
// concentration range; the O(m) reset amortises to < 4 ns/step even at
// m = 100k.  Static-stake protocols (PoW / NEO) have nothing to reset.
constexpr std::uint64_t kGameSteps = 16384;

void StepLoop(benchmark::State& bench_state,
              const protocol::IncentiveModel& model, std::size_t miners) {
  protocol::StakeState state(ParetoStakes(miners));
  RngStream rng(20210620);
  const bool reset_per_game = model.RewardCompounds();
  for (auto _ : bench_state) {
    if (reset_per_game && state.step() == kGameSteps) state.Reset();
    model.Step(state, rng);
    state.AdvanceStep();
  }
  bench_state.SetItemsProcessed(
      static_cast<int64_t>(bench_state.iterations()));
}

// One benchmark iteration = one RunSteps segment — the shape the engine
// actually drives between checkpoints.  Compare on items_per_second
// (steps/second) against the per-step families.  Compounding protocols run
// whole kGameSteps games from Reset; static ones step 1024-block segments.
constexpr std::uint64_t kBatchSteps = 1024;

void BatchedLoop(benchmark::State& bench_state,
                 const protocol::IncentiveModel& model, std::size_t miners) {
  protocol::StakeState state(ParetoStakes(miners));
  RngStream rng(20210620);
  const bool reset_per_game = model.RewardCompounds();
  const std::uint64_t segment = reset_per_game ? kGameSteps : kBatchSteps;
  for (auto _ : bench_state) {
    if (reset_per_game) state.Reset();
    model.RunSteps(state, state.step(), segment, rng);
  }
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() * static_cast<int64_t>(segment)));
}

void LinearScanLoop(benchmark::State& bench_state, bool compounds,
                    std::size_t miners) {
  protocol::StakeState state(ParetoStakes(miners));
  RngStream rng(20210620);
  for (auto _ : bench_state) {
    const std::size_t winner = LinearScanProposer(state, rng);
    state.Credit(winner, 0.01, compounds);
    state.AdvanceStep();
  }
  bench_state.SetItemsProcessed(
      static_cast<int64_t>(bench_state.iterations()));
}

// --- batched execution core (the shipped hot path) --------------------------

void BM_Batched_PoW(benchmark::State& state) {
  BatchedLoop(state, protocol::PowModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_PoW)->RangeMultiplier(10)->Range(2, 100000);

void BM_Batched_MlPos(benchmark::State& state) {
  BatchedLoop(state, protocol::MlPosModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_MlPos)->RangeMultiplier(10)->Range(2, 100000);

void BM_Batched_FslPos(benchmark::State& state) {
  BatchedLoop(state, protocol::FslPosModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_FslPos)->RangeMultiplier(10)->Range(2, 100000);

void BM_Batched_SlPos(benchmark::State& state) {
  BatchedLoop(state, protocol::SlPosModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_SlPos)->RangeMultiplier(10)->Range(2, 1000);

// C-PoS at v = 0 (proposer slots only) and at the registry default
// v = 0.1, where the inflation credit touches every miner each epoch.  The
// extra m = 3 and m = 5 rows fill in the small multi-miner games (table1),
// which run the conditional-binomial chain below
// CPosModel::kChainMaxMiners; the cost model's kCPosPoints are read off
// the v = 0.1 family.
void BM_Batched_CPosEpoch(benchmark::State& state) {
  BatchedLoop(state, protocol::CPosModel(0.01, 0.0, 32),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_CPosEpoch)
    ->RangeMultiplier(10)
    ->Range(2, 100000)
    ->Arg(3)
    ->Arg(5);

void BM_Batched_CPosEpochInflation(benchmark::State& state) {
  BatchedLoop(state, protocol::CPosModel(0.01, 0.1, 32),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_CPosEpochInflation)
    ->RangeMultiplier(10)
    ->Range(2, 100000)
    ->Arg(3)
    ->Arg(5);

// --- replication-vectorized lane stepping -----------------------------------

// ns per REPLICATION-STEP of the lane-batched path: one RunLaneSteps
// segment advances K lanes in lockstep, so items = steps x K and
// items_per_second compares directly against the batched scalar families
// above.  Args: (m, K) with K in {4, 8, 16}.
// tools/compare_hotpath_bench.py enforces the within-run speedup floor
// (--vectorized-floor): BM_Vectorized_PoW/(m, 16) must beat BM_Batched_PoW
// at the same m <= 100.
void VectorizedLoop(benchmark::State& bench_state,
                    const protocol::IncentiveModel& model,
                    std::size_t miners, std::size_t lanes) {
  const std::vector<double> stakes = ParetoStakes(miners);
  const bool reset_per_game = model.RewardCompounds();
  const std::uint64_t segment = reset_per_game ? kGameSteps : kBatchSteps;
  protocol::LaneStakeState block;
  block.Reset(stakes, lanes, reset_per_game);
  PhiloxLanes rng;
  rng.Reset(20210620, /*first_lane=*/0, lanes);
  for (auto _ : bench_state) {
    if (reset_per_game) block.Reset(stakes, lanes, true);
    model.RunLaneSteps(block, block.step(), segment, rng);
  }
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() * static_cast<int64_t>(segment) *
      static_cast<int64_t>(lanes)));
}

void BM_Vectorized_PoW(benchmark::State& state) {
  VectorizedLoop(state, protocol::PowModel(0.01),
                 static_cast<std::size_t>(state.range(0)),
                 static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_Vectorized_PoW)
    ->ArgsProduct({{2, 100, 10000, 100000}, {4, 8, 16}});

void BM_Vectorized_Neo(benchmark::State& state) {
  VectorizedLoop(state, protocol::NeoModel(0.01),
                 static_cast<std::size_t>(state.range(0)),
                 static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_Vectorized_Neo)
    ->ArgsProduct({{2, 100, 10000, 100000}, {4, 8, 16}});

// The compounding lane kernel, benched for the record: campaigns do NOT
// route ML-PoS through it (core::UsesVectorizedStepping), because the
// per-lane tree reinforcement erases the lockstep win — this family
// documents that trade instead of asserting it in a comment.
void BM_Vectorized_MlPos(benchmark::State& state) {
  VectorizedLoop(state, protocol::MlPosModel(0.01),
                 static_cast<std::size_t>(state.range(0)),
                 static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_Vectorized_MlPos)
    ->ArgsProduct({{2, 100, 10000}, {4, 8, 16}});

// --- per-step O(log m) reference (the pre-batching path) --------------------

void BM_Fenwick_PoW(benchmark::State& state) {
  StepLoop(state, protocol::PowModel(0.01),
           static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Fenwick_PoW)->RangeMultiplier(10)->Range(2, 100000);

void BM_Fenwick_MlPos(benchmark::State& state) {
  StepLoop(state, protocol::MlPosModel(0.01),
           static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Fenwick_MlPos)->RangeMultiplier(10)->Range(2, 100000);

void BM_Fenwick_FslPos(benchmark::State& state) {
  StepLoop(state, protocol::FslPosModel(0.01),
           static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Fenwick_FslPos)->RangeMultiplier(10)->Range(2, 100000);

// C-PoS epochs sample P = 32 slots through the same tree (v = 0 isolates
// the slot path; the inflation sweep is inherently O(m)).
void BM_Fenwick_CPosEpoch(benchmark::State& state) {
  StepLoop(state, protocol::CPosModel(0.01, 0.0, 32),
           static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Fenwick_CPosEpoch)->RangeMultiplier(10)->Range(2, 100000);

// --- pre-Fenwick O(m) reference ---------------------------------------------

void BM_LinearScan_PoW(benchmark::State& state) {
  LinearScanLoop(state, /*compounds=*/false,
                 static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_LinearScan_PoW)->RangeMultiplier(10)->Range(100, 100000);

void BM_LinearScan_MlPos(benchmark::State& state) {
  LinearScanLoop(state, /*compounds=*/true,
                 static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_LinearScan_MlPos)->RangeMultiplier(10)->Range(100, 100000);

// --- chain-dynamics kernels -------------------------------------------------

// ns per block-discovery event of the chain-replication kernel
// (src/chain).  One iteration = one 4096-event segment through
// StepChainEvents — the shape RunChainReplicationRange drives between
// checkpoints — so items_per_second compares directly against the
// batched incentive families above (one chain event plays the role of
// one block step).
constexpr std::uint64_t kChainSegmentEvents = 4096;

void ChainStepLoop(benchmark::State& bench_state,
                   const chain::ChainGameSpec& spec) {
  chain::ChainReplicationWorkspace workspace;
  workspace.Bind(spec);
  RngStream rng(20210620);
  for (auto _ : bench_state) {
    chain::StepChainEvents(spec, workspace.state(), rng,
                           kChainSegmentEvents);
  }
  bench_state.SetItemsProcessed(
      static_cast<int64_t>(bench_state.iterations()) *
      static_cast<int64_t>(kChainSegmentEvents));
}

// Fork-race machine at alpha = 0.3; arg = propagation delay in hundredths
// of a mean block interval.  delay = 0 is the forkless iid fast path (the
// verify layer's binomial anchor, one Bernoulli pair per event); larger
// delays spend more events inside races, exercising the window-draw and
// reorg-settlement arms.
void BM_ChainStep(benchmark::State& state) {
  chain::ChainGameSpec spec;
  spec.dynamics = chain::ChainDynamics::kForkRace;
  spec.alpha = 0.3;
  spec.delay = static_cast<double>(state.range(0)) / 100.0;
  ChainStepLoop(state, spec);
}
BENCHMARK(BM_ChainStep)->Arg(0)->Arg(25)->Arg(150);

// Eyal–Sirer selfish-mining machine at alpha = 1/3 (the paper's classic
// threshold case); arg = gamma in percent.  gamma steers how often the
// tie-race arm draws, so the three points bracket the state machine's
// branch mix.
void BM_SelfishGame(benchmark::State& state) {
  chain::ChainGameSpec spec;
  spec.dynamics = chain::ChainDynamics::kSelfish;
  spec.alpha = 1.0 / 3.0;
  spec.gamma = static_cast<double>(state.range(0)) / 100.0;
  ChainStepLoop(state, spec);
}
BENCHMARK(BM_SelfishGame)->Arg(0)->Arg(50)->Arg(100);

// --- process-shard scaling --------------------------------------------------

// Wall-clock of one whole campaign (4 cells × 256 replications × 2000
// steps) through the campaign runner on the process-sharded backend,
// shard ∈ {1, 2, 4, 8}, plus the in-process serial reference at arg 0.
// This is a WALL-CLOCK family (UseRealTime): each iteration forks its
// workers, streams chunk payloads back over pipes, and reduces — it
// measures fork + marshalling overhead against parallel speedup, not the
// per-step kernel (the families above own that).  On a loaded CI runner
// the scaling curve is noisy, so tools/compare_hotpath_bench.py holds
// BM_ShardCampaign to a separate, looser wall-clock budget and keeps it
// out of the machine-speed median.
void BM_ShardCampaign(benchmark::State& bench_state) {
  const auto shards = static_cast<unsigned>(bench_state.range(0));
  const sim::ScenarioSpec spec = sim::ScenarioSpec::FromText(
      "name=shard-bench\n"
      "protocols=pow,mlpos\n"
      "a=0.2,0.4\n"
      "steps=2000\n"
      "reps=256\n"
      "checkpoints=4\n"
      "population=off\n"
      "final_lambdas=off\n");
  const core::SerialBackend serial;
  const core::ShardBackend sharded(shards == 0 ? 1 : shards);
  sim::CampaignOptions options;
  options.backend =
      shards == 0 ? static_cast<const core::ExecutionBackend*>(&serial)
                  : &sharded;
  options.chunk_replications = 32;  // 8 chunks per cell: fan-out for 8 shards
  const sim::CampaignRunner runner(options);
  for (auto _ : bench_state) {
    const auto outcomes = runner.Run(spec, {});
    benchmark::DoNotOptimize(outcomes.size());
  }
  const auto steps_per_iteration = static_cast<int64_t>(
      static_cast<std::uint64_t>(spec.CellCount()) * spec.replications *
      spec.steps);
  bench_state.SetItemsProcessed(bench_state.iterations() *
                                steps_per_iteration);
}
#ifndef _WIN32
BENCHMARK(BM_ShardCampaign)
    ->Arg(0)  // in-process serial reference
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
#endif

// --- cost-aware scheduling --------------------------------------------------

// Wall-clock of the registry's hetero-cost-mix campaign (C-PoS + PoW +
// selfish-chain — a ~12x per-step cost spread across three cells) under
// a static planner versus the cost-aware scheduler, on the thread pool and
// the demand-driven shard backend.  The static arm is the coarse planner:
// chunk_replications = replications, one cell-granular chunk per cell, so
// the whole campaign's tail is the most expensive cell on one worker.
// tools/compare_hotpath_bench.py derives its --hetero-speedup floor from
// the static/cost ratio WITHIN one run (machine speed cancels); the floor
// only arms on runners with >= 4 CPUs, where the parallelism the
// scheduler unlocks is physically available.
//
// Args: (mode 0 = pool / 1 = shard, workers, policy 0 = static / 1 = cost).
void BM_HeterogeneousCampaign(benchmark::State& bench_state) {
  const bool shard_mode = bench_state.range(0) == 1;
  const auto workers = static_cast<unsigned>(bench_state.range(1));
  const bool cost_aware = bench_state.range(2) == 1;
  const sim::ScenarioSpec& spec =
      sim::ScenarioRegistry::BuiltIn().Get("hetero-cost-mix");
  const core::ThreadPoolBackend pool(workers);
  const core::ShardBackend sharded(workers);
  sim::CampaignOptions options;
  options.backend =
      shard_mode ? static_cast<const core::ExecutionBackend*>(&sharded)
                 : &pool;
  if (!cost_aware) options.chunk_replications = spec.replications;
  const sim::CampaignRunner runner(options);
  for (auto _ : bench_state) {
    const auto outcomes = runner.Run(spec, {});
    benchmark::DoNotOptimize(outcomes.size());
  }
  const auto steps_per_iteration = static_cast<int64_t>(
      static_cast<std::uint64_t>(spec.CellCount()) * spec.replications *
      spec.steps);
  bench_state.SetItemsProcessed(bench_state.iterations() *
                                steps_per_iteration);
}
#ifndef _WIN32
BENCHMARK(BM_HeterogeneousCampaign)
    ->Args({0, 4, 0})  // pool/4, static planner
    ->Args({0, 4, 1})  // pool/4, cost-aware
    ->Args({1, 2, 0})  // shard:2, static
    ->Args({1, 2, 1})  // shard:2, cost-aware
    ->Args({1, 4, 0})  // shard:4, static
    ->Args({1, 4, 1})  // shard:4, cost-aware
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
#endif

// --- observability overhead -------------------------------------------------

// The overhead budget of src/obs compiled in but DISABLED: each pair runs
// the same batched segment loop, once bare and once through the exact
// production call-site shape — a Span whose enabled check fails (tracing
// off, the steady state of every run without --trace) plus a live
// ScopedLatency into the registry histogram (histograms are always on).
// tools/compare_hotpath_bench.py holds Instrumented/Base within the SAME
// run to <2% (--obs-limit 1.02), so machine speed cancels exactly.
void InstrumentedBatchedLoop(benchmark::State& bench_state,
                             const protocol::IncentiveModel& model,
                             std::size_t miners) {
  obs::SetTraceEnabled(false);
  static auto& segment_ns =
      obs::MetricsRegistry::Global().GetHistogram("bench.obs_segment_ns");
  protocol::StakeState state(ParetoStakes(miners));
  RngStream rng(20210620);
  const bool reset_per_game = model.RewardCompounds();
  const std::uint64_t segment = reset_per_game ? kGameSteps : kBatchSteps;
  for (auto _ : bench_state) {
    obs::Span span("bench.obs_segment", segment);
    obs::ScopedLatency latency(segment_ns);
    if (reset_per_game) state.Reset();
    model.RunSteps(state, state.step(), segment, rng);
  }
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() * static_cast<int64_t>(segment)));
}

void BM_ObsBase_PoW(benchmark::State& state) {
  BatchedLoop(state, protocol::PowModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_ObsBase_PoW)->Arg(1000);

void BM_ObsInstrumented_PoW(benchmark::State& state) {
  InstrumentedBatchedLoop(state, protocol::PowModel(0.01),
                          static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_ObsInstrumented_PoW)->Arg(1000);

void BM_ObsBase_MlPos(benchmark::State& state) {
  BatchedLoop(state, protocol::MlPosModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_ObsBase_MlPos)->Arg(1000);

void BM_ObsInstrumented_MlPos(benchmark::State& state) {
  InstrumentedBatchedLoop(state, protocol::MlPosModel(0.01),
                          static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_ObsInstrumented_MlPos)->Arg(1000);

// --- population metrics -----------------------------------------------------

// ns per population measurement over a recorded ML-PoS (w = 0.01)
// trajectory of pareto:1.16 stakes: the wealth vector at each of 12
// checkpoints 250 steps apart, the pareto-population scenario's schedule.
// Arg 1 = carried order: a replication's measurements run in order
// through PopulationOrders (Restart, then one O(m + k log k) Measure per
// checkpoint), exactly as the engine drives them.  Arg 0 = the
// from-scratch sort (MeasurePopulation, O(m log m) per checkpoint), the
// simplest alternative.  Both measure the same vectors, so items/s
// compare directly.
constexpr std::uint64_t kPopulationSegment = 250;
constexpr std::size_t kPopulationCheckpoints = 12;

std::vector<std::vector<double>> RecordedMlPosWealth(std::size_t miners) {
  const protocol::MlPosModel model(0.01);
  protocol::StakeState state(ParetoStakes(miners));
  RngStream rng(20210620);
  std::vector<std::vector<double>> trajectory(kPopulationCheckpoints);
  for (std::vector<double>& wealth : trajectory) {
    model.RunSteps(state, state.step(), kPopulationSegment, rng);
    state.WealthVector(&wealth);
  }
  return trajectory;
}

void BM_PopulationMeasure(benchmark::State& bench_state) {
  const auto miners = static_cast<std::size_t>(bench_state.range(0));
  const bool carried = bench_state.range(1) != 0;
  const std::vector<std::vector<double>> trajectory =
      RecordedMlPosWealth(miners);
  core::PopulationOrders orders;
  orders.Bind(ParetoStakes(miners), 1);
  std::vector<double> scratch;
  double checksum = 0.0;
  for (auto _ : bench_state) {
    if (carried) {
      orders.Restart(0);
      for (const std::vector<double>& wealth : trajectory) {
        checksum += orders.Measure(0, wealth).gini;
      }
    } else {
      for (const std::vector<double>& wealth : trajectory) {
        checksum += core::MeasurePopulation(wealth, &scratch).gini;
      }
    }
  }
  benchmark::DoNotOptimize(checksum);
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() *
      static_cast<int64_t>(kPopulationCheckpoints)));
}
BENCHMARK(BM_PopulationMeasure)
    ->ArgsProduct({{100, 1000, 10000}, {0, 1}});

// --- zero-allocation property -----------------------------------------------

// Steady-state replications in a bound workspace must not allocate: after
// one warm-up replication (Bind allocates the arena once), a full
// replication — Reset, checkpoint-segment RunSteps, λ recording, and the
// carried population-metric measurement — must leave the global
// allocation counter untouched.  The benchmark FAILS (SkipWithError) on
// any allocation, so a future accidental per-step vector shows up in CI,
// not in a profile.
void ZeroAllocLoop(benchmark::State& bench_state,
                   const protocol::IncentiveModel& model,
                   std::size_t miners, bool population) {
  core::SimulationConfig config;
  config.steps = 256;
  config.replications = 4;
  config.checkpoints = {128, 256};
  config.population_metrics = population;
  const std::vector<double> stakes = ParetoStakes(miners);
  std::vector<double> lambdas(config.checkpoints.size() *
                              config.replications);
  std::vector<double> metrics(
      population ? core::PopulationMatrixSize(config) : 0);
  double* metrics_ptr = metrics.empty() ? nullptr : metrics.data();
  core::ReplicationWorkspace workspace;
  // Warm-up: binds the arena (allocates) and sizes every scratch buffer.
  core::RunReplicationRange(model, stakes, config, 0, 1, lambdas.data(),
                            metrics_ptr, workspace);
  std::uint64_t allocations = 0;
  for (auto _ : bench_state) {
    const std::uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    core::RunReplicationRange(model, stakes, config, 1, 2, lambdas.data(),
                              metrics_ptr, workspace);
    allocations +=
        g_allocation_count.load(std::memory_order_relaxed) - before;
  }
  bench_state.counters["allocs_per_replication"] =
      static_cast<double>(allocations) /
      static_cast<double>(bench_state.iterations());
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() * static_cast<int64_t>(config.steps)));
  if (allocations != 0) {
    bench_state.SkipWithError(
        "steady-state replication allocated on the heap");
  }
}

void BM_ZeroAllocSteadyState_MlPos(benchmark::State& state) {
  ZeroAllocLoop(state, protocol::MlPosModel(0.01),
                static_cast<std::size_t>(state.range(0)),
                /*population=*/false);
}
BENCHMARK(BM_ZeroAllocSteadyState_MlPos)->Arg(2)->Arg(1000);

void BM_ZeroAllocSteadyState_MlPosWithMetrics(benchmark::State& state) {
  ZeroAllocLoop(state, protocol::MlPosModel(0.01),
                static_cast<std::size_t>(state.range(0)),
                /*population=*/true);
}
BENCHMARK(BM_ZeroAllocSteadyState_MlPosWithMetrics)->Arg(1000);

void BM_ZeroAllocSteadyState_CPos(benchmark::State& state) {
  ZeroAllocLoop(state, protocol::CPosModel(0.01, 0.1, 32),
                static_cast<std::size_t>(state.range(0)),
                /*population=*/false);
}
BENCHMARK(BM_ZeroAllocSteadyState_CPos)->Arg(1000);

// Same property for the vectorized path: after a warm-up lane block sizes
// the arena (LaneStakeState columns, Philox buffers, wealth scratch), a
// full lane block — Reset, checkpoint-segment RunLaneSteps, per-lane λ
// recording — must not allocate.
void BM_ZeroAllocVectorized_PoW(benchmark::State& bench_state) {
  const auto miners = static_cast<std::size_t>(bench_state.range(0));
  core::SimulationConfig config;
  config.steps = 256;
  config.replications = 2 * core::kReplicationLaneWidth;
  config.checkpoints = {128, 256};
  config.population_metrics = false;
  config.stepping = core::SteppingMode::kVectorized;
  const protocol::PowModel model(0.01);
  const std::vector<double> stakes = ParetoStakes(miners);
  std::vector<double> lambdas(config.checkpoints.size() *
                              config.replications);
  core::ReplicationBlockWorkspace workspace;
  // Warm-up: sizes every buffer for a full-width lane block.
  core::RunReplicationBlockRange(model, stakes, config, 0,
                                 core::kReplicationLaneWidth, lambdas.data(),
                                 nullptr, workspace);
  std::uint64_t allocations = 0;
  for (auto _ : bench_state) {
    const std::uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    core::RunReplicationBlockRange(
        model, stakes, config, core::kReplicationLaneWidth,
        2 * core::kReplicationLaneWidth, lambdas.data(), nullptr, workspace);
    allocations +=
        g_allocation_count.load(std::memory_order_relaxed) - before;
  }
  bench_state.counters["allocs_per_replication"] =
      static_cast<double>(allocations) /
      static_cast<double>(bench_state.iterations());
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() *
      static_cast<int64_t>(config.steps * core::kReplicationLaneWidth)));
  if (allocations != 0) {
    bench_state.SkipWithError(
        "steady-state vectorized lane block allocated on the heap");
  }
}
BENCHMARK(BM_ZeroAllocVectorized_PoW)->Arg(2)->Arg(1000);

// Same property for the chain-dynamics kernel: after a warm-up
// replication Bind()s the workspace, a full chain replication — Reset,
// checkpoint-segment StepChainEvents, λ and chain-observable recording —
// must not allocate.
void BM_ZeroAllocChainReplication(benchmark::State& bench_state) {
  core::SimulationConfig config;
  config.steps = 256;
  config.replications = 4;
  config.checkpoints = {128, 256};
  chain::ChainGameSpec spec;
  spec.dynamics = chain::ChainDynamics::kForkRace;
  spec.alpha = 0.3;
  spec.delay = 0.25;
  std::vector<double> lambdas(config.checkpoints.size() *
                              config.replications);
  std::vector<double> chain_matrix(chain::ChainMatrixSize(config));
  chain::ChainReplicationWorkspace workspace;
  // Warm-up: binds the workspace to the spec.
  chain::RunChainReplicationRange(spec, config, 0, 1, lambdas.data(),
                                  chain_matrix.data(), workspace);
  std::uint64_t allocations = 0;
  for (auto _ : bench_state) {
    const std::uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    chain::RunChainReplicationRange(spec, config, 1, 2, lambdas.data(),
                                    chain_matrix.data(), workspace);
    allocations +=
        g_allocation_count.load(std::memory_order_relaxed) - before;
  }
  bench_state.counters["allocs_per_replication"] =
      static_cast<double>(allocations) /
      static_cast<double>(bench_state.iterations());
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() * static_cast<int64_t>(config.steps)));
  if (allocations != 0) {
    bench_state.SkipWithError(
        "steady-state chain replication allocated on the heap");
  }
}
BENCHMARK(BM_ZeroAllocChainReplication);

}  // namespace
