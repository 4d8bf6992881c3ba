#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>

#include "chain/chain_replication.hpp"
#include "core/execution_backend.hpp"
#include "core/population.hpp"
#include "core/shard_executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/model_factory.hpp"
#include "sim/cost_model.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace fairchain::sim {

namespace {

// A cell's result matrices, each laid out [row * reps + rep]: one λ row
// per checkpoint, then the plane rows — population planes for incentive
// cells with population metrics, chain planes for chain cells (never both:
// chain cells force population_metrics off).  The parent's cell and a
// shard worker's scratch state are both a CellMatrices.
struct CellMatrices {
  std::vector<double> lambdas;
  std::vector<double> population;  // PopulationMatrixSize layout, or empty
  std::vector<double> chain;       // ChainMatrixSize layout, or empty
};

// Everything one cell needs while in flight.
struct CellExecution {
  CampaignCell cell;
  core::SimulationConfig config;
  // Incentive cells bind a protocol model; chain cells bind a game spec
  // instead (model stays null) and record per-replication chain
  // observables alongside λ.
  std::unique_ptr<protocol::IncentiveModel> model;
  bool chain = false;
  chain::ChainGameSpec game;
  std::string protocol_name;  // model->name(), or the chain dynamics name
  std::vector<double> stakes;
  CellMatrices matrices;  // allocated by the cell's first chunk
  std::size_t matrix_bytes = 0;  // CellMatrixBytes, checked at bind time
  std::string label;             // "campaign S cell C (protocol)" for errors
  std::once_flag allocate_once;
  std::atomic<std::size_t> remaining_chunks{0};
  core::SimulationResult result;
  bool reduced = false;
};

// Bytes of a cell's result matrices: one λ row per checkpoint plus the
// population or chain plane rows, each `replications` doubles wide,
// checked at bind time (core::ResultMatrixBytes), before any planning or
// allocation.
std::size_t CellMatrixBytes(const CellExecution& execution) {
  std::size_t planes = 1;
  if (execution.config.population_metrics) {
    planes += core::kPopulationMetricCount;
  }
  if (execution.chain) planes += chain::kChainMetricCount;
  return core::ResultMatrixBytes(execution.config, planes, execution.label);
}

CellMatrices AllocateMatrices(const CellExecution& execution) {
  const core::SimulationConfig& config = execution.config;
  CellMatrices matrices;
  try {
    matrices.lambdas.assign(config.checkpoints.size() * config.replications,
                            0.0);
    if (config.population_metrics) {
      matrices.population.assign(core::PopulationMatrixSize(config), 0.0);
    }
    if (execution.chain) {
      matrices.chain.assign(chain::ChainMatrixSize(config), 0.0);
    }
  } catch (const std::bad_alloc&) {
    // Only a huge request fails this way in practice, and its failure
    // leaves the heap untouched, so composing the message is safe.
    throw core::MatrixAllocationError(execution.label, execution.matrix_bytes,
                                      config.replications);
  }
  return matrices;
}

// The chunk kernel: replications [job.begin, job.end) of the cell into
// `out`.  The only place a chunk chooses between incentive and chain
// physics.  Errors come back naming the chunk and backend, except
// std::bad_alloc, which passes through untouched (building the message
// could fail the same way).
void RunChunk(const CellExecution& execution, const ChunkJob& job,
              const std::string& backend, CellMatrices& out) {
  obs::Span chunk_span("campaign.chunk", job.cell);
  try {
    if (execution.chain) {
      chain::RunChainReplicationRange(execution.game, execution.config,
                                      job.begin, job.end, out.lambdas.data(),
                                      out.chain.data());
    } else {
      core::RunReplicationRange(
          *execution.model, execution.stakes, execution.config, job.begin,
          job.end, out.lambdas.data(),
          out.population.empty() ? nullptr : out.population.data());
    }
  } catch (const std::bad_alloc&) {
    throw;
  } catch (const std::exception& error) {
    throw std::runtime_error(
        "campaign cell " + std::to_string(job.cell) + " replications [" +
        std::to_string(job.begin) + ", " + std::to_string(job.end) +
        ") on backend " + backend + ": " + error.what());
  }
}

// Visits every row of `cell` in payload order: the λ rows, then the
// plane rows.  Together with PackChunk / UnpackChunk below, the only code
// that knows the shard payload layout.
template <typename Matrices, typename Visit>
void ForEachRow(Matrices& cell, std::size_t reps, Visit&& visit) {
  for (auto* rows : {&cell.lambdas, &cell.population, &cell.chain}) {
    for (std::size_t offset = 0; offset < rows->size(); offset += reps) {
      visit(rows->data() + offset);
    }
  }
}

std::size_t PayloadSize(const CellMatrices& matrices, std::size_t reps,
                        const ChunkJob& job) {
  std::size_t rows = 0;
  ForEachRow(matrices, reps, [&rows](const double*) { ++rows; });
  return rows * (job.end - job.begin);
}

// The shard payload of `job`: the [begin, end) columns of every row.
std::vector<double> PackChunk(const CellMatrices& matrices, std::size_t reps,
                              const ChunkJob& job) {
  std::vector<double> payload;
  payload.reserve(PayloadSize(matrices, reps, job));
  ForEachRow(matrices, reps, [&](const double* row) {
    payload.insert(payload.end(), row + job.begin, row + job.end);
  });
  return payload;
}

void UnpackChunk(const std::vector<double>& payload, const ChunkJob& job,
                 std::size_t reps, CellMatrices& matrices) {
  if (payload.size() != PayloadSize(matrices, reps, job)) {
    throw std::runtime_error(
        "campaign shard payload size mismatch for cell " +
        std::to_string(job.cell));
  }
  const std::size_t span = job.end - job.begin;
  const double* source = payload.data();
  ForEachRow(matrices, reps, [&](double* row) {
    std::copy(source, source + span, row + job.begin);
    source += span;
  });
}

void EmitCellRows(const ScenarioSpec& spec, const CellExecution& execution,
                  const std::vector<ResultSink*>& sinks) {
  const auto convergence = execution.result.ConvergenceStep();
  for (std::size_t c = 0; c < execution.result.checkpoints.size(); ++c) {
    const core::CheckpointStats& stats = execution.result.checkpoints[c];
    CampaignRow row;
    row.scenario = spec.name;
    row.cell = execution.cell.index;
    row.protocol = execution.cell.protocol;
    row.miners = execution.cell.miners;
    row.whales = execution.cell.whales;
    row.a = execution.cell.a;
    row.w = execution.cell.w;
    row.v = execution.cell.v;
    row.shards = execution.cell.shards;
    row.withhold = execution.cell.withhold;
    row.steps = spec.steps;
    row.replications = spec.replications;
    row.cell_seed = execution.config.seed;
    row.checkpoint = c;
    row.step = stats.step;
    row.mean = stats.mean;
    row.std_dev = stats.std_dev;
    row.p05 = stats.p05;
    row.p25 = stats.p25;
    row.median = stats.median;
    row.p75 = stats.p75;
    row.p95 = stats.p95;
    row.min = stats.min;
    row.max = stats.max;
    row.unfair_probability = stats.unfair_probability;
    row.convergence_step = convergence;
    row.stake_dist = execution.cell.stake_dist;
    row.gini = stats.gini;
    row.hhi = stats.hhi;
    row.nakamoto = stats.nakamoto;
    row.top_decile_share = stats.top_decile_share;
    row.gamma = execution.cell.gamma;
    row.delay = execution.cell.delay;
    row.orphan_rate = stats.orphan_rate;
    row.reorg_depth_mean = stats.reorg_depth_mean;
    row.reorg_depth_max = stats.reorg_depth_max;
    for (ResultSink* sink : sinks) sink->WriteRow(row);
  }
}

// IEEE-754 bit pattern as 16 hex digits: the preimage must distinguish
// bit-different doubles (e.g. 0.1 vs its neighbour), which no decimal
// rendering shorter than 17 significant digits guarantees.
std::string DoubleBits(double value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  return buffer;
}

// Minimum modeled cost per chunk (1 ms).  Below this, dispatch overhead
// (closure/grant round-trips, payload framing) rivals the work itself — a
// cell whose whole replication budget models cheaper than this floor runs
// as ONE chunk instead of shattering into per-replication confetti.
constexpr double kMinChunkNs = 1e6;

// Longest-processing-time order over the pending chunks: descending
// modeled cost, ties broken by ascending index so the order is a pure
// function of the plan.  Starting the expensive chunks first lets the
// cheap tail level out the finish — the classic LPT bound.
std::vector<std::size_t> LptOrder(const std::vector<ChunkJob>& jobs) {
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&jobs](std::size_t a, std::size_t b) {
              if (jobs[a].cost_ns != jobs[b].cost_ns) {
                return jobs[a].cost_ns > jobs[b].cost_ns;
              }
              return a < b;
            });
  return order;
}

}  // namespace

std::string CellStorePreimage(const ScenarioSpec& spec,
                              const CampaignCell& cell) {
  const core::SimulationConfig config = CellConfig(spec, cell);
  if (cell.chain_dynamics) {
    // Chain cells fork the preimage under their own header: the physics is
    // different (fork races instead of incentive games), so a chain cell
    // must never collide with an incentive entry — and incentive preimages
    // stay byte-for-byte what they were before chain campaigns existed.
    std::string out = "fairchain-chain-cell-v1\n";
    out += "dynamics=" + cell.protocol + "\n";
    out += "alpha=" + DoubleBits(cell.a) + "\n";
    out += "gamma=" + DoubleBits(cell.gamma) + "\n";
    out += "delay=" + DoubleBits(cell.delay) + "\n";
    out += "steps=" + std::to_string(config.steps);
    out += "\nreplications=" + std::to_string(config.replications);
    out += "\nseed=" + std::to_string(config.seed);
    out += "\ncheckpoints=";
    for (std::size_t i = 0; i < config.checkpoints.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(config.checkpoints[i]);
    }
    out += "\nkeep_final_lambdas=";
    out += config.keep_final_lambdas ? '1' : '0';
    out += "\nepsilon=" + DoubleBits(spec.fairness.epsilon);
    out += "\ndelta=" + DoubleBits(spec.fairness.delta);
    out += "\n";
    return out;
  }
  std::string out = "fairchain-cell-v1\n";
  out += "protocol=" + cell.protocol + "\n";
  out += "w=" + DoubleBits(cell.w) + "\n";
  out += "v=" + DoubleBits(cell.v) + "\n";
  out += "shards=" + std::to_string(cell.shards) + "\n";
  out += "withhold=" + std::to_string(config.withhold_period) + "\n";
  out += "miner=" + std::to_string(config.miner) + "\n";
  out += "stakes=";
  const std::vector<double> stakes = cell.Stakes();
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    if (i != 0) out += ',';
    out += DoubleBits(stakes[i]);
  }
  out += "\nsteps=" + std::to_string(config.steps);
  out += "\nreplications=" + std::to_string(config.replications);
  out += "\nseed=" + std::to_string(config.seed);
  out += "\ncheckpoints=";
  for (std::size_t i = 0; i < config.checkpoints.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(config.checkpoints[i]);
  }
  out += "\npopulation_metrics=";
  out += config.population_metrics ? '1' : '0';
  out += "\nkeep_final_lambdas=";
  out += config.keep_final_lambdas ? '1' : '0';
  out += "\nepsilon=" + DoubleBits(spec.fairness.epsilon);
  out += "\ndelta=" + DoubleBits(spec.fairness.delta);
  out += "\n";
  // C-PoS kernel revision, appended to cpos preimages only.  Revision 2 is
  // the conditional-binomial / fused-inflation epoch, whose RNG
  // consumption and float summation order differ from the P-descent
  // kernel that earlier entries were computed with; every other protocol's
  // entries, and kStoreSchemaRevision, stay valid.
  if (cell.protocol == "cpos") out += "cpos_kernel=2\n";
  // Appended ONLY when the cell actually resolves to the lane path: a
  // vectorized request that falls back to scalar (compounding model, no
  // lane kernel) produces byte-identical results, so it must also produce
  // an identical key — and every pre-existing scalar key stays valid.
  if (config.stepping == core::SteppingMode::kVectorized) {
    const auto model =
        protocol::MakeModel(cell.protocol, cell.w, cell.v, cell.shards);
    if (core::UsesVectorizedStepping(*model, config)) {
      out += "stepping=vectorized\n";
    }
  }
  return out;
}

std::uint64_t CellSeed(std::uint64_t master_seed, std::size_t cell_index) {
  // Two SplitMix64 rounds over (seed, index); the golden-ratio multiplier
  // decorrelates adjacent indices before the first mix.
  SplitMix64 mixer(master_seed ^
                   (0x9E3779B97F4A7C15ULL *
                    (static_cast<std::uint64_t>(cell_index) + 1)));
  mixer.Next();
  return mixer.Next();
}

core::SimulationConfig CellConfig(const ScenarioSpec& spec,
                                  const CampaignCell& cell) {
  core::SimulationConfig config;
  config.steps = spec.steps;
  config.replications = spec.replications;
  config.seed = CellSeed(spec.seed, cell.index);
  config.withhold_period = cell.withhold;
  config.population_metrics = spec.population_metrics;
  config.keep_final_lambdas = spec.keep_final_lambdas;
  config.stepping = spec.stepping;
  if (cell.chain_dynamics) {
    // Chain cells have no stake population to take Gini/HHI over and no
    // lane kernel; they record their own observables (the chain matrix)
    // and always step the scalar event machine.
    config.population_metrics = false;
    config.stepping = core::SteppingMode::kScalar;
  }
  if (spec.spacing == CheckpointSpacing::kLog) {
    config.checkpoints = core::LogCheckpoints(
        spec.steps, std::max<std::size_t>(2, spec.checkpoint_count),
        std::min<std::uint64_t>(10, spec.steps));
  } else {
    config.checkpoints =
        core::LinearCheckpoints(spec.steps, spec.checkpoint_count);
  }
  return config;
}

core::SimulationConfig CellConfig(const ScenarioSpec& spec,
                                  std::size_t cell_index) {
  const std::vector<CampaignCell> cells = spec.ExpandCells();
  if (cell_index >= cells.size()) {
    throw std::invalid_argument("CellConfig: cell index out of range");
  }
  return CellConfig(spec, cells[cell_index]);
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(options) {}

unsigned CampaignRunner::PlannedConcurrency() const {
  if (options_.backend != nullptr) {
    return std::max(1u, options_.backend->Concurrency());
  }
  return options_.threads != 0 ? options_.threads : EnvThreads();
}

std::vector<ChunkJob> CampaignRunner::PlanJobs(
    const ScenarioSpec& spec) const {
  const std::vector<CampaignCell> cells = spec.ExpandCells();
  const unsigned threads = PlannedConcurrency();
  // Per-cell modeled replication cost (always finite and positive): the
  // cost model's BENCH-calibrated priors, refined by the EWMA over chunks
  // this process has already observed.  Estimates only shape chunk
  // GEOMETRY — the simulated values depend on (cell seed, replication
  // index) alone, so a wrong estimate costs wall clock, never bytes.
  CostModel& model = CostModel::Global();
  std::vector<double> rep_ns(cells.size(), 1.0);
  double total_ns = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    rep_ns[i] = model.EstimateReplicationNs(cells[i], spec.steps);
    total_ns += rep_ns[i] * static_cast<double>(spec.replications);
  }
  // Target: ~4 chunks per worker of EQUAL MODELED COST across
  // the whole campaign (not per cell), floored at kMinChunkNs.  An
  // expensive cell therefore splits into many small-replication chunks
  // while a cheap cell contributes a few large ones — the geometry that
  // keeps every worker busy until the campaign's last millisecond.
  const double target_ns =
      std::max(total_ns / (static_cast<double>(threads) * 4.0), kMinChunkNs);
  std::vector<ChunkJob> jobs;
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    std::uint64_t chunk = options_.chunk_replications;
    if (chunk == 0) {
      // Rounded half away from zero (llround's rule), computed in double
      // and clamped first, so a spec-sized replication count near 2^64
      // can neither overflow the conversion nor the loop below.
      const double reps_per_chunk = std::round(target_ns / rep_ns[cell]);
      chunk = reps_per_chunk >= static_cast<double>(spec.replications)
                  ? spec.replications
                  : static_cast<std::uint64_t>(reps_per_chunk);
      chunk = std::clamp<std::uint64_t>(chunk, 1, spec.replications);
    }
    for (std::uint64_t begin = 0; begin < spec.replications;) {
      ChunkJob job;
      job.cell = cell;
      job.begin = static_cast<std::size_t>(begin);
      begin += std::min(chunk, spec.replications - begin);
      job.end = static_cast<std::size_t>(begin);
      job.cost_ns =
          rep_ns[cell] * static_cast<double>(job.end - job.begin);
      jobs.push_back(job);
    }
  }
  return jobs;
}

std::vector<CellOutcome> CampaignRunner::Run(
    const ScenarioSpec& spec, const std::vector<ResultSink*>& sinks) const {
  const std::vector<CampaignCell> cells = spec.ExpandCells();
  // Campaign-wide metrics (always on; two clock reads per multi-ms unit of
  // work).  Resolved once per Run so the worker lambdas never touch the
  // registry — recording is pure atomics.  --progress reads cells_done /
  // replications_done live; cache-served cells credit their replications
  // so throughput and ETA stay truthful on warm stores.
  auto& metrics = obs::MetricsRegistry::Global();
  obs::Counter& cells_total = metrics.GetCounter("campaign.cells_total");
  obs::Counter& cells_done = metrics.GetCounter("campaign.cells_done");
  obs::Counter& cells_cached = metrics.GetCounter("campaign.cells_cached");
  obs::Counter& chunks_done = metrics.GetCounter("campaign.chunks_done");
  obs::Counter& replications_done =
      metrics.GetCounter("campaign.replications_done");
  obs::Counter& rows_emitted = metrics.GetCounter("campaign.rows_emitted");
  // Chunk latency split by cell family: incentive games and chain
  // fork-races have cost distributions an order of magnitude apart, and a
  // merged histogram hides both.
  obs::LatencyHistogram& chunk_ns_incentive =
      metrics.GetHistogram("campaign.chunk_ns.incentive");
  obs::LatencyHistogram& chunk_ns_chain =
      metrics.GetHistogram("campaign.chunk_ns.chain");
  obs::LatencyHistogram& reduce_ns =
      metrics.GetHistogram("campaign.reduce_ns");
  // Modeled-cost progress: total at Run start (every planned chunk plus
  // cache-served cells), done as chunks complete.  --progress weights its
  // ETA by these, so a campaign that front-loads cheap cells doesn't show
  // a collapsing-then-exploding estimate.
  obs::Counter& cost_total_ns = metrics.GetCounter("campaign.cost_total_ns");
  obs::Counter& cost_done_ns = metrics.GetCounter("campaign.cost_done_ns");
  obs::Span run_span("campaign.run", cells.size());
  cells_total.Add(cells.size());
  const core::ExecutionBackend* backend = options_.backend;
  std::unique_ptr<core::ExecutionBackend> owned_backend;
  if (backend == nullptr) {
    owned_backend = core::MakeDefaultBackend(options_.threads);
    backend = owned_backend.get();
  }

  // Bind every cell fully on this thread: model construction and config
  // validation throw here, never inside a worker.  The λ matrix itself is
  // allocated lazily by the cell's first chunk, so peak memory tracks the
  // cells actually in flight rather than the whole grid.
  std::vector<std::unique_ptr<CellExecution>> executions;
  executions.reserve(cells.size());
  for (const CampaignCell& cell : cells) {
    auto execution = std::make_unique<CellExecution>();
    execution->cell = cell;
    execution->config = CellConfig(spec, cell);
    execution->config.Validate();
    if (cell.chain_dynamics) {
      execution->chain = true;
      execution->game.dynamics = chain::ParseChainDynamics(cell.protocol);
      execution->game.alpha = cell.a;
      execution->game.gamma = cell.gamma;
      execution->game.delay = cell.delay;
      execution->game.Validate();
      execution->protocol_name = cell.protocol;
    } else {
      execution->model =
          protocol::MakeModel(cell.protocol, cell.w, cell.v, cell.shards);
      execution->protocol_name = execution->model->name();
    }
    execution->stakes = cell.Stakes();
    execution->label = "campaign " + spec.name + " cell " +
                       std::to_string(cell.index) + " (" + cell.protocol +
                       ")";
    execution->matrix_bytes = CellMatrixBytes(*execution);
    executions.push_back(std::move(execution));
  }

  // Plan the job grid up front (it is pure): per-job modeled costs feed
  // the cost counters below, the cache probe, and the dispatch order.
  const std::vector<ChunkJob> plan = PlanJobs(spec);
  std::vector<double> cell_cost_ns(executions.size(), 0.0);
  double plan_cost_ns = 0.0;
  for (const ChunkJob& job : plan) {
    cell_cost_ns[job.cell] += job.cost_ns;
    plan_cost_ns += job.cost_ns;
  }
  cost_total_ns.Add(static_cast<std::uint64_t>(plan_cost_ns));

  // Content addresses and cache probe.  A verified hit hands the cell its
  // decoded result up front; its chunks are never scheduled.  Corrupt or
  // version-mismatched entries count as misses — the cell recomputes and
  // the Put below overwrites the bad entry.
  store::CampaignStore* cache = options_.store;
  std::vector<store::CellKey> keys;
  std::vector<bool> cached(executions.size(), false);
  if (cache != nullptr) {
    keys.reserve(executions.size());
    for (const auto& execution : executions) {
      keys.push_back(store::MakeCellKey(cache->code_version() + "\n" +
                                        CellStorePreimage(spec,
                                                          execution->cell)));
    }
    if (options_.read_cache) {
      for (std::size_t i = 0; i < executions.size(); ++i) {
        obs::Span probe_span("campaign.store_probe", i);
        store::LoadResult loaded = cache->Load(keys[i]);
        if (loaded.status == store::LoadStatus::kHit) {
          executions[i]->result = std::move(loaded.result);
          executions[i]->reduced = true;
          cached[i] = true;
          cells_cached.Add();
          cells_done.Add();
          replications_done.Add(spec.replications);
          // A cache hit retires the cell's whole modeled cost: the ETA
          // must see warm-store cells as finished work, not free work.
          cost_done_ns.Add(static_cast<std::uint64_t>(cell_cost_ns[i]));
        }
      }
    }
  }

  for (ResultSink* sink : sinks) sink->BeginCampaign(spec);

  // Ordered streaming: the worker that reduces a cell drains every
  // consecutive reduced cell starting at next_emit, so sinks always see
  // ascending cell order no matter which cell finishes first.
  std::mutex emit_mutex;
  std::size_t next_emit = 0;

  // Caller holds emit_mutex.
  auto drain_reduced = [&] {
    while (next_emit < executions.size() && executions[next_emit]->reduced) {
      obs::Span emit_span("campaign.emit", next_emit);
      EmitCellRows(spec, *executions[next_emit], sinks);
      rows_emitted.Add(executions[next_emit]->result.checkpoints.size());
      ++next_emit;
    }
  };

  auto reduce_and_emit = [&](CellExecution& execution, std::size_t index) {
    {
      obs::Span reduce_span("campaign.reduce", index);
      obs::ScopedLatency reduce_latency(reduce_ns);
      execution.result = core::ReduceToResult(
          execution.protocol_name, execution.stakes, execution.config,
          spec.fairness, execution.matrices.lambdas,
          execution.matrices.population);
      if (execution.chain) {
        chain::ReduceChainMetrics(execution.config, execution.matrices.chain,
                                  execution.result);
      }
    }
    cells_done.Add();
    execution.matrices = CellMatrices{};  // release the cell's memory
    // Persist before emitting: once a cell's rows are visible its entry is
    // committed, so a crash after partial output never loses stored work.
    if (cache != nullptr) cache->Put(keys[index], execution.result);
    std::lock_guard<std::mutex> lock(emit_mutex);
    execution.reduced = true;
    drain_reduced();
  };

  // Emit the cache-served prefix now: when a leading run of cells (or the
  // whole campaign) came from the store, no chunk completion will ever
  // trigger the drain for them.
  {
    std::lock_guard<std::mutex> lock(emit_mutex);
    drain_reduced();
  }

  // Dispatch exactly the job grid PlanJobs describes (the plan the tests
  // assert on) minus cache-served cells, as one batch so cells interleave
  // across workers.
  std::vector<ChunkJob> pending;
  pending.reserve(plan.size());
  for (const ChunkJob& job : plan) {
    if (!cached[job.cell]) pending.push_back(job);
  }
  for (const ChunkJob& job : pending) {
    executions[job.cell]->remaining_chunks.fetch_add(1);
  }

  auto cell_matrices = [](CellExecution& execution) -> CellMatrices& {
    std::call_once(execution.allocate_once, [&execution] {
      execution.matrices = AllocateMatrices(execution);
    });
    return execution.matrices;
  };

  // The one commit every chunk passes through, on any backend: latency
  // into the family histogram and the cost model's EWMA, the progress
  // counters, and — on the cell's last chunk — reduction and emission.
  auto commit_chunk = [&](const ChunkJob& job, std::uint64_t busy_ns) {
    CellExecution& execution = *executions[job.cell];
    (execution.chain ? chunk_ns_chain : chunk_ns_incentive).Record(busy_ns);
    CostModel::Global().Observe(execution.cell, execution.config.steps,
                                job.end - job.begin, busy_ns);
    chunks_done.Add();
    replications_done.Add(job.end - job.begin);
    cost_done_ns.Add(static_cast<std::uint64_t>(job.cost_ns));
    if (execution.remaining_chunks.fetch_sub(1) == 1) {
      reduce_and_emit(execution, job.cell);
    }
  };

  // Dispatch order is longest modeled cost first (LPT): expensive chunks
  // start early and the cheap tail levels the finish.  Order never
  // affects output: chunks land in pre-addressed slots and emission is
  // cursor-ordered.
  const std::vector<std::size_t> order = LptOrder(pending);
  const std::string backend_name = backend->name();
  const unsigned process_shards = backend->ProcessShards();
  if (!pending.empty() && process_shards > 0) {
    // Shard transport: forked workers pull chunks through the grant
    // protocol, run the kernel into scratch matrices and ship the chunk's
    // rows back; the parent copies them into the cell's matrices.  Shard
    // metrics are recorded parent-side (a child's clock readings die with
    // the fork): grant round-trip latency and per-shard busy nanoseconds,
    // the busy-fraction skew the traced-shard CI step asserts on.
    obs::Span execute_span("backend.execute", pending.size());
    obs::LatencyHistogram& grant_ns_hist =
        metrics.GetHistogram("campaign.grant_ns");
    std::vector<obs::Counter*> shard_busy;
    shard_busy.reserve(process_shards);
    for (unsigned s = 0; s < process_shards; ++s) {
      shard_busy.push_back(&metrics.GetCounter(
          "campaign.shard_busy_ns." + std::to_string(s)));
    }
    // Runs in the forked child.  The scratch matrices are reused across
    // the worker's consecutive chunks of one cell (under LPT grant order
    // those usually belong to the same expensive cell); each child mutates
    // its own copy-on-write copy of them.
    std::size_t scratch_cell = cells.size();
    CellMatrices scratch;
    auto compute = [&](std::size_t index) {
      const ChunkJob& job = pending[index];
      const CellExecution& execution = *executions[job.cell];
      if (scratch_cell != job.cell) {
        scratch = AllocateMatrices(execution);
        scratch_cell = job.cell;
      }
      RunChunk(execution, job, backend_name, scratch);
      return PackChunk(scratch, execution.config.replications, job);
    };
    // Runs in the parent's reader threads.
    auto consume = [&](const core::ShardChunkStats& stats,
                       std::vector<double>&& payload) {
      const ChunkJob& job = pending[stats.index];
      CellExecution& execution = *executions[job.cell];
      UnpackChunk(payload, job, execution.config.replications,
                  cell_matrices(execution));
      if (stats.grant_ns != 0) grant_ns_hist.Record(stats.grant_ns);
      shard_busy[stats.shard]->Add(stats.busy_ns);
      commit_chunk(job, stats.busy_ns);
    };
    core::RunSharded(process_shards, pending.size(), compute, consume, order);
  } else if (!pending.empty()) {
    // In-process transport: one job per chunk, computing straight into the
    // cell's matrices (each worker steps in its thread-local arena).
    std::vector<std::function<void()>> jobs;
    jobs.reserve(pending.size());
    for (const std::size_t index : order) {
      jobs.push_back([&, &job = pending[index]] {
        CellExecution& execution = *executions[job.cell];
        CellMatrices& matrices = cell_matrices(execution);
        const auto start = std::chrono::steady_clock::now();
        RunChunk(execution, job, backend_name, matrices);
        const auto busy = std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start);
        commit_chunk(job, static_cast<std::uint64_t>(busy.count()));
      });
    }
    obs::Span execute_span("backend.execute", jobs.size());
    backend->Execute(std::move(jobs));
  }

  for (ResultSink* sink : sinks) sink->EndCampaign();

  std::vector<CellOutcome> outcomes;
  outcomes.reserve(executions.size());
  for (std::size_t i = 0; i < executions.size(); ++i) {
    CellOutcome outcome;
    outcome.cell = executions[i]->cell;
    outcome.seed = executions[i]->config.seed;
    outcome.result = std::move(executions[i]->result);
    outcome.from_cache = cached[i];
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace fairchain::sim
