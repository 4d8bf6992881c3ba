#include "core/monte_carlo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/stats.hpp"

namespace fairchain::core {

namespace {

// Per-checkpoint-segment spans multiply the span count by the checkpoint
// schedule length, so they hide behind an env gate on top of the trace
// flag.  Read once: this sits inside the replication loop.
bool TraceDetailEnabled() {
  static const bool enabled = std::getenv("FAIRCHAIN_TRACE_DETAIL") != nullptr;
  return enabled;
}

// Writes one (checkpoint, replication) snapshot into the
// PopulationMatrixSize layout: metric planes of `plane` doubles each.
void RecordPopulation(const PopulationSnapshot& snapshot, std::size_t cell,
                      std::size_t plane, double* population_matrix) {
  population_matrix[0 * plane + cell] = snapshot.gini;
  population_matrix[1 * plane + cell] = snapshot.hhi;
  population_matrix[2 * plane + cell] = snapshot.nakamoto;
  population_matrix[3 * plane + cell] = snapshot.top_decile_share;
}

}  // namespace

void SimulationConfig::Validate() const {
  if (steps == 0) {
    throw std::invalid_argument("SimulationConfig: steps must be > 0");
  }
  if (replications == 0) {
    throw std::invalid_argument("SimulationConfig: replications must be > 0");
  }
  std::uint64_t previous = 0;
  for (const std::uint64_t cp : checkpoints) {
    if (cp == 0 || cp > steps) {
      throw std::invalid_argument(
          "SimulationConfig: checkpoints must lie in [1, steps]");
    }
    if (cp <= previous) {
      throw std::invalid_argument(
          "SimulationConfig: checkpoints must be strictly ascending");
    }
    previous = cp;
  }
}

const CheckpointStats& SimulationResult::Final() const {
  if (checkpoints.empty()) {
    throw std::logic_error("SimulationResult: no checkpoints recorded");
  }
  return checkpoints.back();
}

std::optional<std::uint64_t> SimulationResult::ConvergenceStep() const {
  std::optional<std::uint64_t> candidate;
  for (const auto& cp : checkpoints) {
    if (cp.unfair_probability <= spec.delta) {
      if (!candidate) candidate = cp.step;
    } else {
      candidate.reset();
    }
  }
  return candidate;
}

ExpectationalFairnessReport SimulationResult::Expectational() const {
  if (final_lambdas.empty()) {
    throw std::logic_error(
        "SimulationResult: final_lambdas were not retained — run with "
        "keep_final_lambdas on to evaluate expectational fairness");
  }
  return CheckExpectationalFairness(final_lambdas, initial_share);
}

MonteCarloEngine::MonteCarloEngine(SimulationConfig config, FairnessSpec spec)
    : config_(std::move(config)), spec_(spec) {
  config_.Validate();
  spec_.Validate();
  if (config_.checkpoints.empty()) {
    const std::size_t count =
        config_.steps < 120 ? static_cast<std::size_t>(config_.steps) : 120;
    config_.checkpoints = LinearCheckpoints(config_.steps, count);
  }
}

bool UsesVectorizedStepping(const protocol::IncentiveModel& model,
                            const SimulationConfig& config) {
  return config.stepping == SteppingMode::kVectorized &&
         model.SupportsLaneStepping() && !model.RewardCompounds();
}

std::size_t PopulationMatrixSize(const SimulationConfig& config) {
  return ResultMatrixBytes(config, kPopulationMetricCount,
                           "population matrix") /
         sizeof(double);
}

std::size_t ResultMatrixBytes(const SimulationConfig& config,
                              std::size_t planes, const std::string& label) {
  std::size_t rows = 0;
  std::size_t bytes = 0;
  if (__builtin_mul_overflow(planes, config.checkpoints.size(), &rows) ||
      __builtin_mul_overflow(rows, config.replications, &bytes) ||
      __builtin_mul_overflow(bytes, sizeof(double), &bytes)) {
    throw std::length_error(
        label + ": result matrices of " + std::to_string(rows) + " rows x " +
        std::to_string(config.replications) +
        " replications x 8 bytes exceed 2^64 bytes");
  }
  return bytes;
}

MatrixAllocationError::MatrixAllocationError(const std::string& label,
                                             std::size_t bytes,
                                             std::uint64_t replications)
    : message_(label + ": cannot allocate " + std::to_string(bytes) +
               " bytes for the result matrices of " +
               std::to_string(replications) + " replications") {}

void RunReplicationBlockRange(const protocol::IncentiveModel& model,
                              const std::vector<double>& initial_stakes,
                              const SimulationConfig& config,
                              std::size_t begin, std::size_t end,
                              double* lambda_matrix,
                              double* population_matrix,
                              ReplicationBlockWorkspace& workspace) {
  if (config.miner >= initial_stakes.size()) {
    throw std::invalid_argument(
        "RunReplicationBlockRange: miner index out of range");
  }
  if (!model.SupportsLaneStepping() || model.RewardCompounds()) {
    throw std::invalid_argument(
        "RunReplicationBlockRange: " + model.name() +
        " has no static-stake lane kernel — route through "
        "RunReplicationRange, which falls back to scalar stepping");
  }
  config.Validate();
  static auto& block_range_ns = obs::MetricsRegistry::Global().GetHistogram(
      "mc.replication_block_range_ns");
  obs::ScopedLatency latency(block_range_ns);
  obs::Span range_span("mc.replication_block_range",
                       static_cast<std::uint64_t>(end - begin));
  const std::uint64_t reps = config.replications;
  const std::size_t cp_count = config.checkpoints.size();
  protocol::LaneStakeState& block = workspace.block();
  PhiloxLanes& rng = workspace.rng();
  std::vector<double>* wealth = workspace.wealth_buffer();
  PopulationOrders& orders = workspace.population();
  if (population_matrix != nullptr) {
    orders.Bind(initial_stakes, kReplicationLaneWidth);
  }
  for (std::size_t block_begin = begin; block_begin < end;
       block_begin += kReplicationLaneWidth) {
    const std::size_t width =
        std::min(kReplicationLaneWidth, end - block_begin);
    block.Reset(initial_stakes, width, /*compounding=*/false);
    rng.Reset(config.seed, /*first_lane=*/block_begin, width);
    if (population_matrix != nullptr) {
      for (std::size_t l = 0; l < width; ++l) orders.Restart(l);
    }
    std::uint64_t done = 0;
    for (std::size_t cp = 0; cp < cp_count; ++cp) {
      const std::uint64_t target = config.checkpoints[cp];
      model.RunLaneSteps(block, done, target - done, rng);
      done = target;
      for (std::size_t l = 0; l < width; ++l) {
        const std::size_t rep = block_begin + l;
        lambda_matrix[cp * reps + rep] =
            block.RewardFraction(l, config.miner);
        if (population_matrix != nullptr) {
          block.WealthVector(l, wealth);
          RecordPopulation(orders.Measure(l, *wealth), cp * reps + rep,
                           cp_count * reps, population_matrix);
        }
      }
    }
    // Same horizon contract as the scalar path: run the tail beyond the
    // last checkpoint so a full game is always played.
    if (done < config.steps) {
      model.RunLaneSteps(block, done, config.steps - done, rng);
    }
  }
}

void RunReplicationRange(const protocol::IncentiveModel& model,
                         const std::vector<double>& initial_stakes,
                         const SimulationConfig& config, std::size_t begin,
                         std::size_t end, double* lambda_matrix,
                         double* population_matrix,
                         ReplicationWorkspace& workspace) {
  if (config.miner >= initial_stakes.size()) {
    throw std::invalid_argument(
        "RunReplicationRange: miner index out of range");
  }
  // Same rationale as the miner check: this is a public entry point, and a
  // non-ascending checkpoint schedule would underflow the segment length
  // below into a ~2^64-step spin instead of degrading benignly.
  config.Validate();
  // Lane-batched dispatch: every backend's workers enter through this
  // function, so eligible cells pick up the vectorized path no matter who
  // runs them.  The block arena is per-thread (like the scalar one the
  // caller handed us); ineligible cells fall through to the scalar loop
  // below, byte-identical to a kScalar campaign.
  if (UsesVectorizedStepping(model, config)) {
    RunReplicationBlockRange(model, initial_stakes, config, begin, end,
                             lambda_matrix, population_matrix,
                             ThreadLocalReplicationBlockWorkspace());
    return;
  }
  static auto& range_ns =
      obs::MetricsRegistry::Global().GetHistogram("mc.replication_range_ns");
  obs::ScopedLatency latency(range_ns);
  obs::Span range_span("mc.replication_range",
                       static_cast<std::uint64_t>(end - begin));
  const bool trace_segments = obs::TraceEnabled() && TraceDetailEnabled();
  const std::uint64_t reps = config.replications;
  const std::size_t cp_count = config.checkpoints.size();
  const RngStream master(config.seed);
  workspace.Bind(initial_stakes, config.withhold_period);
  protocol::StakeState& state = workspace.state();
  std::vector<double>* wealth = workspace.wealth_buffer();
  PopulationOrders& orders = workspace.population();
  if (population_matrix != nullptr) orders.Bind(initial_stakes, 1);
  for (std::size_t rep = begin; rep < end; ++rep) {
    state.Reset();
    if (population_matrix != nullptr) orders.Restart(0);
    RngStream rng = master.Split(rep);
    // Checkpoint-segment stepping: one batched RunSteps per segment, so
    // the per-step work is the protocol's tight inner loop and the
    // checkpoint comparison runs once per segment, not once per block.
    // Draw-for-draw identical to the historical Step-at-a-time loop.
    std::uint64_t done = 0;
    for (std::size_t cp = 0; cp < cp_count; ++cp) {
      const std::uint64_t target = config.checkpoints[cp];
      if (trace_segments) {
        obs::Span segment_span("mc.segment", target);
        model.RunSteps(state, done, target - done, rng);
      } else {
        model.RunSteps(state, done, target - done, rng);
      }
      done = target;
      lambda_matrix[cp * reps + rep] = state.RewardFraction(config.miner);
      if (population_matrix != nullptr) {
        state.WealthVector(wealth);
        RecordPopulation(orders.Measure(0, *wealth), cp * reps + rep,
                         cp_count * reps, population_matrix);
      }
    }
    // Games historically ran to the horizon even when the last checkpoint
    // fell short of it; the tail segment keeps that contract (and the
    // documented "runs a full game" semantics) intact.
    if (done < config.steps) {
      model.RunSteps(state, done, config.steps - done, rng);
    }
  }
}

void RunReplicationRange(const protocol::IncentiveModel& model,
                         const std::vector<double>& initial_stakes,
                         const SimulationConfig& config, std::size_t begin,
                         std::size_t end, double* lambda_matrix,
                         double* population_matrix) {
  RunReplicationRange(model, initial_stakes, config, begin, end,
                      lambda_matrix, population_matrix,
                      ThreadLocalReplicationWorkspace());
}

void RunReplicationRange(const protocol::IncentiveModel& model,
                         const std::vector<double>& initial_stakes,
                         const SimulationConfig& config, std::size_t begin,
                         std::size_t end, double* lambda_matrix) {
  RunReplicationRange(model, initial_stakes, config, begin, end,
                      lambda_matrix, nullptr);
}

SimulationResult ReduceToResult(const std::string& protocol_name,
                                const std::vector<double>& initial_stakes,
                                const SimulationConfig& config,
                                const FairnessSpec& spec,
                                const std::vector<double>& lambda_matrix,
                                const std::vector<double>& population_matrix) {
  if (config.miner >= initial_stakes.size()) {
    throw std::invalid_argument("ReduceToResult: miner index out of range");
  }
  if (!population_matrix.empty() &&
      population_matrix.size() != PopulationMatrixSize(config)) {
    throw std::invalid_argument(
        "ReduceToResult: population matrix size mismatch");
  }
  const std::uint64_t reps = config.replications;
  const std::size_t cp_count = config.checkpoints.size();

  SimulationResult result;
  result.protocol = protocol_name;
  {
    double total = 0.0;
    for (const double s : initial_stakes) total += s;
    result.initial_share = initial_stakes[config.miner] / total;
  }
  result.spec = spec;
  result.config = config;
  result.checkpoints.reserve(cp_count);

  const double fair_low = spec.FairLow(result.initial_share);
  const double fair_high = spec.FairHigh(result.initial_share);
  // Reduction scratch, hoisted out of the checkpoint loop: one column
  // buffer (sorted in place per checkpoint) and one quantile output vector
  // serve every checkpoint — the per-checkpoint copy Quantiles used to
  // make was the reduction's dominant allocation churn (see
  // bench/micro_perf.cpp, BM_ReduceToResult).
  std::vector<double> column(reps);
  std::vector<double> quantile_out;
  static const std::vector<double> kQuantiles = {0.05, 0.25, 0.5, 0.75,
                                                 0.95};
  for (std::size_t c = 0; c < cp_count; ++c) {
    std::copy_n(lambda_matrix.begin() + static_cast<std::ptrdiff_t>(c * reps),
                reps, column.begin());
    CheckpointStats stats;
    stats.step = config.checkpoints[c];
    RunningStats running;
    std::size_t outside = 0;
    for (const double lambda : column) {
      running.Add(lambda);
      if (lambda < fair_low || lambda > fair_high) ++outside;
    }
    stats.mean = running.Mean();
    stats.std_dev = running.StdDev();
    stats.min = running.Min();
    stats.max = running.Max();
    stats.unfair_probability =
        static_cast<double>(outside) / static_cast<double>(reps);
    // final_lambdas keeps replication order, so capture the last column
    // BEFORE the in-place quantile sort reorders it.
    if (c + 1 == cp_count && config.keep_final_lambdas) {
      result.final_lambdas = column;
    }
    QuantilesInPlace(column, kQuantiles, &quantile_out);
    stats.p05 = quantile_out[0];
    stats.p25 = quantile_out[1];
    stats.median = quantile_out[2];
    stats.p75 = quantile_out[3];
    stats.p95 = quantile_out[4];
    if (!population_matrix.empty()) {
      const std::size_t plane = cp_count * reps;
      double* means[] = {&stats.gini, &stats.hhi, &stats.nakamoto,
                         &stats.top_decile_share};
      for (std::size_t metric = 0; metric < kPopulationMetricCount;
           ++metric) {
        KahanSum sum;
        const double* base =
            population_matrix.data() + metric * plane + c * reps;
        for (std::uint64_t r = 0; r < reps; ++r) sum.Add(base[r]);
        *means[metric] = sum.Total() / static_cast<double>(reps);
      }
    }
    result.checkpoints.push_back(stats);
  }
  return result;
}

SimulationResult ReduceToResult(const std::string& protocol_name,
                                const std::vector<double>& initial_stakes,
                                const SimulationConfig& config,
                                const FairnessSpec& spec,
                                const std::vector<double>& lambda_matrix) {
  return ReduceToResult(protocol_name, initial_stakes, config, spec,
                        lambda_matrix, {});
}

SimulationResult MonteCarloEngine::Run(
    const protocol::IncentiveModel& model,
    const std::vector<double>& initial_stakes) const {
  return Run(model, initial_stakes, *MakeDefaultBackend(config_.threads));
}

SimulationResult MonteCarloEngine::Run(
    const protocol::IncentiveModel& model,
    const std::vector<double>& initial_stakes,
    const ExecutionBackend& backend) const {
  if (config_.miner >= initial_stakes.size()) {
    throw std::invalid_argument("MonteCarloEngine: miner index out of range");
  }
  // Fail fast on the calling thread: construct the game state once here so
  // invalid stake vectors (empty, negative, zero/NaN sum) throw before any
  // job is scheduled rather than from every worker at once.
  {
    const protocol::StakeState probe(initial_stakes,
                                     config_.withhold_period);
    (void)probe;
  }
  const std::uint64_t reps = config_.replications;

  // lambda_matrix[c * reps + r] = λ of replication r at checkpoint c.  The
  // sizes are checked before anything is allocated, and a failed
  // allocation names the run, so an oversized request fails cleanly.
  const std::string label = model.name() + " Monte Carlo run";
  const std::size_t bytes = ResultMatrixBytes(
      config_, 1 + (config_.population_metrics ? kPopulationMetricCount : 0),
      label);
  std::vector<double> lambda_matrix;
  std::vector<double> population_matrix;
  try {
    lambda_matrix.assign(config_.checkpoints.size() * reps, 0.0);
    if (config_.population_metrics) {
      population_matrix.assign(PopulationMatrixSize(config_), 0.0);
    }
  } catch (const std::bad_alloc&) {
    throw MatrixAllocationError(label, bytes, reps);
  }
  double* population =
      population_matrix.empty() ? nullptr : population_matrix.data();

  // One contiguous replication chunk per concurrency slot; each job steps
  // in its worker's thread-local arena.  Replication r derives its stream
  // from r alone, so the partition never shows in the output.  The chunk
  // arithmetic cannot wrap, whatever the replication count.
  const std::size_t count = static_cast<std::size_t>(reps);
  const std::size_t slots =
      std::max<std::size_t>(1, std::min<std::size_t>(backend.Concurrency(),
                                                     count));
  const std::size_t chunk = count / slots + (count % slots != 0 ? 1 : 0);
  std::vector<std::function<void()>> jobs;
  jobs.reserve(slots);
  for (std::size_t begin = 0, end = 0; begin < count; begin = end) {
    end = begin + std::min(chunk, count - begin);
    jobs.push_back([&, begin, end] {
      RunReplicationRange(model, initial_stakes, config_, begin, end,
                          lambda_matrix.data(), population,
                          ThreadLocalReplicationWorkspace());
    });
  }
  backend.Execute(std::move(jobs));

  return ReduceToResult(model.name(), initial_stakes, config_, spec_,
                        lambda_matrix, population_matrix);
}

SimulationResult MonteCarloEngine::RunTwoMiner(
    const protocol::IncentiveModel& model, double a) const {
  if (!(a > 0.0) || !(a < 1.0)) {
    throw std::invalid_argument("RunTwoMiner: a must be in (0, 1)");
  }
  return Run(model, {a, 1.0 - a});
}

std::vector<std::uint64_t> LinearCheckpoints(std::uint64_t steps,
                                             std::size_t count) {
  if (steps == 0) {
    throw std::invalid_argument("LinearCheckpoints: steps must be > 0");
  }
  if (count == 0 || count > steps) count = static_cast<std::size_t>(steps);
  std::vector<std::uint64_t> checkpoints;
  checkpoints.reserve(count);
  for (std::size_t k = 1; k <= count; ++k) {
    // 128-bit intermediate: steps * k wraps std::uint64_t for horizons
    // beyond 2^64 / count, which silently produced non-monotone schedules.
    const std::uint64_t cp = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(steps) * k / count);
    if (checkpoints.empty() || cp > checkpoints.back()) {
      checkpoints.push_back(cp);
    }
  }
  return checkpoints;
}

std::vector<std::uint64_t> LogCheckpoints(std::uint64_t steps,
                                          std::size_t count,
                                          std::uint64_t first) {
  if (steps == 0 || first == 0 || first > steps) {
    throw std::invalid_argument("LogCheckpoints: need 0 < first <= steps");
  }
  if (count < 2) throw std::invalid_argument("LogCheckpoints: count >= 2");
  std::vector<std::uint64_t> checkpoints;
  const double log_first = std::log(static_cast<double>(first));
  const double log_last = std::log(static_cast<double>(steps));
  for (std::size_t k = 0; k < count; ++k) {
    const double t = static_cast<double>(k) / static_cast<double>(count - 1);
    const double value = std::exp(log_first + t * (log_last - log_first));
    // Clamp in the double domain BEFORE converting: exp/log rounding can
    // land above `steps` (breaking the strict-ascent invariant once `steps`
    // was appended), and for horizons beyond 2^63 llround would overflow
    // long long with an unspecified result.  value + 0.5 stays below 2^64
    // here, so the direct conversion is well-defined round-to-nearest.
    std::uint64_t cp;
    if (!(value < static_cast<double>(steps))) {
      cp = steps;
    } else {
      cp = std::min(steps, static_cast<std::uint64_t>(value + 0.5));
    }
    if (checkpoints.empty() || cp > checkpoints.back()) {
      checkpoints.push_back(cp);
    }
  }
  if (checkpoints.back() != steps) checkpoints.push_back(steps);
  return checkpoints;
}

}  // namespace fairchain::core
