// Replicated Monte Carlo simulation of mining games.
//
// The engine runs R independent replications of a mining game for n steps,
// records miner A's reward fraction λ at a set of checkpoints, and reduces
// the per-checkpoint samples to the statistics the paper plots:
//   * mean λ                         (expectational fairness — Figure 2 line)
//   * 5th / 95th percentile band     (Figure 2 shaded area)
//   * unfair probability             (Figures 3 & 5)
//   * convergence step               (Table 1 "Cvg. Time": first checkpoint
//                                     from which (ε, δ)-fairness holds)
//
// Determinism: replication r always uses RngStream(seed).Split(r), so
// results are identical for any thread count.

#ifndef FAIRCHAIN_CORE_MONTE_CARLO_HPP_
#define FAIRCHAIN_CORE_MONTE_CARLO_HPP_

#include <cstdint>
#include <limits>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/execution_backend.hpp"
#include "core/fairness.hpp"
#include "core/population.hpp"
#include "core/replication_block_workspace.hpp"
#include "core/replication_workspace.hpp"
#include "protocol/incentive_model.hpp"

namespace fairchain::core {

/// How replications of a cell are stepped.
///
/// kScalar is the determinism reference: replication r draws from
/// RngStream(seed).Split(r), one game at a time, as every campaign has
/// since the seed.  kVectorized REQUESTS the lane-batched path: blocks of
/// kReplicationLaneWidth replications advance in lockstep over
/// structure-of-arrays state, replication r drawing from the counter-based
/// PhiloxStream(seed, r).  The request only takes effect for models that
/// support lane stepping with static (non-compounding) stake — see
/// UsesVectorizedStepping; everything else keeps the scalar batched path,
/// byte-identical to kScalar.
///
/// Equivalence contract: vectorized output is NOT byte-identical to scalar
/// output for the cells it accelerates — the Philox keystream is a
/// different (equally deterministic) sequence than the xoshiro splits — but
/// it is distribution-identical, which the closed-form oracles judge
/// (`verify --all`).  Vectorized output IS byte-identical to a scalar
/// replay of the same Philox streams, to any lane-block width, any
/// checkpoint segmentation, and any backend (tests/protocol/
/// lane_steps_conformance_test.cpp).
enum class SteppingMode { kScalar, kVectorized };

/// Configuration of one simulation campaign.
struct SimulationConfig {
  /// Horizon: number of blocks (or epochs) per replication.
  std::uint64_t steps = 5000;
  /// Number of independent replications (the paper uses 10,000).
  std::uint64_t replications = 10000;
  /// Master seed; replication r uses the r-th split stream.
  std::uint64_t seed = 20210620;  // SIGMOD'21 opening day
  /// Worker threads (0 = use EnvThreads()).
  unsigned threads = 0;
  /// Steps at which λ is recorded, ascending, each in [1, steps].
  /// Empty = ~120 evenly spaced checkpoints ending exactly at `steps`.
  std::vector<std::uint64_t> checkpoints;
  /// Reward-withholding period (Section 6.3); 0 disables.
  std::uint64_t withhold_period = 0;
  /// Index of the miner whose λ is tracked (the paper's miner A).
  std::size_t miner = 0;
  /// Record population concentration metrics (Gini / HHI / Nakamoto /
  /// top-decile share over miner wealth) at every checkpoint.  Costs
  /// O(m + k log k) per (replication, checkpoint), k = miners credited
  /// since the previous checkpoint (the wealth order is carried, see
  /// core/population.hpp); disable for pure hot-path throughput runs at
  /// extreme populations.
  bool population_metrics = true;
  /// Retain every replication's final-checkpoint λ in
  /// SimulationResult::final_lambdas (an O(replications) vector).  Keep on
  /// for distribution inspection / Expectational(); turn off (spec key
  /// `final_lambdas=off`) for 100k-replication cells that only read the
  /// reduced checkpoint statistics.
  bool keep_final_lambdas = true;
  /// Stepping mode (spec key `stepping=scalar|vectorized`).  See
  /// SteppingMode for the eligibility and equivalence contract.
  SteppingMode stepping = SteppingMode::kScalar;

  /// Validates ranges; throws std::invalid_argument.
  void Validate() const;
};

/// Statistics of λ at one checkpoint, across replications.
struct CheckpointStats {
  std::uint64_t step = 0;
  double mean = 0.0;
  double std_dev = 0.0;
  double p05 = 0.0;   ///< 5th percentile (bottom of the paper's blue band)
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;   ///< 95th percentile (top of the band)
  double min = 0.0;
  double max = 0.0;
  double unfair_probability = 0.0;  ///< Pr[λ outside fair area]

  // Population concentration metrics, averaged across replications (NaN
  // when SimulationConfig::population_metrics is off).  See
  // core/population.hpp for definitions; wealth = initial resource +
  // cumulative credited income.
  double gini = std::numeric_limits<double>::quiet_NaN();
  double hhi = std::numeric_limits<double>::quiet_NaN();
  double nakamoto = std::numeric_limits<double>::quiet_NaN();
  double top_decile_share = std::numeric_limits<double>::quiet_NaN();

  // Chain-dynamics observables (NaN for ordinary incentive cells; filled
  // by chain::ReduceChainMetrics for fork/propagation/selfish campaigns).
  // orphan_rate / reorg_depth_mean are averages across replications,
  // reorg_depth_max the maximum across replications.
  double orphan_rate = std::numeric_limits<double>::quiet_NaN();
  double reorg_depth_mean = std::numeric_limits<double>::quiet_NaN();
  double reorg_depth_max = std::numeric_limits<double>::quiet_NaN();
};

/// Full result of a simulation campaign.
struct SimulationResult {
  std::string protocol;
  double initial_share = 0.0;  ///< a — miner A's initial resource share
  FairnessSpec spec;
  SimulationConfig config;
  std::vector<CheckpointStats> checkpoints;
  /// λ of every replication at the final checkpoint, in replication order
  /// (for distribution inspection / histograms).  Empty when
  /// SimulationConfig::keep_final_lambdas is off.
  std::vector<double> final_lambdas;

  /// The last checkpoint's statistics.
  const CheckpointStats& Final() const;

  /// First checkpoint step from which the unfair probability stays <= δ
  /// through the horizon; std::nullopt when never achieved ("Never" in
  /// Table 1).
  std::optional<std::uint64_t> ConvergenceStep() const;

  /// Expectational fairness report at the horizon.
  ExpectationalFairnessReport Expectational() const;
};

/// The Monte Carlo engine.  Immutable after construction; Run is
/// re-entrant and thread-safe.
class MonteCarloEngine {
 public:
  /// Creates an engine; validates both arguments.
  MonteCarloEngine(SimulationConfig config, FairnessSpec spec);

  /// Runs a campaign of `config.replications` games of `model`, all starting
  /// from `initial_stakes` (absolute values; the tracked miner's *share* is
  /// derived), over the default backend for `config.threads`.  Throws when
  /// `config.miner` is out of range.
  SimulationResult Run(const protocol::IncentiveModel& model,
                       const std::vector<double>& initial_stakes) const;

  /// Same campaign over an injected execution backend.  Results are
  /// byte-identical for ANY backend (see execution_backend.hpp for the
  /// seeding/chunking contract).
  SimulationResult Run(const protocol::IncentiveModel& model,
                       const std::vector<double>& initial_stakes,
                       const ExecutionBackend& backend) const;

  /// Convenience for the paper's two-miner setting: miner A starts with
  /// share `a`, miner B with 1 - a.
  SimulationResult RunTwoMiner(const protocol::IncentiveModel& model,
                               double a) const;

  const SimulationConfig& config() const { return config_; }
  const FairnessSpec& spec() const { return spec_; }

 private:
  SimulationConfig config_;
  FairnessSpec spec_;
};

/// True when a campaign of `model` under `config` resolves to the
/// vectorized lane path: the mode was requested AND the model has a lane
/// kernel AND its stake is static.  Compounding models keep the scalar
/// batched path even under kVectorized — their per-lane Fenwick trees make
/// lockstep stepping slower than the scalar loop, and withholding (which
/// only matters when rewards compound) is not modelled by the lane kernels.
/// Callers deciding store keys or output contracts MUST use this predicate,
/// not the raw config field: a kVectorized request that falls back to
/// scalar produces byte-identical-to-scalar results.
bool UsesVectorizedStepping(const protocol::IncentiveModel& model,
                            const SimulationConfig& config);

/// Number of doubles a per-replication population-metric matrix needs:
/// kPopulationMetricCount planes of (checkpoints × replications).  Layout:
/// population_matrix[(metric * cp_count + c) * replications + r].  Checked
/// like ResultMatrixBytes (throws std::length_error).
std::size_t PopulationMatrixSize(const SimulationConfig& config);

/// Bytes of `planes` result planes of (checkpoints × replications)
/// doubles — a run's λ plane plus its population or chain planes.  The
/// replication count comes straight from the caller's request, so the
/// product is overflow-checked: when it does not fit in 64 bits this
/// throws std::length_error naming `label`, the rows and the replications,
/// before anything is allocated.
std::size_t ResultMatrixBytes(const SimulationConfig& config,
                              std::size_t planes, const std::string& label);

/// Thrown when a run's result matrices cannot be allocated.  Still a
/// std::bad_alloc, so callers that handle allocation failure keep working,
/// but its message names `label`, the bytes and the replications.
class MatrixAllocationError : public std::bad_alloc {
 public:
  MatrixAllocationError(const std::string& label, std::size_t bytes,
                        std::uint64_t replications);
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  std::string message_;
};

/// Runs replications [begin, end) of `model` from `initial_stakes` under
/// `config`, writing λ of replication r at checkpoint c into
/// lambda_matrix[c * config.replications + r].  `config.checkpoints` must
/// be populated (`Validate`d); `config.miner` must index into
/// `initial_stakes` (throws std::invalid_argument otherwise — this is a
/// public entry point, callers may bypass MonteCarloEngine::Run).
/// `population_matrix` (may be null) additionally receives the wealth
/// concentration metrics of every (checkpoint, replication) in the
/// PopulationMatrixSize layout.  Replication r always draws from
/// RngStream(config.seed).Split(r), so any partition of [0, replications)
/// across threads — including the campaign runner's shared-pool sharding —
/// produces identical values.
///
/// `workspace` is the arena the replications step in; it is Bind()-ed to
/// this call's configuration (free when already bound — the steady state)
/// and left bound on return.  Steps between checkpoints are driven through
/// the model's batched RunSteps in whole segments, so the per-step cost is
/// the protocol's inner loop — no virtual dispatch, no allocation.
///
/// When UsesVectorizedStepping(model, config) holds, the range is instead
/// stepped through RunReplicationBlockRange on this thread's block arena —
/// transparently for every backend, since serial, pool, and shard workers
/// all enter through here.
void RunReplicationRange(const protocol::IncentiveModel& model,
                         const std::vector<double>& initial_stakes,
                         const SimulationConfig& config, std::size_t begin,
                         std::size_t end, double* lambda_matrix,
                         double* population_matrix,
                         ReplicationWorkspace& workspace);

/// Convenience overload running in this thread's workspace
/// (ThreadLocalReplicationWorkspace).
void RunReplicationRange(const protocol::IncentiveModel& model,
                         const std::vector<double>& initial_stakes,
                         const SimulationConfig& config, std::size_t begin,
                         std::size_t end, double* lambda_matrix,
                         double* population_matrix);

/// Backwards-compatible overload: λ only, no population metrics.
void RunReplicationRange(const protocol::IncentiveModel& model,
                         const std::vector<double>& initial_stakes,
                         const SimulationConfig& config, std::size_t begin,
                         std::size_t end, double* lambda_matrix);

/// The vectorized twin of RunReplicationRange: steps replications
/// [begin, end) in lane blocks of up to kReplicationLaneWidth, each block
/// advanced in lockstep through the model's RunLaneSteps.  Replication r is
/// lane r of the cell's Philox keystream (PhiloxStream(config.seed, r)), so
/// the output is invariant to the [begin, end) partition and to the lane
/// width — identical matrix cells for any backend, chunking, or block size.
/// Requires model.SupportsLaneStepping() and !model.RewardCompounds()
/// (throws std::invalid_argument otherwise); callers normally route through
/// RunReplicationRange, which dispatches on UsesVectorizedStepping.
void RunReplicationBlockRange(const protocol::IncentiveModel& model,
                              const std::vector<double>& initial_stakes,
                              const SimulationConfig& config,
                              std::size_t begin, std::size_t end,
                              double* lambda_matrix,
                              double* population_matrix,
                              ReplicationBlockWorkspace& workspace);

/// Reduces a fully populated λ matrix (layout as RunReplicationRange) plus
/// an optional population matrix (empty = no metrics; otherwise exactly
/// PopulationMatrixSize doubles) to per-checkpoint statistics.  The second
/// half of MonteCarloEngine::Run, exposed so external schedulers reuse the
/// same reduction.  Throws std::invalid_argument when `config.miner` is
/// out of range for `initial_stakes`.
SimulationResult ReduceToResult(const std::string& protocol_name,
                                const std::vector<double>& initial_stakes,
                                const SimulationConfig& config,
                                const FairnessSpec& spec,
                                const std::vector<double>& lambda_matrix,
                                const std::vector<double>& population_matrix);

/// Backwards-compatible overload: λ only, population metrics stay NaN.
SimulationResult ReduceToResult(const std::string& protocol_name,
                                const std::vector<double>& initial_stakes,
                                const SimulationConfig& config,
                                const FairnessSpec& spec,
                                const std::vector<double>& lambda_matrix);

/// Evenly spaced checkpoints {step/count, 2*step/count, ..., steps}.
/// Exact at every magnitude: the k·steps/count intermediate is evaluated in
/// 128-bit arithmetic, so horizons near 2^64 cannot wrap.
std::vector<std::uint64_t> LinearCheckpoints(std::uint64_t steps,
                                             std::size_t count);

/// Log-spaced checkpoints from `first` to `steps` (inclusive, deduplicated,
/// clamped so rounding can never emit a checkpoint beyond `steps`);
/// used for the 10^5-block SL-PoS horizon of Figure 4.
std::vector<std::uint64_t> LogCheckpoints(std::uint64_t steps,
                                          std::size_t count,
                                          std::uint64_t first = 10);

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_MONTE_CARLO_HPP_
