// Declarative simulation scenarios.
//
// A ScenarioSpec describes a whole campaign — a grid of mining-game cells
// over protocols × parameters — as data instead of code.  Specs come from
// three sources that all meet in the same value type:
//   * the built-in ScenarioRegistry (every paper figure/table + new
//     workloads),
//   * `key=value` text (one assignment per line, '#' comments), via
//     FromText / FromFile,
//   * CLI flag overrides (`--reps 200`), via ApplyOverrides.
//
// The CampaignRunner expands a spec's grid axes into their cartesian
// product of CampaignCells and executes every cell over one execution
// backend (see campaign.hpp and core/execution_backend.hpp).

#ifndef FAIRCHAIN_SIM_SCENARIO_SPEC_HPP_
#define FAIRCHAIN_SIM_SCENARIO_SPEC_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "core/fairness.hpp"
#include "core/monte_carlo.hpp"
#include "support/flags.hpp"

namespace fairchain::sim {

/// Shortest round-trippable decimal rendering of a double
/// (std::to_chars) — the deterministic formatting used by ToText and
/// every result sink, so printed specs and rows parse back to the exact
/// same values.
std::string FormatDouble(double value);

/// How a spec's checkpoint steps are spaced over [1, steps].
enum class CheckpointSpacing {
  kLinear,  ///< LinearCheckpoints (the default for 5k-block horizons)
  kLog,     ///< LogCheckpoints (the Figure 4 style, for 1e5-block horizons)
};

/// Parsed form of a stake-distribution token (grid axis `stakes`):
///   * "split"          — the classic whale/minnow split driven by the
///                        cell's `whales` and `a` fields (the default);
///   * "pareto:<alpha>" — heavy-tailed Pareto population: deterministic
///                        mid-point quantiles of Pareto(alpha), descending,
///                        normalised to sum 1 (alpha > 0; 1.16 is the
///                        classic 80/20 tail);
///   * "zipf:<s>"       — Zipf ranks: stake_i ∝ (i+1)^-s, normalised
///                        (s >= 0; s = 0 is a uniform population).
/// For pareto/zipf the tracked miner (index 0) is the richest; `whales`
/// and `a` are ignored.  Deterministic by construction — no RNG — so cell
/// stakes are reproducible from the spec alone.
struct StakeDistribution {
  enum class Kind { kSplit, kPareto, kZipf };
  Kind kind = Kind::kSplit;
  double parameter = 0.0;
};

/// Parses a stake-distribution token; throws std::invalid_argument on an
/// unknown form or an out-of-range parameter.
StakeDistribution ParseStakeDistribution(const std::string& text);

/// Which physics a spec's cells run.
enum class ScenarioFamily {
  /// The paper's incentive games: `protocols` name protocol::MakeModel
  /// models, rewards compound, every block commits (the default).
  kIncentive,
  /// Chain-dynamics games: `protocols` name chain::ChainDynamics kernels
  /// ("selfish", "forkrace"); blocks fork, race, and orphan, and the
  /// cells additionally record orphan-rate / reorg-depth observables.
  kChain,
  /// Both in one grid: each protocol token resolves per cell — chain
  /// dynamics names run the chain physics, everything else an incentive
  /// model.  The protocol namespaces are disjoint, so resolution is
  /// unambiguous.  Mixed specs carry the chain family's structural
  /// constraints (two miners, one whale, split stakes, no withholding)
  /// and a SINGLE gamma/delay pair (applied to the chain cells, zeroed on
  /// incentive cells so no incentive cell is duplicated across a chain
  /// axis).  This is the family heterogeneous scheduler benchmarks use:
  /// cost-per-replication spans orders of magnitude across one grid.
  kMixed,
};

/// One fully bound grid cell: a single (protocol, parameters) mining game.
struct CampaignCell {
  std::size_t index = 0;      ///< position in the expanded grid, row-major
  std::string protocol;       ///< model name (protocol::MakeModel), or the
                              ///< chain dynamics name for chain cells
  std::size_t miners = 2;     ///< total number of miners
  std::size_t whales = 1;     ///< miners sharing the tracked allocation `a`
  double a = 0.2;             ///< combined initial share of the whales
  double w = 0.01;            ///< block / proposer reward
  double v = 0.1;             ///< inflation reward (C-PoS, Algorand, EOS)
  std::uint32_t shards = 32;  ///< C-PoS committee count P
  std::uint64_t withhold = 0; ///< reward-withholding period (0 = off)
  std::string stake_dist = "split";  ///< stake-distribution token
  /// True for ScenarioFamily::kChain cells: `a` is the tracked hash
  /// share, and gamma / delay parameterise the dynamics.
  bool chain_dynamics = false;
  double gamma = 0.0;  ///< selfish tie-breaking share (chain cells)
  double delay = 0.0;  ///< propagation delay, mean-block-interval units

  /// Stake vector for this cell.  For "split": the first `whales` miners
  /// split `a` equally, the remaining miners split 1 - a equally
  /// (whales == 1 is the paper's Table 1 whale-vs-minnows allocation).
  /// For "pareto:<alpha>" / "zipf:<s>": the deterministic heavy-tailed
  /// population described at StakeDistribution, richest first.
  std::vector<double> Stakes() const;

  /// Compact "protocol=pow a=0.2 ..." rendering for logs and errors.
  std::string Label() const;
};

/// A declarative campaign: grid axes (expanded to their cartesian product)
/// plus the scalar simulation parameters shared by every cell.
struct ScenarioSpec {
  std::string name = "custom";
  std::string description;

  /// Cell physics (`family=incentive|chain|mixed`).  kChain interprets
  /// `protocols` as chain dynamics names ("selfish", "forkrace"), unlocks
  /// the gamma / delay axes, and restricts the incentive-only axes to
  /// their defaults (two miners, one whale, split stakes, no
  /// withholding) — chain games are two-party by construction.  kMixed
  /// resolves each protocol token per cell (see ScenarioFamily::kMixed).
  ScenarioFamily family = ScenarioFamily::kIncentive;

  // Grid axes.  Cells are enumerated row-major in this field order:
  // protocol is the slowest-varying axis, delay the fastest.
  std::vector<std::string> protocols = {"mlpos"};
  std::vector<std::size_t> miner_counts = {2};
  std::vector<std::size_t> whale_counts = {1};
  std::vector<double> allocations = {0.2};
  std::vector<double> rewards = {0.01};
  std::vector<double> inflations = {0.1};
  std::vector<std::uint32_t> shard_counts = {32};
  std::vector<std::uint64_t> withhold_periods = {0};
  std::vector<std::string> stake_dists = {"split"};
  /// Chain-family axes (`gamma=` / `delay=`); must stay at their {0.0}
  /// defaults for incentive specs, so existing grids never reindex.
  std::vector<double> gammas = {0.0};
  std::vector<double> delays = {0.0};

  // Scalars shared by every cell.
  std::uint64_t steps = 5000;
  std::uint64_t replications = 10000;
  std::uint64_t seed = 20210620;
  std::size_t checkpoint_count = 50;
  CheckpointSpacing spacing = CheckpointSpacing::kLinear;
  core::FairnessSpec fairness{0.1, 0.1};
  /// Record Gini / HHI / Nakamoto / top-decile checkpoint metrics
  /// (O(m + k log k) per replication-checkpoint, k = miners credited since
  /// the previous checkpoint; turn off for pure throughput scenarios at
  /// extreme populations).
  bool population_metrics = true;
  /// Retain per-replication final-checkpoint λ vectors in cell results
  /// (SimulationResult::final_lambdas, an O(replications) vector per
  /// cell).  The streamed CSV/JSONL rows never read them, so turn off
  /// (`final_lambdas=off`) for 100k-replication cells.
  bool keep_final_lambdas = true;
  /// Stepping mode requested for every cell (`stepping=scalar|vectorized`).
  /// Vectorized only takes effect where core::UsesVectorizedStepping says
  /// so (static-stake models with a lane kernel); every other cell keeps
  /// the scalar path, byte-identical to `stepping=scalar`.
  core::SteppingMode stepping = core::SteppingMode::kScalar;

  /// Throws std::invalid_argument on an empty axis, an unknown protocol,
  /// out-of-range allocations / miner counts, or zero steps/replications.
  void Validate() const;

  /// Number of cells the grid expands to (product of the axis sizes).
  std::size_t CellCount() const;

  /// Expands the grid axes to their cartesian product, row-major in the
  /// field order documented above.  Calls Validate first.
  std::vector<CampaignCell> ExpandCells() const;

  /// Parses `key=value` lines.  Blank lines and whole-line '#' comments
  /// are skipped (values may contain '#'); list-valued keys take
  /// comma-separated values.  Keys:
  ///   name, description, family (incentive|chain|mixed), protocols, miners,
  ///   whales, a, w, v, shards, withhold, stakes (split|pareto:A|zipf:S),
  ///   gamma, delay, steps, reps, seed, checkpoints, spacing (linear|log),
  ///   eps, delta, population (on|off), final_lambdas (on|off),
  ///   stepping (scalar|vectorized)
  /// Unknown keys throw std::invalid_argument (same contract as
  /// FlagSet::RejectUnknown: a typo must not silently become a default).
  static ScenarioSpec FromText(const std::string& text);

  /// FromText over a file's contents; throws std::runtime_error when the
  /// file cannot be read.
  static ScenarioSpec FromFile(const std::string& path);

  /// Renders the spec as FromText-parseable `key=value` lines; round-trips
  /// through FromText.
  std::string ToText() const;

  /// Applies CLI overrides (all optional): --reps, --steps, --seed,
  /// --checkpoints, --spacing, --eps, --delta, --family, --protocols,
  /// --miners, --whales, --a, --w, --v, --shards, --withhold, --stakes,
  /// --gamma, --delay, --population, --final_lambdas, --stepping.
  /// List-valued flags take comma-separated values and replace the whole
  /// axis.
  void ApplyOverrides(const FlagSet& flags);

  /// Flag names ApplyOverrides understands (for FlagSet::RejectUnknown).
  static const std::vector<std::string>& OverrideFlagNames();
};

}  // namespace fairchain::sim

#endif  // FAIRCHAIN_SIM_SCENARIO_SPEC_HPP_
