// Population-level wealth-concentration metrics.
//
// The paper's two-miner figures ask whether miner A's reward share drifts;
// at realistic population scale the interesting question is distributional:
// does the whole wealth distribution concentrate?  These are the standard
// summary statistics of that question (cf. arXiv:2207.11714 and
// arXiv:1910.09786):
//
//   * Gini coefficient      — 0 = perfect equality, -> 1 = one miner owns all;
//   * HHI                   — Herfindahl–Hirschman index, Σ share²; 1/m for a
//                             uniform population, 1 for a monopoly;
//   * Nakamoto coefficient  — smallest number of miners jointly controlling
//                             a strict majority (> 1/2) of wealth;
//   * top-decile share      — wealth fraction held by the richest ⌈m/10⌉
//                             miners.
//
// The Monte Carlo engine records these per replication at every checkpoint
// (over miner wealth = initial resource + cumulative credited income) and
// reduces them to per-checkpoint means alongside the λ statistics.
//
// Every metric is a function of the ascending wealth order.  Between two
// checkpoints of one replication only the miners credited in that segment
// change wealth, so the engine carries each replication's order from
// checkpoint to checkpoint (PopulationOrders) and re-sorts only the k
// miners that moved: O(m + k log k) per checkpoint instead of a fresh
// O(m log m) sort.  A sorted array of values is unique, so both entries
// produce bit-identical metrics.

#ifndef FAIRCHAIN_CORE_POPULATION_HPP_
#define FAIRCHAIN_CORE_POPULATION_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fairchain::core {

/// One replication's concentration metrics at one checkpoint.
struct PopulationSnapshot {
  double gini = 0.0;
  double hhi = 0.0;
  /// Nakamoto coefficient; kept as double so metric matrices and CSV
  /// columns stay homogeneous (it is always an integer value).
  double nakamoto = 0.0;
  double top_decile_share = 0.0;
};

/// Number of scalar metrics a PopulationSnapshot carries — the stride of
/// the engine's per-replication population matrices.
inline constexpr std::size_t kPopulationMetricCount = 4;

/// Number of miners in the "top decile" of a population of `miners`:
/// ⌈miners / 10⌉, never 0.
std::size_t TopDecileCount(std::size_t miners);

/// Measures `wealth` from scratch: one O(m log m) sort.  `scratch` is
/// overwritten and may be reused across calls to avoid per-call
/// allocation.  Throws std::invalid_argument on an empty vector, an entry
/// that is negative or not finite (naming the miner), or a zero total.
/// The engine measures through PopulationOrders; this entry is the
/// reference it is tested against.
PopulationSnapshot MeasurePopulation(const std::vector<double>& wealth,
                                     std::vector<double>* scratch);

/// The population-metric arena of one worker: the ascending order of the
/// bound cell's initial stakes, one carried order per replication in
/// flight (one for scalar stepping, one per lane for vectorized stepping),
/// and the scratch of the carried measurement.  Buffers are kept across
/// cells, so steady-state measurement allocates nothing.  Not thread-safe.
class PopulationOrders {
 public:
  /// Prepares `slots` carried orders for a cell with `initial_stakes`.
  /// The initial order is sorted only when the stakes differ from the
  /// previous Bind's (an O(m) check).  Throws std::invalid_argument on an
  /// empty stake vector or an entry that is negative or not finite.
  void Bind(const std::vector<double>& initial_stakes, std::size_t slots);

  /// Restarts slot `slot` at the initial order (a replication boundary).
  void Restart(std::size_t slot);

  /// Measures `wealth` — the slot's miners one segment after its previous
  /// measurement or Restart — and carries the slot's order forward to it.
  /// O(m + k log k) for the k miners whose wealth changed; bit-identical
  /// to the from-scratch MeasurePopulation.  Throws like it.  The result
  /// never depends on the order carried in — any ascending order of the m
  /// miners is a valid start, whatever values it holds — only the cost
  /// does.
  PopulationSnapshot Measure(std::size_t slot,
                             const std::vector<double>& wealth);

 private:
  // Ascending wealth order of one population: miners[j] is the j-th
  // poorest miner and values[j] its wealth when the order was taken.
  struct WealthOrder {
    std::vector<std::uint32_t> miners;
    std::vector<double> values;
  };
  struct MovedMiner {
    double wealth;
    std::uint32_t miner;
  };

  WealthOrder initial_;
  std::vector<WealthOrder> orders_;
  std::vector<MovedMiner> moved_;
};

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_POPULATION_HPP_
