#include "core/population.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace fairchain::core {

namespace {

// Every wealth value a measurement reads passes here: a NaN would break
// the sort's strict weak ordering and an infinity turns HHI and the
// top-decile share into NaN, so both are rejected with the negative case.
void CheckWealth(double x, std::size_t miner) {
  if (!(x >= 0.0) || !std::isfinite(x)) {
    throw std::invalid_argument(
        "MeasurePopulation: miner " + std::to_string(miner) + " has wealth " +
        std::to_string(x) + " (must be finite and non-negative)");
  }
}

// The metrics over an ascending array of m validated values.  Both
// entries end here, so their arithmetic — and its summation order — is
// one and the same.
PopulationSnapshot MeasureSorted(const double* sorted, std::size_t m) {
  double total = 0.0;
  double weighted = 0.0;  // Σ rank_i * x_(i), ranks 1..m over ascending order
  double hhi = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double x = sorted[i];
    total += x;
    weighted += static_cast<double>(i + 1) * x;
    hhi += x * x;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument("MeasurePopulation: zero total wealth");
  }

  PopulationSnapshot snapshot;
  const double dm = static_cast<double>(m);
  // Gini over the sorted sample:  (2 Σ i x_(i)) / (m Σ x) - (m + 1)/m,
  // clamped against FP noise at perfect equality.
  snapshot.gini =
      std::max(0.0, 2.0 * weighted / (dm * total) - (dm + 1.0) / dm);
  snapshot.hhi = hhi / (total * total);

  const std::size_t decile = TopDecileCount(m);
  const double half = total / 2.0;
  double from_top = 0.0;
  double top_decile = 0.0;
  std::size_t nakamoto = 0;
  bool majority_reached = false;
  for (std::size_t taken = 1; taken <= m; ++taken) {
    from_top += sorted[m - taken];
    if (taken == decile) top_decile = from_top;
    if (!majority_reached && from_top > half) {
      nakamoto = taken;
      majority_reached = true;
    }
    if (taken >= decile && majority_reached) break;
  }
  // A degenerate exact 50/50 split never strictly exceeds half; every miner
  // together always does up to FP noise, so fall back to m.
  if (!majority_reached) nakamoto = m;
  snapshot.nakamoto = static_cast<double>(nakamoto);
  snapshot.top_decile_share = top_decile / total;
  return snapshot;
}

}  // namespace

std::size_t TopDecileCount(std::size_t miners) {
  return std::max<std::size_t>(1, (miners + 9) / 10);
}

PopulationSnapshot MeasurePopulation(const std::vector<double>& wealth,
                                     std::vector<double>* scratch) {
  if (wealth.empty()) {
    throw std::invalid_argument("MeasurePopulation: empty wealth vector");
  }
  for (std::size_t i = 0; i < wealth.size(); ++i) CheckWealth(wealth[i], i);
  *scratch = wealth;
  std::sort(scratch->begin(), scratch->end());
  return MeasureSorted(scratch->data(), scratch->size());
}

void PopulationOrders::Bind(const std::vector<double>& initial_stakes,
                            std::size_t slots) {
  const std::size_t m = initial_stakes.size();
  if (m == 0) {
    throw std::invalid_argument("MeasurePopulation: empty wealth vector");
  }
  if (m > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "MeasurePopulation: more miners than a 32-bit index addresses");
  }
  if (orders_.size() < slots) orders_.resize(slots);
  // The stored order still orders these stakes exactly when every miner
  // sits at its own value; then nothing needs sorting.
  bool same = initial_.miners.size() == m;
  for (std::size_t j = 0; same && j < m; ++j) {
    same = initial_stakes[initial_.miners[j]] == initial_.values[j];
  }
  if (same) return;
  for (std::size_t i = 0; i < m; ++i) CheckWealth(initial_stakes[i], i);
  initial_.miners.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    initial_.miners[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(initial_.miners.begin(), initial_.miners.end(),
            [&initial_stakes](std::uint32_t a, std::uint32_t b) {
              return initial_stakes[a] < initial_stakes[b];
            });
  initial_.values.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    initial_.values[j] = initial_stakes[initial_.miners[j]];
  }
  moved_.reserve(m);
}

void PopulationOrders::Restart(std::size_t slot) {
  WealthOrder& order = orders_[slot];
  order.miners.assign(initial_.miners.begin(), initial_.miners.end());
  order.values.assign(initial_.values.begin(), initial_.values.end());
}

PopulationSnapshot PopulationOrders::Measure(
    std::size_t slot, const std::vector<double>& wealth) {
  WealthOrder& order = orders_[slot];
  const std::size_t m = order.miners.size();
  if (wealth.size() != m) {
    throw std::invalid_argument(
        "MeasurePopulation: wealth vector does not match the bound cell");
  }
  std::uint32_t* miners = order.miners.data();
  double* values = order.values.data();
  // Split: miners whose wealth is unchanged keep their relative order and
  // are compacted to the front; the rest are collected for sorting.  A
  // NaN never compares equal, so every value that is not a kept (already
  // validated) one is checked here.
  moved_.clear();
  std::size_t kept = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t miner = miners[j];
    const double x = wealth[miner];
    if (x == values[j]) {
      miners[kept] = miner;
      values[kept] = x;
      ++kept;
    } else {
      CheckWealth(x, miner);
      moved_.push_back({x, miner});
    }
  }
  std::sort(moved_.begin(), moved_.end(),
            [](const MovedMiner& a, const MovedMiner& b) {
              return a.wealth < b.wealth;
            });
  // Merge from the back: the kept prefix [0, kept) and the sorted movers
  // fill [0, m) in place; once the movers run out the rest of the prefix
  // is already where it belongs.
  std::size_t out = m;
  std::size_t k = moved_.size();
  while (k > 0) {
    --out;
    if (kept > 0 && values[kept - 1] > moved_[k - 1].wealth) {
      --kept;
      miners[out] = miners[kept];
      values[out] = values[kept];
    } else {
      --k;
      miners[out] = moved_[k].miner;
      values[out] = moved_[k].wealth;
    }
  }
  return MeasureSorted(values, m);
}

}  // namespace fairchain::core
