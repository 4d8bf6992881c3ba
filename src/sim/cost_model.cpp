#include "sim/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace fairchain::sim {

namespace {

// One calibration point: ns per (step, replication) at `miners` miners,
// taken from BENCH_hotpath.json's BM_Batched_* families (1e9 /
// items_per_second).
struct PriorPoint {
  double miners;
  double ns_per_step;
};

struct PriorTable {
  const char* protocol;
  const PriorPoint* points;
  std::size_t count;
};

constexpr PriorPoint kPowPoints[] = {
    {2, 6.51}, {10, 14.78}, {100, 22.16},
    {1000, 30.69}, {10000, 48.56}, {100000, 81.02}};
constexpr PriorPoint kMlPosPoints[] = {
    {2, 7.82}, {10, 23.0}, {100, 38.18},
    {1000, 56.3}, {10000, 70.34}, {100000, 127.4}};
constexpr PriorPoint kFslPosPoints[] = {
    {2, 8.06}, {10, 28.42}, {100, 40.3},
    {1000, 53.75}, {10000, 84.19}, {100000, 125.78}};
constexpr PriorPoint kSlPosPoints[] = {
    {2, 16.82}, {10, 39.3}, {100, 326.27}, {1000, 2684.15}};
// C-PoS from BM_Batched_CPosEpochInflation (v = 0.1, the registry
// default).  Up to CPosModel::kChainMaxMiners the epoch is the
// conditional-binomial chain; above it every epoch pays an O(m) inflation
// sweep and tree rebuild, so v = 0 cells there cost far less than these
// points (BM_Batched_CPosEpoch: ~2.4 µs at m = 1000).
constexpr PriorPoint kCPosPoints[] = {
    {2, 60.88}, {10, 390.88}, {100, 1839.13},
    {1000, 8119.32}, {10000, 60708.46}, {100000, 599551.51}};

constexpr PriorTable kPriorTables[] = {
    {"pow", kPowPoints, std::size(kPowPoints)},
    {"mlpos", kMlPosPoints, std::size(kMlPosPoints)},
    {"fslpos", kFslPosPoints, std::size(kFslPosPoints)},
    {"slpos", kSlPosPoints, std::size(kSlPosPoints)},
    {"cpos", kCPosPoints, std::size(kCPosPoints)},
};

// Chain-dynamics event machines (BM_ChainStep: 12.9–16.8 ns/event across
// the delay range) — flat in the miner count, chain games are two-party.
constexpr double kChainNsPerStep = 15.0;

// Committee protocols (neo/algorand/eos) have no batched calibration
// family yet; the MlPos curve is the closest stake-weighted shape.
constexpr const PriorTable& DefaultTable() { return kPriorTables[1]; }

// Log-linear interpolation in the miner count, clamped at the table ends.
double InterpolateNsPerStep(const PriorTable& table, double miners) {
  miners = std::max(miners, 1.0);
  if (miners <= table.points[0].miners) return table.points[0].ns_per_step;
  const PriorPoint& last = table.points[table.count - 1];
  if (miners >= last.miners) return last.ns_per_step;
  for (std::size_t i = 1; i < table.count; ++i) {
    const PriorPoint& hi = table.points[i];
    if (miners > hi.miners) continue;
    const PriorPoint& lo = table.points[i - 1];
    const double t = (std::log(miners) - std::log(lo.miners)) /
                     (std::log(hi.miners) - std::log(lo.miners));
    return lo.ns_per_step + t * (hi.ns_per_step - lo.ns_per_step);
  }
  return last.ns_per_step;
}

double PriorNsPerStep(const CampaignCell& cell) {
  if (cell.chain_dynamics) return kChainNsPerStep;
  for (const PriorTable& table : kPriorTables) {
    if (cell.protocol == table.protocol) {
      return InterpolateNsPerStep(table,
                                  static_cast<double>(cell.miners));
    }
  }
  return InterpolateNsPerStep(DefaultTable(),
                              static_cast<double>(cell.miners));
}

unsigned MinerBucket(std::size_t miners) {
  unsigned bucket = 0;
  while (miners > 1) {
    miners >>= 1;
    ++bucket;
  }
  return bucket;
}

// EWMA weight of each new observation.  High enough that a cold prior is
// mostly corrected after three chunks, low enough that one descheduled
// chunk (OS noise) cannot flip the plan's cost ordering.
constexpr double kEwmaAlpha = 0.3;

}  // namespace

CostModel& CostModel::Global() {
  static CostModel model;
  return model;
}

double CostModel::EstimateReplicationNs(const CampaignCell& cell,
                                        std::uint64_t steps) const {
  double ns_per_step = PriorNsPerStep(cell);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = observed_ns_per_step_.find(
        Key(cell.protocol, MinerBucket(cell.miners)));
    if (it != observed_ns_per_step_.end()) ns_per_step = it->second;
  }
  return std::max(1.0, ns_per_step * static_cast<double>(steps));
}

void CostModel::Observe(const CampaignCell& cell, std::uint64_t steps,
                        std::uint64_t replications,
                        std::uint64_t chunk_ns) {
  const double work =
      static_cast<double>(steps) * static_cast<double>(replications);
  if (!(work > 0.0) || chunk_ns == 0) return;
  const double ns_per_step = static_cast<double>(chunk_ns) / work;
  if (!std::isfinite(ns_per_step) || ns_per_step <= 0.0) return;
  const Key key(cell.protocol, MinerBucket(cell.miners));
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = observed_ns_per_step_.emplace(key, ns_per_step);
  if (!inserted) {
    it->second += kEwmaAlpha * (ns_per_step - it->second);
  }
}

void CostModel::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  observed_ns_per_step_.clear();
}

}  // namespace fairchain::sim
