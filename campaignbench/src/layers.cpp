// The traced run's layer replays (see bench.hpp).

#include <bit>
#include <filesystem>
#include <set>

#include "bench.hpp"
#include "chain/chain_replication.hpp"
#include "core/population.hpp"
#include "protocol/model_factory.hpp"

namespace campaignbench {

namespace {

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Time per step of a group of replayed cells.
struct StepTime {
  double ns = 0.0;
  double steps = 0.0;
};

// MeasurePopulation calls per timing of core.population_ns.m1000: enough
// to average over ~10 ms at m = 1000.
constexpr int kPopulationCalls = 2000;

}  // namespace

bool SameResult(const fc::core::SimulationResult& a,
                const fc::core::SimulationResult& b) {
  if (a.checkpoints.size() != b.checkpoints.size() ||
      a.final_lambdas.size() != b.final_lambdas.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    const fc::core::CheckpointStats& x = a.checkpoints[i];
    const fc::core::CheckpointStats& y = b.checkpoints[i];
    const bool same =
        x.step == y.step && SameBits(x.mean, y.mean) &&
        SameBits(x.std_dev, y.std_dev) && SameBits(x.p05, y.p05) &&
        SameBits(x.p25, y.p25) && SameBits(x.median, y.median) &&
        SameBits(x.p75, y.p75) && SameBits(x.p95, y.p95) &&
        SameBits(x.min, y.min) && SameBits(x.max, y.max) &&
        SameBits(x.unfair_probability, y.unfair_probability) &&
        SameBits(x.gini, y.gini) && SameBits(x.hhi, y.hhi) &&
        SameBits(x.nakamoto, y.nakamoto) &&
        SameBits(x.top_decile_share, y.top_decile_share) &&
        SameBits(x.orphan_rate, y.orphan_rate) &&
        SameBits(x.reorg_depth_mean, y.reorg_depth_mean) &&
        SameBits(x.reorg_depth_max, y.reorg_depth_max);
    if (!same) return false;
  }
  for (std::size_t i = 0; i < a.final_lambdas.size(); ++i) {
    if (!SameBits(a.final_lambdas[i], b.final_lambdas[i])) return false;
  }
  return true;
}

std::vector<bool> ReplayLayers(
    const std::vector<fc::sim::ScenarioSpec>& specs,
    const std::vector<std::vector<fc::sim::CellOutcome>>& outcomes,
    SpanRecorder* spans, std::uint64_t parent, MetricMap& metrics,
    std::vector<double>& cell_ns, double& layer_ns) {
  std::map<std::string, StepTime> step_times;
  double configured_ns = 0.0;  // replays as the campaign ran them
  double population_off_ns = 0.0;
  double reduce_ns = 0.0;
  double population_call_ns = 0.0;
  std::vector<bool> mismatches;

  for (std::size_t s = 0; s < specs.size(); ++s) {
    const fc::sim::ScenarioSpec& spec = specs[s];
    for (const fc::sim::CampaignCell& cell : spec.ExpandCells()) {
      const fc::core::SimulationConfig config =
          fc::sim::CellConfig(spec, cell);
      config.Validate();
      const std::size_t reps = config.replications;
      const double steps =
          static_cast<double>(reps) * static_cast<double>(config.steps);
      const std::vector<double> stakes = cell.Stakes();
      std::vector<double> lambdas(config.checkpoints.size() * reps, 0.0);
      std::vector<double> population;
      fc::core::SimulationResult result;
      double run_ns = 0.0;  // as configured
      if (cell.chain_dynamics) {
        fc::chain::ChainGameSpec game;
        game.dynamics = fc::chain::ParseChainDynamics(cell.protocol);
        game.alpha = cell.a;
        game.gamma = cell.gamma;
        game.delay = cell.delay;
        game.Validate();
        std::vector<double> chain_matrix(fc::chain::ChainMatrixSize(config),
                                         0.0);
        {
          ScopedSpan span(spans, "chain.RunChainReplicationRange", parent);
          const Clock::time_point start = Clock::now();
          fc::chain::RunChainReplicationRange(game, config, 0, reps,
                                              lambdas.data(),
                                              chain_matrix.data());
          run_ns = NsSince(start);
        }
        StepTime& group = step_times["chain.ns_per_step." + cell.protocol];
        group.ns += run_ns;
        group.steps += steps;
        population_off_ns += run_ns;
        ScopedSpan span(spans, "core.ReduceToResult", parent);
        const Clock::time_point start = Clock::now();
        result = fc::core::ReduceToResult(cell.protocol, stakes, config,
                                          spec.fairness, lambdas, population);
        fc::chain::ReduceChainMetrics(config, chain_matrix, result);
        reduce_ns += NsSince(start);
      } else {
        const auto model = fc::protocol::MakeModel(cell.protocol, cell.w,
                                                   cell.v, cell.shards);
        fc::core::SimulationConfig off = config;
        off.population_metrics = false;
        double off_ns = 0.0;
        {
          ScopedSpan span(spans, "protocol.RunReplicationRange", parent);
          const Clock::time_point start = Clock::now();
          fc::core::RunReplicationRange(*model, stakes, off, 0, reps,
                                        lambdas.data(), nullptr);
          off_ns = NsSince(start);
        }
        run_ns = off_ns;
        if (config.population_metrics) {
          population.assign(fc::core::PopulationMatrixSize(config), 0.0);
          ScopedSpan span(spans, "core.RunReplicationRange+population",
                          parent);
          const Clock::time_point start = Clock::now();
          fc::core::RunReplicationRange(*model, stakes, config, 0, reps,
                                        lambdas.data(), population.data());
          run_ns = NsSince(start);
          if (cell.miners == 1000 && population_call_ns == 0.0) {
            ScopedSpan call_span(spans, "core.MeasurePopulation", parent);
            std::vector<double> scratch;
            double checksum = 0.0;
            const Clock::time_point call_start = Clock::now();
            for (int i = 0; i < kPopulationCalls; ++i) {
              checksum += fc::core::MeasurePopulation(stakes, &scratch).gini;
            }
            population_call_ns = NsSince(call_start) / kPopulationCalls;
            if (!(checksum > 0.0)) population_call_ns = 0.0;
          }
        }
        for (const std::string& key :
             {"protocol.ns_per_step." + cell.protocol,
              "protocol.ns_per_step." + cell.protocol + ".m" +
                  std::to_string(cell.miners)}) {
          StepTime& group = step_times[key];
          group.ns += off_ns;
          group.steps += steps;
        }
        population_off_ns += off_ns;
        ScopedSpan span(spans, "core.ReduceToResult", parent);
        const Clock::time_point start = Clock::now();
        result = fc::core::ReduceToResult(model->name(), stakes, config,
                                          spec.fairness, lambdas, population);
        reduce_ns += NsSince(start);
      }
      configured_ns += run_ns;
      cell_ns.push_back(run_ns);
      mismatches.push_back(s >= outcomes.size() ||
                           cell.index >= outcomes[s].size() ||
                           !SameResult(result, outcomes[s][cell.index].result));
    }
  }

  for (const auto& [name, group] : step_times) {
    if (group.steps > 0.0) metrics[name] = group.ns / group.steps;
  }
  metrics["core.population_share"] =
      configured_ns > 0.0 ? (configured_ns - population_off_ns) / configured_ns
                          : 0.0;
  metrics["core.population_ns.m1000"] = population_call_ns;
  metrics["core.reduce_ms"] = reduce_ns / 1e6;
  layer_ns = configured_ns + reduce_ns;
  return mismatches;
}

std::vector<bool> ReplayStore(
    const std::vector<fc::sim::ScenarioSpec>& specs,
    const std::vector<std::vector<fc::sim::CellOutcome>>& outcomes,
    const std::string& dir, SpanRecorder* spans, std::uint64_t parent,
    MetricMap& metrics) {
  std::filesystem::remove_all(dir);
  fc::store::CampaignStore store(dir);
  struct Entry {
    fc::store::CellKey key;
    const fc::core::SimulationResult* result = nullptr;
    std::size_t cell = 0;  // position in the returned vector
  };
  std::vector<Entry> entries;
  std::vector<bool> failures;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (const fc::sim::CampaignCell& cell : specs[s].ExpandCells()) {
      const bool missing =
          s >= outcomes.size() || cell.index >= outcomes[s].size();
      if (!missing) {
        entries.push_back(
            {fc::store::MakeCellKey(
                 store.code_version() + "\n" +
                 fc::sim::CellStorePreimage(specs[s], cell)),
             &outcomes[s][cell.index].result, failures.size()});
      }
      failures.push_back(missing);
    }
  }

  double put_ns = 0.0;
  for (const Entry& entry : entries) {
    ScopedSpan span(spans, "store.Put", parent);
    const Clock::time_point start = Clock::now();
    if (!store.Put(entry.key, *entry.result)) failures[entry.cell] = true;
    put_ns += NsSince(start);
  }
  double bytes = 0.0;
  std::set<std::string> counted;  // identical cells share one entry
  for (const Entry& entry : entries) {
    if (!counted.insert(entry.key.Hex()).second) continue;
    std::error_code error;
    const auto size =
        std::filesystem::file_size(store.EntryPath(entry.key), error);
    if (!error) bytes += static_cast<double>(size);
  }
  double load_ns = 0.0;
  for (const Entry& entry : entries) {
    ScopedSpan span(spans, "store.Load", parent);
    const Clock::time_point start = Clock::now();
    const fc::store::LoadResult loaded = store.Load(entry.key);
    load_ns += NsSince(start);
    if (loaded.status != fc::store::LoadStatus::kHit ||
        !SameResult(loaded.result, *entry.result)) {
      failures[entry.cell] = true;
    }
  }
  std::filesystem::remove_all(dir);

  metrics["store.put_ms"] = put_ns / 1e6;
  metrics["store.load_ms"] = load_ns / 1e6;
  metrics["store.bytes_written"] = bytes;
  return failures;
}

}  // namespace campaignbench
