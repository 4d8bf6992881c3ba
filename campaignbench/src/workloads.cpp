// Workload table, set-up, and one pass over a workload (see bench.hpp).

#include "bench.hpp"
#include "sim/cost_model.hpp"
#include "sim/scenario_registry.hpp"

namespace campaignbench {

// Pinned sizes.  Each pass takes one to two seconds on a 4-CPU host, so
// every measuring process times a few of them.  README.md records why each
// workload exists and which layers it stresses.
const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> workloads = {
      {"table1", {"table1"}, "pool", 60, 0, false},
      {"pareto-population", {"pareto-population"}, "pool", 1000, 0, false},
      {"hetero-shard", {"hetero-cost-mix"}, "shard:4", 4000, 0, false},
      {"verify-store", {}, "pool", 300, 240, true},
  };
  return workloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

std::vector<fc::sim::ScenarioSpec> ResolveSpecs(const WorkloadDef& def,
                                                std::uint64_t seed) {
  const fc::sim::ScenarioRegistry& registry =
      fc::sim::ScenarioRegistry::BuiltIn();
  const std::vector<std::string> names =
      def.scenarios.empty() ? registry.Names() : def.scenarios;
  std::vector<fc::sim::ScenarioSpec> specs;
  specs.reserve(names.size());
  for (const std::string& name : names) {
    fc::sim::ScenarioSpec spec = registry.Get(name);
    spec.replications = def.replications;
    if (def.steps != 0) spec.steps = def.steps;
    spec.seed = seed;
    // The oracle judge that gates every run needs replication-level
    // samples; VerificationPlan forces the same for verify runs.  Only
    // hetero-cost-mix turns them off in the registry (4000 doubles a cell
    // here).
    spec.keep_final_lambdas = true;
    spec.Validate();
    specs.push_back(std::move(spec));
  }
  return specs;
}

Setup MakeSetup(const WorkloadDef& def, std::uint64_t seed,
                const std::string& backend_name,
                const std::string& store_dir) {
  // Plan as a fresh process does: from the cost model's priors, not from
  // refinements that earlier passes' chunk latencies left behind.  Those
  // vary with load, and the chunk geometry, and so the wall, would follow.
  fc::sim::CostModel::Global().Reset();
  const Clock::time_point start = Clock::now();
  Setup setup;
  setup.specs = ResolveSpecs(def, seed);
  setup.backend = fc::core::MakeBackend(backend_name, kWorkers);
  if (!store_dir.empty()) {
    setup.store = std::make_unique<fc::store::CampaignStore>(store_dir);
  }
  fc::sim::CampaignOptions options;
  options.backend = setup.backend.get();
  const fc::sim::CampaignRunner runner(options);
  for (const fc::sim::ScenarioSpec& spec : setup.specs) {
    setup.planned_chunks += runner.PlanJobs(spec).size();
  }
  if (def.verify_store) {
    setup.verification.reserve(setup.specs.size());
    for (const fc::sim::ScenarioSpec& spec : setup.specs) {
      setup.verification.emplace_back(spec);
    }
  }
  setup.seconds = Seconds(start, Clock::now());
  return setup;
}

double RepSteps(const std::vector<fc::sim::ScenarioSpec>& specs) {
  double total = 0.0;
  for (const fc::sim::ScenarioSpec& spec : specs) {
    total += static_cast<double>(spec.CellCount()) *
             static_cast<double>(spec.replications) *
             static_cast<double>(spec.steps);
  }
  return total;
}

namespace {

void AppendDigests(const CaptureSink& capture, std::size_t cells,
                   PassResult& result) {
  std::vector<fc::crypto::Digest> digests = capture.CellDigests();
  // A cell that emitted no row keeps an all-zero digest, which never
  // equals a real one, so the byte-identity check flags it.
  digests.resize(cells, fc::crypto::Digest{});
  result.digests.insert(result.digests.end(), digests.begin(), digests.end());
}

}  // namespace

PassResult RunPass(const Setup& setup, bool via_verify,
                   const fc::core::ExecutionBackend& backend,
                   fc::store::CampaignStore* store,
                   const PassTracing& tracing) {
  PassResult result;
  for (std::size_t i = 0; i < setup.specs.size(); ++i) {
    const fc::sim::ScenarioSpec& spec = setup.specs[i];
    CaptureSink capture;
    TimingSink timed(capture, tracing.spans, tracing.parent_span);
    const std::vector<fc::sim::ResultSink*> sinks = {
        tracing.time_sinks ? static_cast<fc::sim::ResultSink*>(&timed)
                           : &capture};
    const std::size_t cells = spec.CellCount();
    if (via_verify) {
      fc::verify::VerificationOptions options;
      options.campaign.backend = &backend;
      options.campaign.store = store;
      options.judge.family_alpha = kJudgeFamilyAlpha;
      ScopedSpan span(tracing.spans, "verify.VerifyCampaign",
                      tracing.parent_span);
      const Clock::time_point start = Clock::now();
      const fc::verify::VerificationReport report =
          fc::verify::VerifyCampaign(setup.verification.at(i), options, {},
                                     sinks);
      result.seconds += Seconds(start, Clock::now());
      std::vector<bool> failed(cells, true);
      for (std::size_t c = 0; c < report.verdicts.size() && c < cells; ++c) {
        failed[c] = !report.verdicts[c].passed;
      }
      result.verdict_failed.insert(result.verdict_failed.end(),
                                   failed.begin(), failed.end());
    } else {
      fc::sim::CampaignOptions options;
      options.backend = &backend;
      options.store = store;
      const fc::sim::CampaignRunner runner(options);
      ScopedSpan span(tracing.spans, "sim.Run", tracing.parent_span);
      const Clock::time_point start = Clock::now();
      std::vector<fc::sim::CellOutcome> outcomes = runner.Run(spec, sinks);
      result.seconds += Seconds(start, Clock::now());
      for (const fc::sim::CellOutcome& outcome : outcomes) {
        if (outcome.from_cache) ++result.cells_from_cache;
      }
      result.outcomes.push_back(std::move(outcomes));
    }
    AppendDigests(capture, cells, result);
    result.emit_ns += timed.write_ns();
  }
  return result;
}

}  // namespace campaignbench
