// campaign_bench: runs one workload once and prints its metrics.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//                  [--commit SHA] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics: one discarded warm-up pass,
// then timed passes for about S seconds, each preceded by a fresh
// set-up and followed by rounds of warm (store-served) passes, one on each
// CPU in turn.  --trace 1 measures
// the per-layer metrics from outside (timing decorators, registry deltas,
// serial replays of each layer) and writes DIR/<run>/layers.json and a
// Chrome trace DIR/<run>/trace.json.  Either way every pass is checked
// (byte identity, store hits, the oracle judge), failures are counted per
// cell, and the last stdout line is one JSON object.  --trace 1 prints
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and --trace 0 prints every sample instead of "metrics",
//   {"correct": ..., "attempted": ..., "failed": ..., "digest": HEX,
//    "samples": {"wall_s": [...], ...}}
// which run.py pools over the processes of one run into medians.
// README.md documents every metric and workload.

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "support/escape.hpp"
#include "support/version.hpp"
#include "verify/statistical_judge.hpp"

namespace campaignbench {

const char* LaneSimdIsa();

namespace {

namespace fs = std::filesystem;

// Timed passes per process: at least kMinPasses, at most kMaxPasses
// whatever --seconds says.  run.py pools the passes of several processes.
constexpr std::size_t kMinPasses = 2;
constexpr std::size_t kMaxPasses = 200;
// Warm (store-served) rounds after each timed cold pass, each one warm
// pass on every CPU in turn: at least one, and more until they add up to
// kWarmShare of the cold pass, so millisecond-scale warm passes still give
// a steady median.  A round's sample is the mean of its passes: the
// expected time of a warm pass wherever the scheduler puts it.
constexpr int kMaxWarmRounds = 50;
constexpr double kWarmShare = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, have_out = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out") {
        args.out = value;
        have_out = !value.empty();
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--source-digest") {
        args.source_digest = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace && have_out;
}

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves;  ///< which end-to-end metric it should move, where
};

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"protocol.ns_per_step.pow", "ns", "lower",
       "wall_s, rep_steps_per_s on verify-store and table1"},
      {"protocol.ns_per_step.mlpos", "ns", "lower",
       "wall_s, rep_steps_per_s on verify-store and table1"},
      {"protocol.ns_per_step.slpos", "ns", "lower",
       "wall_s, rep_steps_per_s on verify-store and table1"},
      {"protocol.ns_per_step.cpos", "ns", "lower",
       "wall_s, rep_steps_per_s on verify-store and table1"},
      {"protocol.ns_per_step.cpos.m10", "ns", "lower",
       "wall_s, rep_steps_per_s on verify-store and table1"},
      {"protocol.ns_per_step.pow.m1000", "ns", "lower",
       "wall_s, rep_steps_per_s on pareto-population"},
      {"protocol.ns_per_step.mlpos.m1000", "ns", "lower",
       "wall_s, rep_steps_per_s on pareto-population"},
      {"protocol.ns_per_step.fslpos.m1000", "ns", "lower",
       "wall_s, rep_steps_per_s on pareto-population"},
      {"chain.ns_per_step.selfish", "ns", "lower", "wall_s on hetero-shard"},
      {"core.population_share", "ratio", "lower",
       "wall_s on pareto-population (about 0 on table1)"},
      {"core.population_ns.m1000", "ns", "lower",
       "wall_s on pareto-population"},
      {"core.reduce_ms", "ms", "lower", "wall_s on verify-store and table1"},
      {"core.worker_busy_frac", "ratio", "higher",
       "wall_s on hetero-shard and table1"},
      {"core.worker_busy_min_frac", "ratio", "higher",
       "wall_s on hetero-shard and table1"},
      {"core.chunks", "count", "lower", "wall_s on hetero-shard and table1"},
      {"core.chunk_ms_p50", "ms", "lower", "wall_s on hetero-shard and table1"},
      {"core.chunk_ms_p90", "ms", "lower", "wall_s on hetero-shard and table1"},
      {"core.parallel_eff", "ratio", "higher", "wall_s on every workload"},
      {"core.shard_overhead_s", "s", "lower", "wall_s on hetero-shard"},
      {"core.shard_grant_ms", "ms", "lower", "wall_s on hetero-shard"},
      {"sim.plan_ms", "ms", "lower", "setup_s on every workload"},
      {"sim.cost_model_err", "ratio", "lower", "wall_s on hetero-shard"},
      {"sim.steal_count", "count", "lower", "wall_s on hetero-shard"},
      {"sim.emit_ms", "ms", "lower", "wall_s on verify-store and table1"},
      {"store.put_ms", "ms", "lower", "wall_s on verify-store"},
      {"store.bytes_written", "B", "lower", "wall_s on verify-store"},
      {"store.load_ms", "ms", "lower", "warm_s on verify-store"},
      {"store.hit_ratio", "ratio", "higher", "warm_s on verify-store"},
      {"verify.plan_ms", "ms", "lower", "setup_s on verify-store"},
      {"verify.judge_ms", "ms", "lower",
       "wall_s and warm_s on verify-store"},
      {"bench.layer_coverage", "ratio", "higher",
       "share of the serial wall the replayed layers explain"},
      {"bench.trace_overhead_frac", "ratio", "lower",
       "traced wall over untraced wall, minus 1"},
  };
  return metrics;
}

// Shortest round-trip rendering; JSON has no NaN or infinity.
std::string Num(double value) {
  return std::isfinite(value) ? fc::sim::FormatDouble(value) : "0";
}

double Ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

// Peak resident memory of this process plus its largest reaped child (the
// shard workers), in MiB.
double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

// The CPUs this process may run on; {-1} (no pinning) when unknown.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

// Pins the calling thread to `cpu` (-1: leaves it alone) and restores its
// mask on destruction.  A warm pass is serial work on the calling thread,
// so it runs at the speed of the CPU the thread sits on.  On a shared host
// the CPUs of one VM can differ by 2x, and a thread tends to stay where it
// is, so the warm passes visit every CPU in turn.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(int cpu) {
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// Per-pass, per-cell failure ledger: a cell fails a pass when its bytes
// differ from the reference, its store hit is missing, or the oracle judge
// rejects it.
class Ledger {
 public:
  explicit Ledger(std::size_t cells) : cells_(cells) {}

  /// Records one pass; `check` names it in the stderr report of failures.
  void AddPass(const char* check, const std::vector<bool>& failed) {
    Report(check, failed);
    passes_.push_back(failed);
  }

  /// Cells the judge rejected fail every pass: passes are byte-identical
  /// or already failed.
  void FailEverywhere(const char* check, const std::vector<bool>& failed) {
    Report(check, failed);
    for (std::vector<bool>& pass : passes_) {
      for (std::size_t c = 0; c < pass.size() && c < failed.size(); ++c) {
        if (failed[c]) pass[c] = true;
      }
    }
  }

  std::size_t attempted() const { return passes_.size() * cells_; }
  std::size_t failed() const {
    std::size_t total = 0;
    for (const std::vector<bool>& pass : passes_) {
      for (const bool f : pass) total += f ? 1 : 0;
    }
    return total;
  }

 private:
  static void Report(const char* check, const std::vector<bool>& failed) {
    std::size_t count = 0;
    for (const bool f : failed) count += f ? 1 : 0;
    if (count != 0) {
      std::fprintf(stderr, "campaign_bench: %s: %zu of %zu cell(s) failed\n",
                   check, count, failed.size());
    }
  }

  std::size_t cells_;
  std::vector<std::vector<bool>> passes_;
};

// Per-cell failures of `pass` against the reference pass: differing bytes,
// or a failed verdict when the pass ran through VerifyCampaign.
std::vector<bool> PassFailures(const PassResult& reference,
                               const PassResult& pass) {
  const std::size_t cells = reference.digests.size();
  std::vector<bool> failed(cells, pass.digests.size() != cells);
  for (std::size_t c = 0; c < cells && c < pass.digests.size(); ++c) {
    if (pass.digests[c] != reference.digests[c]) failed[c] = true;
    if (c < pass.verdict_failed.size() && pass.verdict_failed[c]) {
      failed[c] = true;
    }
  }
  return failed;
}

// Marks cells a warm pass did not serve from the store.
void MarkMisses(const PassResult& warm, std::vector<bool>& failed) {
  std::size_t cell = 0;
  for (const auto& outcomes : warm.outcomes) {
    for (const fc::sim::CellOutcome& outcome : outcomes) {
      if (cell < failed.size() && !outcome.from_cache) failed[cell] = true;
      ++cell;
    }
  }
}

// Judges every outcome with StatisticalJudge against a VerificationPlan of
// the same spec; returns per-cell rejections and adds the plan / judge
// times (ns).
std::vector<bool> JudgeFailures(
    const std::vector<fc::sim::ScenarioSpec>& specs,
    const std::vector<std::vector<fc::sim::CellOutcome>>& outcomes,
    double& plan_ns, double& judge_ns) {
  std::vector<bool> failed;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    Clock::time_point start = Clock::now();
    const fc::verify::VerificationPlan plan(specs[s]);
    plan_ns += Seconds(start, Clock::now()) * 1e9;
    fc::verify::JudgeConfig config;
    config.family_alpha = kJudgeFamilyAlpha;
    config.comparisons = plan.StochasticComparisons();
    const fc::verify::StatisticalJudge judge(config);
    for (std::size_t c = 0; c < plan.cells().size(); ++c) {
      if (s >= outcomes.size() || c >= outcomes[s].size()) {
        failed.push_back(true);
        continue;
      }
      const fc::verify::PlannedCell& planned = plan.cells()[c];
      start = Clock::now();
      const fc::verify::CellVerdict verdict = judge.Judge(
          planned.cell, planned.prediction, outcomes[s][c].result);
      judge_ns += Seconds(start, Clock::now()) * 1e9;
      failed.push_back(!verdict.passed);
    }
  }
  return failed;
}

// The traced run's result: a table, then the JSON line.
void PrintResult(const Ledger& ledger, const MetricMap& values) {
  const std::vector<MetricDef>& defs = LayerMetrics();
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    std::printf("%-34s %14s %s\n", def.name,
                Num(it == values.end() ? 0.0 : it->second).c_str(), def.unit);
  }
  std::printf("%-34s %14s ratio (%zu of %zu cells failed)\n", "fail_frac",
              Num(Ratio(static_cast<double>(ledger.failed()),
                        static_cast<double>(ledger.attempted())))
                  .c_str(),
              ledger.failed(), ledger.attempted());
  std::string json = "{\"correct\": ";
  json += ledger.failed() == 0 && ledger.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    json += i == 0 ? "" : ", ";
    json.append("\"").append(defs[i].name).append("\": {\"value\": ");
    json.append(Num(it == values.end() ? 0.0 : it->second));
    json.append(", \"unit\": \"").append(defs[i].unit).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// One SHA-256 over a pass's per-cell digests: equal across processes that
// ran the same workload and seed.
std::string OutputDigest(const PassResult& pass) {
  fc::crypto::Sha256 hash;
  for (const fc::crypto::Digest& digest : pass.digests) {
    hash.Update(digest.data(), digest.size());
  }
  return fc::crypto::DigestToHex(hash.Finalize());
}

// The untraced run's last stdout line: the ledger, the output digest and
// every sample of every end-to-end metric, for run.py to pool across the
// processes of one benchmark run.
void PrintSamples(
    const Ledger& ledger, const std::string& digest,
    const std::vector<std::pair<std::string, std::vector<double>>>& samples) {
  std::string json = "{\"correct\": ";
  json += ledger.failed() == 0 && ledger.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"digest\": \"" + digest + "\", \"samples\": {";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    json.append(i == 0 ? "\"" : ", \"").append(samples[i].first);
    json += "\": [";
    for (std::size_t k = 0; k < samples[i].second.size(); ++k) {
      json.append(k == 0 ? "" : ", ").append(Num(samples[i].second[k]));
    }
    json += "]";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool WriteLayersFile(const fs::path& path, const Args& args,
                     const WorkloadDef& def, const Ledger& ledger,
                     const MetricMap& values, std::size_t spans) {
  std::ofstream out(path, std::ios::trunc);
  auto str = [](const std::string& text) {
    std::string quoted = "\"";
    quoted.append(fc::EscapeJsonString(text)).append("\"");
    return quoted;
  };
  out << "{\n  \"workload\": " << str(def.name) << ",\n  \"seed\": "
      << args.seed << ",\n  \"seconds\": " << Num(args.seconds)
      << ",\n  \"context\": {\n    \"commit\": " << str(args.commit)
      << ",\n    \"source_digest\": " << str(args.source_digest)
      << ",\n    \"fairchain_version\": " << str(fc::kVersionString)
      << ",\n    \"compiler\": " << str(CAMPAIGNBENCH_COMPILER)
      << ",\n    \"build_type\": " << str(CAMPAIGNBENCH_BUILD_TYPE)
      << ",\n    \"lane_simd_isa\": " << str(LaneSimdIsa())
      << ",\n    \"num_cpus\": " << std::thread::hardware_concurrency()
      << ",\n    \"workers\": " << kWorkers
      << ",\n    \"backend\": " << str(def.backend)
      << ",\n    \"timestamp_utc\": " << str(UtcNow()) << "\n  },\n"
      << "  \"correct\": " << (ledger.failed() == 0 ? "true" : "false")
      << ",\n  \"attempted\": " << ledger.attempted()
      << ",\n  \"failed\": " << ledger.failed()
      << ",\n  \"trace_file\": \"trace.json\",\n  \"trace_spans\": " << spans
      << ",\n  \"metrics\": {\n";
  const std::vector<MetricDef>& defs = LayerMetrics();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    out << "    " << str(defs[i].name) << ": {\"value\": "
        << Num(it == values.end() ? 0.0 : it->second)
        << ", \"unit\": " << str(defs[i].unit)
        << ", \"better\": " << str(defs[i].better)
        << ", \"moves\": " << str(defs[i].moves) << "}"
        << (i + 1 < defs.size() ? ",\n" : "\n");
  }
  out << "  }\n}\n";
  return static_cast<bool>(out);
}

// The untraced run: end-to-end metrics.
int RunEndToEnd(const Args& args, const WorkloadDef& def,
                const fs::path& run_dir) {
  const bool verify = def.verify_store;
  const std::string store_dir = (run_dir / "store").string();

  // Warm-up: one discarded cold pass (the reference bytes; in campaign
  // mode it also fills the store the warm passes read) and one warm pass.
  Setup warmup = MakeSetup(def, args.seed, def.backend, store_dir);
  const PassResult reference =
      RunPass(warmup, verify, *warmup.backend, warmup.store.get());
  RunPass(warmup, verify, *warmup.backend, warmup.store.get());
  // What one cold + warm run of the workload needs, before the timed
  // passes add allocator history of their own.
  const double peak_rss_mb = PeakRssMb();
  const std::vector<fc::sim::ScenarioSpec> specs = warmup.specs;
  const double rep_steps = RepSteps(specs);
  Ledger ledger(reference.digests.size());

  std::vector<double> setup_samples;
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> warm_walls;  // one per round, averaged over the CPUs
  const std::vector<int> cpus = AllowedCpus();
  std::vector<std::vector<fc::sim::CellOutcome>> last_outcomes;
  // A pass starts only if one more like the last still ends within
  // --seconds, so a run takes about as long whatever its pass length.
  const Clock::time_point loop_start = Clock::now();
  double last_pass_s = 0.0;
  while (walls.size() < kMinPasses ||
         (walls.size() < kMaxPasses &&
          Seconds(loop_start, Clock::now()) + last_pass_s <= args.seconds)) {
    const Clock::time_point pass_start = Clock::now();
    // Set-up right after other work, with the caches a fresh process would
    // find; one sample per timed pass.
    if (verify) fs::remove_all(store_dir);
    Setup setup = MakeSetup(def, args.seed, def.backend, store_dir);
    setup_samples.push_back(setup.seconds);
    PassResult cold = RunPass(setup, verify, *setup.backend,
                              verify ? setup.store.get() : nullptr);
    walls.push_back(cold.seconds);
    rates.push_back(Ratio(rep_steps, cold.seconds));
    ledger.AddPass("cold pass bytes", PassFailures(reference, cold));
    double warm_total = 0.0;
    for (int round = 0; round == 0 || (round < kMaxWarmRounds &&
                                       warm_total < kWarmShare * cold.seconds);
         ++round) {
      double round_seconds = 0.0;
      for (const int cpu : cpus) {
        PassResult warm;
        std::uint64_t hits = 0;
        {
          const PinnedToCpu pin(cpu);
          const std::uint64_t hits_before = setup.store->stats().hits;
          warm = RunPass(setup, verify, *setup.backend, setup.store.get());
          hits = setup.store->stats().hits - hits_before;
        }
        round_seconds += warm.seconds;
        std::vector<bool> failed = PassFailures(reference, warm);
        if (verify) {
          if (hits != failed.size()) failed.assign(failed.size(), true);
        } else {
          MarkMisses(warm, failed);
        }
        ledger.AddPass("warm pass bytes and store hits", failed);
      }
      warm_walls.push_back(round_seconds / static_cast<double>(cpus.size()));
      warm_total += round_seconds;
    }
    if (!verify) last_outcomes = std::move(cold.outcomes);
    last_pass_s = Seconds(pass_start, Clock::now());
  }
  if (!verify) {
    // Campaign passes are gated by the judge here; VerifyCampaign passes
    // carry their own verdicts.
    double plan_ns = 0.0, judge_ns = 0.0;
    ledger.FailEverywhere(
        "oracle judge", JudgeFailures(specs, last_outcomes, plan_ns, judge_ns));
  }

  std::fprintf(stderr, "campaign_bench: cold pass walls (s):");
  for (const double wall : walls) std::fprintf(stderr, " %.4f", wall);
  std::fprintf(stderr, "\n");
  std::printf("workload %s seed %llu: %zu timed passes of %zu planned "
              "chunks, each after its own set-up; %zu warm rounds on %zu CPUs\n",
              def.name.c_str(), static_cast<unsigned long long>(args.seed),
              walls.size(), warmup.planned_chunks, warm_walls.size(),
              cpus.size());
  fs::remove_all(run_dir);
  PrintSamples(ledger, OutputDigest(reference),
               {{"setup_s", setup_samples},
                {"wall_s", walls},
                {"rep_steps_per_s", rates},
                {"warm_s", warm_walls},
                {"peak_rss_mb", {peak_rss_mb}}});
  return 0;
}

// The traced run's measurements: fills `values` with the per-layer
// metrics, records spans, and returns the run's failure ledger.
Ledger TraceLayers(const Args& args, const WorkloadDef& def,
                   const fs::path& run_dir, SpanRecorder& spans,
                   MetricMap& values) {
  const bool verify = def.verify_store;
  const bool shard_native = def.backend.rfind("shard", 0) == 0;
  const std::string store_dir = (run_dir / "store").string();

  Setup warmup = MakeSetup(def, args.seed, def.backend, store_dir);
  const PassResult reference =
      RunPass(warmup, verify, *warmup.backend, warmup.store.get());
  RunPass(warmup, verify, *warmup.backend, warmup.store.get());
  const std::vector<fc::sim::ScenarioSpec> specs = warmup.specs;
  const std::size_t cells = reference.digests.size();
  Ledger ledger(cells);

  ScopedSpan root(&spans, "bench.traced_run");
  std::vector<double> walls_untraced;
  std::vector<double> walls_traced;
  TimingBackend::Stats timing;
  RegistryDelta delta;
  double emit_ns = 0.0;
  double plan_ns = 0.0;
  double hit_ratio = 0.0;
  std::vector<double> modeled_ns;
  std::vector<std::vector<fc::sim::CellOutcome>> outcomes;
  const Clock::time_point loop_start = Clock::now();
  while (walls_traced.size() < 2 ||
         (walls_traced.size() < kMaxPasses &&
          Seconds(loop_start, Clock::now()) < args.seconds)) {
    {
      if (verify) fs::remove_all(store_dir);
      Setup setup = MakeSetup(def, args.seed, def.backend, store_dir);
      const PassResult untraced = RunPass(
          setup, verify, *setup.backend, verify ? setup.store.get() : nullptr);
      walls_untraced.push_back(untraced.seconds);
      ledger.AddPass("untraced pass bytes",
                     PassFailures(reference, untraced));
    }
    if (verify) fs::remove_all(store_dir);
    Setup setup = MakeSetup(def, args.seed, def.backend, store_dir);
    ScopedSpan pass_span(&spans, "bench.traced_pass", root.id());
    {
      // sim.plan_ms, and the planner's modeled cost per cell.
      ScopedSpan plan_span(&spans, "sim.PlanJobs", pass_span.id());
      fc::sim::CampaignOptions options;
      options.backend = setup.backend.get();
      const fc::sim::CampaignRunner runner(options);
      modeled_ns.assign(cells, 0.0);
      std::size_t offset = 0;
      const Clock::time_point start = Clock::now();
      for (const fc::sim::ScenarioSpec& spec : setup.specs) {
        for (const fc::sim::ChunkJob& job : runner.PlanJobs(spec)) {
          if (offset + job.cell < cells) {
            modeled_ns[offset + job.cell] += job.cost_ns;
          }
        }
        offset += spec.CellCount();
      }
      plan_ns = Seconds(start, Clock::now()) * 1e9;
    }
    const TimingBackend timed_backend(*setup.backend, &spans, pass_span.id());
    delta.before = RegistrySnapshot::Take();
    PassResult traced =
        RunPass(setup, verify, timed_backend,
                verify ? setup.store.get() : nullptr,
                PassTracing{&spans, pass_span.id(), true});
    delta.after = RegistrySnapshot::Take();
    walls_traced.push_back(traced.seconds);
    ledger.AddPass("traced pass bytes", PassFailures(reference, traced));
    timing = timed_backend.stats();
    emit_ns = traced.emit_ns;

    // Warm pass through the campaign layer: the store (filled by the
    // warm-up in campaign mode, by the traced pass in verify mode) must
    // serve every cell.
    PassResult warm = RunPass(setup, false, *setup.backend, setup.store.get());
    std::vector<bool> failed = PassFailures(reference, warm);
    MarkMisses(warm, failed);
    ledger.AddPass("warm pass bytes and store hits", failed);
    hit_ratio = Ratio(static_cast<double>(warm.cells_from_cache),
                      static_cast<double>(cells));
    outcomes = verify ? std::move(warm.outcomes) : std::move(traced.outcomes);
  }
  const double untraced_wall = Median(walls_untraced);
  const double traced_wall = Median(walls_traced);

  // The same specs on the other multi-worker backend and on serial: the
  // bytes must match the reference (serial = pool:4 = shard:4).
  const std::string other_name = shard_native ? "pool" : "shard:4";
  if (verify) fs::remove_all(store_dir);
  Setup other = MakeSetup(def, args.seed, other_name, store_dir);
  RegistryDelta other_delta;
  other_delta.before = RegistrySnapshot::Take();
  PassResult other_pass;
  {
    ScopedSpan span(&spans, "bench.pass." + other_name, root.id());
    other_pass = RunPass(other, verify, *other.backend,
                         verify ? other.store.get() : nullptr);
  }
  other_delta.after = RegistrySnapshot::Take();
  ledger.AddPass("other backend bytes", PassFailures(reference, other_pass));
  if (verify) fs::remove_all(store_dir);
  Setup serial = MakeSetup(def, args.seed, "serial", store_dir);
  PassResult serial_pass;
  {
    ScopedSpan span(&spans, "bench.pass.serial", root.id());
    serial_pass = RunPass(serial, verify, *serial.backend,
                          verify ? serial.store.get() : nullptr);
  }
  ledger.AddPass("serial backend bytes",
                 PassFailures(reference, serial_pass));

  // core: backends and workers.
  const RegistryDelta& shard_delta = shard_native ? delta : other_delta;
  const double pool_wall = shard_native ? other_pass.seconds : untraced_wall;
  const double shard_wall = shard_native ? untraced_wall : other_pass.seconds;
  values["core.shard_overhead_s"] = shard_wall - pool_wall;
  const std::string grant = "campaign.grant_ns";
  values["core.shard_grant_ms"] =
      Ratio(static_cast<double>(shard_delta.HistogramTotalNs(grant)),
            static_cast<double>(shard_delta.HistogramCount(grant))) /
      1e6;
  values["core.parallel_eff"] =
      Ratio(serial_pass.seconds, kWorkers * untraced_wall);
  if (shard_native) {
    double busy = 0.0;
    double least = -1.0;
    for (unsigned s = 0; s < kWorkers; ++s) {
      const double ns = static_cast<double>(
          delta.Counter("campaign.shard_busy_ns." + std::to_string(s)));
      busy += ns;
      least = least < 0.0 ? ns : std::min(least, ns);
    }
    const double wall_ns = walls_traced.back() * 1e9;
    values["core.worker_busy_frac"] = Ratio(busy, kWorkers * wall_ns);
    values["core.worker_busy_min_frac"] = Ratio(least, wall_ns);
    values["core.chunks"] =
        static_cast<double>(delta.Counter("campaign.chunks_done"));
    const auto buckets = delta.Buckets(
        {"campaign.chunk_ns.incentive", "campaign.chunk_ns.chain"});
    values["core.chunk_ms_p50"] = BucketQuantileNs(buckets, 0.5) / 1e6;
    values["core.chunk_ms_p90"] = BucketQuantileNs(buckets, 0.9) / 1e6;
  } else {
    values["core.worker_busy_frac"] =
        Ratio(timing.busy_ns, kWorkers * timing.execute_ns);
    values["core.worker_busy_min_frac"] =
        Ratio(timing.min_worker_busy_ns, timing.execute_ns);
    values["core.chunks"] = static_cast<double>(timing.job_ns.size());
    values["core.chunk_ms_p50"] = Quantile(timing.job_ns, 0.5) / 1e6;
    values["core.chunk_ms_p90"] = Quantile(timing.job_ns, 0.9) / 1e6;
  }

  // sim: planning, stealing, emission.
  values["sim.plan_ms"] = plan_ns / 1e6;
  values["sim.steal_count"] =
      static_cast<double>(delta.Counter("campaign.steal_count"));
  values["sim.emit_ms"] = emit_ns / 1e6;

  // protocol / chain / core: serial replay of every cell.
  std::vector<double> cell_ns;
  double layer_ns = 0.0;
  ledger.AddPass("layer replay vs campaign result",
                 ReplayLayers(specs, outcomes, &spans, root.id(), values,
                              cell_ns, layer_ns));
  std::vector<double> errors;
  for (std::size_t c = 0; c < cell_ns.size() && c < modeled_ns.size(); ++c) {
    if (cell_ns[c] > 0.0) {
      errors.push_back(std::fabs(modeled_ns[c] - cell_ns[c]) / cell_ns[c]);
    }
  }
  values["sim.cost_model_err"] = Median(errors);

  // store: puts and loads of every cell, hit ratio of the warm pass.
  ledger.AddPass("store put/load", ReplayStore(specs, outcomes,
                             (run_dir / "replay-store").string(), &spans,
                             root.id(), values));
  values["store.hit_ratio"] = hit_ratio;

  // verify: plan construction and the judge over every cell.
  double verify_plan_ns = 0.0;
  double judge_ns = 0.0;
  {
    ScopedSpan span(&spans, "verify.Judge", root.id());
    ledger.FailEverywhere(
        "oracle judge",
        JudgeFailures(specs, outcomes, verify_plan_ns, judge_ns));
  }
  values["verify.plan_ms"] = verify_plan_ns / 1e6;
  values["verify.judge_ms"] = judge_ns / 1e6;

  // bench: how much of the serial wall the replayed layers explain (the
  // serial verify pass also puts every cell and judges it), and what the
  // decorators cost.
  const double explained =
      layer_ns + emit_ns +
      (verify ? values["store.put_ms"] * 1e6 + judge_ns : 0.0);
  values["bench.layer_coverage"] =
      Ratio(explained, serial_pass.seconds * 1e9);
  values["bench.trace_overhead_frac"] =
      Ratio(traced_wall, untraced_wall) - 1.0;

  fs::remove_all(store_dir);
  std::printf("workload %s seed %llu (traced): %zu untraced + %zu traced "
              "passes, serial %.4f s, %s %.4f s\n",
              def.name.c_str(), static_cast<unsigned long long>(args.seed),
              walls_untraced.size(), walls_traced.size(), serial_pass.seconds,
              other_name.c_str(), other_pass.seconds);
  return ledger;
}

// The traced run: per-layer metrics, layers.json and trace.json.
int RunTraced(const Args& args, const WorkloadDef& def,
              const fs::path& run_dir) {
  SpanRecorder spans;
  MetricMap values;
  const Ledger ledger = TraceLayers(args, def, run_dir, spans, values);
  const fs::path layers_path = run_dir / "layers.json";
  const fs::path trace_path = run_dir / "trace.json";
  if (!spans.WriteChromeTrace(trace_path.string()) ||
      !WriteLayersFile(layers_path, args, def, ledger, values, spans.size())) {
    std::fprintf(stderr, "campaign_bench: cannot write %s\n",
                 run_dir.string().c_str());
    return 1;
  }
  std::printf("wrote %s and %s\n", layers_path.string().c_str(),
              trace_path.string().c_str());
  PrintResult(ledger, values);
  return 0;
}

}  // namespace
}  // namespace campaignbench

int main(int argc, char** argv) {
  using namespace campaignbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR [--commit SHA] "
                 "[--source-digest HEX]\n");
    return 2;
  }
  const WorkloadDef* def = FindWorkload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "campaign_bench: unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const WorkloadDef& known : Workloads()) {
      std::fprintf(stderr, " %s", known.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    const std::filesystem::path run_dir =
        std::filesystem::path(args.out) /
        (def->name + "-seed" + std::to_string(args.seed) +
         (args.trace ? "-traced" : ""));
    std::filesystem::remove_all(run_dir);
    std::filesystem::create_directories(run_dir);
    return args.trace ? RunTraced(args, *def, run_dir)
                      : RunEndToEnd(args, *def, run_dir);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "campaign_bench: %s\n", error.what());
    return 1;
  }
}
