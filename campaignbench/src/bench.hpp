// Outside-in campaign benchmark: shared declarations.
//
// The benchmark drives the fairchain libraries only through their public
// entry points (sim::CampaignRunner::Run, verify::VerifyCampaign,
// store::CampaignStore, and the layer functions the traced run replays).
// Everything it measures it measures from outside: the timing decorators
// below wrap the program's own ExecutionBackend and ResultSink interfaces,
// and shard-side numbers are read from the program's existing
// obs::MetricsRegistry.  The benchmark registers no counters of its own.

#ifndef CAMPAIGNBENCH_BENCH_HPP_
#define CAMPAIGNBENCH_BENCH_HPP_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/execution_backend.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "sim/campaign.hpp"
#include "sim/result_sink.hpp"
#include "sim/scenario_spec.hpp"
#include "store/campaign_store.hpp"
#include "verify/verification_plan.hpp"

namespace campaignbench {

namespace fc = fairchain;

using Clock = std::chrono::steady_clock;

/// Seconds between two instants.
double Seconds(Clock::time_point start, Clock::time_point end);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Nearest-rank quantile of `values`, q in [0, 1] (0 when empty).
double Quantile(std::vector<double> values, double q);

// ---------------------------------------------------------------------------
// Spans: the benchmark's own trace, kept in memory, written at the end.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;     ///< small per-thread number, 0 = first seen
  double start_us = 0.0;     ///< since the recorder's origin
  double duration_us = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  std::uint64_t NextId() { return next_id_.fetch_add(1); }
  void Add(std::string name, std::uint64_t id, std::uint64_t parent,
           Clock::time_point start, Clock::time_point end);
  /// Chrome trace-event JSON ("X" complete events, parent id in args).
  bool WriteChromeTrace(const std::string& path) const;
  std::size_t size() const;

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, std::uint32_t> tids_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name,
             std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Timing decorators around the program's own interfaces.
// ---------------------------------------------------------------------------

/// Wraps an in-process backend: times every job on the worker that runs it
/// (per-worker busy time, per-job latency) and each Execute call's wall.
/// Process-sharded backends pass through untouched (the runner never calls
/// Execute on them); their numbers come from the metrics registry.
class TimingBackend final : public fc::core::ExecutionBackend {
 public:
  TimingBackend(const fc::core::ExecutionBackend& inner, SpanRecorder* spans,
                std::uint64_t parent_span);

  std::string name() const override { return inner_.name(); }
  unsigned Concurrency() const override { return inner_.Concurrency(); }
  unsigned ProcessShards() const override { return inner_.ProcessShards(); }
  void Execute(std::vector<std::function<void()>> jobs) const override;

  struct Stats {
    std::vector<double> job_ns;
    double busy_ns = 0.0;             ///< summed over workers and calls
    double min_worker_busy_ns = 0.0;  ///< least busy worker, summed over calls
    double execute_ns = 0.0;          ///< summed Execute wall
  };
  Stats stats() const;

 private:
  const fc::core::ExecutionBackend& inner_;
  SpanRecorder* spans_;
  std::uint64_t parent_;
  mutable std::mutex mutex_;
  mutable Stats stats_;
};

/// Captures the campaign's CSV and JSONL bytes (the program's own CsvSink
/// and JsonlSink, writing to memory) split per cell, for byte-identity
/// checks across repetitions, backends and cold/warm passes.
class CaptureSink final : public fc::sim::ResultSink {
 public:
  CaptureSink() = default;
  void BeginCampaign(const fc::sim::ScenarioSpec& spec) override;
  void WriteRow(const fc::sim::CampaignRow& row) override;
  void EndCampaign() override;

  /// SHA-256 of each cell's CSV + JSONL rows, in cell order; the CSV header
  /// is folded into every cell's digest.
  std::vector<fc::crypto::Digest> CellDigests() const;

 private:
  std::ostringstream buffer_;
  fc::sim::CsvSink csv_{buffer_};
  fc::sim::JsonlSink jsonl_{buffer_};
  std::string header_;
  std::vector<std::string> cells_;
};

/// Times the wrapped sink's WriteRow calls (the emit layer).
class TimingSink final : public fc::sim::ResultSink {
 public:
  TimingSink(fc::sim::ResultSink& inner, SpanRecorder* spans,
             std::uint64_t parent_span)
      : inner_(inner), spans_(spans), parent_(parent_span) {}
  void BeginCampaign(const fc::sim::ScenarioSpec& spec) override {
    inner_.BeginCampaign(spec);
  }
  void WriteRow(const fc::sim::CampaignRow& row) override;
  void EndCampaign() override { inner_.EndCampaign(); }

  double write_ns() const { return write_ns_; }

 private:
  fc::sim::ResultSink& inner_;
  SpanRecorder* spans_;
  std::uint64_t parent_;
  double write_ns_ = 0.0;  // WriteRow calls are serialised by the runner
};

/// Point-in-time copy of the program's metrics registry.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, fc::obs::HistogramSnapshot> histograms;

  static RegistrySnapshot Take();
};

/// What a pass changed in the registry.
struct RegistryDelta {
  RegistrySnapshot before;
  RegistrySnapshot after;

  std::uint64_t Counter(const std::string& name) const;
  /// Summed bucket deltas of the named histograms.
  std::array<std::uint64_t, fc::obs::LatencyHistogram::kBuckets> Buckets(
      const std::vector<std::string>& names) const;
  std::uint64_t HistogramCount(const std::string& name) const;
  std::uint64_t HistogramTotalNs(const std::string& name) const;
};

/// Quantile of log2-bucketed nanosecond counts, interpolated the way
/// obs::LatencyHistogram::QuantileNanos does (0 when empty).
double BucketQuantileNs(
    const std::array<std::uint64_t, fc::obs::LatencyHistogram::kBuckets>&
        buckets,
    double q);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// One named workload: registry scenarios with pinned overrides, the
/// backend it runs on, and whether it runs through verify::VerifyCampaign
/// into a store (the verify-store workload) or through CampaignRunner::Run.
struct WorkloadDef {
  std::string name;
  std::vector<std::string> scenarios;  ///< empty = every registry scenario
  std::string backend;                 ///< "pool" or "shard:4"
  std::uint64_t replications = 0;      ///< pinned --reps override
  std::uint64_t steps = 0;             ///< pinned --steps override (0 = keep)
  bool verify_store = false;
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

constexpr unsigned kWorkers = 4;

/// Family-wise false-alarm budget of the oracle judge per campaign.
/// Comparing two commits judges about 2000 campaigns (a few dozen runs per
/// workload, 19 campaigns per verify-store run); at the CLI default of
/// 1e-3 a few would false-alarm on correct code, at 1e-6 the budget holds
/// across all of them.  Real defects give p-values far below either.
constexpr double kJudgeFamilyAlpha = 1e-6;

/// Everything resolved before the first call into Run / VerifyCampaign.
struct Setup {
  std::vector<fc::sim::ScenarioSpec> specs;
  std::unique_ptr<fc::core::ExecutionBackend> backend;
  std::unique_ptr<fc::store::CampaignStore> store;
  std::size_t planned_chunks = 0;  ///< PlanJobs size summed over the specs
  std::vector<fc::verify::VerificationPlan> verification;  ///< verify-store
  double seconds = 0.0;
};

/// Resolves `def` at `seed`: registry lookup + overrides + Validate,
/// MakeBackend (`backend_name`, kWorkers), opening the store at
/// `store_dir` (empty = none), PlanJobs, and, for verify-store, the
/// VerificationPlans.  Timed into Setup::seconds.
Setup MakeSetup(const WorkloadDef& def, std::uint64_t seed,
                const std::string& backend_name, const std::string& store_dir);

/// The resolved specs of `def` at `seed` (no timing, no backend).
std::vector<fc::sim::ScenarioSpec> ResolveSpecs(const WorkloadDef& def,
                                                std::uint64_t seed);

/// Simulated replication-steps of one pass over `specs`.
double RepSteps(const std::vector<fc::sim::ScenarioSpec>& specs);

/// The outcome of one pass over a workload's specs.
struct PassResult {
  double seconds = 0.0;  ///< wall of the Run / VerifyCampaign calls
  std::vector<fc::crypto::Digest> digests;  ///< per cell, all specs in order
  std::vector<std::vector<fc::sim::CellOutcome>> outcomes;  ///< campaign mode
  std::vector<bool> verdict_failed;  ///< per cell; VerifyCampaign passes only
  std::size_t cells_from_cache = 0;  ///< campaign mode
  double emit_ns = 0.0;              ///< traced passes only
};

/// Optional instrumentation of a pass.
struct PassTracing {
  SpanRecorder* spans = nullptr;
  std::uint64_t parent_span = 0;
  bool time_sinks = false;
};

/// Runs every spec of `setup` once on `backend` with `store` attached (null
/// = none): through verify::VerifyCampaign when `via_verify` (which needs
/// the setup's VerificationPlans), else through CampaignRunner::Run.
PassResult RunPass(const Setup& setup, bool via_verify,
                   const fc::core::ExecutionBackend& backend,
                   fc::store::CampaignStore* store,
                   const PassTracing& tracing = {});

// ---------------------------------------------------------------------------
// The traced run's layer replays.
// ---------------------------------------------------------------------------

using MetricMap = std::map<std::string, double>;

/// Serially replays every cell of `specs` through the layer functions
/// (core::RunReplicationRange / chain::RunChainReplicationRange,
/// core::ReduceToResult, core::MeasurePopulation), checks each replayed
/// result against `outcomes` bit for bit, and fills the protocol / chain /
/// core-population / reduce metrics plus the per-cell replay times
/// `cell_ns` (cells in spec order).  Returns, per cell, whether its replay
/// disagreed with the campaign's result.
std::vector<bool> ReplayLayers(
    const std::vector<fc::sim::ScenarioSpec>& specs,
    const std::vector<std::vector<fc::sim::CellOutcome>>& outcomes,
    SpanRecorder* spans, std::uint64_t parent, MetricMap& metrics,
    std::vector<double>& cell_ns, double& layer_ns);

/// Puts and loads every outcome through a fresh store at `dir`, timing
/// CampaignStore::Put / Load.  Returns, per cell, whether it failed to put
/// or to load back as a verified hit equal to what was put.
std::vector<bool> ReplayStore(
    const std::vector<fc::sim::ScenarioSpec>& specs,
    const std::vector<std::vector<fc::sim::CellOutcome>>& outcomes,
    const std::string& dir, SpanRecorder* spans, std::uint64_t parent,
    MetricMap& metrics);

/// True when two results agree bit for bit on every checkpoint statistic
/// and every final λ.
bool SameResult(const fc::core::SimulationResult& a,
                const fc::core::SimulationResult& b);

}  // namespace campaignbench

#endif  // CAMPAIGNBENCH_BENCH_HPP_
