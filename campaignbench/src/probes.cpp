// Spans, timing decorators and registry snapshots (see bench.hpp).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace campaignbench {

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

void SpanRecorder::Add(std::string name, std::uint64_t id,
                       std::uint64_t parent, Clock::time_point start,
                       Clock::time_point end) {
  SpanRecord record;
  record.name = std::move(name);
  record.id = id;
  record.parent = parent;
  record.start_us =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  record.duration_us =
      std::chrono::duration<double, std::micro>(end - start).count();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = tids_.emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size()));
  record.tid = it->second;
  spans_.push_back(std::move(record));
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buffer[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out << "{\"name\":\"" << span.name << "\",\"cat\":\"bench\",\"ph\":\"X\"";
    std::snprintf(buffer, sizeof(buffer),
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                  span.start_us, span.duration_us, span.tid);
    out << buffer << ",\"args\":{\"id\":" << span.id
        << ",\"parent\":" << span.parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name,
                       std::uint64_t parent)
    : recorder_(recorder), name_(std::move(name)), parent_(parent) {
  if (recorder_ != nullptr) {
    id_ = recorder_->NextId();
    start_ = Clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) {
    recorder_->Add(std::move(name_), id_, parent_, start_, Clock::now());
  }
}

// ---------------------------------------------------------------------------
// TimingBackend
// ---------------------------------------------------------------------------

TimingBackend::TimingBackend(const fc::core::ExecutionBackend& inner,
                             SpanRecorder* spans, std::uint64_t parent_span)
    : inner_(inner), spans_(spans), parent_(parent_span) {}

void TimingBackend::Execute(std::vector<std::function<void()>> jobs) const {
  // Busy time per worker thread of THIS call (the pool spawns fresh
  // workers per Execute).
  auto busy = std::make_shared<std::map<std::thread::id, double>>();
  auto job_ns = std::make_shared<std::vector<double>>();
  auto local_mutex = std::make_shared<std::mutex>();
  ScopedSpan execute_span(spans_, "core.Execute", parent_);
  const std::uint64_t execute_id = execute_span.id();
  std::vector<std::function<void()>> wrapped;
  wrapped.reserve(jobs.size());
  for (auto& job : jobs) {
    wrapped.push_back([job = std::move(job), busy, job_ns, local_mutex,
                       spans = spans_, execute_id] {
      const Clock::time_point start = Clock::now();
      job();
      const Clock::time_point end = Clock::now();
      if (spans != nullptr) {
        spans->Add("core.job", spans->NextId(), execute_id, start, end);
      }
      const double ns =
          std::chrono::duration<double, std::nano>(end - start).count();
      std::lock_guard<std::mutex> lock(*local_mutex);
      (*busy)[std::this_thread::get_id()] += ns;
      job_ns->push_back(ns);
    });
  }
  const Clock::time_point start = Clock::now();
  inner_.Execute(std::move(wrapped));
  const double wall_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();

  double total = 0.0;
  double least = busy->size() < inner_.Concurrency() ? 0.0 : wall_ns;
  for (const auto& [thread, ns] : *busy) {
    total += ns;
    least = std::min(least, ns);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.job_ns.insert(stats_.job_ns.end(), job_ns->begin(), job_ns->end());
  stats_.busy_ns += total;
  stats_.min_worker_busy_ns += least;
  stats_.execute_ns += wall_ns;
}

TimingBackend::Stats TimingBackend::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

void CaptureSink::BeginCampaign(const fc::sim::ScenarioSpec& spec) {
  csv_.BeginCampaign(spec);
  jsonl_.BeginCampaign(spec);
  header_ = buffer_.str();
  buffer_.str("");
  cells_.clear();
}

void CaptureSink::WriteRow(const fc::sim::CampaignRow& row) {
  csv_.WriteRow(row);
  jsonl_.WriteRow(row);
  if (row.cell >= cells_.size()) cells_.resize(row.cell + 1);
  cells_[row.cell] += buffer_.str();
  buffer_.str("");
}

void CaptureSink::EndCampaign() {
  csv_.EndCampaign();
  jsonl_.EndCampaign();
}

std::vector<fc::crypto::Digest> CaptureSink::CellDigests() const {
  std::vector<fc::crypto::Digest> digests;
  digests.reserve(cells_.size());
  for (const std::string& text : cells_) {
    fc::crypto::Sha256 hash;
    hash.Update(header_);
    hash.Update(text);
    digests.push_back(hash.Finalize());
  }
  return digests;
}

void TimingSink::WriteRow(const fc::sim::CampaignRow& row) {
  const Clock::time_point start = Clock::now();
  inner_.WriteRow(row);
  const Clock::time_point end = Clock::now();
  write_ns_ += std::chrono::duration<double, std::nano>(end - start).count();
  if (spans_ != nullptr) {
    spans_->Add("sim.WriteRow", spans_->NextId(), parent_, start, end);
  }
}

// ---------------------------------------------------------------------------
// Registry snapshots
// ---------------------------------------------------------------------------

RegistrySnapshot RegistrySnapshot::Take() {
  RegistrySnapshot snapshot;
  const auto& registry = fc::obs::MetricsRegistry::Global();
  for (auto& counter : registry.Counters()) {
    snapshot.counters[counter.name] = counter.value;
  }
  for (auto& histogram : registry.Histograms()) {
    snapshot.histograms[histogram.name] = histogram;
  }
  return snapshot;
}

namespace {

template <typename Map, typename Value>
Value Lookup(const Map& map, const std::string& name, Value fallback) {
  const auto it = map.find(name);
  return it == map.end() ? fallback : it->second;
}

}  // namespace

std::uint64_t RegistryDelta::Counter(const std::string& name) const {
  return Lookup(after.counters, name, std::uint64_t{0}) -
         Lookup(before.counters, name, std::uint64_t{0});
}

std::array<std::uint64_t, fc::obs::LatencyHistogram::kBuckets>
RegistryDelta::Buckets(const std::vector<std::string>& names) const {
  std::array<std::uint64_t, fc::obs::LatencyHistogram::kBuckets> out{};
  for (const std::string& name : names) {
    const auto late = after.histograms.find(name);
    if (late == after.histograms.end()) continue;
    const auto early = before.histograms.find(name);
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] += late->second.buckets[b] -
                (early == before.histograms.end() ? 0
                                                  : early->second.buckets[b]);
    }
  }
  return out;
}

std::uint64_t RegistryDelta::HistogramCount(const std::string& name) const {
  const auto late = after.histograms.find(name);
  if (late == after.histograms.end()) return 0;
  const auto early = before.histograms.find(name);
  return late->second.count -
         (early == before.histograms.end() ? 0 : early->second.count);
}

std::uint64_t RegistryDelta::HistogramTotalNs(const std::string& name) const {
  const auto late = after.histograms.find(name);
  if (late == after.histograms.end()) return 0;
  const auto early = before.histograms.find(name);
  return late->second.total_ns -
         (early == before.histograms.end() ? 0 : early->second.total_ns);
}

double BucketQuantileNs(
    const std::array<std::uint64_t, fc::obs::LatencyHistogram::kBuckets>&
        buckets,
    double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t count : buckets) total += count;
  if (total == 0) return 0.0;
  const std::uint64_t rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5), 1,
      total);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] >= rank) {
      const double low = b == 0 ? 0.0 : static_cast<double>(1ULL << b);
      const double width = b == 0 ? 2.0 : low;
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(buckets[b]);
      return low + width * std::clamp(within, 0.0, 1.0);
    }
    seen += buckets[b];
  }
  return 0.0;
}

}  // namespace campaignbench
