#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metric.h"
#include "util/status.h"

namespace lpa::telemetry {

/// \brief Minimal streaming JSON writer (comma/nesting management, string
/// escaping, RFC-compliant number formatting: NaN/Inf become null).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& key);
  JsonWriter& String(const std::string& value);
  JsonWriter& Number(double value);
  JsonWriter& Number(uint64_t value);
  JsonWriter& Number(int value) { return Number(static_cast<uint64_t>(value < 0 ? 0 : value)); }
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  const std::string& str() const { return out_; }

  static std::string Escape(const std::string& raw);

 private:
  void Comma();

  std::string out_;
  /// One entry per open container: number of elements emitted so far.
  std::vector<int> counts_;
  bool pending_key_ = false;
};

/// \brief Identity card of one run, stamped into every export so that two
/// BENCH_*.json files (or two service runs) are comparable: same binary?
/// same seed? same engine profile? same source revision?
struct RunManifest {
  std::string tool;            ///< binary or logical run name
  uint64_t seed = 0;
  std::string engine_profile;  ///< e.g. "disk-based (Postgres-XL-like)"
  std::string schema;          ///< e.g. "ssb"
  std::string git_describe;    ///< source revision (configure-time describe)
  std::string started_at;      ///< ISO-8601 UTC wall time of manifest creation
  /// The host and the build: online CPUs when the manifest was made, the
  /// compiler and its version, and the CMake build type.
  uint64_t nproc = 0;
  std::string compiler;        ///< e.g. "GNU 12.2.0"
  std::string build_type;      ///< e.g. "Release"
  /// Free-form additions (bench scale, node count, ...), export-ordered.
  std::vector<std::pair<std::string, std::string>> extra;

  /// \brief Stamp a manifest with the build's git-describe, compiler and
  /// build type, the host's CPU count and the current time.
  static RunManifest Make(std::string tool_name);

  void Set(const std::string& key, const std::string& value);

  void WriteJson(JsonWriter* w) const;
};

/// \brief One exported metric value (decoupled from the live atomics).
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  uint64_t count = 0;    ///< counter value / histogram observation count
  double value = 0.0;    ///< gauge value / histogram sum / counter seconds
  double min = 0.0, max = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0;
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
};

/// \brief Aggregated timing of one span path ("advisor.train_offline/
/// rl.train/episode" style), recorded by telemetry::Span on destruction.
struct SpanStats {
  uint64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

/// \brief Thread-safe registry of named metrics.
///
/// Registration (GetCounter / GetGauge / GetHistogram) takes a mutex and
/// returns a stable reference — instrument call sites cache it in a
/// function-local static so the hot path is a single relaxed atomic op.
/// Names follow the `subsystem.noun.unit` convention (docs/INTERNALS.md).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// \brief Registers on first call; later calls ignore `bounds`.
  Histogram& GetHistogram(const std::string& name, std::vector<double> bounds);

  /// \brief Record one finished span occurrence (called by telemetry::Span).
  void RecordSpan(const std::string& path, double seconds);

  std::vector<MetricSnapshot> Snapshot() const;
  std::vector<std::pair<std::string, SpanStats>> SpanSnapshot() const;

  /// \brief Zero every metric in place (references stay valid) and drop the
  /// span aggregates. Use between runs that share a process.
  void Reset();

  /// \brief Machine export: `{"manifest": ..., "metrics": [...],
  /// "spans": [...]}` plus an optional caller-provided "results" payload
  /// (pre-rendered JSON, e.g. from a JsonWriter).
  std::string ToJson(const RunManifest& manifest,
                     const std::string& results_json = "") const;

  /// \brief Human export: aligned tables (metrics, then spans) via
  /// util/table_printer.h.
  std::string ToTable() const;

  Status WriteJsonFile(const std::string& path, const RunManifest& manifest,
                       const std::string& results_json = "") const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, SpanStats> spans_;
};

}  // namespace lpa::telemetry
