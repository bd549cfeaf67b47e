#include "telemetry/registry.h"

#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>

#include "util/table_printer.h"

#ifndef LPA_GIT_DESCRIBE
#define LPA_GIT_DESCRIBE "unknown"
#endif
#ifndef LPA_COMPILER
#define LPA_COMPILER "unknown"
#endif
#ifndef LPA_BUILD_TYPE
#define LPA_BUILD_TYPE "unknown"
#endif

namespace lpa::telemetry {

// ---------------------------------------------------------------- JsonWriter

void JsonWriter::Comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!counts_.empty() && counts_.back()++ > 0) out_ += ',';
}

JsonWriter& JsonWriter::BeginObject() {
  Comma();
  out_ += '{';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  counts_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Comma();
  out_ += '[';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  counts_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  Comma();
  out_ += '"';
  out_ += Escape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  Comma();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  Comma();
  if (!std::isfinite(value)) {
    out_ += "null";  // JSON has no NaN/Inf
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Number(uint64_t value) {
  Comma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Comma();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Comma();
  out_ += "null";
  return *this;
}

std::string JsonWriter::Escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --------------------------------------------------------------- RunManifest

RunManifest RunManifest::Make(std::string tool_name) {
  RunManifest m;
  m.tool = std::move(tool_name);
  m.git_describe = LPA_GIT_DESCRIBE;
  m.nproc = std::thread::hardware_concurrency();
  m.compiler = LPA_COMPILER;
  m.build_type = LPA_BUILD_TYPE;
  std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  m.started_at = buf;
  return m;
}

void RunManifest::Set(const std::string& key, const std::string& value) {
  for (auto& kv : extra) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  extra.emplace_back(key, value);
}

void RunManifest::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("tool").String(tool);
  w->Key("seed").Number(seed);
  w->Key("engine_profile").String(engine_profile);
  w->Key("schema").String(schema);
  w->Key("git_describe").String(git_describe);
  w->Key("started_at").String(started_at);
  w->Key("nproc").Number(nproc);
  w->Key("compiler").String(compiler);
  w->Key("build_type").String(build_type);
  for (const auto& kv : extra) w->Key(kv.first).String(kv.second);
  w->EndObject();
}

// ----------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void MetricsRegistry::RecordSpan(const std::string& path, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanStats& s = spans_[path];
  if (s.count == 0 || seconds < s.min_seconds) s.min_seconds = seconds;
  if (s.count == 0 || seconds > s.max_seconds) s.max_seconds = seconds;
  ++s.count;
  s.total_seconds += seconds;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSnapshot s;
    s.name = name;
    s.type = MetricType::kCounter;
    s.count = c->value();
    s.value = c->has_seconds() ? c->seconds() : static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSnapshot s;
    s.name = name;
    s.type = MetricType::kGauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSnapshot s;
    s.name = name;
    s.type = MetricType::kHistogram;
    s.count = h->count();
    s.value = h->sum();
    s.min = h->min();
    s.max = h->max();
    s.p50 = h->Quantile(0.5);
    s.p95 = h->Quantile(0.95);
    s.p99 = h->Quantile(0.99);
    s.bounds = h->bounds();
    s.buckets = h->bucket_counts();
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<std::pair<std::string, SpanStats>> MetricsRegistry::SpanSnapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {spans_.begin(), spans_.end()};
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  spans_.clear();
}

namespace {

const char* TypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

void WriteMetricJson(const MetricSnapshot& m, JsonWriter* w) {
  w->BeginObject();
  w->Key("name").String(m.name);
  w->Key("type").String(TypeName(m.type));
  switch (m.type) {
    case MetricType::kCounter:
      w->Key("count").Number(m.count);
      if (m.value != static_cast<double>(m.count)) {
        w->Key("seconds").Number(m.value);
      }
      break;
    case MetricType::kGauge:
      w->Key("value").Number(m.value);
      break;
    case MetricType::kHistogram:
      w->Key("count").Number(m.count);
      w->Key("sum").Number(m.value);
      w->Key("min").Number(m.min);
      w->Key("max").Number(m.max);
      w->Key("p50").Number(m.p50);
      w->Key("p95").Number(m.p95);
      w->Key("p99").Number(m.p99);
      w->Key("bounds").BeginArray();
      for (double b : m.bounds) w->Number(b);
      w->EndArray();
      w->Key("buckets").BeginArray();
      for (uint64_t b : m.buckets) w->Number(b);
      w->EndArray();
      break;
  }
  w->EndObject();
}

}  // namespace

std::string MetricsRegistry::ToJson(const RunManifest& manifest,
                                    const std::string& results_json) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("manifest");
  manifest.WriteJson(&w);
  w.Key("metrics").BeginArray();
  for (const auto& m : Snapshot()) WriteMetricJson(m, &w);
  w.EndArray();
  w.Key("spans").BeginArray();
  for (const auto& [path, s] : SpanSnapshot()) {
    w.BeginObject();
    w.Key("path").String(path);
    w.Key("count").Number(s.count);
    w.Key("total_seconds").Number(s.total_seconds);
    w.Key("min_seconds").Number(s.min_seconds);
    w.Key("max_seconds").Number(s.max_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::string json = w.str();
  if (!results_json.empty()) {
    // Splice the caller's pre-rendered results object before the closing
    // brace: {"manifest":..., "metrics":..., "spans":..., "results": <...>}.
    json.pop_back();
    json += ",\"results\":";
    json += results_json;
    json += '}';
  }
  return json;
}

std::string MetricsRegistry::ToTable() const {
  TablePrinter metrics({"metric", "type", "count", "value / sum", "p50",
                        "p95", "max"});
  for (const auto& m : Snapshot()) {
    switch (m.type) {
      case MetricType::kCounter:
        metrics.AddRow({m.name, "counter", std::to_string(m.count),
                        m.value != static_cast<double>(m.count)
                            ? FormatDouble(m.value, 4)
                            : std::to_string(m.count),
                        "", "", ""});
        break;
      case MetricType::kGauge:
        metrics.AddRow({m.name, "gauge", "", FormatDouble(m.value, 4), "", "",
                        ""});
        break;
      case MetricType::kHistogram:
        metrics.AddRow({m.name, "histogram", std::to_string(m.count),
                        FormatDouble(m.value, 4), FormatDouble(m.p50, 4),
                        FormatDouble(m.p95, 4), FormatDouble(m.max, 4)});
        break;
    }
  }
  std::string out = metrics.ToString();
  auto spans = SpanSnapshot();
  if (!spans.empty()) {
    TablePrinter table({"span", "count", "total (s)", "mean (s)", "max (s)"});
    for (const auto& [path, s] : spans) {
      table.AddRow({path, std::to_string(s.count),
                    FormatDouble(s.total_seconds, 4),
                    FormatDouble(s.total_seconds /
                                     static_cast<double>(s.count), 6),
                    FormatDouble(s.max_seconds, 6)});
    }
    out += table.ToString();
  }
  return out;
}

Status MetricsRegistry::WriteJsonFile(const std::string& path,
                                      const RunManifest& manifest,
                                      const std::string& results_json) const {
  std::ofstream out(path);
  if (!out.good()) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  out << ToJson(manifest, results_json) << '\n';
  out.flush();
  if (!out.good()) return Status::Internal("failed writing " + path);
  return Status::OK();
}

}  // namespace lpa::telemetry
