#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "telemetry/metric.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/stats.h"

namespace lpa::telemetry {
namespace {

/// Minimal structural JSON validator: checks balanced containers, quoted
/// strings, and that no raw NaN/Inf tokens leaked into the output.
bool LooksLikeValidJson(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  if (in_string || !stack.empty()) return false;
  return s.find("nan") == std::string::npos &&
         s.find("inf") == std::string::npos;
}

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_FALSE(c.has_seconds());
  c.AddSeconds(0.5);
  c.AddSeconds(0.25);
  EXPECT_TRUE(c.has_seconds());
  EXPECT_DOUBLE_EQ(c.seconds(), 0.75);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(c.seconds(), 0.0);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, CountSumMinMax) {
  Histogram h({1.0, 10.0, 100.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(50.0);
  h.Observe(500.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  // NaN observations are dropped, not propagated.
  h.Observe(std::nan(""));
  EXPECT_EQ(h.count(), 4u);
}

TEST(HistogramTest, QuantilesFromBuckets) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  // 100 observations uniform in (0, 1]: everything in the first bucket.
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i) / 100.0);
  double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 1.0);
  // Add 100 observations in (4, 8]: the median straddles bucket 1's top.
  for (int i = 0; i < 100; ++i) h.Observe(5.0);
  EXPECT_LE(h.Quantile(0.25), 1.0);
  EXPECT_GE(h.Quantile(0.9), 4.0);
  EXPECT_LE(h.Quantile(0.9), 8.0);
  // Quantiles clamp to the observed range.
  EXPECT_GE(h.Quantile(0.0), h.min());
  EXPECT_LE(h.Quantile(1.0), h.max());
  Histogram empty({1.0});
  EXPECT_TRUE(std::isnan(empty.Quantile(0.5)));
}

TEST(HistogramTest, ExponentialBounds) {
  auto bounds = Histogram::ExponentialBounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(RegistryTest, StableReferencesAcrossReset) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("test.counter.count");
  c.Add(7);
  reg.Reset();
  // The reference must stay valid and read zero after Reset.
  EXPECT_EQ(c.value(), 0u);
  c.Add(1);
  EXPECT_EQ(reg.GetCounter("test.counter.count").value(), 1u);
  EXPECT_EQ(&reg.GetCounter("test.counter.count"), &c);
}

TEST(RegistryTest, SnapshotTypesAndValues) {
  MetricsRegistry reg;
  reg.GetCounter("a.count").Add(3);
  reg.GetGauge("b.value").Set(2.5);
  reg.GetHistogram("c.seconds", {1.0}).Observe(0.5);
  reg.RecordSpan("outer/inner", 0.125);
  auto snaps = reg.Snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "a.count");
  EXPECT_EQ(snaps[0].type, MetricType::kCounter);
  EXPECT_EQ(snaps[0].count, 3u);
  auto spans = reg.SpanSnapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].first, "outer/inner");
  EXPECT_EQ(spans[0].second.count, 1u);
  EXPECT_DOUBLE_EQ(spans[0].second.total_seconds, 0.125);
}

TEST(RegistryTest, JsonExportIsWellFormed) {
  MetricsRegistry reg;
  reg.GetCounter("engine.bytes_shuffled.bytes").Add(1024);
  reg.GetGauge("rl.epsilon.value").Set(0.25);
  auto& h = reg.GetHistogram("engine.query_elapsed.seconds",
                             Histogram::LatencyBounds());
  h.Observe(0.001);
  h.Observe(0.1);
  reg.RecordSpan("advisor.train_offline/rl.train", 1.5);
  // An empty histogram exercises the NaN -> null path.
  reg.GetHistogram("empty.value", {1.0});

  RunManifest manifest = RunManifest::Make("telemetry_test");
  manifest.seed = 42;
  manifest.schema = "ssb \"quoted\"\n";  // escaping
  manifest.Set("extra_key", "extra\tvalue");
  std::string json = reg.ToJson(manifest);
  EXPECT_TRUE(LooksLikeValidJson(json)) << json;
  EXPECT_NE(json.find("\"manifest\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("engine.bytes_shuffled.bytes"), std::string::npos);
  EXPECT_NE(json.find("telemetry_test"), std::string::npos);

  // With a results payload spliced in.
  JsonWriter results;
  results.BeginObject().Key("answer").Number(42).EndObject();
  std::string with_results = reg.ToJson(manifest, results.str());
  EXPECT_TRUE(LooksLikeValidJson(with_results)) << with_results;
  EXPECT_NE(with_results.find("\"results\""), std::string::npos);
}

TEST(RegistryTest, TableExportMentionsEveryMetric) {
  MetricsRegistry reg;
  reg.GetCounter("x.count").Add(1);
  reg.GetGauge("y.value").Set(1.0);
  reg.RecordSpan("root", 0.1);
  std::string table = reg.ToTable();
  EXPECT_NE(table.find("x.count"), std::string::npos);
  EXPECT_NE(table.find("y.value"), std::string::npos);
  EXPECT_NE(table.find("root"), std::string::npos);
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  JsonWriter w;
  w.BeginObject().Key("k\n").String("v\"\\\t").EndObject();
  EXPECT_TRUE(LooksLikeValidJson(w.str())) << w.str();
  EXPECT_NE(w.str().find("\\n"), std::string::npos);
  EXPECT_NE(w.str().find("\\\""), std::string::npos);
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.BeginArray()
      .Number(std::nan(""))
      .Number(std::numeric_limits<double>::infinity())
      .Number(1.5)
      .EndArray();
  EXPECT_EQ(w.str(), "[null,null,1.5]");
}

TEST(SpanTest, NestingBuildsSlashPaths) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  {
    Span outer("outer");
    EXPECT_EQ(outer.path(), "outer");
    {
      Span inner("inner");
      EXPECT_EQ(inner.path(), "outer/inner");
      EXPECT_EQ(Span::Current(), &inner);
    }
    EXPECT_EQ(Span::Current(), &outer);
  }
  EXPECT_EQ(Span::Current(), nullptr);
  auto spans = reg.SpanSnapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].first, "outer");
  EXPECT_EQ(spans[1].first, "outer/inner");
  reg.Reset();
}

TEST(SpanTest, ScopedTimerRecordsElapsed) {
  Histogram h({1.0});
  Counter c;
  {
    ScopedTimer t1(&h);
    ScopedTimer t2(&c);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_TRUE(c.has_seconds());
  EXPECT_GE(c.seconds(), 0.0);
}

TEST(EnabledTest, DisabledCollectionIsANoop) {
  Counter c;
  Gauge g;
  Histogram h({1.0});
  SetEnabled(false);
  c.Add(5);
  c.AddSeconds(1.0);
  g.Set(2.0);
  h.Observe(0.5);
  SetEnabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(c.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // Re-enabled: collection resumes.
  c.Add(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(ThreadingTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("mt.count");
  Histogram& h = reg.GetHistogram("mt.value", {0.25, 0.5, 0.75});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        c.Add();
        h.Observe(static_cast<double>((i + t) % 4) / 4.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (const auto& snap : reg.Snapshot()) {
    if (snap.name != "mt.value") continue;
    for (uint64_t b : snap.buckets) bucket_total += b;
  }
  EXPECT_EQ(bucket_total, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(StatsQuantileTest, EmptySampleIsNanNotUb) {
  EXPECT_TRUE(std::isnan(lpa::Quantile({}, 0.5)));
  // Out-of-range q clamps instead of asserting.
  EXPECT_DOUBLE_EQ(lpa::Quantile({1.0, 2.0, 3.0}, 1.5), 3.0);
  EXPECT_DOUBLE_EQ(lpa::Quantile({1.0, 2.0, 3.0}, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(lpa::Quantile({1.0, 2.0, 3.0}, 0.5), 2.0);
}

TEST(ManifestTest, CarriesGitDescribeAndTimestamp) {
  RunManifest m = RunManifest::Make("tool");
  EXPECT_EQ(m.tool, "tool");
  EXPECT_FALSE(m.git_describe.empty());
  EXPECT_FALSE(m.started_at.empty());
  // ISO-8601 UTC: "YYYY-MM-DDTHH:MM:SSZ".
  ASSERT_EQ(m.started_at.size(), 20u);
  EXPECT_EQ(m.started_at[4], '-');
  EXPECT_EQ(m.started_at[10], 'T');
  EXPECT_EQ(m.started_at.back(), 'Z');
  m.Set("k", "v1");
  m.Set("k", "v2");  // overwrite, not duplicate
  ASSERT_EQ(m.extra.size(), 1u);
  EXPECT_EQ(m.extra[0].second, "v2");
}

TEST(ManifestTest, RecordsHostCompilerAndBuildType) {
  RunManifest m = RunManifest::Make("tool");
  EXPECT_GE(m.nproc, 1u);
  EXPECT_FALSE(m.compiler.empty());
  EXPECT_NE(m.compiler, "unknown");
  EXPECT_FALSE(m.build_type.empty());
  EXPECT_NE(m.build_type, "unknown");
  MetricsRegistry reg;
  const std::string json = reg.ToJson(m);
  EXPECT_NE(json.find("\"nproc\":" + std::to_string(m.nproc)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"compiler\":\"" + m.compiler + "\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"build_type\":\"" + m.build_type + "\""),
            std::string::npos)
      << json;
}

TEST(WriteJsonFileTest, RoundTripsThroughDisk) {
  MetricsRegistry reg;
  reg.GetCounter("file.count").Add(9);
  RunManifest manifest = RunManifest::Make("file_test");
  std::string path = ::testing::TempDir() + "/telemetry_test_out.json";
  ASSERT_TRUE(reg.WriteJsonFile(path, manifest).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(LooksLikeValidJson(ss.str())) << ss.str();
  EXPECT_NE(ss.str().find("file.count"), std::string::npos);
  // Unwritable path surfaces an error status instead of silently dropping.
  EXPECT_FALSE(reg.WriteJsonFile("/nonexistent-dir/x.json", manifest).ok());
}

}  // namespace
}  // namespace lpa::telemetry
