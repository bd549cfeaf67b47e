#pragma once

// Shared pieces of the repository benchmark (see perfbench/README.md):
// run options, the per-run report, timing helpers and the three workloads.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "util/stats.h"

namespace lpa::perfbench {

/// \brief One benchmark invocation, as parsed from the command line.
struct Options {
  std::string workload;
  /// Workload seed: every mix the advisor is asked about, and the engine's
  /// and planner's measurement noise. The generated data and the advisor's
  /// training seeds are fixed.
  uint64_t seed = 1;
  /// Length of the Suggest stream each workload measures, as the number of
  /// calls that take about this long on a 4-vCPU host.
  double seconds = 4.0;
  /// false: timed pass, end-to-end metrics. true: traced pass, per-layer.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief What one run prints: metrics, output checks and the facts (sizes,
/// digests, sample counts) a reader needs to interpret the metrics.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> facts;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
  /// Records a failed output check; a run with any failure is not correct.
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool correct() const { return failures.empty(); }
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of a sample (util/stats.h's interpolating quantile).
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// \brief A testbed (bench::Testbed) whose set-up was timed per layer:
/// data generation and the cluster constructor (placement and sealing).
struct TimedTestbed {
  bench::Testbed tb;
  double generate_s = 0.0;
  double build_s = 0.0;
  size_t rows = 0;
  size_t sample_rows = 0;
};

/// Builds the testbed as bench::MakeTestbed does, timing its layers; the
/// generated data is the same for every seed, which sets the noise.
/// `schema` is "tpcch" or "ssb". When `sample` is non-null it also receives
/// the Sec 4.2 sampled database (20% of rows, at least 64 per table) drawn
/// from the same generated data.
TimedTestbed BuildTestbed(const std::string& schema, bench::EngineKind kind,
                          uint64_t seed,
                          std::optional<storage::Database>* sample = nullptr);

Report RunDesignTpcch(const Options& options);
Report RunRefineTpcch(const Options& options);
Report RunServeSsb(const Options& options);

}  // namespace lpa::perfbench
