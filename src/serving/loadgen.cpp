#include "serving/loadgen.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace lpa::serving {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One tenant's outcomes at one client, merged single-threaded after the run.
struct Tally {
  uint64_t submitted = 0;
  uint64_t quota_rejected = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  std::vector<double> latencies;  // completed only
  std::map<uint64_t, uint64_t> completed_per_version;

  /// `overdue`: how far behind its schedule the request was sent.
  void Absorb(const SuggestResponse& response, double overdue = 0.0) {
    switch (response.status.code()) {
      case Status::Code::kOk:
        latencies.push_back(overdue + response.latency_seconds);
        ++completed_per_version[response.model_version];
        break;
      case Status::Code::kDeadlineExceeded:
        ++shed;
        break;
      case Status::Code::kResourceExhausted:
        ++quota_rejected;
        break;
      case Status::Code::kUnavailable:
        ++rejected;
        break;
      default:
        ++failed;
        break;
    }
  }

  void Merge(const Tally& other) {
    submitted += other.submitted;
    quota_rejected += other.quota_rejected;
    rejected += other.rejected;
    shed += other.shed;
    failed += other.failed;
    latencies.insert(latencies.end(), other.latencies.begin(),
                     other.latencies.end());
    for (const auto& [version, count] : other.completed_per_version) {
      completed_per_version[version] += count;
    }
  }

  LoadgenReport Summarize(double wall_seconds) const {
    LoadgenReport report;
    report.submitted = submitted;
    report.quota_rejected = quota_rejected;
    report.completed = latencies.size();
    report.rejected = rejected;
    report.shed = shed;
    report.failed = failed;
    report.wall_seconds = wall_seconds;
    report.throughput_qps =
        wall_seconds > 0.0
            ? static_cast<double>(report.completed) / wall_seconds
            : 0.0;
    report.latency_mean = Mean(latencies);
    report.latency_p50 = Quantile(latencies, 0.50);
    report.latency_p95 = Quantile(latencies, 0.95);
    report.latency_p99 = Quantile(latencies, 0.99);
    report.latency_max =
        latencies.empty()
            ? 0.0
            : *std::max_element(latencies.begin(), latencies.end());
    report.completed_per_version = completed_per_version;
    return report;
  }
};

/// The request stream: a tenant (popularity rank r is tenant r - 1), then a
/// mix. One tenant draws no tenant, so its stream is the mixes alone.
class RequestStream {
 public:
  RequestStream(const LoadgenOptions& options, uint64_t seed)
      : options_(options),
        popularity_(options.tenants, std::max(0.0, options.zipf_theta)),
        rng_(seed) {}

  int NextTenant() {
    return options_.tenants == 1
               ? 0
               : static_cast<int>(popularity_.Sample(&rng_) - 1);
  }
  std::vector<double> NextMix() {
    return workload::SampleUniformFrequencies(options_.num_queries, &rng_);
  }

 private:
  const LoadgenOptions& options_;
  ZipfSampler popularity_;
  Rng rng_;
};

std::vector<Tally> ClosedLoopClient(const SubmitFn& submit,
                                    const LoadgenOptions& options,
                                    uint64_t seed, Clock::time_point end) {
  std::vector<Tally> tallies(static_cast<size_t>(options.tenants));
  RequestStream stream(options, seed);
  while (Clock::now() < end) {
    const int tenant = stream.NextTenant();
    std::vector<double> mix = stream.NextMix();
    Tally& tally = tallies[static_cast<size_t>(tenant)];
    ++tally.submitted;
    tally.Absorb(
        submit(tenant, std::move(mix), options.deadline_seconds).get());
  }
  return tallies;
}

std::vector<Tally> OpenLoopDispatch(const SubmitFn& submit,
                                    const LoadgenOptions& options,
                                    Clock::time_point start,
                                    Clock::time_point end,
                                    double* max_lateness) {
  LPA_CHECK(options.qps > 0.0);
  std::vector<Tally> tallies(static_cast<size_t>(options.tenants));
  RequestStream stream(options, options.seed);
  const auto interarrival = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / options.qps));
  struct Sent {
    int tenant;
    double lateness;
    std::future<SuggestResponse> response;
  };
  std::vector<Sent> sent;
  for (Clock::time_point due = start; due < end; due += interarrival) {
    std::this_thread::sleep_until(due);
    const int tenant = stream.NextTenant();
    std::vector<double> mix = stream.NextMix();
    // A stalled dispatcher sends its overdue requests in a burst; each one
    // still counts its latency from the time it was due.
    const double lateness = Seconds(Clock::now() - due);
    *max_lateness = std::max(*max_lateness, lateness);
    ++tallies[static_cast<size_t>(tenant)].submitted;
    sent.push_back({tenant, lateness,
                    submit(tenant, std::move(mix), options.deadline_seconds)});
  }
  // Every future resolves: accepted requests are drained by the workers,
  // rejected ones resolved at submission.
  for (Sent& s : sent) {
    tallies[static_cast<size_t>(s.tenant)].Absorb(s.response.get(),
                                                  s.lateness);
  }
  return tallies;
}

}  // namespace

bool LoadgenReport::CountersConsistent() const {
  uint64_t per_version_total = 0;
  for (const auto& [version, count] : completed_per_version) {
    per_version_total += count;
  }
  if (submitted != quota_rejected + completed + rejected + shed + failed ||
      per_version_total != completed) {
    return false;
  }
  return std::all_of(per_tenant.begin(), per_tenant.end(),
                     [](const LoadgenReport& t) {
                       return t.CountersConsistent();
                     });
}

LoadgenReport RunLoadgen(const SubmitFn& submit, const LoadgenOptions& options,
                         const std::function<void()>& at_halftime) {
  LPA_CHECK(options.tenants >= 1);
  LPA_CHECK(options.num_queries >= 1);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_seconds));

  std::thread swapper;
  if (at_halftime) {
    Clock::time_point halftime = start + (end - start) / 2;
    swapper = std::thread([at_halftime, halftime] {
      std::this_thread::sleep_until(halftime);
      at_halftime();
    });
  }

  double max_lateness = 0.0;
  std::vector<std::vector<Tally>> per_client;
  if (options.open_loop) {
    per_client.push_back(
        OpenLoopDispatch(submit, options, start, end, &max_lateness));
  } else {
    per_client.resize(static_cast<size_t>(std::max(1, options.clients)));
    std::vector<std::thread> clients;
    clients.reserve(per_client.size());
    for (size_t i = 0; i < per_client.size(); ++i) {
      clients.emplace_back([&, i] {
        per_client[i] = ClosedLoopClient(submit, options,
                                         HashCombine(options.seed, i), end);
      });
    }
    for (auto& client : clients) client.join();
  }
  if (swapper.joinable()) swapper.join();
  const double wall_seconds = Seconds(Clock::now() - start);

  std::vector<Tally> tenants(static_cast<size_t>(options.tenants));
  Tally total;
  for (const auto& tallies : per_client) {
    for (size_t t = 0; t < tallies.size(); ++t) tenants[t].Merge(tallies[t]);
  }
  for (const Tally& tenant : tenants) total.Merge(tenant);

  LoadgenReport report = total.Summarize(wall_seconds);
  report.max_lateness_seconds = max_lateness;
  report.per_tenant.reserve(tenants.size());
  for (const Tally& tenant : tenants) {
    report.per_tenant.push_back(tenant.Summarize(wall_seconds));
  }
  return report;
}

}  // namespace lpa::serving
