// Golden test of the online engine path. It replays a seeded sequence of
// designs against an OnlineEnv (runtime cache, lazy repartitioning and
// timeouts all on) over the 20% sample of the TPC-CH testbed, the setting
// of the online phase (Sec 4.2), and pins:
//  - the bits of every QueryCost / WorkloadCost result;
//  - the bits of the environment's accounting;
//  - the engine's movement counters;
//  - a digest of every table's shards after the last placement.
// The sequence changes one table at a time (as the agent's actions do),
// sometimes three, and every fourth step reverts the previous change, so
// tables revisit layouts they held before: A -> B -> A between two
// columns, and partitioned -> replicated -> partitioned. It runs with the
// engine serial and on 4- and 8-thread exec contexts; all must give the
// pinned values. The values were recorded before the engine kept shard
// layouts.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "costmodel/noisy_model.h"
#include "engine/cluster.h"
#include "partition/partition_state.h"
#include "rl/online_env.h"
#include "schema/catalogs.h"
#include "telemetry/registry.h"
#include "util/eval_context.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa {
namespace {

using costmodel::HardwareProfile;
using partition::PartitioningState;
using partition::TablePartition;

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Bits(double v) { return Hex(std::bit_cast<uint64_t>(v)); }

uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name).value();
}

/// The TPC-CH testbed of the online phase: bench fraction, small tables of
/// at most 64 rows kept whole, data seed 42, and its 20% sample.
struct OnlineBed {
  OnlineBed()
      : schema(schema::MakeTpcchSchema()),
        workload(workload::MakeTpcchWorkload(schema)),
        edges(partition::EdgeSet::Extract(schema, workload)) {
    workload.SetUniformFrequencies();
    storage::GenerationConfig gen;
    gen.fraction = 2e-3;
    gen.small_table_threshold = 64;
    gen.seed = 42;
    full.emplace(storage::Database::Generate(schema, workload, gen));
    sample.emplace(full->Sample(0.2, 64, 7));
  }

  schema::Schema schema;
  workload::Workload workload;
  partition::EdgeSet edges;
  std::optional<storage::Database> full;
  std::optional<storage::Database> sample;
};

const OnlineBed& Bed() {
  static const OnlineBed* bed = new OnlineBed();
  return *bed;
}

/// One step of the replayed sequence: the design and the mix it is
/// evaluated under.
struct Step {
  std::vector<TablePartition> design;
  std::vector<double> mix;
};

/// The seeded design sequence described at the top of the file.
std::vector<Step> Sequence(const schema::Schema& schema,
                           const partition::EdgeSet& edges, int num_queries,
                           int steps, uint64_t seed) {
  Rng rng(seed);
  std::vector<TablePartition> design =
      PartitioningState::Initial(&schema, &edges).table_partitions();
  // The last change made, which the next fourth step reverts.
  schema::TableId last_table = -1;
  TablePartition last_before;
  std::vector<Step> out;
  for (int step = 0; step < steps; ++step) {
    if (step % 4 == 3 && last_table >= 0) {
      design[static_cast<size_t>(last_table)] = last_before;
      last_table = -1;
    } else {
      const int changes = step % 7 == 0 ? 3 : 1;
      for (int k = 0; k < changes; ++k) {
        const auto t = static_cast<schema::TableId>(
            rng.UniformInt(0, schema.num_tables() - 1));
        std::vector<TablePartition> options = {{true, -1}};
        const auto& columns = schema.table(t).columns;
        for (size_t c = 0; c < columns.size(); ++c) {
          if (columns[c].partitionable) {
            options.push_back({false, static_cast<schema::ColumnId>(c)});
          }
        }
        const TablePartition& now = design[static_cast<size_t>(t)];
        std::vector<TablePartition> fresh;
        for (const auto& o : options) {
          if (!(o == now)) fresh.push_back(o);
        }
        if (fresh.empty()) continue;
        last_table = t;
        last_before = now;
        design[static_cast<size_t>(t)] = fresh[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(fresh.size()) - 1))];
      }
    }
    out.push_back({design, workload::SampleUniformFrequencies(num_queries,
                                                              &rng)});
  }
  return out;
}

/// Digest of every table's shards as the last placement left them.
uint64_t ShardDigest(const engine::ClusterDatabase& cluster) {
  uint64_t h = 0x5eed;
  std::vector<int64_t> values;
  for (schema::TableId t = 0; t < cluster.schema().num_tables(); ++t) {
    if (cluster.shard(t, 0) == nullptr) {
      h = HashCombine(h, 0x7e9);
      continue;
    }
    for (int node = 0; node < cluster.num_nodes(); ++node) {
      const storage::TableData* shard = cluster.shard(t, node);
      EXPECT_NE(shard, nullptr);
      if (shard == nullptr) continue;
      h = HashCombine(h, shard->num_rows());
      for (int c = 0; c <= shard->num_columns(); ++c) {
        (c < shard->num_columns() ? shard->view(c) : shard->rid_view())
            .CopyTo(&values);
        for (int64_t v : values) h = HashCombine(h, static_cast<uint64_t>(v));
      }
    }
  }
  return h;
}

struct Golden {
  size_t calls = 0;
  std::string costs;  ///< digest of every returned cost's bits, in order
  std::string query_seconds;
  std::string repartition_seconds;
  std::string timeout_saved_seconds;
  size_t queries_executed = 0;
  size_t cache_hits = 0;
  uint64_t bytes_moved = 0;
  uint64_t encoded_bytes_exchanged = 0;
  std::string shards;
};

constexpr int kSteps = 96;
constexpr uint64_t kSequenceSeed = 2024;

/// Builds the full and sampled clusters, measures the scale factors under
/// the initial design, and replays the sequence; even steps go through
/// WorkloadCost (which maintains the timeout rule's best cost), odd steps
/// call QueryCost per query.
Golden Replay(int threads) {
  const OnlineBed& bed = Bed();
  const HardwareProfile hw = HardwareProfile::DiskBased10G();
  costmodel::NoisyOptimizerModel planner(&bed.schema, hw, /*depth_sigma=*/0.05,
                                         /*seed=*/43,
                                         /*use_independence_assumption=*/false);
  engine::EngineConfig full_config;
  full_config.hardware = hw;
  full_config.seed = 42;
  engine::ClusterDatabase full(*bed.full, full_config, &planner);
  engine::EngineConfig sample_config;
  sample_config.hardware = hw;
  sample_config.seed = 43;
  engine::ClusterDatabase sample(*bed.sample, sample_config, &planner);

  std::optional<EvalContext> ctx;
  if (threads > 1) ctx.emplace(threads, 11);
  EvalContext* exec = ctx.has_value() ? &*ctx : nullptr;
  const PartitioningState initial =
      PartitioningState::Initial(&bed.schema, &bed.edges);
  std::vector<double> scale = rl::ComputeScaleFactors(
      &full, &sample, bed.workload, initial, exec);
  rl::OnlineEnv env(&sample, &bed.workload, std::move(scale),
                    rl::OnlineEnvOptions{});
  env.set_exec_context(exec);

  const uint64_t moved0 = CounterValue("engine.bytes_moved.bytes");
  const uint64_t enc0 = CounterValue("engine.encoded_bytes_exchanged.bytes");
  const int num_queries = bed.workload.num_queries();
  uint64_t digest = 0x9e3779b97f4a7c15ULL;
  Golden out;
  auto record = [&](double cost) {
    digest = HashCombine(digest, std::bit_cast<uint64_t>(cost));
    ++out.calls;
  };
  const auto steps =
      Sequence(bed.schema, bed.edges, num_queries, kSteps, kSequenceSeed);
  for (size_t i = 0; i < steps.size(); ++i) {
    const PartitioningState state = PartitioningState::FromDesign(
        &bed.schema, &bed.edges, steps[i].design);
    if (i % 2 == 0) {
      record(env.WorkloadCost(state, steps[i].mix));
      continue;
    }
    for (int q = 0; q < num_queries; ++q) {
      const double f = steps[i].mix[static_cast<size_t>(q)];
      if (f > 0.0) record(env.QueryCost(q, state, f));
    }
  }
  const rl::OnlineAccounting& acc = env.accounting();
  out.costs = Hex(digest);
  out.query_seconds = Bits(acc.query_seconds);
  out.repartition_seconds = Bits(acc.repartition_seconds);
  out.timeout_saved_seconds = Bits(acc.timeout_saved_seconds);
  out.queries_executed = acc.queries_executed;
  out.cache_hits = acc.cache_hits;
  out.bytes_moved = CounterValue("engine.bytes_moved.bytes") - moved0;
  out.encoded_bytes_exchanged =
      CounterValue("engine.encoded_bytes_exchanged.bytes") - enc0;
  out.shards = Hex(ShardDigest(sample));
  return out;
}

void ExpectGolden(const Golden& got) {
  // At least 300 executed (cache-missing) queries, and some cut off by the
  // timeout rule, so every accounting term is exercised.
  EXPECT_GE(got.queries_executed, 300u);
  EXPECT_NE(got.timeout_saved_seconds, Bits(0.0));
  EXPECT_EQ(got.calls, 1104u);
  EXPECT_EQ(got.costs, "f30a03a5eaf1838a");
  EXPECT_EQ(got.query_seconds, "3fe5783797ccbad8");
  EXPECT_EQ(got.repartition_seconds, "3fd38113b5c64946");
  EXPECT_EQ(got.timeout_saved_seconds, "3fa3c1ab269444e4");
  EXPECT_EQ(got.queries_executed, 440u);
  EXPECT_EQ(got.cache_hits, 1672u);
  EXPECT_EQ(got.bytes_moved, 44871756u);
  EXPECT_EQ(got.encoded_bytes_exchanged, 21361720u);
  EXPECT_EQ(got.shards, "00b601de20aa4eb1");
}

TEST(OnlineEngineGoldenTest, SerialEngine) { ExpectGolden(Replay(1)); }

TEST(OnlineEngineGoldenTest, FourThreadEngine) { ExpectGolden(Replay(4)); }

// More threads than this host's cores, so one step's uncached queries can
// outnumber the cores they run on.
TEST(OnlineEngineGoldenTest, EightThreadEngine) { ExpectGolden(Replay(8)); }

}  // namespace
}  // namespace lpa
