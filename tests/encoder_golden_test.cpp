// Golden test of the column encoder. For the SSB, TPC-CH and TPC-DS testbeds
// at their bench fractions it pins, for every master column the
// ClusterDatabase constructor seals and for every shard ApplyDesign seals
// under seeded random designs on 4 nodes:
//  - the chosen encoding and encoded_bytes;
//  - digests of the decoded values and, for dictionary columns, of dict()
//    and DecodeCodes;
//  - RepresentationDigest, i.e. every byte of the encoding.
// The digests were recorded against the encoder that tests/legacy_encoder.h
// keeps verbatim. Every column here, and a set of synthetic columns shaped
// for each of the encoder's code paths, is also encoded by that reference,
// which must pick the same encoding, write the same bytes and report the
// same statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "engine/cluster.h"
#include "legacy_encoder.h"
#include "partition/partition_state.h"
#include "schema/catalogs.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa {
namespace {

using costmodel::HardwareProfile;
using partition::PartitioningState;
using storage::EncodedColumn;
using storage::Encoding;

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

template <typename T>
uint64_t DigestOf(const std::vector<T>& values, uint64_t h) {
  h = HashCombine(h, values.size());
  for (T v : values) h = HashCombine(h, static_cast<uint64_t>(v));
  return h;
}

void ExpectSameStats(const storage::ColumnStats& got,
                     const storage::ColumnStats& want) {
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.runs, want.runs);
  EXPECT_EQ(got.distinct, want.distinct);
  EXPECT_EQ(got.sorted, want.sorted);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
}

/// `col` is what the reference encoder writes for `values`, and both report
/// the same statistics.
void ExpectMatchesLegacy(const EncodedColumn& col,
                         const std::vector<int64_t>& values) {
  const auto legacy = storage::legacy::EncodedColumn::Encode(values);
  EXPECT_EQ(col.encoding(), legacy.encoding_);
  EXPECT_EQ(col.encoded_bytes(), legacy.encoded_bytes());
  EXPECT_EQ(col.RepresentationDigest(), legacy.RepresentationDigest());
  ExpectSameStats(EncodedColumn::Analyze(values),
                  storage::legacy::EncodedColumn::Analyze(values));
}

/// Encodings, sizes and digests of a set of sealed columns.
struct Summary {
  size_t columns = 0;
  size_t count[4] = {};  // by Encoding
  size_t bytes = 0;
  uint64_t digest = 0;

  void Add(const EncodedColumn& col) {
    ++columns;
    ++count[static_cast<size_t>(col.encoding())];
    bytes += col.encoded_bytes();
    digest = HashCombine(digest, static_cast<uint64_t>(col.encoding()));
    digest = HashCombine(digest, col.encoded_bytes());
    digest = HashCombine(digest, col.RepresentationDigest());
    const std::vector<int64_t> values = col.Decode();
    digest = DigestOf(values, digest);
    ExpectMatchesLegacy(col, values);
    if (col.encoding() == Encoding::kDict) {
      digest = DigestOf(col.dict(), digest);
      std::vector<uint32_t> codes(col.size());
      col.DecodeCodes(0, col.size(), codes.data());
      digest = DigestOf(codes, digest);
    }
  }

  void AddTable(const storage::TableData& table) {
    ASSERT_TRUE(table.sealed());
    for (int c = 0; c < table.num_columns(); ++c) {
      ASSERT_NE(table.view(c).encoded(), nullptr);
      Add(*table.view(c).encoded());
    }
    Add(*table.rid_view().encoded());
  }

  std::string ToString() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "cols=%zu plain=%zu rle=%zu dict=%zu for=%zu bytes=%zu %s",
                  columns, count[0], count[1], count[2], count[3], bytes,
                  Hex(digest).c_str());
    return buf;
  }
};

/// A design that replicates about a quarter of the tables and partitions the
/// rest by a random partitionable column.
PartitioningState RandomDesign(const schema::Schema& schema,
                               const partition::EdgeSet& edges,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<partition::TablePartition> design;
  for (schema::TableId t = 0; t < schema.num_tables(); ++t) {
    std::vector<schema::ColumnId> candidates;
    const auto& columns = schema.table(t).columns;
    for (size_t c = 0; c < columns.size(); ++c) {
      if (columns[c].partitionable) {
        candidates.push_back(static_cast<schema::ColumnId>(c));
      }
    }
    if (candidates.empty() || rng.Uniform() < 0.25) {
      design.push_back({true, -1});
    } else {
      design.push_back({false, candidates[static_cast<size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(candidates.size()) -
                                          1))]});
    }
  }
  return PartitioningState::FromDesign(&schema, &edges, design);
}

struct Golden {
  std::string masters;
  std::vector<std::string> shards;  // one per design
};

constexpr int kNodes = 4;
constexpr uint64_t kDesignSeeds[] = {1, 2, 3, 4};

/// Builds the testbed at `fraction` (the bench setting: small tables of at
/// most 64 rows kept whole, data seed 42) and summarizes its sealed masters
/// and, after each seeded random design, the sealed shards of every
/// partitioned table.
Golden SealTestbed(const schema::Schema& schema,
                   const workload::Workload& workload, double fraction) {
  storage::GenerationConfig gen;
  gen.fraction = fraction;
  gen.small_table_threshold = 64;
  gen.seed = 42;
  const HardwareProfile hw = HardwareProfile::InMemory10G().WithNodes(kNodes);
  costmodel::CostModel planner(&schema, hw);
  engine::EngineConfig config;
  config.hardware = hw;
  engine::ClusterDatabase cluster(
      storage::Database::Generate(schema, workload, gen), config, &planner);
  const auto edges = partition::EdgeSet::Extract(schema, workload);

  Golden out;
  Summary masters;
  for (schema::TableId t = 0; t < schema.num_tables(); ++t) {
    masters.AddTable(cluster.database().table(t));
  }
  out.masters = masters.ToString();
  for (uint64_t seed : kDesignSeeds) {
    const PartitioningState design = RandomDesign(schema, edges, seed);
    cluster.ApplyDesign(design);
    Summary shards;
    for (schema::TableId t = 0; t < schema.num_tables(); ++t) {
      if (design.table_partition(t).replicated) {
        EXPECT_EQ(cluster.shard(t, 0), nullptr);
        continue;
      }
      for (int node = 0; node < kNodes; ++node) {
        const storage::TableData* shard = cluster.shard(t, node);
        EXPECT_NE(shard, nullptr);
        if (shard != nullptr) shards.AddTable(*shard);
      }
    }
    out.shards.push_back(shards.ToString());
  }
  return out;
}

void ExpectGolden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.masters, want.masters);
  ASSERT_EQ(got.shards.size(), want.shards.size());
  for (size_t i = 0; i < want.shards.size(); ++i) {
    EXPECT_EQ(got.shards[i], want.shards[i])
        << "design seed " << kDesignSeeds[i];
  }
}

// Fractions are bench::DefaultFraction's.

TEST(EncoderGoldenTest, Ssb) {
  const auto schema = schema::MakeSsbSchema();
  const auto workload = workload::MakeSsbWorkload(schema);
  ExpectGolden(
      SealTestbed(schema, workload, 1e-3),
      {"cols=31 plain=0 rle=0 dict=5 for=26 bytes=7232125 1f39708c8270cf20",
       {"cols=72 plain=0 rle=0 dict=0 for=72 bytes=15464 63756a1645778f20",
        "cols=76 plain=0 rle=0 dict=16 for=60 bytes=7406212 8d03a99c586ae978",
        "cols=124 plain=0 rle=0 dict=16 for=108 bytes=7532172 257d6b7fd8c73a5d",
        "cols=124 plain=0 rle=0 dict=16 for=108 bytes=7355828 61eab74181687b0d"}});
}

TEST(EncoderGoldenTest, Tpcch) {
  const auto schema = schema::MakeTpcchSchema(false);
  const auto workload = workload::MakeTpcchWorkload(schema);
  ExpectGolden(
      SealTestbed(schema, workload, 2e-3),
      {"cols=59 plain=0 rle=0 dict=12 for=47 bytes=1172374 5ba6f18f07eabf0f",
       {"cols=148 plain=12 rle=0 dict=8 for=128 bytes=196804 2948f609c2594dee",
        "cols=124 plain=0 rle=1 dict=18 for=105 bytes=872286 c08d5ad048d55c74",
        "cols=188 plain=12 rle=0 dict=16 for=160 bytes=935685 5bb9f6cc76fae901",
        "cols=236 plain=12 rle=2 dict=34 for=188 bytes=1182028 6a5c9827556cebcf"}});
}

TEST(EncoderGoldenTest, Tpcds) {
  const auto schema = schema::MakeTpcdsSchema();
  const auto workload = workload::MakeTpcdsWorkload(schema);
  ExpectGolden(
      SealTestbed(schema, workload, 2e-4),
      {"cols=131 plain=0 rle=1 dict=37 for=93 bytes=1855024 99d114046d69fa12",
       {"cols=396 plain=4 rle=4 dict=124 for=264 bytes=1895090 d87dff3d0bc4db8f",
        "cols=396 plain=10 rle=0 dict=125 for=261 bytes=1924427 f7f64f4f873ee710",
        "cols=384 plain=6 rle=4 dict=70 for=304 bytes=913598 1a6f3ab099125b30",
        "cols=376 plain=13 rle=4 dict=66 for=293 bytes=688181 f897e17bc8521f81"}});
}

// --- Synthetic columns against the reference ------------------------------

/// Columns shaped for every path of the encoder: sorted columns (distinct
/// values counted as runs), unsorted ones over a narrow range (bitmap) and
/// over a wide one (the set, including its growth and its cap), int64
/// extremes, every block-boundary length and both sides of kDictMaxCard.
std::vector<std::vector<int64_t>> SyntheticColumns() {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<std::vector<int64_t>> columns;
  Rng rng(2024);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{63}, size_t{64},
                   size_t{65}, size_t{1023}, size_t{1024}, size_t{1025},
                   size_t{5000}}) {
    std::vector<int64_t> constant(n, -7), ascending(n), narrow(n), wide(n),
        extremes(n), low_card(n), runs(n), near_max(n);
    for (size_t i = 0; i < n; ++i) {
      const auto k = static_cast<int64_t>(i);
      ascending[i] = 1000 + 3 * (k / 2);
      narrow[i] = rng.UniformInt(-40, 40);
      wide[i] = rng.UniformInt(kMin, kMax);
      extremes[i] = i % 3 == 0 ? kMin : i % 3 == 1 ? kMax : 0;
      low_card[i] = rng.UniformInt(0, 9) * 1'000'000'007 - 5;
      runs[i] = (k / 37) % 5;
      near_max[i] = kMax - rng.UniformInt(0, 300);
    }
    for (auto* column : {&constant, &ascending, &narrow, &wide, &extremes,
                         &low_card, &runs, &near_max}) {
      columns.push_back(std::move(*column));
    }
  }
  // Many repeats of the minimum, which the set keeps out of its slots.
  std::vector<int64_t> min_heavy;
  for (int i = 0; i < 4000; ++i) {
    min_heavy.push_back(i % 2 == 0 ? -1'000'000'000'000
                                   : rng.UniformInt(0, 1 << 30));
  }
  columns.push_back(std::move(min_heavy));
  // Both sides of the dictionary cap, narrow and spread over int64, shuffled
  // and sorted, each value twice.
  for (size_t distinct : {EncodedColumn::kDictMaxCard,
                          EncodedColumn::kDictMaxCard + 1}) {
    const uint64_t step = std::numeric_limits<uint64_t>::max() / (distinct - 1);
    std::vector<int64_t> narrow, spread;
    for (size_t i = 0; i < distinct; ++i) {
      narrow.push_back(static_cast<int64_t>(i) - 20'000);
      spread.push_back(i + 1 == distinct
                           ? kMax
                           : static_cast<int64_t>(static_cast<uint64_t>(kMin) +
                                                  i * step));
    }
    for (auto* column : {&narrow, &spread}) {
      std::vector<int64_t> twice = *column;
      twice.insert(twice.end(), column->begin(), column->end());
      rng.Shuffle(&twice);
      columns.push_back(twice);
      std::sort(twice.begin(), twice.end());
      columns.push_back(std::move(twice));
    }
  }
  // Well past the cap: the set stops counting at kDictMaxCard + 1.
  std::vector<int64_t> unique(200'000);
  for (auto& v : unique) v = static_cast<int64_t>(Hash64(rng.generator()()));
  columns.push_back(std::move(unique));
  // Unsorted columns whose range [0, span] sits on either side of the
  // bitmap's limits: 8 values per row, and 2^22 values in all.
  for (const auto& [rows, span] :
       {std::pair<int64_t, int64_t>{1000, 7999}, {1000, 8000},
        {600'000, (int64_t{1} << 22) - 1}, {600'000, int64_t{1} << 22}}) {
    std::vector<int64_t> values = {span, 0};
    while (static_cast<int64_t>(values.size()) < rows) {
      values.push_back(rng.UniformInt(0, span));
    }
    columns.push_back(std::move(values));
  }
  return columns;
}

TEST(EncoderGoldenTest, MatchesLegacyEncoderOnSyntheticColumns) {
  using Legacy = storage::legacy::EncodedColumn;
  for (const auto& values : SyntheticColumns()) {
    SCOPED_TRACE(testing::Message() << values.size() << " values from "
                                    << values.front());
    ExpectMatchesLegacy(EncodedColumn::Encode(values), values);
    for (Encoding e : {Encoding::kPlain, Encoding::kRle, Encoding::kDict,
                       Encoding::kFor}) {
      if (e == Encoding::kDict &&
          Legacy::Analyze(values).distinct > EncodedColumn::kDictMaxCard) {
        continue;
      }
      EXPECT_EQ(EncodedColumn::EncodeAs(e, values).RepresentationDigest(),
                Legacy::EncodeAs(e, values).RepresentationDigest())
          << EncodingName(e);
    }
  }
  for (Encoding e : {Encoding::kPlain, Encoding::kRle, Encoding::kDict,
                     Encoding::kFor}) {
    EXPECT_EQ(EncodedColumn::EncodeAs(e, {}).RepresentationDigest(),
              Legacy::EncodeAs(e, {}).RepresentationDigest());
  }
  ExpectMatchesLegacy(EncodedColumn::Encode({}), {});
}

}  // namespace
}  // namespace lpa
