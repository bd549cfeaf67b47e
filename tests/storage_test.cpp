#include <map>
#include "storage/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "schema/catalogs.h"
#include "storage/encoded_column.h"
#include "storage/table_data.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa::storage {
namespace {

GenerationConfig SmallConfig() {
  GenerationConfig config;
  config.fraction = 1e-4;
  config.small_table_threshold = 300;
  config.seed = 7;
  return config;
}

class SsbDatabaseTest : public ::testing::Test {
 protected:
  SsbDatabaseTest()
      : schema_(schema::MakeSsbSchema()),
        workload_(workload::MakeSsbWorkload(schema_)),
        db_(Database::Generate(schema_, workload_, SmallConfig())) {}

  schema::Schema schema_;
  workload::Workload workload_;
  Database db_;
};

TEST_F(SsbDatabaseTest, RowCountsFollowConfig) {
  // lineorder: 600M * 1e-4 = 60k rows; date (2556 > threshold) floors at 300.
  EXPECT_EQ(db_.table(schema_.TableIndex("lineorder")).num_rows(), 60'000u);
  EXPECT_EQ(db_.table(schema_.TableIndex("date")).num_rows(), 300u);
  EXPECT_EQ(db_.table(schema_.TableIndex("customer")).num_rows(), 300u);
}

TEST_F(SsbDatabaseTest, RidsAreUniqueAcrossTables) {
  std::set<int64_t> seen;
  for (schema::TableId t = 0; t < schema_.num_tables(); ++t) {
    for (int64_t rid : db_.table(t).rids()) {
      EXPECT_TRUE(seen.insert(rid).second);
    }
  }
}

TEST_F(SsbDatabaseTest, ForeignKeysReferenceMaterializedParents) {
  const auto& lo = db_.table(schema_.TableIndex("lineorder"));
  const auto& cust = db_.table(schema_.TableIndex("customer"));
  int ck = schema_.table(schema_.TableIndex("customer")).ColumnIndex("c_custkey");
  int lck =
      schema_.table(schema_.TableIndex("lineorder")).ColumnIndex("lo_custkey");
  std::set<int64_t> parent_keys(cust.column(ck).begin(), cust.column(ck).end());
  for (int64_t v : lo.column(lck)) {
    EXPECT_TRUE(parent_keys.count(v)) << "dangling lo_custkey " << v;
  }
}

TEST_F(SsbDatabaseTest, GenerationIsDeterministic) {
  Database again = Database::Generate(schema_, workload_, SmallConfig());
  schema::TableId lo = schema_.TableIndex("lineorder");
  EXPECT_EQ(db_.table(lo).column(1), again.table(lo).column(1));
}

TEST_F(SsbDatabaseTest, SampleRespectsRateAndMinimum) {
  Database sample = db_.Sample(0.1, 100, 3);
  schema::TableId lo = schema_.TableIndex("lineorder");
  double got = static_cast<double>(sample.table(lo).num_rows());
  EXPECT_NEAR(got, 6000.0, 600.0);  // ~10% of 60k
  // date has 300 rows; min_rows=100 < 300*0.1=30? no: max(30, 100)=100.
  schema::TableId date = schema_.TableIndex("date");
  EXPECT_NEAR(static_cast<double>(sample.table(date).num_rows()), 100.0, 40.0);
}

TEST_F(SsbDatabaseTest, SampleIsSubsetAndDeterministic) {
  Database s1 = db_.Sample(0.2, 50, 11);
  Database s2 = db_.Sample(0.2, 50, 11);
  schema::TableId lo = schema_.TableIndex("lineorder");
  EXPECT_EQ(s1.table(lo).rids(), s2.table(lo).rids());
  std::set<int64_t> full_rids(db_.table(lo).rids().begin(),
                              db_.table(lo).rids().end());
  for (int64_t rid : s1.table(lo).rids()) EXPECT_TRUE(full_rids.count(rid));
}

TEST_F(SsbDatabaseTest, BulkAppendGrowsTablesConsistently) {
  schema::TableId lo = schema_.TableIndex("lineorder");
  schema::TableId cust = schema_.TableIndex("customer");
  size_t lo_before = db_.table(lo).num_rows();
  db_.BulkAppend(0.2, 99);
  EXPECT_NEAR(static_cast<double>(db_.table(lo).num_rows()),
              static_cast<double>(lo_before) * 1.2, 2.0);
  // New fact rows still reference materialized customers.
  const auto& cust_data = db_.table(cust);
  int ck = schema_.table(cust).ColumnIndex("c_custkey");
  std::set<int64_t> parent_keys(cust_data.column(ck).begin(),
                                cust_data.column(ck).end());
  int lck = schema_.table(lo).ColumnIndex("lo_custkey");
  for (int64_t v : db_.table(lo).column(lck)) {
    EXPECT_TRUE(parent_keys.count(v));
  }
}

TEST(DatabaseGenerationTest, SkewedColumnsKeepTheirDraws) {
  // No shipped catalog skews a column, so skew three of SSB's, one of them a
  // foreign key whose draw the parent's key then overwrites. Zipf draws are
  // interleaved with the uniform ones in column order; the digest pins the
  // generated data.
  schema::Schema schema = schema::MakeSsbSchema();
  for (const auto& [table, column] :
       {std::pair<const char*, const char*>{"customer", "c_city"},
        {"part", "p_brand"},
        {"lineorder", "lo_orderdate"}}) {
    schema::Table& t = schema.mutable_table(schema.TableIndex(table));
    t.columns[static_cast<size_t>(t.ColumnIndex(column))].zipf_theta = 1.1;
  }
  const workload::Workload workload = workload::MakeSsbWorkload(schema);
  const Database db = Database::Generate(schema, workload, SmallConfig());
  uint64_t h = 0;
  for (schema::TableId t = 0; t < schema.num_tables(); ++t) {
    const TableData& data = db.table(t);
    for (int c = 0; c < data.num_columns(); ++c) {
      for (int64_t v : data.column(c)) {
        h = HashCombine(h, static_cast<uint64_t>(v));
      }
    }
    for (int64_t v : data.rids()) h = HashCombine(h, static_cast<uint64_t>(v));
  }
  EXPECT_EQ(h, 0x4944711b784a38a9ULL);
}

TEST(TpcchDatabaseTest, CompositeKeysAreConsistent) {
  auto schema = schema::MakeTpcchSchema();
  auto wl = workload::MakeTpcchWorkload(schema);
  GenerationConfig config;
  config.fraction = 1e-4;
  config.small_table_threshold = 200;
  Database db = Database::Generate(schema, wl, config);

  // Every orderline row's (ol_o_id, ol_wd_id, ol_d_id) must match exactly
  // one generated order row — the composite-FK copy guarantees it.
  schema::TableId ol_id = schema.TableIndex("orderline");
  schema::TableId o_id = schema.TableIndex("order");
  const auto& ol = db.table(ol_id);
  const auto& o = db.table(o_id);
  int ol_o = schema.table(ol_id).ColumnIndex("ol_o_id");
  int ol_wd = schema.table(ol_id).ColumnIndex("ol_wd_id");
  int ol_d = schema.table(ol_id).ColumnIndex("ol_d_id");
  int o_pk = schema.table(o_id).ColumnIndex("o_id");
  int o_wd = schema.table(o_id).ColumnIndex("o_wd_id");
  int o_d = schema.table(o_id).ColumnIndex("o_d_id");

  std::map<int64_t, std::pair<int64_t, int64_t>> orders;
  for (size_t r = 0; r < o.num_rows(); ++r) {
    orders[o.column(o_pk)[r]] = {o.column(o_wd)[r], o.column(o_d)[r]};
  }
  size_t checked = 0;
  for (size_t r = 0; r < ol.num_rows() && checked < 500; ++r, ++checked) {
    auto it = orders.find(ol.column(ol_o)[r]);
    ASSERT_NE(it, orders.end());
    EXPECT_EQ(it->second.first, ol.column(ol_wd)[r]);
    EXPECT_EQ(it->second.second, ol.column(ol_d)[r]);
  }
}

TEST(TpcchDatabaseTest, StockItemChainIsConsistent) {
  auto schema = schema::MakeTpcchSchema();
  auto wl = workload::MakeTpcchWorkload(schema);
  GenerationConfig config;
  config.fraction = 1e-4;
  config.small_table_threshold = 200;
  Database db = Database::Generate(schema, wl, config);

  // orderline copies (ol_iw_id, ol_i_id) from a stock row, and stock copies
  // s_i_id from a real item: so ol_i_id must exist in item.
  schema::TableId item_id = schema.TableIndex("item");
  schema::TableId ol_id = schema.TableIndex("orderline");
  const auto& item = db.table(item_id);
  int i_pk = schema.table(item_id).ColumnIndex("i_id");
  std::set<int64_t> item_keys(item.column(i_pk).begin(), item.column(i_pk).end());
  int ol_i = schema.table(ol_id).ColumnIndex("ol_i_id");
  for (int64_t v : db.table(ol_id).column(ol_i)) {
    EXPECT_TRUE(item_keys.count(v)) << "orderline item " << v << " not in item";
  }
}

// ---------------------------------------------------------------------------
// EncodedColumn: every encoding must round-trip every input losslessly.
// ---------------------------------------------------------------------------

/// Exhaustive round-trip property check: full Decode, spot At, a
/// block-crossing DecodeRange window, an ascending Gather, and the chooser's
/// never-worse-than-plain guarantee.
void ExpectRoundTrip(const std::vector<int64_t>& values) {
  ColumnStats stats = EncodedColumn::Analyze(values);
  std::vector<Encoding> encodings = {Encoding::kPlain, Encoding::kRle,
                                     Encoding::kFor};
  if (stats.distinct <= EncodedColumn::kDictMaxCard) {
    encodings.push_back(Encoding::kDict);
  }
  for (Encoding e : encodings) {
    SCOPED_TRACE(EncodingName(e));
    EncodedColumn col = EncodedColumn::EncodeAs(e, values);
    EXPECT_EQ(col.encoding(), e);
    EXPECT_EQ(col.size(), values.size());
    EXPECT_EQ(col.Decode(), values);
    const size_t stride = std::max<size_t>(1, values.size() / 17);
    for (size_t i = 0; i < values.size(); i += stride) {
      EXPECT_EQ(col.At(i), values[i]);
    }
    if (values.size() > 3) {
      size_t start = values.size() / 3;
      size_t count = std::min(values.size() - start, values.size() / 2 + 1);
      std::vector<int64_t> window(count);
      col.DecodeRange(start, count, window.data());
      for (size_t k = 0; k < count; ++k) EXPECT_EQ(window[k], values[start + k]);
    }
    std::vector<uint32_t> idx;
    for (size_t i = 0; i < values.size(); i += 3) {
      idx.push_back(static_cast<uint32_t>(i));
    }
    std::vector<int64_t> out(idx.size());
    std::vector<int64_t> scratch;
    col.Gather(idx.data(), idx.size(), out.data(), &scratch);
    for (size_t k = 0; k < idx.size(); ++k) {
      EXPECT_EQ(out[k], values[idx[k]]);
    }
  }
  EncodedColumn chosen = EncodedColumn::Encode(values);
  EXPECT_EQ(chosen.Decode(), values);
  EXPECT_LE(chosen.encoded_bytes(), chosen.raw_bytes());
}

TEST(EncodedColumnTest, RoundTripEmptyAndTiny) {
  ExpectRoundTrip({});
  ExpectRoundTrip({42});
  ExpectRoundTrip({-1});
  ExpectRoundTrip({7, 7});
  ExpectRoundTrip({1, 2});
}

TEST(EncodedColumnTest, RoundTripConstant) {
  ExpectRoundTrip(std::vector<int64_t>(5000, 7));
}

TEST(EncodedColumnTest, RoundTripSorted) {
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 2500; ++i) v.push_back(1000 + i * 3);
  ExpectRoundTrip(v);
}

TEST(EncodedColumnTest, RoundTripRandom) {
  Rng rng(123);
  std::vector<int64_t> v;
  for (int i = 0; i < 3000; ++i) v.push_back(rng.UniformInt(1, 1'000'000'000));
  ExpectRoundTrip(v);
}

TEST(EncodedColumnTest, RoundTripLowCardinality) {
  Rng rng(99);
  std::vector<int64_t> v;
  for (int i = 0; i < 4000; ++i) v.push_back(rng.UniformInt(0, 49));
  ExpectRoundTrip(v);
}

TEST(EncodedColumnTest, RoundTripAdversarialSingleRunAndAlternating) {
  // One long run plus a tail value (two runs).
  std::vector<int64_t> single(3000, 5);
  single.push_back(6);
  ExpectRoundTrip(single);
  // Alternating values: RLE's worst case (one run per value).
  std::vector<int64_t> alt;
  for (int i = 0; i < 2049; ++i) alt.push_back(i % 2 == 0 ? -3 : 12);
  ExpectRoundTrip(alt);
}

TEST(EncodedColumnTest, RoundTripInt64Extremes) {
  // FOR deltas span the full uint64 range; two's-complement wraparound must
  // round-trip exactly (64-bit ReadBits path).
  std::vector<int64_t> v = {INT64_MIN, INT64_MAX, 0, -1, 1, INT64_MIN + 1};
  for (int i = 0; i < 1500; ++i) v.push_back(i % 2 == 0 ? INT64_MIN : INT64_MAX);
  ExpectRoundTrip(v);
}

TEST(EncodedColumnTest, ChooserPicksExpectedEncodings) {
  // Long constant runs -> RLE.
  EXPECT_EQ(EncodedColumn::Encode(std::vector<int64_t>(4096, 9)).encoding(),
            Encoding::kRle);
  // Dense sorted keys -> frame-of-reference.
  std::vector<int64_t> sorted;
  for (int64_t i = 0; i < 4096; ++i) sorted.push_back(i);
  EXPECT_EQ(EncodedColumn::Encode(sorted).encoding(), Encoding::kFor);
  // Low-cardinality shuffled values -> dictionary.
  Rng rng(5);
  std::vector<int64_t> lowcard;
  for (int i = 0; i < 4096; ++i) {
    lowcard.push_back(rng.UniformInt(0, 9) * 1'000'000'007);
  }
  EXPECT_EQ(EncodedColumn::Encode(lowcard).encoding(), Encoding::kDict);
  // Full-entropy 64-bit values -> plain fallback (nothing smaller exists).
  std::vector<int64_t> noise;
  for (int i = 0; i < 4096; ++i) {
    noise.push_back(static_cast<int64_t>(Hash64(static_cast<uint64_t>(i))));
  }
  EXPECT_EQ(EncodedColumn::Encode(noise).encoding(), Encoding::kPlain);
}

TEST(EncodedColumnTest, DictionaryCapBoundary) {
  // Columns with exactly kDictMaxCard and kDictMaxCard + 1 distinct values,
  // each value four times: once in a narrow range, once spread over int64
  // from INT64_MIN to INT64_MAX; shuffled, and sorted. Analyze counts both
  // exactly, the chooser may pick a dictionary only for the first, and both
  // round-trip.
  for (size_t distinct :
       {EncodedColumn::kDictMaxCard, EncodedColumn::kDictMaxCard + 1}) {
    const uint64_t step = UINT64_MAX / (distinct - 1);
    std::vector<int64_t> narrow, spread;
    for (size_t i = 0; i < distinct; ++i) {
      narrow.push_back(static_cast<int64_t>(i) - 30'000);
      spread.push_back(i + 1 == distinct
                           ? INT64_MAX
                           : static_cast<int64_t>(
                                 static_cast<uint64_t>(INT64_MIN) + i * step));
    }
    ASSERT_EQ(spread.front(), INT64_MIN);
    for (const auto* base : {&narrow, &spread}) {
      std::vector<int64_t> values;
      for (int copy = 0; copy < 4; ++copy) {
        values.insert(values.end(), base->begin(), base->end());
      }
      Rng rng(distinct);
      rng.Shuffle(&values);
      for (bool sorted : {false, true}) {
        if (sorted) std::sort(values.begin(), values.end());
        SCOPED_TRACE(testing::Message()
                     << distinct << " distinct, "
                     << (base == &narrow ? "narrow" : "spread")
                     << (sorted ? ", sorted" : ", shuffled"));
        const ColumnStats stats = EncodedColumn::Analyze(values);
        EXPECT_EQ(stats.distinct, distinct);
        EXPECT_EQ(stats.sorted, sorted);
        const EncodedColumn chosen = EncodedColumn::Encode(values);
        if (distinct > EncodedColumn::kDictMaxCard) {
          EXPECT_NE(chosen.encoding(), Encoding::kDict);
        } else if (base == &spread && !sorted) {
          // 16-bit codes beat 64-bit FOR deltas and plain values.
          EXPECT_EQ(chosen.encoding(), Encoding::kDict);
        }
        ExpectRoundTrip(values);
      }
    }
  }
}

TEST(EncodedColumnTest, AnalyzeStats) {
  ColumnStats s = EncodedColumn::Analyze({1, 1, 2, 2, 2, 3});
  EXPECT_EQ(s.values, 6u);
  EXPECT_EQ(s.runs, 3u);
  EXPECT_EQ(s.distinct, 3u);
  EXPECT_TRUE(s.sorted);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 3);
  EXPECT_FALSE(EncodedColumn::Analyze({2, 1}).sorted);
}

// ---------------------------------------------------------------------------
// TableData seal/thaw lifecycle.
// ---------------------------------------------------------------------------

TEST(TableDataSealTest, SealedViewsMatchPlainReads) {
  TableData td(2);
  Rng rng(17);
  for (int64_t r = 0; r < 3000; ++r) {
    td.AppendRow({rng.UniformInt(0, 9), r * 2}, r);
  }
  std::vector<int64_t> col0 = td.column(0), col1 = td.column(1);
  std::vector<int64_t> rids = td.rids();
  size_t raw = td.resident_bytes();
  td.Seal();
  ASSERT_TRUE(td.sealed());
  EXPECT_LT(td.resident_bytes(), raw);
  EXPECT_EQ(td.num_rows(), 3000u);
  std::vector<int64_t> out;
  td.view(0).CopyTo(&out);
  EXPECT_EQ(out, col0);
  td.view(1).CopyTo(&out);
  EXPECT_EQ(out, col1);
  td.rid_view().CopyTo(&out);
  EXPECT_EQ(out, rids);
  EXPECT_EQ(td.view(0).At(1234), col0[1234]);
  td.Thaw();
  ASSERT_FALSE(td.sealed());
  EXPECT_EQ(td.column(0), col0);
  EXPECT_EQ(td.column(1), col1);
  EXPECT_EQ(td.rids(), rids);
}

TEST(TableDataSealTest, AppendAutoThaws) {
  TableData td(1);
  for (int64_t r = 0; r < 100; ++r) td.AppendRow({r}, r);
  td.Seal();
  ASSERT_TRUE(td.sealed());
  td.AppendRow({100}, 100);  // any append invalidates the encoding
  EXPECT_FALSE(td.sealed());
  EXPECT_EQ(td.num_rows(), 101u);
  EXPECT_EQ(td.column(0)[100], 100);

  TableData src(1);
  src.AppendRow({7}, 200);
  td.Seal();
  td.AppendRowFrom(src, 0);
  EXPECT_FALSE(td.sealed());
  EXPECT_EQ(td.num_rows(), 102u);
}

TEST(TableDataSealTest, DatabaseBulkAppendThawsSealedTables) {
  auto schema = schema::MakeSsbSchema();
  auto wl = workload::MakeSsbWorkload(schema);
  Database db = Database::Generate(schema, wl, SmallConfig());
  for (schema::TableId t = 0; t < schema.num_tables(); ++t) {
    db.mutable_table(t).Seal();
  }
  schema::TableId lo = schema.TableIndex("lineorder");
  size_t before = db.table(lo).num_rows();
  db.BulkAppend(0.1, 3);  // must auto-thaw every table it touches
  EXPECT_GT(db.table(lo).num_rows(), before);
  EXPECT_FALSE(db.table(lo).sealed());
}

/// Measured compression ratio of a generated testbed: sum of encoded bytes
/// vs plain bytes across all tables. The >=2x bound is this PR's acceptance
/// criterion.
double SealedCompressionRatio(Database* db, const schema::Schema& schema) {
  size_t resident = 0, raw = 0;
  for (schema::TableId t = 0; t < schema.num_tables(); ++t) {
    db->mutable_table(t).Seal();
    resident += db->table(t).resident_bytes();
    raw += db->table(t).raw_bytes();
  }
  return static_cast<double>(raw) / static_cast<double>(resident);
}

TEST(TableDataSealTest, SsbTestbedCompressesAtLeast2x) {
  auto schema = schema::MakeSsbSchema();
  auto wl = workload::MakeSsbWorkload(schema);
  GenerationConfig config;
  config.fraction = 5e-4;
  Database db = Database::Generate(schema, wl, config);
  EXPECT_GE(SealedCompressionRatio(&db, schema), 2.0);
}

TEST(TableDataSealTest, TpcchTestbedCompressesAtLeast2x) {
  auto schema = schema::MakeTpcchSchema();
  auto wl = workload::MakeTpcchWorkload(schema);
  GenerationConfig config;
  config.fraction = 5e-4;
  Database db = Database::Generate(schema, wl, config);
  EXPECT_GE(SealedCompressionRatio(&db, schema), 2.0);
}

TEST(DatabaseScaleTest, MaterializedFraction) {
  auto schema = schema::MakeMicroSchema();
  auto wl = workload::MakeMicroWorkload(schema);
  GenerationConfig config;
  config.fraction = 1e-5;
  config.small_table_threshold = 100;
  Database db = Database::Generate(schema, wl, config);
  schema::TableId a = schema.TableIndex("A");
  EXPECT_NEAR(db.materialized_fraction(a), 1e-5, 1e-7);
  EXPECT_EQ(db.table(a).num_rows(), 1'500u);  // 150M * 1e-5
  EXPECT_GT(db.total_rows(), 1'500u);
}

}  // namespace
}  // namespace lpa::storage
