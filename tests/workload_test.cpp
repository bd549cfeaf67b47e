#include "workload/workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "schema/catalogs.h"
#include "workload/benchmarks.h"

namespace lpa::workload {
namespace {

class BenchmarkWorkloadTest
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

TEST_P(BenchmarkWorkloadTest, AllQueriesValidate) {
  auto [name, expected_queries] = GetParam();
  schema::Schema s;
  Workload w;
  if (std::string(name) == "ssb") {
    s = schema::MakeSsbSchema();
    w = MakeSsbWorkload(s);
  } else if (std::string(name) == "tpcds") {
    s = schema::MakeTpcdsSchema();
    w = MakeTpcdsWorkload(s);
  } else if (std::string(name) == "tpcch") {
    s = schema::MakeTpcchSchema();
    w = MakeTpcchWorkload(s);
  } else {
    s = schema::MakeMicroSchema();
    w = MakeMicroWorkload(s);
  }
  EXPECT_EQ(w.num_queries(), expected_queries);
  EXPECT_TRUE(w.Validate(s).ok()) << w.Validate(s).ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkWorkloadTest,
    ::testing::Values(std::make_pair("ssb", 13), std::make_pair("tpcds", 60),
                      std::make_pair("tpcch", 22), std::make_pair("micro", 2)),
    [](const auto& info) { return std::string(info.param.first); });

TEST(QuerySpecTest, ValidationCatchesDisconnectedJoinGraph) {
  schema::Schema s = schema::MakeSsbSchema();
  QuerySpec q;
  q.name = "broken";
  q.scans = {TableScan{s.TableIndex("lineorder"), 1.0},
             TableScan{s.TableIndex("customer"), 1.0}};
  // No join between the two scans.
  EXPECT_FALSE(q.Validate(s).ok());
}

TEST(QuerySpecTest, ValidationCatchesDuplicateScan) {
  schema::Schema s = schema::MakeSsbSchema();
  QuerySpec q;
  q.name = "dup";
  q.scans = {TableScan{0, 1.0}, TableScan{0, 0.5}};
  EXPECT_FALSE(q.Validate(s).ok());
}

TEST(QuerySpecTest, ValidationCatchesBadSelectivity) {
  schema::Schema s = schema::MakeSsbSchema();
  QuerySpec q;
  q.name = "sel";
  q.scans = {TableScan{0, 1.5}};
  EXPECT_FALSE(q.Validate(s).ok());
  q.scans = {TableScan{0, 0.0}};
  EXPECT_FALSE(q.Validate(s).ok());
}

TEST(QuerySpecTest, SelectivityLookup) {
  schema::Schema s = schema::MakeSsbSchema();
  Workload w = MakeSsbWorkload(s);
  const QuerySpec& q11 = w.query(0);
  EXPECT_TRUE(q11.References(s.TableIndex("lineorder")));
  EXPECT_FALSE(q11.References(s.TableIndex("part")));
  EXPECT_DOUBLE_EQ(q11.SelectivityOf(s.TableIndex("part")), 1.0);
  EXPECT_LT(q11.SelectivityOf(s.TableIndex("lineorder")), 1.0);
}

TEST(WorkloadTest, FrequencyNormalization) {
  schema::Schema s = schema::MakeSsbSchema();
  Workload w = MakeSsbWorkload(s);
  std::vector<double> f(13, 2.0);
  f[3] = 8.0;
  ASSERT_TRUE(w.SetFrequencies(f).ok());
  EXPECT_DOUBLE_EQ(w.frequencies()[3], 1.0);
  EXPECT_DOUBLE_EQ(w.frequencies()[0], 0.25);
}

TEST(WorkloadTest, SetFrequenciesRejectsBadInput) {
  schema::Schema s = schema::MakeSsbSchema();
  Workload w = MakeSsbWorkload(s);
  EXPECT_FALSE(w.SetFrequencies({1.0, 2.0}).ok());       // wrong size
  std::vector<double> neg(13, 1.0);
  neg[0] = -1.0;
  EXPECT_FALSE(w.SetFrequencies(neg).ok());              // negative entry
}

TEST(WorkloadTest, CheckFrequenciesRejectsNonFiniteEntries) {
  schema::Schema s = schema::MakeSsbSchema();
  Workload w = MakeSsbWorkload(s);
  std::vector<double> f(13, 1.0);
  EXPECT_TRUE(w.CheckFrequencies(f).ok());
  f[4] = 0.0;  // a zero slot is a valid frequency
  EXPECT_TRUE(w.CheckFrequencies(f).ok());
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -0.5}) {
    std::vector<double> g = f;
    g[7] = bad;
    EXPECT_EQ(w.CheckFrequencies(g).code(), Status::Code::kInvalidArgument)
        << bad;
    EXPECT_FALSE(w.SetFrequencies(g).ok()) << bad;
  }
  EXPECT_FALSE(w.CheckFrequencies(std::vector<double>(14, 1.0)).ok());
  EXPECT_FALSE(w.CheckFrequencies(std::vector<double>(12, 1.0)).ok());
  // A rejected vector leaves the workload's own frequencies untouched.
  EXPECT_EQ(w.frequencies(), std::vector<double>(13, 1.0));
}

TEST(WorkloadTest, QueriesTouching) {
  schema::Schema s = schema::MakeSsbSchema();
  Workload w = MakeSsbWorkload(s);
  // Every SSB query touches lineorder.
  auto all = w.QueriesTouching({s.TableIndex("lineorder")});
  EXPECT_EQ(static_cast<int>(all.size()), w.num_queries());
  // Only flights 2 and 4 touch part: q2.1-q2.3, q4.1-q4.3.
  auto part = w.QueriesTouching({s.TableIndex("part")});
  EXPECT_EQ(part.size(), 6u);
}

TEST(WorkloadTest, AddQueryStartsAtZeroFrequency) {
  schema::Schema s = schema::MakeSsbSchema();
  Workload w = MakeSsbWorkload(s);
  QuerySpec fresh = w.query(0);
  fresh.name = "new";
  int idx = w.AddQuery(fresh);
  EXPECT_EQ(idx, 13);
  EXPECT_DOUBLE_EQ(w.frequencies()[13], 0.0);
}

TEST(FrequencyHelpersTest, OverRepresented) {
  auto f = OverRepresentedFrequencies(5, 2, 0.1, 1.0);
  EXPECT_DOUBLE_EQ(f[2], 1.0);
  EXPECT_DOUBLE_EQ(f[0], 0.1);
}

TEST(FrequencyHelpersTest, SamplersAreNormalizedAndDeterministic) {
  Rng rng1(7), rng2(7);
  auto a = SampleUniformFrequencies(10, &rng1);
  auto b = SampleUniformFrequencies(10, &rng2);
  EXPECT_EQ(a, b);
  double max_f = *std::max_element(a.begin(), a.end());
  EXPECT_DOUBLE_EQ(max_f, 1.0);

  Rng rng3(9);
  auto boosted = SampleBoostedFrequencies(10, {1, 2}, &rng3);
  // Boosted entries draw from [0.5, 1], others from [0, 0.3]: after
  // normalization the boosted ones dominate.
  EXPECT_GT(boosted[1] + boosted[2], boosted[0] + boosted[3]);
}

TEST(TpcchWorkloadTest, CompoundJoinsCarryDistrictEqualities) {
  schema::Schema s = schema::MakeTpcchSchema();
  Workload w = MakeTpcchWorkload(s);
  // q12 joins order with orderline; the predicate must include the composite
  // (id, wd, d) equalities enabling district co-partitioning.
  const QuerySpec* q12 = nullptr;
  for (const auto& q : w.queries()) {
    if (q.name == "q12") q12 = &q;
  }
  ASSERT_NE(q12, nullptr);
  ASSERT_EQ(q12->joins.size(), 1u);
  EXPECT_EQ(q12->joins[0].equalities.size(), 3u);
}

}  // namespace
}  // namespace lpa::workload
