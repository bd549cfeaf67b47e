#include "partition/partition_state.h"

#include <gtest/gtest.h>

#include "partition/actions.h"
#include "partition/featurizer.h"
#include "schema/catalogs.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa::partition {
namespace {

class SsbPartitionTest : public ::testing::Test {
 protected:
  SsbPartitionTest()
      : schema_(schema::MakeSsbSchema()),
        workload_(workload::MakeSsbWorkload(schema_)),
        edges_(EdgeSet::Extract(schema_, workload_)) {}

  schema::Schema schema_;
  workload::Workload workload_;
  EdgeSet edges_;
};

TEST_F(SsbPartitionTest, EdgeExtractionDeduplicates) {
  // SSB has exactly 4 join column pairs (fact to each dimension), each
  // appearing both as an FK and in many queries.
  EXPECT_EQ(edges_.size(), 4);
}

TEST_F(SsbPartitionTest, InitialStatePartitionsByPrimaryKey) {
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  for (schema::TableId t = 0; t < schema_.num_tables(); ++t) {
    const auto& tp = s0.table_partition(t);
    EXPECT_FALSE(tp.replicated);
    EXPECT_EQ(tp.column, schema_.table(t).primary_key);
  }
  for (int e = 0; e < edges_.size(); ++e) EXPECT_FALSE(s0.edge_active(e));
}

TEST_F(SsbPartitionTest, PartitionByRejectsNonCandidate) {
  auto s = PartitioningState::Initial(&schema_, &edges_);
  schema::TableId cust = schema_.TableIndex("customer");
  schema::ColumnId payload = schema_.table(cust).ColumnIndex("c_payload");
  EXPECT_FALSE(s.PartitionBy(cust, payload).ok());
  EXPECT_FALSE(s.PartitionBy(cust, 99).ok());
  EXPECT_FALSE(s.PartitionBy(99, 0).ok());
}

TEST_F(SsbPartitionTest, ReplicateAndRepartition) {
  auto s = PartitioningState::Initial(&schema_, &edges_);
  schema::TableId part = schema_.TableIndex("part");
  ASSERT_TRUE(s.Replicate(part).ok());
  EXPECT_TRUE(s.table_partition(part).replicated);
  ASSERT_TRUE(s.PartitionBy(part, 0).ok());
  EXPECT_FALSE(s.table_partition(part).replicated);
}

TEST_F(SsbPartitionTest, EdgeActivationCoPartitions) {
  auto s = PartitioningState::Initial(&schema_, &edges_);
  // Find the lineorder-customer edge.
  int cust_edge = -1;
  schema::TableId cust = schema_.TableIndex("customer");
  for (int e = 0; e < edges_.size(); ++e) {
    if (edges_.edge(e).Touches(cust)) cust_edge = e;
  }
  ASSERT_GE(cust_edge, 0);
  ASSERT_TRUE(s.ActivateEdge(cust_edge).ok());
  EXPECT_TRUE(s.edge_active(cust_edge));
  schema::TableId lo = schema_.TableIndex("lineorder");
  EXPECT_EQ(s.table_partition(lo).column,
            schema_.table(lo).ColumnIndex("lo_custkey"));
  EXPECT_EQ(s.table_partition(cust).column,
            schema_.table(cust).ColumnIndex("c_custkey"));
  // Pinned tables reject direct actions until deactivation.
  EXPECT_TRUE(s.TablePinned(lo));
  EXPECT_FALSE(s.Replicate(lo).ok());
  EXPECT_FALSE(s.PartitionBy(lo, 0).ok());
  ASSERT_TRUE(s.DeactivateEdge(cust_edge).ok());
  EXPECT_TRUE(s.Replicate(lo).ok());
}

TEST_F(SsbPartitionTest, ConflictingEdgesAreRejected) {
  auto s = PartitioningState::Initial(&schema_, &edges_);
  // Activating two edges that pin lineorder to different columns conflicts
  // (the paper's e1/e2 example, Sec 3.2).
  int first = -1, second = -1;
  schema::TableId lo = schema_.TableIndex("lineorder");
  for (int e = 0; e < edges_.size(); ++e) {
    if (!edges_.edge(e).Touches(lo)) continue;
    if (first < 0) {
      first = e;
    } else if (second < 0) {
      second = e;
    }
  }
  ASSERT_GE(second, 0);
  ASSERT_TRUE(s.ActivateEdge(first).ok());
  EXPECT_TRUE(s.EdgeConflicts(second));
  EXPECT_FALSE(s.ActivateEdge(second).ok());
  ASSERT_TRUE(s.DeactivateEdge(first).ok());
  EXPECT_TRUE(s.ActivateEdge(second).ok());
}

TEST_F(SsbPartitionTest, DiffTablesAndDesignKey) {
  auto a = PartitioningState::Initial(&schema_, &edges_);
  auto b = a;
  EXPECT_TRUE(a.SameDesign(b));
  EXPECT_TRUE(a.DiffTables(b).empty());
  schema::TableId part = schema_.TableIndex("part");
  ASSERT_TRUE(b.Replicate(part).ok());
  auto diff = a.DiffTables(b);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], part);
  EXPECT_NE(a.PhysicalDesignKey(), b.PhysicalDesignKey());
  EXPECT_EQ(a.PhysicalDesignKey({part}) == b.PhysicalDesignKey({part}), false);
  // Keys restricted to unaffected tables agree.
  schema::TableId cust = schema_.TableIndex("customer");
  EXPECT_EQ(a.PhysicalDesignKey({cust}), b.PhysicalDesignKey({cust}));
}

TEST_F(SsbPartitionTest, EdgeBitsDoNotAffectPhysicalDesignKey) {
  auto a = PartitioningState::Initial(&schema_, &edges_);
  auto b = a;
  // Activate an edge in b, then manually set a to the same physical design.
  ASSERT_TRUE(b.ActivateEdge(0).ok());
  const Edge& e = edges_.edge(0);
  ASSERT_TRUE(a.PartitionBy(e.left.table, e.left.column).ok());
  ASSERT_TRUE(a.PartitionBy(e.right.table, e.right.column).ok());
  EXPECT_TRUE(a.SameDesign(b));
  EXPECT_EQ(a.PhysicalDesignKey(), b.PhysicalDesignKey());
  EXPECT_FALSE(a == b);  // full states differ by the edge bit
}

class ActionSpaceTest : public SsbPartitionTest {
 protected:
  ActionSpaceTest() : actions_(&schema_, &edges_) {}
  ActionSpace actions_;
};

TEST_F(ActionSpaceTest, EnumerationIsStableAndComplete) {
  // SSB: 9 partition candidates (5 lineorder + 4 dimension PKs), 5 replicate
  // actions, 4 edge activations, 4 deactivations.
  EXPECT_EQ(actions_.size(), 9 + 5 + 4 + 4);
}

TEST_F(ActionSpaceTest, LegalActionsExcludeNoopsAndConflicts) {
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  auto legal = actions_.LegalActions(s0);
  for (int id : legal) {
    const Action& a = actions_.action(id);
    // No deactivations legal at s0 (no active edges).
    EXPECT_NE(a.kind, ActionKind::kDeactivateEdge);
    // No no-op partition actions: s0 partitions by primary key already.
    if (a.kind == ActionKind::kPartitionTable) {
      EXPECT_FALSE(a.column == schema_.table(a.table).primary_key);
    }
  }
  // 4 lineorder re-partitions + 5 replicates + 4 edge activations.
  EXPECT_EQ(legal.size(), 4u + 5u + 4u);
}

TEST_F(ActionSpaceTest, ApplyMatchesLegality) {
  Rng rng(3);
  auto s = PartitioningState::Initial(&schema_, &edges_);
  // Random walk: applying a legal action always succeeds; the action list
  // never goes empty (any-state-reachability requirement of Sec 4.1).
  for (int step = 0; step < 200; ++step) {
    auto legal = actions_.LegalActions(s);
    ASSERT_FALSE(legal.empty());
    int id = legal[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
    ASSERT_TRUE(actions_.Apply(id, &s).ok()) << actions_.Describe(id);
  }
}

TEST_F(ActionSpaceTest, IllegalApplyFails) {
  auto s = PartitioningState::Initial(&schema_, &edges_);
  // Find the replicate action for lineorder and apply twice.
  int replicate_lo = -1;
  for (int id = 0; id < actions_.size(); ++id) {
    const Action& a = actions_.action(id);
    if (a.kind == ActionKind::kReplicateTable &&
        a.table == schema_.TableIndex("lineorder")) {
      replicate_lo = id;
    }
  }
  ASSERT_GE(replicate_lo, 0);
  EXPECT_TRUE(actions_.Apply(replicate_lo, &s).ok());
  EXPECT_FALSE(actions_.Apply(replicate_lo, &s).ok());
  EXPECT_FALSE(actions_.Apply(-1, &s).ok());
  EXPECT_FALSE(actions_.Apply(actions_.size(), &s).ok());
}

TEST_F(ActionSpaceTest, AnyDesignReachableWithinTableCountSteps) {
  // Sec 4.1: from s0 any physical design is reachable within |T| actions.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    // Draw a random target design.
    auto target = PartitioningState::Initial(&schema_, &edges_);
    for (schema::TableId t = 0; t < schema_.num_tables(); ++t) {
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(target.Replicate(t).ok());
      } else {
        std::vector<schema::ColumnId> candidates;
        const auto& table = schema_.table(t);
        for (size_t c = 0; c < table.columns.size(); ++c) {
          if (table.columns[c].partitionable) {
            candidates.push_back(static_cast<schema::ColumnId>(c));
          }
        }
        ASSERT_TRUE(
            target
                .PartitionBy(t, candidates[static_cast<size_t>(rng.UniformInt(
                                    0, static_cast<int64_t>(candidates.size()) - 1))])
                .ok());
      }
    }
    // Greedily fix one table per step.
    auto s = PartitioningState::Initial(&schema_, &edges_);
    int steps = 0;
    for (schema::TableId t : s.DiffTables(target)) {
      const auto& tp = target.table_partition(t);
      if (tp.replicated) {
        ASSERT_TRUE(s.Replicate(t).ok());
      } else {
        ASSERT_TRUE(s.PartitionBy(t, tp.column).ok());
      }
      ++steps;
    }
    EXPECT_TRUE(s.SameDesign(target));
    EXPECT_LE(steps, schema_.num_tables());
  }
}

class FeaturizerTest : public SsbPartitionTest {
 protected:
  FeaturizerTest() : feat_(&schema_, &edges_, 13) {}
  Featurizer feat_;
};

TEST_F(FeaturizerTest, Dimensions) {
  // State: per-table (1 + candidates) = (1+5)+(1+1)*4 = 14, + 4 edges + 13
  // frequency slots.
  EXPECT_EQ(feat_.state_dim(), 14 + 4 + 13);
}

TEST_F(FeaturizerTest, StateEncodingMatchesFig2Layout) {
  auto s = PartitioningState::Initial(&schema_, &edges_);
  schema::TableId part = schema_.TableIndex("part");
  ASSERT_TRUE(s.Replicate(part).ok());
  std::vector<double> freqs(13, 0.5);
  freqs[1] = 1.0;
  auto enc = feat_.EncodeState(s, freqs);
  ASSERT_EQ(static_cast<int>(enc.size()), feat_.state_dim());
  // Each table section is one-hot: sums to exactly 1.
  // lineorder section: offset 0 len 6, partitioned by pk (slot 0).
  EXPECT_DOUBLE_EQ(enc[0], 0.0);  // not replicated
  EXPECT_DOUBLE_EQ(enc[1], 1.0);  // partitioned by first candidate
  // Frequencies land at the tail.
  EXPECT_DOUBLE_EQ(enc[enc.size() - 13 + 1], 1.0);
  EXPECT_DOUBLE_EQ(enc[enc.size() - 13], 0.5);
  // Replicated part table sets its r-bit.
  double one_bits = 0.0;
  for (double v : enc) one_bits += (v == 1.0) ? 1 : 0;
  EXPECT_GE(one_bits, 5.0);  // five table sections each contribute one bit
}

TEST_F(FeaturizerTest, EncodingIsInjectiveOverDesigns) {
  std::vector<double> freqs(13, 1.0);
  auto a = PartitioningState::Initial(&schema_, &edges_);
  auto b = a;
  ASSERT_TRUE(b.Replicate(schema_.TableIndex("date")).ok());
  EXPECT_NE(feat_.EncodeState(a, freqs), feat_.EncodeState(b, freqs));
  auto c = a;
  ASSERT_TRUE(c.ActivateEdge(2).ok());
  EXPECT_NE(feat_.EncodeState(a, freqs), feat_.EncodeState(c, freqs));
}

TEST(FeaturizerSlots, ReservedQuerySlotsStayZero) {
  auto schema = schema::MakeSsbSchema();
  auto wl = workload::MakeSsbWorkload(schema);
  auto edges = EdgeSet::Extract(schema, wl);
  Featurizer feat(&schema, &edges, 20);  // 13 queries + 7 reserve slots
  auto s = PartitioningState::Initial(&schema, &edges);
  std::vector<double> freqs(13, 1.0);
  auto enc = feat.EncodeState(s, freqs);
  for (int i = 0; i < 7; ++i) {
    EXPECT_DOUBLE_EQ(enc[enc.size() - 1 - static_cast<size_t>(i)], 0.0);
  }
}

TEST(DesignFingerprintTest, TracksDesignChangesAndScopes) {
  auto schema = schema::MakeSsbSchema();
  auto wl = workload::MakeSsbWorkload(schema);
  auto edges = EdgeSet::Extract(schema, wl);
  auto a = PartitioningState::Initial(&schema, &edges);
  auto b = a;
  schema::TableId cust = schema.TableIndex("customer");
  schema::TableId part = schema.TableIndex("part");
  ASSERT_TRUE(b.Replicate(part).ok());
  // Full fingerprint differs; the fingerprint restricted to untouched tables
  // does not (the cache-key scoping property).
  EXPECT_NE(a.DesignFingerprint(), b.DesignFingerprint());
  EXPECT_NE(a.DesignFingerprint({part}), b.DesignFingerprint({part}));
  EXPECT_EQ(a.DesignFingerprint({cust}), b.DesignFingerprint({cust}));
  EXPECT_NE(a.TableDesignHash(part), b.TableDesignHash(part));
  EXPECT_EQ(a.TableDesignHash(cust), b.TableDesignHash(cust));
  // Round-tripping back to the same design restores the fingerprint.
  auto c = PartitioningState::FromDesign(&schema, &edges, a.table_partitions());
  EXPECT_EQ(c.DesignFingerprint(), a.DesignFingerprint());
}

}  // namespace
}  // namespace lpa::partition
