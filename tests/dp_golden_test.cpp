// Golden results of the DP designer. Every setup pins the design
// fingerprint, the bits of best_cost and certified_lower_bound, and the
// nodes expanded, pruned and merged. The setups cover TPC-CH with
// perfbench's settings (ε = 0.1, beam above 8 tables), SSB and TPC-DS at
// ε = 0 and ε = 0.1, each under the exact model and under a
// NoisyOptimizerModel with the independence assumption on (so that
// DesignCostScale != 1). Each setup runs twice: through baselines::DpDesign
// and through a DpDesigner built on the model's plain QueryCost, which must
// agree bit for bit. The noisy TPC-DS setups overflow the beam, so their
// certified lower bound is 0. Any change to the planner's arithmetic, to the
// designer's bounds, pruning or merging, or to what the DP plans moves a pin.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "baselines/dp_baseline.h"
#include "costmodel/cost_model.h"
#include "costmodel/noisy_model.h"
#include "partition/partition_state.h"
#include "schema/catalogs.h"
#include "search/dp_designer.h"
#include "workload/benchmarks.h"

namespace lpa::search {
namespace {

using costmodel::CostModel;
using costmodel::HardwareProfile;
using costmodel::NoisyOptimizerModel;
using partition::EdgeSet;
using partition::PartitioningState;

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

struct Pin {
  uint64_t design = 0;
  uint64_t best_cost = 0;
  uint64_t lower_bound = 0;
  uint64_t expanded = 0;
  uint64_t pruned = 0;
  uint64_t merged = 0;
};

std::string Describe(const Pin& p) {
  return "{" + std::to_string(p.design) + ", " + std::to_string(p.best_cost) +
         ", " + std::to_string(p.lower_bound) + ", " +
         std::to_string(p.expanded) + ", " + std::to_string(p.pruned) + ", " +
         std::to_string(p.merged) + "}";
}

Pin PinOf(const DpResult& r) {
  return Pin{r.best_state.DesignFingerprint(), Bits(r.best_cost),
             Bits(r.certified_lower_bound), r.nodes_expanded, r.nodes_pruned,
             r.nodes_merged};
}

void ExpectPin(const Pin& want, const Pin& got, const std::string& what) {
  EXPECT_EQ(got.design, want.design) << what << " got " << Describe(got);
  EXPECT_EQ(got.best_cost, want.best_cost) << what << " got " << Describe(got);
  EXPECT_EQ(got.lower_bound, want.lower_bound)
      << what << " got " << Describe(got);
  EXPECT_EQ(got.expanded, want.expanded) << what << " got " << Describe(got);
  EXPECT_EQ(got.pruned, want.pruned) << what << " got " << Describe(got);
  EXPECT_EQ(got.merged, want.merged) << what << " got " << Describe(got);
}

/// perfbench's DP settings: the beam above 8 tables.
DpDesignerConfig Settings(const schema::Schema& schema, double epsilon) {
  DpDesignerConfig config;
  config.epsilon = epsilon;
  if (schema.num_tables() > 8) {
    config.max_frontier = 128;
    config.max_bound_enum = 512;
  }
  return config;
}

struct Bed {
  explicit Bed(const std::string& name) {
    if (name == "ssb") {
      schema = std::make_unique<schema::Schema>(schema::MakeSsbSchema());
      wl = std::make_unique<workload::Workload>(
          workload::MakeSsbWorkload(*schema));
    } else if (name == "tpcch") {
      schema = std::make_unique<schema::Schema>(schema::MakeTpcchSchema());
      wl = std::make_unique<workload::Workload>(
          workload::MakeTpcchWorkload(*schema));
    } else {
      schema = std::make_unique<schema::Schema>(schema::MakeTpcdsSchema());
      wl = std::make_unique<workload::Workload>(
          workload::MakeTpcdsWorkload(*schema));
    }
    edges = std::make_unique<EdgeSet>(EdgeSet::Extract(*schema, *wl));
    const HardwareProfile hw = HardwareProfile::DiskBased10G();
    exact = std::make_unique<CostModel>(schema.get(), hw);
    noisy = std::make_unique<NoisyOptimizerModel>(
        schema.get(), hw, /*depth_sigma=*/0.5, /*seed=*/4242,
        /*use_independence_assumption=*/true, /*design_sigma=*/0.8);
  }

  /// Runs the setup both ways and checks them against `want`.
  void Check(const CostModel& model, double epsilon, const Pin& want,
             const std::string& what) const {
    const std::vector<double> uniform(static_cast<size_t>(wl->num_queries()),
                                      1.0);
    const DpDesignerConfig config = Settings(*schema, epsilon);
    const DpResult via_baseline =
        baselines::DpDesign(*schema, *wl, *edges, model, uniform, config);
    ExpectPin(want, PinOf(via_baseline), what + " (DpDesign)");

    DpDesigner direct(
        schema.get(), wl.get(), edges.get(),
        [&](int j, const PartitioningState& s) {
          return model.QueryCost(wl->query(j), s);
        },
        config);
    ExpectPin(want, PinOf(direct.Run(uniform)), what + " (DpDesigner)");
  }

  std::unique_ptr<schema::Schema> schema;
  std::unique_ptr<workload::Workload> wl;
  std::unique_ptr<EdgeSet> edges;
  std::unique_ptr<CostModel> exact;
  std::unique_ptr<NoisyOptimizerModel> noisy;
};

// Pins: {design fingerprint, best_cost bits, certified_lower_bound bits,
// nodes expanded, pruned, merged}.

TEST(DpGoldenTest, TpcchPerfbenchSettings) {
  Bed bed("tpcch");
  bed.Check(*bed.exact, 0.1,
            {1841831410532159958ULL, 4626367592715398994ULL,
             4626071147650233670ULL, 15, 14, 0},
            "tpcch exact eps=0.1");
  bed.Check(*bed.noisy, 0.1,
            {15995308401505405211ULL, 4621994959824368764ULL,
             4621484251304269736ULL, 22, 27, 0},
            "tpcch noisy eps=0.1");
}

TEST(DpGoldenTest, Ssb) {
  Bed bed("ssb");
  bed.Check(*bed.exact, 0.0,
            {2818972481918147517ULL, 4640065048554284830ULL,
             4640065048554284830ULL, 10, 8, 0},
            "ssb exact eps=0");
  bed.Check(*bed.exact, 0.1,
            {2818972481918147517ULL, 4640065048554284830ULL,
             4640065048554284830ULL, 6, 6, 0},
            "ssb exact eps=0.1");
  bed.Check(*bed.noisy, 0.0,
            {1673154557404720149ULL, 4634780992225938302ULL,
             4634780992225938302ULL, 30, 18, 0},
            "ssb noisy eps=0");
  bed.Check(*bed.noisy, 0.1,
            {1673154557404720149ULL, 4634780992225938302ULL,
             4634780992225938302ULL, 23, 17, 0},
            "ssb noisy eps=0.1");
}

TEST(DpGoldenTest, Tpcds) {
  Bed bed("tpcds");
  bed.Check(*bed.exact, 0.0,
            {3229566813804903545ULL, 4643224474289415725ULL,
             4643224474289415725ULL, 133, 200, 46},
            "tpcds exact eps=0");
  bed.Check(*bed.exact, 0.1,
            {16803853681732966224ULL, 4643245676397502822ULL,
             4642471354166913174ULL, 25, 2, 0},
            "tpcds exact eps=0.1");
  bed.Check(*bed.noisy, 0.0,
            {7148555166375116736ULL, 4640802921838072232ULL, 0, 1651, 2579,
             483},
            "tpcds noisy eps=0");
  bed.Check(*bed.noisy, 0.1,
            {13989117963647887742ULL, 4641352846407642167ULL, 0, 950, 3232,
             86},
            "tpcds noisy eps=0.1");
}

}  // namespace
}  // namespace lpa::search
