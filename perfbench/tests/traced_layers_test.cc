#include "traced_layers.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/experiments.h"
#include "core/simulation.h"
#include "span_trace.h"
#include "topology.h"

namespace perfbench {
namespace {

oscar::GrowthConfig SmallGrowth(uint64_t seed, oscar::OverlayPtr overlay) {
  oscar::GrowthConfig config;
  config.target_size = 400;
  config.queries_per_checkpoint = 50;
  config.seed = seed;
  config.checkpoints = {100, 200, 400};
  config.key_distribution = oscar::MakeKeyDistribution("gnutella").value();
  config.degree_distribution =
      oscar::MakePaperDegreeDistribution("realistic").value();
  config.overlay = std::move(overlay);
  config.rewire_threads = 2;
  return config;
}

TEST(TracedLayers, DecoratedGrowthMatchesUndecorated) {
  for (uint64_t seed : {42u, 43u}) {
    oscar::Simulation plain(SmallGrowth(seed, oscar::OscarFactory()()));
    auto want = plain.Run();
    ASSERT_TRUE(want.ok()) << want.status();

    Tracer::Start();
    oscar::Simulation traced(SmallGrowth(seed, MakeTracedOscar()));
    auto got = traced.Run();
    const std::vector<Span> spans = Tracer::Collect();
    ASSERT_TRUE(got.ok()) << got.status();

    EXPECT_TRUE(SameTopology(oscar::TopologySnapshot(plain.network()),
                             oscar::TopologySnapshot(traced.network()))
                    .ok())
        << "seed " << seed;
    ASSERT_EQ(want.value().checkpoints.size(), got.value().checkpoints.size());
    for (size_t i = 0; i < want.value().checkpoints.size(); ++i) {
      EXPECT_EQ(want.value().checkpoints[i].search.avg_cost,
                got.value().checkpoints[i].search.avg_cost);
    }
    EXPECT_EQ(plain.config().overlay->sampling_steps(),
              traced.config().overlay->sampling_steps());

    // Joins walk the live network, checkpoint rewires walk snapshots.
    const auto totals = TotalsByName(spans);
    ASSERT_EQ(totals.count("sampling.live"), 1u);
    ASSERT_EQ(totals.count("sampling.csr"), 1u);
    EXPECT_GT(totals.at("overlay.build_links").calls, 0u);
    EXPECT_EQ(totals.at("overlay.plan_links").calls, 100u + 200u + 400u);
    EXPECT_EQ(totals.at("sampling.live").work + totals.at("sampling.csr").work,
              traced.config().overlay->sampling_steps());
  }
}

TEST(TracedLayers, ForwardsTheSamplingLedger) {
  auto inner = oscar::OscarFactory()();
  TracedOverlay traced(inner);
  EXPECT_EQ(traced.name(), inner->name());
  EXPECT_EQ(traced.SupportsPlanning(), inner->SupportsPlanning());
  EXPECT_EQ(traced.SupportsJoinPlanning(), inner->SupportsJoinPlanning());
  traced.AddSamplingSteps(17);
  EXPECT_EQ(inner->sampling_steps(), 17u);
  inner->AddSamplingSteps(5);
  EXPECT_EQ(traced.sampling_steps(), 22u);
}

TEST(TracedLayers, ScenarioTopologyRebuiltThroughSimulationIsIdentical) {
  for (uint64_t seed : {42u, 44u}) {
    oscar::ScenarioOptions base;
    base.network_size = 300;
    base.seed = seed;
    auto want = oscar::GrowScenarioTopology(base);
    ASSERT_TRUE(want.ok()) << want.status();
    oscar::GrowthResult growth;
    auto got = GrowTopologyWith(base, MakeTracedOscar(), 2, &growth);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(SameTopology(want.value().snapshot, got.value().snapshot).ok())
        << "seed " << seed;
    EXPECT_EQ(want.value().overlay->sampling_steps(),
              got.value().overlay->sampling_steps());
    EXPECT_EQ(growth.rewire_count, 1u);
  }
}

TEST(TopologyOracle, AgreesWithRingOwnerOf) {
  oscar::Ring ring;
  oscar::Rng rng(7);
  std::vector<oscar::KeyId> keys;
  for (oscar::PeerId id = 0; id < 200; ++id) {
    // Every fifth peer shares its key with the previous one.
    const oscar::KeyId key = id % 5 == 4 ? keys.back()
                                         : oscar::KeyId::FromRaw(rng.Next());
    keys.push_back(key);
    ring.Insert(key, id);
  }
  for (int i = 0; i < 5000; ++i) {
    const oscar::KeyId key = i % 4 == 0
                                 ? keys[rng.UniformInt(keys.size())]
                                 : oscar::KeyId::FromRaw(rng.Next());
    EXPECT_EQ(OracleOwner(ring, key), *ring.OwnerOf(key));
  }
  oscar::Ring single;
  single.Insert(oscar::KeyId::FromUnit(0.5), 3);
  EXPECT_EQ(OracleOwner(single, oscar::KeyId::FromUnit(0.1)), 3u);
}

}  // namespace
}  // namespace perfbench
