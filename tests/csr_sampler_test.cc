// Backend lockstep for the random-walk sampler: over the same topology
// — the live Network (the "generic" side below) and its frozen
// TopologySnapshot (the "csr" side) — the same rng stream must produce
// the same visited-peer sequence, the same returned sample and the same
// step charge, per walk, on seeds 42-45, intact and 15%-crashed. Both
// sides run the one walk; this guards that NetworkView resolves ring
// positions and link rows identically per backend, which is what lets
// checkpoint rewiring plan over snapshots without moving a sampling
// byte. The gap size estimator is held to the same standard.

#include <gtest/gtest.h>

#include "churn/churn.h"
#include "core/network_view.h"
#include "core/topology_snapshot.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "sampling/random_walk_sampler.h"
#include "sampling/size_estimator.h"

namespace oscar {
namespace {

Network LinkedNetwork(size_t n, uint64_t seed) {
  Network net;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    net.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{8, 8});
  }
  KleinbergOverlay overlay;
  for (PeerId id : net.AlivePeers()) {
    EXPECT_TRUE(overlay.BuildLinks(&net, id, &rng).ok());
  }
  return net;
}

TEST(CsrSamplerTest, PerWalkLockstepAcrossSeedsAndCrashLevels) {
  // Small cutoff so wide segments actually exercise the rejection walk
  // (at test scale the tuned default would shunt everything onto the
  // successor-list path and test nothing).
  RandomWalkOptions generic_options;
  generic_options.successor_list_cutoff = 8;
  RandomWalkOptions csr_options = generic_options;
  std::vector<PeerId> generic_trace;
  std::vector<PeerId> csr_trace;
  generic_options.visit_trace = &generic_trace;
  csr_options.visit_trace = &csr_trace;
  const RandomWalkSegmentSampler generic_sampler(generic_options);
  const RandomWalkSegmentSampler csr_sampler(csr_options);

  for (uint64_t seed = 42; seed <= 45; ++seed) {
    for (const double crash : {0.0, 0.15}) {
      Network net = LinkedNetwork(300, seed);
      if (crash > 0.0) {
        Rng crash_rng(seed ^ 0xc0ffeeULL);
        ASSERT_TRUE(CrashFraction(&net, crash, &crash_rng).ok());
      }
      const TopologySnapshot snap(net);
      const std::vector<PeerId> alive = net.AlivePeers();
      // Twin rng streams: the draws must stay aligned through every
      // walk, which only holds if both paths consume identically.
      Rng generic_rng(seed * 31337);
      Rng csr_rng(seed * 31337);
      Rng segment_rng(seed * 101);  // Shared segment/origin chooser.
      size_t walks_taken = 0;
      for (int q = 0; q < 250; ++q) {
        const PeerId origin = alive[static_cast<size_t>(
            segment_rng.UniformInt(alive.size()))];
        const KeyId from = KeyId::FromUnit(segment_rng.NextDouble());
        // Sweep widths: slivers (successor list), mid, and near-full
        // ring (rejection walk hits its stride tests fast).
        const double width =
            0.02 + 0.9 * segment_rng.NextDouble();
        const KeyId to = from.OffsetBy(width);
        generic_trace.clear();
        csr_trace.clear();
        const auto a =
            generic_sampler.SampleInSegment(net, origin, from, to,
                                            &generic_rng);
        const auto b =
            csr_sampler.SampleInSegment(snap, origin, from, to, &csr_rng);
        ASSERT_EQ(a.ok(), b.ok()) << "seed " << seed << " q " << q;
        if (!a.ok()) continue;
        ASSERT_EQ(a.value().peer, b.value().peer)
            << "seed " << seed << " q " << q;
        ASSERT_EQ(a.value().steps, b.value().steps)
            << "seed " << seed << " q " << q;
        ASSERT_EQ(generic_trace, csr_trace)
            << "visited sequences diverged, seed " << seed << " q " << q;
        if (!generic_trace.empty()) ++walks_taken;
      }
      // The sweep must actually exercise the walk path, not just the
      // shared successor-list branch.
      EXPECT_GT(walks_taken, 50u) << "seed " << seed << " crash " << crash;
    }
  }
}

TEST(CsrSamplerTest, GapEstimatorSnapshotPathMatchesGeneric) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Network net = LinkedNetwork(220, seed);
    Rng crash_rng(seed ^ 0xabcULL);
    ASSERT_TRUE(CrashFraction(&net, 0.15, &crash_rng).ok());
    const TopologySnapshot snap(net);
    Rng rng(seed);  // Unused by the gap estimator; signature only.
    for (const uint32_t window : {4u, 16u, 64u}) {
      const GapSizeEstimator estimator(window);
      for (PeerId id = 0; id < net.size(); ++id) {
        EXPECT_DOUBLE_EQ(estimator.Estimate(net, id, &rng),
                         estimator.Estimate(snap, id, &rng))
            << "window " << window << " peer " << id;
      }
    }
  }
}

}  // namespace
}  // namespace oscar
