// Backend lockstep for the route steppers: one stepper driven over a
// live Network and one over its frozen TopologySnapshot must make the
// same move at every step — same step kinds, same hops, same dead
// probes, same final routes — across seeds 42-45, intact and crashed.
// Both run the same code; what differs is only how NetworkView
// resolves ring positions and link rows per backend, and this is the
// per-query guard that those resolutions agree.

#include <gtest/gtest.h>

#include "churn/churn.h"
#include "core/network_view.h"
#include "core/topology_snapshot.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "routing/backtracking_router.h"
#include "routing/route_stepper.h"
#include "routing/greedy_router.h"

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

/// Drives two fresh steppers of type `Stepper`, one over the live
/// network and one over its snapshot, one Step at a time and requires
/// every observable of every step to agree.
template <typename Stepper>
void ExpectLockstepEqual(const Network& net, const TopologySnapshot& snap,
                         PeerId source, KeyId target, const char* label) {
  const NetworkView live_view(net);
  const NetworkView frozen_view(snap);
  Stepper live;
  Stepper frozen;
  live.Start(live_view, source, target);
  frozen.Start(frozen_view, source, target);
  ASSERT_EQ(live.done(), frozen.done()) << label;
  // Generous bound: both algorithms terminate well before it.
  for (size_t i = 0; i < 8 * snap.alive_count() + 64 && !live.done(); ++i) {
    ASSERT_FALSE(frozen.done()) << label << " step " << i;
    const RouteStep a = live.Step(live_view);
    const RouteStep b = frozen.Step(frozen_view);
    ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind))
        << label << " step " << i;
    ASSERT_EQ(a.from, b.from) << label << " step " << i;
    ASSERT_EQ(a.to, b.to) << label << " step " << i;
    ASSERT_EQ(a.dead_probes, b.dead_probes) << label << " step " << i;
    ASSERT_EQ(live.current(), frozen.current()) << label << " step " << i;
    ASSERT_EQ(live.done(), frozen.done()) << label << " step " << i;
  }
  ASSERT_TRUE(live.done() && frozen.done()) << label;
  const RouteResult& ra = live.result();
  const RouteResult& rb = frozen.result();
  EXPECT_EQ(ra.success, rb.success) << label;
  EXPECT_EQ(ra.hops, rb.hops) << label;
  EXPECT_EQ(ra.wasted, rb.wasted) << label;
  EXPECT_EQ(ra.terminal, rb.terminal) << label;
  EXPECT_EQ(ra.path, rb.path) << label;
}

TEST(CsrStepperTest, LockstepEqualityAcrossSeedsAndCrashLevels) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    for (const double crash : {0.0, 0.2}) {
      Network net = LinkedNetwork(250, seed);
      if (crash > 0.0) {
        Rng crash_rng(seed ^ 0xfeedULL);
        ASSERT_TRUE(CrashFraction(&net, crash, &crash_rng).ok());
      }
      const TopologySnapshot snap(net);
      const std::vector<PeerId> alive = net.AlivePeers();
      Rng query_rng(seed * 777);
      for (int q = 0; q < 120; ++q) {
        const PeerId source =
            alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
        const KeyId target = KeyId::FromUnit(query_rng.NextDouble());
        ExpectLockstepEqual<GreedyStepper>(net, snap, source, target,
                                           "greedy");
        ExpectLockstepEqual<BacktrackingStepper>(net, snap, source, target,
                                                 "backtracking");
      }
    }
  }
}

TEST(CsrStepperTest, RouterDispatchMatchesGenericPathPerQuery) {
  // Router::Route over a snapshot vs over the live network: whole-route
  // equality, the harness-facing contract.
  const GreedyRouter greedy;
  const BacktrackingRouter backtracking;
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Network net = LinkedNetwork(250, seed);
    Rng crash_rng(seed ^ 0xbeefULL);
    ASSERT_TRUE(CrashFraction(&net, 0.15, &crash_rng).ok());
    const TopologySnapshot snap(net);
    const std::vector<PeerId> alive = net.AlivePeers();
    Rng query_rng(seed * 1009);
    for (int q = 0; q < 150; ++q) {
      const PeerId source =
          alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
      const KeyId target = KeyId::FromUnit(query_rng.NextDouble());
      for (const Router* router :
           {static_cast<const Router*>(&greedy),
            static_cast<const Router*>(&backtracking)}) {
        const RouteResult live = router->Route(net, source, target);
        const RouteResult frozen = router->Route(snap, source, target);
        ASSERT_EQ(live.success, frozen.success)
            << router->name() << " seed " << seed << " query " << q;
        ASSERT_EQ(live.hops, frozen.hops)
            << router->name() << " seed " << seed << " query " << q;
        ASSERT_EQ(live.wasted, frozen.wasted)
            << router->name() << " seed " << seed << " query " << q;
        ASSERT_EQ(live.path, frozen.path)
            << router->name() << " seed " << seed << " query " << q;
      }
    }
  }
}

}  // namespace
}  // namespace oscar
