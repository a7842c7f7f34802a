// Ring-arithmetic edge cases: wrap-around distances, the 1.0 -> 0.0
// seam, and ownership on degenerate (1- and 2-peer) networks.

#include <gtest/gtest.h>

#include "core/key_id.h"
#include "core/network.h"
#include "core/network_view.h"

namespace oscar {
namespace {

TEST(KeyIdTest, FromUnitRoundTrips) {
  EXPECT_EQ(KeyId::FromUnit(0.0).raw, 0u);
  EXPECT_NEAR(KeyId::FromUnit(0.25).unit(), 0.25, 1e-12);
  EXPECT_NEAR(KeyId::FromUnit(0.999999).unit(), 0.999999, 1e-9);
}

TEST(KeyIdTest, FromUnitWrapsOutOfRangeInputs) {
  EXPECT_NEAR(KeyId::FromUnit(1.25).unit(), 0.25, 1e-12);
  EXPECT_NEAR(KeyId::FromUnit(-0.25).unit(), 0.75, 1e-12);
  // Exactly 1.0 is the same ring position as 0.0.
  EXPECT_EQ(KeyId::FromUnit(1.0).raw, 0u);
}

TEST(KeyIdTest, WrapAroundDistance) {
  const KeyId a = KeyId::FromUnit(0.9);
  const KeyId b = KeyId::FromUnit(0.1);
  // Clockwise from 0.9 crosses the seam: 0.2 of the ring.
  EXPECT_NEAR(static_cast<double>(ClockwiseDistance(a, b)) /
                  18446744073709551616.0,
              0.2, 1e-9);
  // Shortest way is the same 0.2, not the 0.8 detour.
  EXPECT_NEAR(static_cast<double>(RingDistance(a, b)) /
                  18446744073709551616.0,
              0.2, 1e-9);
  EXPECT_EQ(RingDistance(a, b), RingDistance(b, a));
  EXPECT_EQ(RingDistance(a, a), 0u);
}

TEST(KeyIdTest, SegmentMembershipAcrossSeam) {
  const KeyId from = KeyId::FromUnit(0.9);
  const KeyId to = KeyId::FromUnit(0.1);
  EXPECT_TRUE(InClockwiseSegment(KeyId::FromUnit(0.95), from, to));
  EXPECT_TRUE(InClockwiseSegment(KeyId::FromUnit(0.05), from, to));
  EXPECT_TRUE(InClockwiseSegment(from, from, to));  // Half-open: from in.
  EXPECT_FALSE(InClockwiseSegment(to, from, to));   // to out.
  EXPECT_FALSE(InClockwiseSegment(KeyId::FromUnit(0.5), from, to));
}

TEST(RingTest, CountInSegmentAcrossSeam) {
  Ring ring;
  // Peers at 0.05, 0.5, 0.95.
  ring.Insert(KeyId::FromUnit(0.05), 0);
  ring.Insert(KeyId::FromUnit(0.5), 1);
  ring.Insert(KeyId::FromUnit(0.95), 2);
  EXPECT_EQ(ring.CountInSegment(KeyId::FromUnit(0.9), KeyId::FromUnit(0.1)),
            2u);
  EXPECT_EQ(ring.CountInSegment(KeyId::FromUnit(0.1), KeyId::FromUnit(0.9)),
            1u);
  // Full sweep from any point counts everyone ahead of it.
  EXPECT_EQ(ring.CountInSegment(KeyId::FromUnit(0.0), KeyId::FromUnit(0.999)),
            3u);
  // Empty segment convention.
  const KeyId point = KeyId::FromUnit(0.3);
  EXPECT_EQ(ring.CountInSegment(point, point), 0u);
}

TEST(RingTest, NthInSegmentWrapsTheSeam) {
  Ring ring;
  ring.Insert(KeyId::FromUnit(0.05), 0);
  ring.Insert(KeyId::FromUnit(0.5), 1);
  ring.Insert(KeyId::FromUnit(0.95), 2);
  const KeyId from = KeyId::FromUnit(0.9);
  const KeyId to = KeyId::FromUnit(0.1);
  ASSERT_TRUE(ring.NthInSegment(from, to, 0).has_value());
  EXPECT_EQ(*ring.NthInSegment(from, to, 0), 2u);
  ASSERT_TRUE(ring.NthInSegment(from, to, 1).has_value());
  EXPECT_EQ(*ring.NthInSegment(from, to, 1), 0u);
  EXPECT_FALSE(ring.NthInSegment(from, to, 2).has_value());
}

TEST(NetworkTest, OwnerOfOnePeerNetwork) {
  Network net;
  const PeerId only = net.Join(KeyId::FromUnit(0.5), DegreeCaps{4, 4});
  // The single peer owns every key, wherever it falls.
  for (double u : {0.0, 0.25, 0.5, 0.75, 0.999}) {
    ASSERT_TRUE(net.OwnerOf(KeyId::FromUnit(u)).has_value());
    EXPECT_EQ(*net.OwnerOf(KeyId::FromUnit(u)), only);
  }
  // And has no ring neighbors.
  EXPECT_FALSE(NetworkView(net).SuccessorOf(only).has_value());
  EXPECT_FALSE(NetworkView(net).PredecessorOf(only).has_value());
}

TEST(NetworkTest, OwnerOfTwoPeerNetworkSplitsByDistance) {
  Network net;
  const PeerId at_20 = net.Join(KeyId::FromUnit(0.2), DegreeCaps{4, 4});
  const PeerId at_80 = net.Join(KeyId::FromUnit(0.8), DegreeCaps{4, 4});
  // Closest-peer ownership: 0.4 is nearer to 0.2; 0.6 nearer to 0.8;
  // 0.99 wraps around to be nearest to 0.2? No: |0.99-0.8| = 0.19,
  // wrap distance to 0.2 is 0.21 -> owner is the peer at 0.8.
  EXPECT_EQ(*net.OwnerOf(KeyId::FromUnit(0.4)), at_20);
  EXPECT_EQ(*net.OwnerOf(KeyId::FromUnit(0.6)), at_80);
  EXPECT_EQ(*net.OwnerOf(KeyId::FromUnit(0.99)), at_80);
  EXPECT_EQ(*net.OwnerOf(KeyId::FromUnit(0.05)), at_20);
  // Each is the other's successor and predecessor.
  EXPECT_EQ(*NetworkView(net).SuccessorOf(at_20), at_80);
  EXPECT_EQ(*NetworkView(net).PredecessorOf(at_20), at_80);
}

TEST(NetworkTest, OwnerOfEmptyNetworkIsNull) {
  Network net;
  EXPECT_FALSE(net.OwnerOf(KeyId::FromUnit(0.5)).has_value());
}

TEST(NetworkTest, LongLinkCapsEnforced) {
  Network net;
  const PeerId a = net.Join(KeyId::FromUnit(0.1), DegreeCaps{1, 2});
  const PeerId b = net.Join(KeyId::FromUnit(0.5), DegreeCaps{1, 2});
  const PeerId c = net.Join(KeyId::FromUnit(0.9), DegreeCaps{1, 2});
  EXPECT_FALSE(net.AddLongLink(a, a));       // Self.
  EXPECT_TRUE(net.AddLongLink(a, b));
  EXPECT_FALSE(net.AddLongLink(a, b));       // Duplicate.
  EXPECT_FALSE(net.AddLongLink(c, b));       // b's in-cap (1) full.
  EXPECT_TRUE(net.AddLongLink(a, c));
  EXPECT_FALSE(net.AddLongLink(a, c));       // a's out-cap (2) full.
  EXPECT_EQ(net.RemainingOutBudget(a), 0u);
  net.ClearLongLinks(a);
  EXPECT_EQ(net.RemainingOutBudget(a), 2u);
  EXPECT_EQ(net.in_degree(b), 0u);           // In-degree released.
}

}  // namespace
}  // namespace oscar
