#include "span_trace.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.h"

namespace perfbench {
namespace {

Span Make(const char* name, int64_t start, int64_t end, uint64_t id,
          uint64_t parent) {
  Span span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.id = id;
  span.parent = parent;
  return span;
}

TEST(SelfTimes, SubtractsTheUnionOfChildrenClippedToTheParent) {
  // root [0,100] has children a [10,40] and b [30,60], which overlap as
  // parallel workers do, and c [90,120], which outlives the root. a has
  // a child of its own that must not be charged to the root.
  const std::vector<Span> spans = {
      Make("root", 0, 100, 1, kNoParent), Make("a", 10, 40, 2, 1),
      Make("b", 30, 60, 3, 1),            Make("c", 90, 120, 4, 1),
      Make("a.child", 15, 20, 5, 2),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);

  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at("root").busy_ns, 100);
  EXPECT_EQ(totals.at("root").self_ns, 40);
  EXPECT_EQ(totals.at("a").calls, 1u);
}

TEST(SelfTimes, SumsPerNameAcrossCalls) {
  std::vector<Span> spans = {
      Make("outer", 0, 10, 1, kNoParent), Make("leaf", 2, 4, 2, 1),
      Make("leaf", 5, 9, 3, 1),
  };
  spans[1].work = 7;
  spans[2].work = 5;
  spans[2].failed = true;
  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at("outer").self_ns, 4);
  EXPECT_EQ(totals.at("leaf").calls, 2u);
  EXPECT_EQ(totals.at("leaf").work, 12u);
  EXPECT_EQ(totals.at("leaf").failed, 1u);
  EXPECT_EQ(totals.at("leaf").busy_ns, 6);
}

TEST(Tracer, WorkerSpansNestUnderTheAnchorNotUnderRootLeaves) {
  Tracer::Start();
  {
    ScopedSpan anchor("anchor", /*anchor=*/true);
    oscar::ParallelForWorkers(3, 64, [](uint32_t, size_t i) {
      ScopedSpan outer("work");
      outer.set_work(i);
      ScopedSpan inner("inner");
    });
  }
  { ScopedSpan after("after"); }
  const std::vector<Span> spans = Tracer::Collect();
  ASSERT_EQ(spans.size(), 1u + 64u * 2u + 1u);
  uint64_t anchor_id = kNoParent;
  for (const Span& span : spans) {
    if (std::string(span.name) == "anchor") anchor_id = span.id;
  }
  ASSERT_NE(anchor_id, kNoParent);
  uint64_t work = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (i > 0) {
      EXPECT_LE(spans[i - 1].start_ns, span.start_ns);
    }
    EXPECT_LE(span.start_ns, span.end_ns);
    const std::string name = span.name;
    if (name == "work") {
      EXPECT_EQ(span.parent, anchor_id);
      work += span.work;
    } else if (name == "anchor" || name == "after") {
      EXPECT_EQ(span.parent, kNoParent);
    } else {
      EXPECT_NE(span.parent, anchor_id);
    }
  }
  EXPECT_EQ(work, 63u * 64u / 2u);
  EXPECT_FALSE(Tracer::enabled());
}

TEST(Tracer, RecordsNothingWhenOff) {
  { ScopedSpan span("ignored"); }
  Tracer::Start();
  const std::vector<Span> spans = Tracer::Collect();
  EXPECT_TRUE(spans.empty());
}

}  // namespace
}  // namespace perfbench
