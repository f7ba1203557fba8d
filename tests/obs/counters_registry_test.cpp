// obs::Counters: registration/freeze lifecycle, the shard-banked data path,
// merge semantics (kSum vs kMax), merge associativity across arbitrary shard
// groupings (what makes snapshot-and-merge safe regardless of how banks are
// folded), log2 histogram bucketing/quantiles, and the series-emission naming
// contract the Chrome exporter's counter tracks depend on.
#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace stank::obs {
namespace {

TEST(CountersRegistry, RegisterFreezeIncrementReadback) {
  Counters c;
  const Counters::Id a = c.add("a");
  const Counters::Id hw = c.add("hw", Counters::Merge::kMax);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(hw.valid());
  EXPECT_FALSE(c.frozen());
  c.freeze(4);
  EXPECT_TRUE(c.frozen());
  EXPECT_EQ(c.shard_count(), 4u);

  c.add_to(0, a, 3);
  c.add_to(2, a, 5);
  c.add_to(2, a);  // default +1
  c.gauge_max(1, hw, 7);
  c.gauge_max(1, hw, 4);  // lower value must not regress the gauge
  c.gauge_max(3, hw, 9);

  EXPECT_EQ(c.value(0, a), 3u);
  EXPECT_EQ(c.value(1, a), 0u);
  EXPECT_EQ(c.value(2, a), 6u);
  EXPECT_EQ(c.merged(a), 9u);   // kSum
  EXPECT_EQ(c.value(1, hw), 7u);
  EXPECT_EQ(c.merged(hw), 9u);  // kMax

  c.reset();
  EXPECT_EQ(c.merged(a), 0u);
  EXPECT_EQ(c.merged(hw), 0u);
}

// The fleet-wide value must not depend on how per-shard banks are grouped
// when folding: merge2(merge2(s0,s1), merge2(s2,s3)) == fold left-to-right.
// This is what lets the engine fold worker-local partials in any join order.
TEST(CountersRegistry, MergeAssociativityAcrossShardGroupings) {
  for (unsigned shards : {2u, 3u, 4u, 8u}) {
    Counters c;
    const Counters::Id sum = c.add("sum");
    const Counters::Id mx = c.add("mx", Counters::Merge::kMax);
    c.freeze(shards);
    for (unsigned s = 0; s < shards; ++s) {
      c.add_to(s, sum, 10 * (s + 1) + (s % 3));
      c.gauge_max(s, mx, (s * 37) % 101);
    }

    for (const auto [m, id] :
         {std::pair{Counters::Merge::kSum, sum}, std::pair{Counters::Merge::kMax, mx}}) {
      // Left fold.
      std::uint64_t left = c.value(0, id);
      for (unsigned s = 1; s < shards; ++s) left = Counters::merge2(m, left, c.value(s, id));
      // Pairwise tree fold.
      std::vector<std::uint64_t> level;
      for (unsigned s = 0; s < shards; ++s) level.push_back(c.value(s, id));
      while (level.size() > 1) {
        std::vector<std::uint64_t> next;
        for (std::size_t i = 0; i < level.size(); i += 2) {
          next.push_back(i + 1 < level.size() ? Counters::merge2(m, level[i], level[i + 1])
                                              : level[i]);
        }
        level = std::move(next);
      }
      EXPECT_EQ(left, level[0]) << "shards=" << shards;
      EXPECT_EQ(c.merged(id), left) << "shards=" << shards;
    }
  }
}

TEST(CountersRegistry, HistogramBucketingAndQuantiles) {
  EXPECT_EQ(Counters::bucket_of(0), 0u);
  EXPECT_EQ(Counters::bucket_of(1), 1u);  // [1,2)
  EXPECT_EQ(Counters::bucket_of(2), 2u);  // [2,4)
  EXPECT_EQ(Counters::bucket_of(3), 2u);
  EXPECT_EQ(Counters::bucket_of(4), 3u);
  EXPECT_EQ(Counters::bucket_of(UINT64_MAX), Counters::kHistBuckets - 1);
  EXPECT_EQ(Counters::bucket_mid(0), 0u);
  EXPECT_EQ(Counters::bucket_mid(3), 6u);  // [4,8) -> 6

  Counters c;
  const Counters::HistId h = c.add_hist("wait");
  c.freeze(2);
  // 90 small values on shard 0, 10 large on shard 1: p50 lands in the small
  // bucket, p99 in the large one, and counts merge across shards.
  for (int i = 0; i < 90; ++i) c.record_hist(0, h, 100);    // bucket 7: [64,128)
  for (int i = 0; i < 10; ++i) c.record_hist(1, h, 5000);   // bucket 13: [4096,8192)
  EXPECT_EQ(c.hist_count(h), 100u);
  EXPECT_EQ(c.hist_quantile(h, 0.50), Counters::bucket_mid(7));
  EXPECT_EQ(c.hist_quantile(h, 0.99), Counters::bucket_mid(13));
  EXPECT_EQ(c.hist_quantile(h, 0.0), Counters::bucket_mid(7));

  // Bulk fold (the sharded engine's WaitStats path) adds into the same buckets.
  c.add_hist_count(0, h, 13, 5);
  EXPECT_EQ(c.hist_count(h), 105u);
}

TEST(CountersRegistry, EmitSeriesNamingContract) {
  Counters c;
  const Counters::Id ev = c.add("engine.events");
  const Counters::HistId h = c.add_hist("barrier.wait_ns");
  c.freeze(2);
  c.add_to(0, ev, 4);
  c.add_to(1, ev, 6);
  c.record_hist(0, h, 100);

  Recorder rec;
  c.emit_series(rec, 1.5);

  auto find = [&rec](const std::string& name) -> const Series* {
    for (const Series& s : rec.series()) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const Series* s0 = find("ctr/engine.events/s0");
  const Series* s1 = find("ctr/engine.events/s1");
  const Series* merged = find("ctr/engine.events");
  const Series* p50 = find("ctr/barrier.wait_ns/p50");
  const Series* p99 = find("ctr/barrier.wait_ns/p99");
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(merged, nullptr);
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p99, nullptr);
  ASSERT_EQ(s0->points.size(), 1u);
  EXPECT_DOUBLE_EQ(s0->points[0].t_s, 1.5);
  EXPECT_DOUBLE_EQ(s0->points[0].value, 4.0);
  EXPECT_DOUBLE_EQ(s1->points[0].value, 6.0);
  EXPECT_DOUBLE_EQ(merged->points[0].value, 10.0);
}

TEST(CountersRegistry, FindByName) {
  Counters c;
  const Counters::Id a = c.add("net.mailbox_hw", Counters::Merge::kMax);
  const Counters::HistId h = c.add_hist("barrier.wait_ns");
  c.freeze(1);
  EXPECT_EQ(c.find("net.mailbox_hw").slot, a.slot);
  EXPECT_FALSE(c.find("nope").valid());
  EXPECT_FALSE(c.find("barrier.wait_ns").valid());  // hist is not a scalar
  EXPECT_EQ(c.find_hist("barrier.wait_ns").base, h.base);
  EXPECT_FALSE(c.find_hist("net.mailbox_hw").valid());
}

// Banks must start on their own cache line so one shard's increments never
// ping-pong another shard's line.
TEST(CountersRegistry, BankAlignment) {
  Counters c;
  for (int i = 0; i < 11; ++i) c.add("c" + std::to_string(i));
  c.freeze(8);
  for (unsigned s = 0; s < 8; ++s) {
    c.add_to(s, c.find("c0"), s + 1);
  }
  // Distinct banks: writes landed where reads look.
  for (unsigned s = 0; s < 8; ++s) {
    EXPECT_EQ(c.value(s, c.find("c0")), s + 1);
  }
  EXPECT_EQ(c.merged(c.find("c0")), 36u);
}

}  // namespace
}  // namespace stank::obs
