#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sim/engine.hpp"

namespace stank::obs {
namespace {

std::vector<Event> collect_node(const Recorder& rec, NodeId node) {
  std::vector<Event> out;
  rec.visit_node(node, [&](const Event& e) { out.push_back(e); });
  return out;
}

TEST(Recorder, EventIs32BytesAndTrivial) {
  EXPECT_EQ(sizeof(Event), 32u);
  EXPECT_TRUE(std::is_trivially_copyable_v<Event>);
}

TEST(Recorder, RecordAndVisitNodeInOrder) {
  Recorder rec;
  rec.record(sim::SimTime{10}, NodeId{1}, EventKind::kReqSend, 100);
  rec.record(sim::SimTime{20}, NodeId{1}, EventKind::kAckRecv, 100);
  rec.record(sim::SimTime{15}, NodeId{2}, EventKind::kReqRecv, 100, 1);

  const auto n1 = collect_node(rec, NodeId{1});
  ASSERT_EQ(n1.size(), 2u);
  EXPECT_EQ(n1[0].kind, EventKind::kReqSend);
  EXPECT_EQ(n1[0].a, 100u);
  EXPECT_EQ(n1[1].kind, EventKind::kAckRecv);
  EXPECT_EQ(rec.total_events(), 3u);
  EXPECT_EQ(rec.dropped_events(), 0u);
  const auto ids = rec.nodes();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], NodeId{1});
  EXPECT_EQ(ids[1], NodeId{2});
}

TEST(Recorder, RingWrapsKeepingMostRecentAndCountsDropped) {
  constexpr std::size_t kCap = Recorder::kRingCapacity;
  Recorder rec;
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(kCap + 12); ++i) {
    rec.record(sim::SimTime{i}, NodeId{1}, EventKind::kReqSend,
               static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(rec.total_events(), kCap);
  EXPECT_EQ(rec.dropped_events(), 12u);
  const auto kept = collect_node(rec, NodeId{1});
  ASSERT_EQ(kept.size(), kCap);
  // The flight-recorder property: the LAST kCap events survive, oldest-first.
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(kept[i].a, 12u + i);
    EXPECT_EQ(kept[i].at.ns, static_cast<std::int64_t>(12 + i));
  }
}

TEST(Recorder, MergedVisitIsGloballyTimeOrderedWithNodeTieBreak) {
  Recorder rec;
  rec.record(sim::SimTime{5}, NodeId{2}, EventKind::kReqRecv);
  rec.record(sim::SimTime{1}, NodeId{1}, EventKind::kReqSend);
  rec.record(sim::SimTime{5}, NodeId{1}, EventKind::kAckRecv);  // tie with n2@5
  rec.record(sim::SimTime{9}, NodeId{2}, EventKind::kAckSend);

  std::vector<Event> merged;
  rec.visit_merged([&](const Event& e) { merged.push_back(e); });
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].at.ns, merged[i].at.ns);
  }
  // Equal timestamps break toward the lower node id, deterministically.
  EXPECT_EQ(merged[1].node, NodeId{1});
  EXPECT_EQ(merged[2].node, NodeId{2});
}

TEST(Recorder, SpansFeedHistograms) {
  Recorder rec;
  rec.span(SpanKind::kRequestRtt, 1.0);
  rec.span(SpanKind::kRequestRtt, 3.0);
  rec.span(SpanKind::kLockAcquire, 7.0);
  EXPECT_EQ(rec.span_hist(SpanKind::kRequestRtt).count(), 2u);
  EXPECT_DOUBLE_EQ(rec.span_hist(SpanKind::kRequestRtt).max(), 3.0);
  EXPECT_EQ(rec.span_hist(SpanKind::kLockAcquire).count(), 1u);
  EXPECT_EQ(rec.span_hist(SpanKind::kOpLatency).count(), 0u);
}

TEST(Recorder, SeriesAppendByName) {
  Recorder rec;
  rec.sample("held_files", 0.25, 3.0);
  rec.sample("held_files", 0.50, 5.0);
  rec.sample("net_sent", 0.25, 10.0);
  ASSERT_EQ(rec.series().size(), 2u);
  const Series& s = rec.series()[0];
  EXPECT_EQ(s.name, "held_files");
  ASSERT_EQ(s.points.size(), 2u);
  EXPECT_DOUBLE_EQ(s.points[1].t_s, 0.50);
  EXPECT_DOUBLE_EQ(s.points[1].value, 5.0);
}

TEST(Recorder, RecordNowStampsBoundEngineTime) {
  sim::Engine eng;
  Recorder rec;
  rec.bind_engine(eng);
  eng.schedule_at(sim::SimTime{5000}, [&]() {
    rec.record_now(NodeId{3}, EventKind::kLockGrant, 42, 2);
  });
  eng.run_until(sim::SimTime{10000});
  const auto evs = collect_node(rec, NodeId{3});
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].at.ns, 5000);
  EXPECT_EQ(evs[0].a, 42u);
}

TEST(Recorder, SaveLoadRoundTripsEverything) {
  Recorder rec;
  // Wraps: load must see the normalized ring.
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(Recorder::kRingCapacity + 4); ++i) {
    rec.record(sim::SimTime{i}, NodeId{1}, EventKind::kReqSend,
               static_cast<std::uint64_t>(i));
  }
  rec.record(sim::SimTime{3}, NodeId{7}, EventKind::kLeasePhase, 1, 2);
  rec.annotate(sim::SimTime{4}, NodeId{1}, "lease", "phase 3: quiesced");
  rec.sample("held_files", 0.25, 3.0);
  rec.span(SpanKind::kRequestRtt, 1.5);
  rec.span(SpanKind::kRequestRtt, 2.5);

  std::stringstream buf;
  rec.save(buf);

  Recorder back;
  ASSERT_TRUE(back.load(buf));
  EXPECT_EQ(back.total_events(), rec.total_events());
  EXPECT_EQ(back.dropped_events(), 4u);

  const auto orig = collect_node(rec, NodeId{1});
  const auto got = collect_node(back, NodeId{1});
  ASSERT_EQ(got.size(), orig.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].at.ns, orig[i].at.ns);
    EXPECT_EQ(got[i].a, orig[i].a);
    EXPECT_EQ(got[i].kind, orig[i].kind);
  }

  ASSERT_EQ(back.annotations().size(), 1u);
  EXPECT_EQ(back.annotations()[0].detail, "phase 3: quiesced");
  ASSERT_EQ(back.series().size(), 1u);
  EXPECT_DOUBLE_EQ(back.series()[0].points[0].value, 3.0);
  EXPECT_EQ(back.span_hist(SpanKind::kRequestRtt).count(), 2u);
  EXPECT_DOUBLE_EQ(back.span_hist(SpanKind::kRequestRtt).quantile(1.0), 2.5);
}

TEST(Recorder, LoadRejectsForeignStream) {
  Recorder rec;
  std::stringstream buf("definitely not a trace file");
  EXPECT_FALSE(rec.load(buf));
  std::stringstream empty;
  EXPECT_FALSE(rec.load(empty));
}

TEST(Recorder, LoadRejectsTruncatedStream) {
  Recorder rec;
  rec.record(sim::SimTime{1}, NodeId{1}, EventKind::kReqSend);
  std::stringstream buf;
  rec.save(buf);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  Recorder back;
  EXPECT_FALSE(back.load(cut));
}

TEST(Recorder, VisitMergedAcrossInterleavesByTimeWithStableTieBreak) {
  // Per-shard recorders from a sharded run: the static merge must produce one
  // time-ordered stream, breaking ties by (node, recorder index) so the result
  // is independent of which shard recorded what first.
  Recorder shard0;
  Recorder shard1;
  shard0.record(sim::SimTime{30}, NodeId{1}, EventKind::kReqSend, 100);
  shard0.record(sim::SimTime{10}, NodeId{2}, EventKind::kReqSend, 101);
  shard1.record(sim::SimTime{20}, NodeId{3}, EventKind::kReqSend, 102);
  shard1.record(sim::SimTime{30}, NodeId{3}, EventKind::kReqSend, 103);

  std::vector<std::pair<std::int64_t, std::uint64_t>> got;
  Recorder::visit_merged_across({&shard0, &shard1}, [&](const Event& e) {
    got.emplace_back(e.at.ns, e.a);
  });
  const std::vector<std::pair<std::int64_t, std::uint64_t>> want = {
      {10, 101}, {20, 102}, {30, 100}, {30, 103}};
  EXPECT_EQ(got, want);

  // Null entries and empty recorders are skipped, not dereferenced.
  Recorder empty;
  std::size_t n = 0;
  Recorder::visit_merged_across({nullptr, &empty, &shard1}, [&](const Event&) { ++n; });
  EXPECT_EQ(n, 2u);
}

TEST(Recorder, ClearEmptiesEverything) {
  Recorder rec;
  rec.record(sim::SimTime{1}, NodeId{1}, EventKind::kReqSend);
  rec.annotate(sim::SimTime{1}, NodeId{1}, "a", "b");
  rec.span(SpanKind::kRequestRtt, 1.0);
  rec.sample("x", 0.0, 1.0);
  rec.clear();
  EXPECT_EQ(rec.total_events(), 0u);
  EXPECT_TRUE(rec.annotations().empty());
  EXPECT_TRUE(rec.series().empty());
  EXPECT_EQ(rec.span_hist(SpanKind::kRequestRtt).count(), 0u);
}

}  // namespace
}  // namespace stank::obs
