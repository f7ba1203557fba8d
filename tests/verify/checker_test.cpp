#include "verify/checker.hpp"

#include <gtest/gtest.h>

namespace stank::verify {
namespace {

const FileId kF{1};
const NodeId kA{100}, kB{101};

void disk_write(HistoryRecorder& h, NodeId who, std::uint64_t block, std::uint64_t version,
                std::int64_t at_ns) {
  storage::IoRequest r;
  r.initiator = who;
  r.disk = DiskId{1};
  r.op = storage::IoOp::kWrite;
  r.addr = block;
  r.count = 1;
  r.data = make_stamped_block(64, Stamp{kF, block, version, who});
  h.on_disk_io(r, storage::IoResult{Status::ok(), {}}, sim::SimTime{at_ns}, 64);
}

void buffered(HistoryRecorder& h, NodeId who, std::uint64_t block, std::uint64_t version,
              std::int64_t at_ns) {
  h.on_buffered_write(sim::SimTime{at_ns}, who, Stamp{kF, block, version, who});
}

void read(HistoryRecorder& h, NodeId who, std::uint64_t block, std::uint64_t observed,
          std::int64_t start_ns, std::int64_t end_ns) {
  ReadRec r;
  r.start = sim::SimTime{start_ns};
  r.end = sim::SimTime{end_ns};
  r.client = who;
  r.file = kF;
  r.block = block;
  r.observed_version = observed;
  h.on_read(r);
}

TEST(Checker, CleanHistoryHasNoViolations) {
  HistoryRecorder h;
  buffered(h, kA, 0, 1, 10);
  disk_write(h, kA, 0, 1, 20);
  read(h, kB, 0, 1, 30, 31);
  buffered(h, kB, 0, 2, 40);
  disk_write(h, kB, 0, 2, 50);
  read(h, kA, 0, 2, 60, 61);
  ConsistencyChecker c(h);
  EXPECT_TRUE(c.check_all().empty());
}

TEST(Checker, DetectsWriteOrderRegression) {
  HistoryRecorder h;
  disk_write(h, kB, 0, 2, 10);
  disk_write(h, kA, 0, 1, 20);  // older version lands later: a race
  ConsistencyChecker c(h);
  auto v = c.check_write_order();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, ViolationKind::kWriteOrderRegression);
  EXPECT_EQ(v[0].at.ns, 20);
}

TEST(Checker, RewriteOfSameVersionIsNotARegression) {
  HistoryRecorder h;
  disk_write(h, kA, 0, 1, 10);
  disk_write(h, kA, 0, 1, 20);  // flush retry
  EXPECT_TRUE(ConsistencyChecker(h).check_write_order().empty());
}

TEST(Checker, RegressionsPerBlockIndependent) {
  HistoryRecorder h;
  disk_write(h, kA, 0, 5, 10);
  disk_write(h, kB, 1, 1, 20);  // a different block at v1: fine
  disk_write(h, kA, 1, 2, 30);
  EXPECT_TRUE(ConsistencyChecker(h).check_write_order().empty());
}

TEST(Checker, DetectsStaleRead) {
  HistoryRecorder h;
  disk_write(h, kA, 0, 3, 10);
  read(h, kB, 0, 2, 20, 21);  // observes v2 although disk held v3 at start
  auto v = ConsistencyChecker(h).check_stale_reads();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, ViolationKind::kStaleRead);
}

TEST(Checker, ReadAheadOfDiskIsFine) {
  // Reading one's own buffered (newer) data is legal.
  HistoryRecorder h;
  disk_write(h, kA, 0, 1, 10);
  read(h, kA, 0, 5, 20, 21);
  EXPECT_TRUE(ConsistencyChecker(h).check_stale_reads().empty());
}

TEST(Checker, ConcurrentWriteLandingAfterReadStartIsFine) {
  HistoryRecorder h;
  read(h, kB, 0, 0, 5, 30);     // read starts before any write
  disk_write(h, kA, 0, 1, 10);  // lands mid-read
  EXPECT_TRUE(ConsistencyChecker(h).check_stale_reads().empty());
}

TEST(Checker, DetectsLostUpdate) {
  HistoryRecorder h;
  buffered(h, kA, 0, 1, 10);
  // Never reaches the disk; kA never crashed.
  auto v = ConsistencyChecker(h).check_lost_updates();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, ViolationKind::kLostUpdate);
}

TEST(Checker, CrashExcusesUnflushedData) {
  HistoryRecorder h;
  buffered(h, kA, 0, 1, 10);
  h.on_crash(kA);
  EXPECT_TRUE(ConsistencyChecker(h).check_lost_updates().empty());
}

TEST(Checker, SupersededBufferedWriteNotLost) {
  HistoryRecorder h;
  buffered(h, kA, 0, 1, 10);  // never flushed...
  buffered(h, kB, 0, 2, 20);
  disk_write(h, kB, 0, 2, 30);  // ...but a newer version IS on disk
  EXPECT_TRUE(ConsistencyChecker(h).check_lost_updates().empty());
}

TEST(Checker, FinalDiskStateOlderThanBufferedIsLost) {
  HistoryRecorder h;
  buffered(h, kA, 0, 1, 10);
  disk_write(h, kA, 0, 1, 20);
  buffered(h, kA, 0, 2, 30);  // v2 buffered after the flush, never hardened
  auto v = ConsistencyChecker(h).check_lost_updates();
  ASSERT_EQ(v.size(), 1u);
}

TEST(Checker, SummarizeCounts) {
  HistoryRecorder h;
  disk_write(h, kB, 0, 2, 10);
  disk_write(h, kA, 0, 1, 20);
  read(h, kB, 1, 0, 30, 31);
  disk_write(h, kA, 1, 1, 25);
  buffered(h, kA, 2, 1, 5);
  ConsistencyChecker c(h);
  auto all = c.check_all();
  auto s = ConsistencyChecker::summarize(all);
  EXPECT_EQ(s.write_order, 1u);
  EXPECT_EQ(s.stale_reads, 1u);
  EXPECT_EQ(s.lost_updates, 1u);
  EXPECT_EQ(s.total(), 3u);
}

TEST(Checker, EmptyHistoryClean) {
  HistoryRecorder h;
  EXPECT_TRUE(ConsistencyChecker(h).check_all().empty());
}

// Split verdict (DESIGN.md §13): each violation kind names its victim, and
// the victim's byzantine mark decides the bucket.

TEST(Checker, SplitVictimIsOverwrittenWriterForWriteOrder) {
  HistoryRecorder h;
  h.mark_byzantine(kB);
  disk_write(h, kB, 0, 2, 10);
  disk_write(h, kA, 0, 1, 20);  // kA's late flush clobbers kB's newer data
  const ConsistencyChecker c(h);
  auto s = c.split(c.check_all());
  EXPECT_TRUE(s.honest.empty());  // the overwritten writer (kB) is byzantine
  ASSERT_EQ(s.byzantine.size(), 1u);
  EXPECT_EQ(s.byzantine[0].victim, kB);
}

TEST(Checker, SplitVictimIsReaderForStaleRead) {
  HistoryRecorder h;
  h.mark_byzantine(kA);
  disk_write(h, kA, 0, 3, 10);
  read(h, kB, 0, 2, 20, 21);  // honest kB observes stale data
  const ConsistencyChecker c(h);
  auto s = c.split(c.check_all());
  ASSERT_EQ(s.honest.size(), 1u);  // the reader is the victim, and is honest
  EXPECT_EQ(s.honest[0].victim, kB);
  EXPECT_TRUE(s.byzantine.empty());
}

TEST(Checker, SplitVictimIsBufferingClientForLostUpdate) {
  HistoryRecorder h;
  h.mark_byzantine(kA);
  buffered(h, kA, 0, 1, 10);  // byzantine kA buffers and never flushes
  const ConsistencyChecker c(h);
  auto s = c.split(c.check_all());
  EXPECT_TRUE(s.honest.empty());
  ASSERT_EQ(s.byzantine.size(), 1u);
  EXPECT_EQ(s.byzantine[0].victim, kA);
}

TEST(Checker, SplitWithNoByzantineMatchesCheckAll) {
  HistoryRecorder h;
  disk_write(h, kB, 0, 2, 10);
  disk_write(h, kA, 0, 1, 20);
  read(h, kB, 1, 0, 30, 31);
  disk_write(h, kA, 1, 1, 25);
  buffered(h, kA, 2, 1, 5);
  ConsistencyChecker c(h);
  auto s = c.split(c.check_all());
  EXPECT_TRUE(s.byzantine.empty());
  EXPECT_EQ(s.honest.size(), c.check_all().size());
}

}  // namespace
}  // namespace stank::verify
