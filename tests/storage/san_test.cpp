#include "storage/san.hpp"

#include <gtest/gtest.h>

#include <optional>

namespace stank::storage {
namespace {

struct Fixture {
  sim::Engine engine;
  SanFabric san;

  Fixture() : san(engine, sim::Rng(kSeed)) { san.add_disk(DiskId{1}, 256, 64); }

  static constexpr std::uint64_t kSeed = 1;
  // The fabric's service time for its first command: kLatency plus the
  // jitter its generator draws first.
  static std::int64_t first_service_ns() {
    sim::Rng rng(kSeed);
    return SanFabric::kLatency.ns + rng.uniform_int(0, SanFabric::kJitter.ns);
  }

  IoResult run_io(IoRequest req) {
    std::optional<IoResult> out;
    san.submit(std::move(req), [&](IoResult r) { out = std::move(r); });
    engine.run();
    EXPECT_TRUE(out.has_value());
    return std::move(*out);
  }
};

IoRequest mk_write(BlockAddr addr, std::uint8_t fill) {
  IoRequest r;
  r.initiator = NodeId{100};
  r.disk = DiskId{1};
  r.op = IoOp::kWrite;
  r.addr = addr;
  r.count = 1;
  r.data = Bytes(64, fill);
  return r;
}

IoRequest mk_read(BlockAddr addr) {
  IoRequest r;
  r.initiator = NodeId{100};
  r.disk = DiskId{1};
  r.op = IoOp::kRead;
  r.addr = addr;
  r.count = 1;
  return r;
}

TEST(SanFabric, CompletesIoAfterServiceTime) {
  Fixture f;
  bool done = false;
  std::int64_t completion_ns = 0;
  f.san.submit(mk_write(0, 1), [&](IoResult r) {
    done = r.status.is_ok();
    completion_ns = f.engine.now().ns;
  });
  f.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(completion_ns, Fixture::first_service_ns());
}

TEST(SanFabric, WriteVisibleToSubsequentRead) {
  Fixture f;
  ASSERT_TRUE(f.run_io(mk_write(7, 0x77)).status.is_ok());
  auto rd = f.run_io(mk_read(7));
  ASSERT_TRUE(rd.status.is_ok());
  EXPECT_EQ(rd.data, Bytes(64, 0x77));
}

TEST(SanFabric, PartitionFailsWithTimeoutDelay) {
  Fixture f;
  f.san.reachability().sever(NodeId{100}, DiskId{1});
  std::int64_t at = 0;
  Status st = Status::ok();
  f.san.submit(mk_write(0, 1), [&](IoResult r) {
    st = r.status;
    at = f.engine.now().ns;
  });
  f.engine.run();
  EXPECT_EQ(st.error(), ErrorCode::kIoError);
  EXPECT_EQ(at, 50'000'000);  // the kErrorTimeout, not instantaneous
  EXPECT_EQ(f.san.stats().ios_failed_partition, 1u);
}

TEST(SanFabric, MidFlightPartitionFailsIo) {
  Fixture f;
  Status st = Status::ok();
  f.san.submit(mk_write(0, 1), [&](IoResult r) { st = r.status; });
  f.engine.schedule_after(sim::micros(100),
                          [&]() { f.san.reachability().sever(NodeId{100}, DiskId{1}); });
  f.engine.run();
  EXPECT_EQ(st.error(), ErrorCode::kIoError);
}

TEST(SanFabric, FencedInitiatorGetsKFenced) {
  Fixture f;
  f.san.disk(DiskId{1}).fence(NodeId{100});
  EXPECT_EQ(f.run_io(mk_write(0, 1)).status.error(), ErrorCode::kFenced);
  EXPECT_EQ(f.san.stats().ios_failed_fenced, 1u);
}

TEST(SanFabric, AdminFenceTravelsTheSan) {
  Fixture f;
  Status st{ErrorCode::kTimeout};
  f.san.submit_admin(AdminRequest{NodeId{1}, DiskId{1}, AdminOp::kFence, NodeId{100}},
                     [&](Status s) { st = s; });
  EXPECT_FALSE(f.san.disk(DiskId{1}).is_fenced(NodeId{100}));  // not yet: latency
  f.engine.run();
  EXPECT_TRUE(st.is_ok());
  EXPECT_TRUE(f.san.disk(DiskId{1}).is_fenced(NodeId{100}));
}

TEST(SanFabric, AdminFenceFailsAcrossPartition) {
  Fixture f;
  f.san.reachability().sever(NodeId{1}, DiskId{1});
  Status st = Status::ok();
  f.san.submit_admin(AdminRequest{NodeId{1}, DiskId{1}, AdminOp::kFence, NodeId{100}},
                     [&](Status s) { st = s; });
  f.engine.run();
  EXPECT_EQ(st.error(), ErrorCode::kIoError);
  EXPECT_FALSE(f.san.disk(DiskId{1}).is_fenced(NodeId{100}));
}

TEST(SanFabric, AdminUnfence) {
  Fixture f;
  f.san.disk(DiskId{1}).fence(NodeId{100});
  f.san.submit_admin(AdminRequest{NodeId{1}, DiskId{1}, AdminOp::kUnfence, NodeId{100}},
                     [](Status) {});
  f.engine.run();
  EXPECT_FALSE(f.san.disk(DiskId{1}).is_fenced(NodeId{100}));
}

TEST(SanFabric, SlowInitiatorDelayApplied) {
  Fixture f;
  f.san.set_initiator_delay(NodeId{100}, sim::millis(20));
  std::int64_t at = 0;
  f.san.submit(mk_write(0, 1), [&](IoResult) { at = f.engine.now().ns; });
  f.engine.run();
  EXPECT_EQ(at, 20'000'000 + Fixture::first_service_ns());
}

TEST(SanFabric, ObservationTapSeesSuccessfulWrites) {
  Fixture f;
  int taps = 0;
  f.san.on_io = [&](const IoRequest& rq, const IoResult& rs, sim::SimTime) {
    EXPECT_EQ(rq.op, IoOp::kWrite);
    EXPECT_TRUE(rs.status.is_ok());
    ++taps;
  };
  f.run_io(mk_write(0, 1));
  EXPECT_EQ(taps, 1);
  // Fenced I/O is not observed.
  f.san.disk(DiskId{1}).fence(NodeId{100});
  f.run_io(mk_write(1, 1));
  EXPECT_EQ(taps, 1);
}

TEST(SanFabric, StatsAccumulate) {
  Fixture f;
  f.run_io(mk_write(0, 1));
  f.run_io(mk_read(0));
  EXPECT_EQ(f.san.stats().ios_submitted, 2u);
  EXPECT_EQ(f.san.stats().ios_completed, 2u);
  EXPECT_EQ(f.san.stats().bytes_transferred, 128u);
}

}  // namespace
}  // namespace stank::storage
