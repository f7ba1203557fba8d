#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/client_lease_agent.hpp"
#include "workload/scenario.hpp"

namespace stank {
namespace {

using obs::Event;
using obs::EventKind;
using obs::Recorder;

// Crude structural JSON check: brackets/braces balance and never go
// negative. Catches broken separators and unterminated objects without a
// JSON parser dependency.
bool balanced_json(const std::string& s) {
  int brace = 0, bracket = 0;
  bool in_str = false, esc = false;
  for (char c : s) {
    if (esc) {
      esc = false;
      continue;
    }
    if (in_str) {
      if (c == '\\') esc = true;
      else if (c == '"') in_str = false;
      continue;
    }
    switch (c) {
      case '"': in_str = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    if (brace < 0 || bracket < 0) return false;
  }
  return brace == 0 && bracket == 0 && !in_str;
}

TEST(ChromeTrace, FoldsPhaseEventsIntoSlices) {
  Recorder rec;
  // no-lease -> active at 1us, active -> renewal at 3us, plus an instant.
  rec.record(sim::SimTime{1000}, NodeId{7}, EventKind::kLeasePhase, 0, 1);
  rec.record(sim::SimTime{2000}, NodeId{7}, EventKind::kReqSend, 11);
  rec.record(sim::SimTime{3000}, NodeId{7}, EventKind::kLeasePhase, 1, 2);

  std::ostringstream os;
  obs::write_chrome_trace(rec, os);
  const std::string json = os.str();

  EXPECT_TRUE(balanced_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Process metadata for the node.
  EXPECT_NE(json.find(R"("name":"n7")"), std::string::npos);
  // A complete "active" residency slice: starts at 1us, 2us long.
  EXPECT_NE(json.find(R"("name":"active","cat":"lease-phase","ph":"X","ts":1,"dur":2)"),
            std::string::npos);
  // The renewal slice is open at the end of the trace; it closes at the
  // node's last event rather than vanishing.
  EXPECT_NE(json.find(R"("name":"renewal","cat":"lease-phase")"), std::string::npos);
  // The instant event rides on the events track.
  EXPECT_NE(json.find(R"("name":"req-send")"), std::string::npos);
}

TEST(ChromeTrace, EmitsAnnotationsAndCounters) {
  Recorder rec;
  rec.record(sim::SimTime{500}, NodeId{3}, EventKind::kRegister, 1);
  rec.annotate(sim::SimTime{1000}, NodeId{3}, "lease", "phase 3: \"quiesced\"\n");
  rec.sample("held_files", 0.5, 4.0);

  std::ostringstream os;
  obs::write_chrome_trace(rec, os);
  const std::string json = os.str();

  EXPECT_TRUE(balanced_json(json)) << json;
  // Annotation with escaped quote and newline.
  EXPECT_NE(json.find(R"(phase 3: \"quiesced\"\n)"), std::string::npos);
  // Counter track under the synthetic metrics process.
  EXPECT_NE(json.find(R"("name":"metrics")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(json.find("held_files"), std::string::npos);
}

TEST(Timeline, RendersMergedAndFiltered) {
  Recorder rec;
  rec.record(sim::SimTime{1000}, NodeId{1}, EventKind::kReqSend, 5);
  rec.record(sim::SimTime{2000}, NodeId{2}, EventKind::kReqRecv, 5, 1);

  std::ostringstream all;
  obs::write_timeline(rec, all);
  EXPECT_NE(all.str().find("req-send"), std::string::npos);
  EXPECT_NE(all.str().find("req-recv"), std::string::npos);

  std::ostringstream one;
  obs::write_timeline(rec, one, /*filter_node=*/true, NodeId{2});
  EXPECT_EQ(one.str().find("req-send"), std::string::npos);
  EXPECT_NE(one.str().find("req-recv"), std::string::npos);
}

TEST(DetailString, DecodesPayloadsPerKind) {
  Event e;
  e.kind = EventKind::kLeasePhase;
  e.a = 1;
  e.b = 3;
  EXPECT_EQ(obs::detail_string(e), "active -> suspect");
  e.kind = EventKind::kLockGrant;
  e.a = 9;
  e.b = 2;
  EXPECT_EQ(obs::detail_string(e), "file=f9 mode=exclusive");
  e.kind = EventKind::kNetDrop;
  e.a = 1;
  e.b = static_cast<std::uint64_t>(obs::DropCause::kBurst);
  EXPECT_EQ(obs::detail_string(e), "to=n1 cause=burst");
}

// The acceptance scenario: a Figure-4 ride-down (isolated client walks
// active -> renewal -> suspect -> flush -> expired). The typed recorder and
// the Perfetto export must tell the SAME story.
class Fig4Export : public ::testing::Test {
 protected:
  static workload::Scenario& scenario() {
    static workload::Scenario* sc = []() {
      workload::ScenarioConfig cfg;
      cfg.workload.num_clients = 1;
      cfg.workload.num_files = 1;
      cfg.workload.file_blocks = 4;
      cfg.workload.run_seconds = 40.0;
      cfg.lease.tau = sim::local_seconds(10);
      cfg.enable_trace = true;
      auto* s = new workload::Scenario(std::move(cfg));
      s->setup();
      s->run_until_s(5.0);
      s->control_net().reachability().sever_pair(s->client_node(0), s->server_node());
      s->run_until_s(40.0);
      return s;
    }();
    return *sc;
  }
};

TEST_F(Fig4Export, TypedPhaseEventsFollowTheRideDown) {
  auto& sc = scenario();
  const NodeId victim = sc.client_node(0);
  ASSERT_EQ(sc.recorder().dropped_events(), 0u);

  // Typed story: the kLeasePhase transitions recorded on the victim.
  std::vector<std::pair<std::int64_t, std::uint64_t>> typed;  // (t, to-phase)
  sc.recorder().visit_node(victim, [&](const Event& e) {
    if (e.kind == EventKind::kLeasePhase) typed.emplace_back(e.at.ns, e.b);
  });
  ASSERT_FALSE(typed.empty());

  // It must contain suspect -> flush -> expired, in order (the ride-down).
  auto find_phase = [&](core::LeasePhase p) {
    return std::find_if(typed.begin(), typed.end(), [&](const auto& t) {
      return t.second == static_cast<std::uint64_t>(p);
    });
  };
  const auto suspect = find_phase(core::LeasePhase::kSuspect);
  const auto flush = find_phase(core::LeasePhase::kFlush);
  const auto expired = find_phase(core::LeasePhase::kExpired);
  ASSERT_NE(suspect, typed.end());
  ASSERT_NE(flush, typed.end());
  ASSERT_NE(expired, typed.end());
  EXPECT_LT(suspect->first, flush->first);
  EXPECT_LT(flush->first, expired->first);
}

TEST_F(Fig4Export, ChromeExportCarriesTheRideDown) {
  auto& sc = scenario();
  std::ostringstream os;
  obs::write_chrome_trace(sc.recorder(), os);
  const std::string json = os.str();

  EXPECT_TRUE(balanced_json(json));
  const std::string victim = "n" + std::to_string(sc.client_node(0).value());
  EXPECT_NE(json.find("\"name\":\"" + victim + "\""), std::string::npos);
  // Residency slices for every ride-down phase.
  for (const char* phase : {"active", "suspect", "flush", "expired"}) {
    EXPECT_NE(json.find(std::string(R"("name":")") + phase + R"(","cat":"lease-phase")"),
              std::string::npos)
        << "missing slice for phase " << phase;
  }
  // The sampled series became counter tracks.
  EXPECT_NE(json.find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(json.find("lease_state_bytes"), std::string::npos);
}

TEST_F(Fig4Export, SpansMeasuredTheProtocol) {
  auto& sc = scenario();
  const Recorder& rec = sc.recorder();
  // The client exchanged messages before the partition: RTT spans exist and
  // are positive.
  const auto& rtt = rec.span_hist(obs::SpanKind::kRequestRtt);
  ASSERT_GT(rtt.count(), 0u);
  EXPECT_GT(rtt.min(), 0.0);
  // Phase residency spans: the active phase was lived in at least once.
  EXPECT_GT(rec.span_hist(obs::SpanKind::kPhaseActive).count(), 0u);
  // And the ride-down closed suspect + flush residencies.
  EXPECT_GT(rec.span_hist(obs::SpanKind::kPhaseSuspect).count(), 0u);
  EXPECT_GT(rec.span_hist(obs::SpanKind::kPhaseFlush).count(), 0u);
}

}  // namespace
}  // namespace stank
