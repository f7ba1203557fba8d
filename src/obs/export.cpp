#include "obs/export.hpp"

#include <cstring>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace stank::obs {

namespace {

// Synthetic pid for counter tracks; real nodes use their own id. Node 0 is
// never allocated by scenarios (servers/clients start at 1).
constexpr std::uint32_t kMetricsPid = 0;

void json_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0') << static_cast<int>(c)
             << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
}

[[nodiscard]] double to_us(sim::SimTime t) { return static_cast<double>(t.ns) / 1e3; }

[[nodiscard]] const char* lock_mode_name(std::uint64_t m) {
  switch (m) {
    case 0: return "none";
    case 1: return "shared";
    case 2: return "exclusive";
    default: return "?";
  }
}

[[nodiscard]] const char* standing_name(std::uint64_t s) {
  switch (s) {
    case 0: return "good";
    case 1: return "suspect";
    case 2: return "failed";
    default: return "?";
  }
}

struct Sep {
  bool first{true};
  void next(std::ostream& os) {
    if (!first) os << ",\n";
    first = false;
  }
};

}  // namespace

std::string detail_string(const Event& e) {
  std::ostringstream os;
  switch (e.kind) {
    case EventKind::kLeasePhase:
      os << lease_phase_name(e.a) << " -> " << lease_phase_name(e.b);
      break;
    case EventKind::kReqSend:
    case EventKind::kReqRetransmit:
    case EventKind::kAckRecv:
    case EventKind::kNackRecv:
    case EventKind::kReqTimeout:
    case EventKind::kServerMsgRecv:
    case EventKind::kServerMsgDup:
      os << "msg=" << e.a;
      if (e.b != 0) os << " b=" << e.b;
      break;
    case EventKind::kReqRecv:
    case EventKind::kReqReplay:
    case EventKind::kAckSend:
    case EventKind::kNackSend:
    case EventKind::kServerMsgSend:
    case EventKind::kServerMsgRetransmit:
    case EventKind::kServerMsgAcked:
    case EventKind::kDeliveryFailure:
      os << "msg=" << e.a << " client=n" << e.b;
      break;
    case EventKind::kStandingChange:
      os << "client=n" << e.a << " standing=" << standing_name(e.b);
      break;
    case EventKind::kStealTimerArm:
      os << "client=n" << e.a << " wait=" << static_cast<double>(e.b) / 1e6 << "ms";
      break;
    case EventKind::kLockSteal:
      os << "client=n" << e.a << " locks=" << e.b;
      break;
    case EventKind::kLockGrant:
    case EventKind::kLockQueue:
    case EventKind::kLockDemand:
    case EventKind::kLockRelease:
      os << "file=f" << e.a << " mode=" << lock_mode_name(e.b);
      break;
    case EventKind::kLockStolen:
      os << "file=f" << e.a;
      break;
    case EventKind::kLockReassert:
      os << "file=f" << e.a << (e.b != 0 ? " granted" : " refused");
      break;
    case EventKind::kRegister:
      os << "epoch=" << e.a;
      break;
    case EventKind::kNetDrop:
      os << "to=n" << e.a << " cause=";
      switch (static_cast<DropCause>(e.b)) {
        case DropCause::kPartition: os << "partition"; break;
        case DropCause::kRandom: os << "random"; break;
        case DropCause::kBurst: os << "burst"; break;
        case DropCause::kDetached: os << "detached"; break;
        default: os << "?";
      }
      break;
    case EventKind::kNetDup:
    case EventKind::kNetReorder:
      os << "to=n" << e.a;
      break;
    case EventKind::kWatchdogTrip:
    case EventKind::kWatchdogClear: {
      double v = 0.0;
      static_assert(sizeof(v) == sizeof(e.b));
      std::memcpy(&v, &e.b, sizeof(v));
      os << "probe=" << e.a << " value=" << v;
      break;
    }
    case EventKind::kLeaseRenew:
    case EventKind::kKeepaliveSend:
    case EventKind::kLeaseExpire:
    case EventKind::kFence:
    case EventKind::kUnfence:
    case EventKind::kCrash:
    case EventKind::kRestart:
    case EventKind::kAnnotation:
    case EventKind::kNone:
    case EventKind::kCount_:
      if (e.a != 0 || e.b != 0) os << "a=" << e.a << " b=" << e.b;
      break;
  }
  return os.str();
}

void write_chrome_trace(const Recorder& rec, std::ostream& os) {
  os << "{\"traceEvents\":[\n";
  Sep sep;

  // Process/thread naming metadata. Node 0 is the omniscient observer (the
  // watchdog records there) and doubles as the metrics pid; it gets the
  // watchdog instant track instead of the per-node protocol tracks.
  bool have_watchdog_node = false;
  for (NodeId node : rec.nodes()) {
    if (node.value() == kMetricsPid) {
      have_watchdog_node = true;
      continue;
    }
    sep.next(os);
    os << R"({"name":"process_name","ph":"M","pid":)" << node.value()
       << R"(,"args":{"name":"n)" << node.value() << "\"}}";
    sep.next(os);
    os << R"({"name":"thread_name","ph":"M","pid":)" << node.value()
       << R"(,"tid":0,"args":{"name":"lease phases"}})";
    sep.next(os);
    os << R"({"name":"thread_name","ph":"M","pid":)" << node.value()
       << R"(,"tid":1,"args":{"name":"events"}})";
  }
  if (!rec.series().empty() || have_watchdog_node) {
    sep.next(os);
    os << R"({"name":"process_name","ph":"M","pid":)" << kMetricsPid
       << R"(,"args":{"name":"metrics"}})";
  }
  if (have_watchdog_node) {
    sep.next(os);
    os << R"({"name":"thread_name","ph":"M","pid":)" << kMetricsPid
       << R"(,"tid":3,"args":{"name":"watchdog"}})";
  }

  // Lease-phase residency slices + instants, per node.
  for (NodeId node : rec.nodes()) {
    std::uint64_t open_phase = 0;  // no-lease
    sim::SimTime open_since{};
    sim::SimTime last{};
    bool have_open = false;
    rec.visit_node(node, [&](const Event& e) {
      last = e.at;
      if (e.kind == EventKind::kLeasePhase) {
        if (have_open) {
          sep.next(os);
          os << R"({"name":")" << lease_phase_name(open_phase)
             << R"(","cat":"lease-phase","ph":"X","ts":)" << to_us(open_since)
             << ",\"dur\":" << to_us(e.at) - to_us(open_since) << ",\"pid\":" << node.value()
             << ",\"tid\":0}";
        }
        open_phase = e.b;
        open_since = e.at;
        have_open = true;
        return;
      }
      sep.next(os);
      if (e.kind == EventKind::kWatchdogTrip || e.kind == EventKind::kWatchdogClear) {
        // Global-scope instants on the metrics process: a trip should be
        // visible across the whole timeline, not buried in one node's lane.
        os << R"({"name":")" << to_string(e.kind)
           << R"(","cat":"watchdog","ph":"i","ts":)" << to_us(e.at)
           << R"(,"s":"g","pid":)" << kMetricsPid << ",\"tid\":3,\"args\":{\"detail\":\"";
        json_escape(os, detail_string(e));
        os << "\"}}";
        return;
      }
      os << R"({"name":")" << to_string(e.kind) << R"(","cat":"event","ph":"i","ts":)"
         << to_us(e.at) << R"(,"s":"t","pid":)" << node.value() << ",\"tid\":1,\"args\":{\"a\":"
         << e.a << ",\"b\":" << e.b << ",\"detail\":\"";
      json_escape(os, detail_string(e));
      os << "\"}}";
    });
    if (have_open) {
      // The run ended inside a phase; close the slice at the node's last
      // event so the residency is visible rather than silently dropped.
      sep.next(os);
      os << R"({"name":")" << lease_phase_name(open_phase)
         << R"(","cat":"lease-phase","ph":"X","ts":)" << to_us(open_since)
         << ",\"dur\":" << to_us(last) - to_us(open_since) << ",\"pid\":" << node.value()
         << ",\"tid\":0}";
    }
  }

  // String notes (watchdog trips, injected failures).
  for (const auto& a : rec.annotations()) {
    sep.next(os);
    os << R"({"name":")";
    json_escape(os, a.category);
    os << R"(","cat":"annotation","ph":"i","ts":)" << to_us(a.at) << R"(,"s":"t","pid":)"
       << a.node.value() << ",\"tid\":2,\"args\":{\"detail\":\"";
    json_escape(os, a.detail);
    os << "\"}}";
  }

  // Sampled time series as counter tracks.
  for (const auto& s : rec.series()) {
    for (const auto& p : s.points) {
      sep.next(os);
      os << R"({"name":")";
      json_escape(os, s.name);
      os << R"(","ph":"C","ts":)" << p.t_s * 1e6 << ",\"pid\":" << kMetricsPid
         << ",\"args\":{\"value\":" << p.value << "}}";
    }
  }

  os << "\n]}\n";
}

void write_timeline(const Recorder& rec, std::ostream& os, bool filter_node, NodeId node) {
  const auto emit = [&os](const Event& e) {
    // StrongId streams as two insertions ("n" + value), so setw would pad
    // only the prefix; render it to one string first.
    std::ostringstream ns;
    ns << e.node;
    os << std::fixed << std::setprecision(6) << std::setw(12) << e.at.seconds() << "s  "
       << std::left << std::setw(7) << ns.str() << std::setw(22) << to_string(e.kind)
       << std::right << "  " << detail_string(e) << "\n";
  };
  if (filter_node) {
    rec.visit_node(node, emit);
  } else {
    rec.visit_merged(emit);
  }
}

}  // namespace stank::obs
