// Consistency checker: replays a recorded history against the guarantees
// Storage Tank promises (sequential consistency of file data, no lost
// updates) and reports every violation.
//
// Three rules:
//  1. Disk write order — per (file, block), versions written to the disk
//     must never regress. A regression means two writers raced: exactly the
//     corruption naive lock stealing produces (section 2).
//  2. Stale read — a read must observe at least the version the disk held
//     when the read began. Observing less means the reader consumed a stale
//     cache: the failure mode of fencing-only recovery (section 2.1) and of
//     NFS polling (section 5).
//  3. Lost update — after the run settles, the disk must hold the newest
//     buffered version of every block, excluding writes buffered by clients
//     that crashed (a failed machine legitimately loses volatile state).
//     Fencing-only recovery strands such data (section 2.1).
#pragma once

#include <string>
#include <vector>

#include "verify/history.hpp"

namespace stank::verify {

enum class ViolationKind : std::uint8_t {
  kWriteOrderRegression,
  kStaleRead,
  kLostUpdate,
};

[[nodiscard]] constexpr const char* to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::kWriteOrderRegression: return "write-order-regression";
    case ViolationKind::kStaleRead: return "stale-read";
    case ViolationKind::kLostUpdate: return "lost-update";
  }
  return "?";
}

struct Violation {
  ViolationKind kind;
  sim::SimTime at;
  std::string detail;
  // The party whose guarantee broke: the writer whose landed version was
  // regressed over, the reader that observed staleness, or the client whose
  // buffered update was lost. Drives the split verdict below.
  NodeId victim{};
};

// The split verdict of DESIGN.md §13: violations whose victim is an HONEST
// client break the paper's safety claim (the trusted base — server + fence
// list — failed to protect a rule-following participant); violations whose
// victim is a declared-byzantine client are self-inflicted and merely
// diagnostic (e.g. a defiant client's own late writes being fenced away).
// With no byzantine clients declared, every violation is in `honest` and the
// verdict degenerates to check_all().
struct SplitVerdict {
  std::vector<Violation> honest;
  std::vector<Violation> byzantine;
};

struct ViolationSummary {
  std::size_t write_order{0};
  std::size_t stale_reads{0};
  std::size_t lost_updates{0};
  [[nodiscard]] std::size_t total() const { return write_order + stale_reads + lost_updates; }
};

class ConsistencyChecker {
 public:
  explicit ConsistencyChecker(const HistoryRecorder& history) : h_(&history) {}

  [[nodiscard]] std::vector<Violation> check_all() const;
  // Buckets violations (typically check_all()'s) by victim; see SplitVerdict.
  [[nodiscard]] SplitVerdict split(std::vector<Violation> vs) const;
  [[nodiscard]] std::vector<Violation> check_write_order() const;
  [[nodiscard]] std::vector<Violation> check_stale_reads() const;
  [[nodiscard]] std::vector<Violation> check_lost_updates() const;

  [[nodiscard]] static ViolationSummary summarize(const std::vector<Violation>& vs);

 private:
  const HistoryRecorder* h_;
};

}  // namespace stank::verify
