#include "verify/checker.hpp"

#include <map>
#include <sstream>

namespace stank::verify {

namespace {

std::string block_name(HistoryRecorder::BlockKey key) {
  std::ostringstream os;
  os << "f" << key.first.value() << ":b" << key.second;
  return os.str();
}

}  // namespace

std::vector<Violation> ConsistencyChecker::check_all() const {
  std::vector<Violation> out = check_write_order();
  auto stale = check_stale_reads();
  out.insert(out.end(), stale.begin(), stale.end());
  auto lost = check_lost_updates();
  out.insert(out.end(), lost.begin(), lost.end());
  return out;
}

SplitVerdict ConsistencyChecker::split(std::vector<Violation> vs) const {
  SplitVerdict verdict;
  const auto& byz = h_->byzantine();
  for (auto& v : vs) {
    (byz.contains(v.victim) ? verdict.byzantine : verdict.honest).push_back(std::move(v));
  }
  return verdict;
}

std::vector<Violation> ConsistencyChecker::check_write_order() const {
  std::vector<Violation> out;
  // Last version seen at the disk per (file, block); disk_writes_ is already
  // in completion order.
  std::map<HistoryRecorder::BlockKey, std::pair<std::uint64_t, NodeId>> last;
  for (const auto& w : h_->disk_writes()) {
    const HistoryRecorder::BlockKey key{w.stamp.file, w.stamp.block};
    auto it = last.find(key);
    if (it != last.end() && w.stamp.version < it->second.first) {
      std::ostringstream os;
      os << block_name(key) << ": v" << w.stamp.version << " by n" << w.initiator.value()
         << " landed after v" << it->second.first << " by n" << it->second.second.value();
      // The victim is the writer whose (newer) version got clobbered, not
      // whoever submitted the late write.
      out.push_back(
          Violation{ViolationKind::kWriteOrderRegression, w.at, os.str(), it->second.second});
    }
    if (it == last.end() || w.stamp.version >= it->second.first) {
      last[key] = {w.stamp.version, w.initiator};
    }
  }
  return out;
}

std::vector<Violation> ConsistencyChecker::check_stale_reads() const {
  std::vector<Violation> out;
  for (const auto& r : h_->reads()) {
    const HistoryRecorder::BlockKey key{r.file, r.block};
    const std::uint64_t on_disk = h_->disk_version_at(key, r.start);
    if (r.observed_version < on_disk) {
      std::ostringstream os;
      os << block_name(key) << ": n" << r.client.value() << " read v" << r.observed_version
         << " but disk already held v" << on_disk;
      out.push_back(Violation{ViolationKind::kStaleRead, r.end, os.str(), r.client});
    }
  }
  return out;
}

std::vector<Violation> ConsistencyChecker::check_lost_updates() const {
  std::vector<Violation> out;
  // Newest version buffered by a client that did NOT crash, per block.
  std::map<HistoryRecorder::BlockKey, BufferedWriteRec> newest;
  for (const auto& w : h_->buffered_writes()) {
    if (h_->crashed().contains(w.client)) {
      continue;  // volatile loss on a failed machine is legitimate
    }
    const HistoryRecorder::BlockKey key{w.stamp.file, w.stamp.block};
    auto it = newest.find(key);
    if (it == newest.end() || w.stamp.version > it->second.stamp.version) {
      newest[key] = w;
    }
  }
  for (const auto& [key, w] : newest) {
    // Final disk state: version of the chronologically last write.
    const auto writes = h_->disk_writes_of(key);
    const std::uint64_t final_version = writes.empty() ? 0 : writes.back().stamp.version;
    if (final_version < w.stamp.version) {
      std::ostringstream os;
      os << block_name(key) << ": v" << w.stamp.version << " buffered by n"
         << w.client.value() << " never superseded on disk (final v" << final_version << ")";
      out.push_back(Violation{ViolationKind::kLostUpdate, w.at, os.str(), w.client});
    }
  }
  return out;
}

ViolationSummary ConsistencyChecker::summarize(const std::vector<Violation>& vs) {
  ViolationSummary s;
  for (const auto& v : vs) {
    switch (v.kind) {
      case ViolationKind::kWriteOrderRegression: ++s.write_order; break;
      case ViolationKind::kStaleRead: ++s.stale_reads; break;
      case ViolationKind::kLostUpdate: ++s.lost_updates; break;
    }
  }
  return s;
}

}  // namespace stank::verify
