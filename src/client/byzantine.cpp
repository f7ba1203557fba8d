#include "client/byzantine.hpp"

#include <utility>
#include <variant>

#include "protocol/layout.hpp"

namespace stank::client {

ByzantineClient::ByzantineClient(sim::Engine& engine, net::ControlNet& net,
                                 storage::SanFabric& san, sim::LocalClock local_clock,
                                 ClientConfig cfg, ByzantineSpec spec, obs::Recorder* rec)
    : Client(engine, net, san, local_clock, std::move(cfg), rec),
      san_(&san),
      spec_(spec),
      rng_state_(id().value() * 2654435761u + 12345u) {
  if (rng_state_ == 0) rng_state_ = 1;
  // Phase 4's admission rule is an honest client's obligation: an attacker
  // keeps dirtying its cache through the flush whatever its spec.
  dirty_through_flush();
}

void ByzantineClient::on_ack(sim::LocalTime first_send) {
  // lie_send_time renews from a shifted anchor: a positive skew makes this
  // client believe its lease outlives the server's tau(1+eps) suspect math.
  Client::on_ack(spec_.lie_send_time ? first_send + sim::local_seconds_d(spec_.send_time_skew_s)
                                     : first_send);
}

void ByzantineClient::on_nack() {
  if (!spec_.defy_quiesce) Client::on_nack();  // else a NACK never happened
}

void ByzantineClient::handle_server_msg(const protocol::ServerBody& body) {
  // ack_without_release: the transport still ACKs the demand, but the client
  // never flushes, downgrades, or answers: the revocation must time out
  // instead.
  if (spec_.ack_without_release && std::holds_alternative<protocol::LockDemand>(body)) return;
  Client::handle_server_msg(body);
}

void ByzantineClient::wiretap_server_msg(const Bytes& datagram) {
  if (!spec_.replay_old_session) return;
  // Tag with the session the capture happened in; once the session changes
  // these become dead-session datagrams — the replay material.
  CapturedDatagram c{transport().epoch(), transport().incarnation(), datagram};
  if (captured_.size() < 16) {
    captured_.push_back(std::move(c));
  } else {
    captured_[captured_next_] = std::move(c);
    captured_next_ = (captured_next_ + 1) % captured_.size();
  }
}

void ByzantineClient::lease_quiesce() {
  // defy_quiesce keeps serving local processes through phase 3.
  if (!spec_.defy_quiesce) Client::lease_quiesce();
}

void ByzantineClient::lease_flush() {
  // write_after_expiry is the paper's "slow computer" weaponized: sit on the
  // dirty data through phase 4 so it is still buffered at expiry
  // (before_lease_teardown).
  if (!spec_.write_after_expiry) Client::lease_flush();
}

// A crashed machine loses even its misbehavior: snapshots and captured
// datagrams are volatile state too.
void ByzantineClient::crash() {
  if (crashed()) return;
  Client::crash();
  cancel_timers();
  rogue_writes_.clear();
  rogue_rounds_left_ = 0;
  captured_.clear();
  captured_next_ = 0;
}

void ByzantineClient::arm_timers() {
  if (spec_.replay_old_session && replay_timer_ == 0) {
    replay_timer_ = clock().schedule_after(sim::local_millis(400), [this]() { replay_tick(); });
  }
  if (spec_.forge_lock_claims && forge_timer_ == 0) {
    forge_timer_ = clock().schedule_after(sim::local_millis(600), [this]() { forge_tick(); });
  }
}

void ByzantineClient::cancel_timers() {
  for (sim::TimerId* timer : {&rogue_timer_, &replay_timer_, &forge_timer_}) {
    if (*timer != 0) clock().cancel(*timer);
    *timer = 0;
  }
}

std::uint32_t ByzantineClient::next_rand() {
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 17;
  rng_state_ ^= rng_state_ << 5;
  return rng_state_;
}

// write_after_expiry: freeze the dirty cache at expiry, then keep re-submitting
// it raw to the SAN — the slow-computer late write the fence must stop.
void ByzantineClient::snapshot_rogue_writes() {
  // Resolve every dirty page to its (disk, addr) NOW, with the extents and
  // registration key of the dying session; the flusher never re-resolves or
  // re-keys — that staleness is the attack.
  rogue_io_key_ = (static_cast<std::uint64_t>(server_incarnation()) << 32) | transport().epoch();
  rogue_writes_.clear();
  for (const auto& [file, fb] : cache().all_dirty()) {
    const std::vector<protocol::Extent>* extents = known_extents(file);
    if (extents == nullptr) continue;
    DiskId disk;
    storage::BlockAddr addr;
    if (!protocol::locate_block(*extents, fb, disk, addr)) continue;
    const BlockCache::Page* page = cache().peek(file, fb);
    if (page == nullptr) continue;
    rogue_writes_.push_back(RogueWrite{disk, addr, page->data});
  }
  if (rogue_writes_.empty()) return;
  // Long enough (~4s of 50ms rounds) to straddle the server's fence+steal and
  // the next holder's first writes — the window the fence must actually close.
  rogue_rounds_left_ = 80;
  if (rogue_timer_ == 0) {
    rogue_timer_ = clock().schedule_after(sim::local_millis(50), [this]() { rogue_flush_tick(); });
  }
}

void ByzantineClient::rogue_flush_tick() {
  rogue_timer_ = 0;
  if (crashed() || rogue_rounds_left_ == 0 || rogue_writes_.empty()) return;
  --rogue_rounds_left_;
  for (const auto& rw : rogue_writes_) {
    storage::IoRequest io;
    io.initiator = id();
    io.disk = rw.disk;
    io.op = storage::IoOp::kWrite;
    io.addr = rw.addr;
    io.count = 1;
    io.io_key = rogue_io_key_;  // deliberately stale: the dead session's key
    io.data = rw.data;
    san_->submit(std::move(io), [](storage::IoResult) {});
  }
  rogue_timer_ = clock().schedule_after(sim::local_millis(50), [this]() { rogue_flush_tick(); });
}

void ByzantineClient::replay_tick() {
  replay_timer_ = 0;
  if (crashed()) return;
  if (!captured_.empty()) {
    // Prefer a datagram captured in a DEAD session (older epoch or server
    // incarnation); fall back to a same-session duplicate, which exercises
    // the dedup window instead.
    const std::uint32_t cur_epoch = transport().epoch();
    const std::uint32_t cur_inc = transport().incarnation();
    const CapturedDatagram* pick = nullptr;
    for (const auto& c : captured_) {
      if (c.epoch != cur_epoch || c.incarnation != cur_inc) {
        pick = &c;
        break;
      }
    }
    if (pick == nullptr) pick = &captured_[next_rand() % captured_.size()];
    ++datagrams_replayed_;
    transport().inject_datagram(pick->bytes);
  }
  replay_timer_ = clock().schedule_after(sim::local_millis(400), [this]() { replay_tick(); });
}

void ByzantineClient::forge_tick() {
  forge_timer_ = 0;
  if (crashed()) return;
  if (registered()) {
    // Claim release/compliance for a lock and generation this client was
    // never granted. Generations are small counters, so guessing one that is
    // current is easy — before grant cookies this released locks whose real
    // grant was still in flight to us. The forged cookie is a guess; the
    // server must reject the claim on that mismatch. Prefer files we know
    // exist.
    FileId file{1 + (next_rand() % 4)};
    const std::vector<FileId> files = known_files();
    if (!files.empty()) {
      file = files[next_rand() % files.size()];
    }
    const std::uint32_t gen = 1 + (next_rand() % 4);
    const std::uint64_t cookie = (static_cast<std::uint64_t>(next_rand()) << 32) | next_rand();
    ++claims_forged_;
    if ((next_rand() & 1u) != 0) {
      transport().send_request(protocol::UnlockReq{file, protocol::LockMode::kNone, gen, cookie},
                               [](const protocol::ReplyEvent&) {});
    } else {
      transport().send_request(
          protocol::DemandDoneReq{file, protocol::LockMode::kNone, gen, cookie},
          [](const protocol::ReplyEvent&) {});
    }
  }
  forge_timer_ = clock().schedule_after(sim::local_millis(600), [this]() { forge_tick(); });
}

}  // namespace stank::client
