#include "protocol/client_transport.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/byte_pool.hpp"

namespace stank::protocol {

ClientTransport::ClientTransport(net::ControlNet& net, sim::NodeClock& clock, NodeId self,
                                 NodeId server, metrics::Counters& counters, Owner& owner,
                                 TransportConfig cfg)
    : net_(&net),
      clock_(&clock),
      self_(self),
      server_(server),
      counters_(&counters),
      owner_(&owner),
      cfg_(cfg) {}

ClientTransport::~ClientTransport() {
  if (started_) {
    stop();
  }
}

void ClientTransport::start() {
  STANK_ASSERT(!started_);
  started_ = true;
  net_->attach(self_, *this);
}

void ClientTransport::stop() {
  if (!started_) return;
  started_ = false;
  net_->detach(self_);
  for (Pending& p : pending_) {
    clock_->cancel(p.timer);
  }
  pending_.clear();
}

MsgId ClientTransport::send_request(RequestBody body, ReplyHandler handler, bool lease_only) {
  STANK_ASSERT_MSG(started_, "send_request on stopped transport");
  STANK_ASSERT(handler != nullptr);
  const MsgId id{next_msg_++};
  Pending& p = pending_.emplace_back();
  p.id = id;
  p.body = std::move(body);
  p.handler = std::move(handler);
  p.first_send = clock_->now();
  p.lease_only = lease_only;
  p.epoch = epoch_;
  p.session_gen = session_gen_;
  transmit(id);
  return id;
}

ClientTransport::Pending* ClientTransport::find_pending(MsgId id) {
  for (Pending& p : pending_) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

void ClientTransport::abandon_pending() {
  for (Pending& p : pending_) {
    clock_->cancel(p.timer);
  }
  pending_.clear();
}

void ClientTransport::transmit(MsgId id) {
  Pending* found = find_pending(id);
  STANK_ASSERT(found != nullptr);
  Pending& p = *found;

  ++counters_->requests_sent;
  if (p.transmissions > 0) {
    ++counters_->retransmissions;
  }
  if (p.lease_only) {
    ++counters_->lease_only_msgs;
  }
  if (rec_ != nullptr) {
    if (p.transmissions == 0) {
      rec_->record(clock_->engine().now(), self_, obs::EventKind::kReqSend, id.value(),
                   p.body.index());
    } else {
      rec_->record(clock_->engine().now(), self_, obs::EventKind::kReqRetransmit, id.value(),
                   static_cast<std::uint64_t>(p.transmissions));
    }
  }
  ++p.transmissions;
  Bytes buf = take_buf();
  encode_request_into(self_, id, p.epoch, p.body, buf);
  net_->send(self_, server_, std::move(buf));
  arm_retry(id);
}

void ClientTransport::send_frame(NodeId to, const Frame& f) {
  // Encode into a pooled buffer (exact-size reserve into recycled capacity),
  // then move the bytes into the net: zero allocations per datagram once the
  // pool is warm, zero copies.
  Bytes buf = take_buf();
  encode_into(f, buf);
  net_->send(self_, to, std::move(buf));
}

void ClientTransport::arm_retry(MsgId id) {
  Pending& p = *find_pending(id);
  p.timer = clock_->schedule_after(cfg_.retransmit_timeout, [this, id]() {
    Pending* found = find_pending(id);
    if (found == nullptr) {
      return;  // already answered
    }
    if (found->transmissions > kMaxRetries) {
      // Delivery failure: report timeout and give up.
      Pending p2 = std::move(*found);
      pending_.swap_erase(found);
      if (rec_ != nullptr) {
        rec_->record(clock_->engine().now(), self_, obs::EventKind::kReqTimeout, id.value(),
                     static_cast<std::uint64_t>(p2.transmissions));
      }
      ReplyEvent ev;
      ev.outcome = ReplyOutcome::kTimeout;
      ev.first_send = p2.first_send;
      p2.handler(ev);
      return;
    }
    transmit(id);
  });
}

void ClientTransport::handle_datagram(const Bytes& datagram) {
  RxFrame rx;
  Frame& f = rx.frame();
  if (!decode_into(datagram, f)) {
    ++counters_->frames_rejected;
    return;
  }

  switch (f.kind) {
    case FrameKind::kAck: {
      Pending* found = find_pending(f.msg_id);
      if (found == nullptr) {
        return;  // duplicate ACK for an already-completed request
      }
      if (found->epoch != f.epoch) {
        // Reply from a stale session: pretend it never arrived so the
        // retransmit/timeout machinery still resolves this request.
        return;
      }
      Pending p = std::move(*found);
      clock_->cancel(p.timer);
      pending_.swap_erase(found);
      if (rec_ != nullptr) {
        rec_->record(clock_->engine().now(), self_, obs::EventKind::kAckRecv, f.msg_id.value());
        rec_->span(obs::SpanKind::kRequestRtt, (clock_->now() - p.first_send).millis());
      }
      // A kStaleSession error comes from a NEW server incarnation that holds
      // no session — and no locks — for this client. It must be detected
      // BEFORE the opportunistic renewal: extending the lease on its ACK
      // would keep cached data live under locks the new server is free to
      // grant elsewhere.
      bool stale_session = false;
      if (const auto* body = std::get_if<ReplyBody>(&f.body)) {
        if (const auto* err = std::get_if<ErrReply>(body)) {
          stale_session = err->code == ErrorCode::kStaleSession;
        }
      }
      // Session-level signals (stale-session teardown, lease renewal) are
      // only meaningful for requests sent under the CURRENT registration.
      // A delayed reply to a request from a prior session can carry the
      // same epoch number (incarnations renumber from 1); tearing down or
      // renewing on it would act on a contract that no longer exists.
      const bool current_session = p.session_gen == session_gen_;
      if (stale_session) {
        if (current_session) owner_->handle_stale_session();
      } else if (current_session) {
        // Opportunistic lease renewal fires before the handler so the
        // handler observes a renewed lease.
        owner_->on_ack(p.first_send);
      }
      ReplyEvent ev;
      ev.outcome = ReplyOutcome::kAck;
      ev.body = std::move(std::get<ReplyBody>(f.body));
      ev.first_send = p.first_send;
      p.handler(ev);
      return;
    }
    case FrameKind::kNack: {
      Pending* found = find_pending(f.msg_id);
      if (found == nullptr) {
        // Duplicated or delayed NACK for a request that no longer exists —
        // possibly from before a crash/recovery. Acting on it would re-latch
        // a freshly re-registered client into phase 3 forever.
        return;
      }
      if (found->epoch != f.epoch) {
        // NACK from a stale session (pre-recovery epoch): ignore, exactly
        // like a stale ACK; retransmission/timeout resolves the request.
        return;
      }
      Pending p = std::move(*found);
      clock_->cancel(p.timer);
      pending_.swap_erase(found);
      if (rec_ != nullptr) {
        rec_->record(clock_->engine().now(), self_, obs::EventKind::kNackRecv, f.msg_id.value());
        rec_->span(obs::SpanKind::kRequestRtt, (clock_->now() - p.first_send).millis());
      }
      // A NACK means the server is timing out our lease regardless of which
      // of our current-epoch requests it answers — but only if the request
      // really belongs to the current registration (epoch numbers repeat
      // across incarnations; session_gen does not).
      if (p.session_gen == session_gen_) owner_->on_nack();
      ReplyEvent ev;
      ev.outcome = ReplyOutcome::kNack;
      ev.first_send = p.first_send;
      p.handler(ev);
      return;
    }
    case FrameKind::kServerMsg: {
      owner_->wiretap_server_msg(datagram);
      note_server_msg(f);
      return;
    }
    case FrameKind::kRequest:
    case FrameKind::kClientAck:
      ++counters_->frames_rejected;
      return;
  }
}

void ClientTransport::note_server_msg(const Frame& f) {
  if (f.incarnation != incarnation_) {
    // Stamped by a different server incarnation than the one this session
    // registered with. The epoch and msg_id checks below cannot catch this:
    // both sequences restart across server reboots, so a datagram captured
    // before a restart and replayed into the new session can collide with
    // CURRENT numbers. Drop without ACKing — the frame is from a session
    // that no longer exists.
    return;
  }
  if (!owner_->accept_server_msg(f.epoch)) {
    // Going silent is deliberate: the server's retransmissions will exhaust
    // and it will start the lease timeout for us.
    return;
  }

  // Transport-level ACK (idempotent; re-ACK duplicates in case our earlier
  // ACK was lost).
  Frame ack;
  ack.kind = FrameKind::kClientAck;
  ack.sender = self_;
  ack.msg_id = f.msg_id;
  ack.epoch = f.epoch;
  ++counters_->client_acks_sent;
  send_frame(server_, ack);

  // Dedup = bounded window + monotone low-water mark, reset per epoch.
  // Server msg ids are assigned monotonically at the sender, so an id at or
  // below the highest id ever evicted from the window is a duplicate even
  // after >reply_cache_size intervening messages pushed it out of the window —
  // the hole a bounded window alone leaves open to late duplicates. (A
  // genuinely fresh message could only be misjudged if reordering let
  // reply_cache_size newer server msgs overtake it, far beyond any real
  // spike; and the server's retry-then-suspect path bounds the damage to a
  // delivery failure, never a safety violation.)
  if (f.msg_id.value() <= seen_low_water_ || seen_.find(f.msg_id) != nullptr) {
    // Duplicate (within the window or beyond it): ACKed again, not
    // re-delivered.
    if (rec_ != nullptr) {
      rec_->record(clock_->engine().now(), self_, obs::EventKind::kServerMsgDup,
                   f.msg_id.value());
    }
    return;
  }
  if (rec_ != nullptr) {
    rec_->record(clock_->engine().now(), self_, obs::EventKind::kServerMsgRecv, f.msg_id.value());
  }
  seen_low_water_ = std::max(seen_low_water_, seen_.admit(f.msg_id, cfg_.reply_cache_size));

  owner_->handle_server_msg(std::get<ServerBody>(f.body));
}

}  // namespace stank::protocol
