#include "protocol/server_transport.hpp"

#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/byte_pool.hpp"
#include "common/small_vec.hpp"

namespace stank::protocol {

ServerTransport::ServerTransport(net::ControlNet& net, sim::NodeClock& clock, NodeId self,
                                 metrics::Counters& counters, Owner& owner, TransportConfig cfg)
    : net_(&net), clock_(&clock), self_(self), counters_(&counters), owner_(&owner), cfg_(cfg) {}

ServerTransport::~ServerTransport() {
  if (started_) {
    stop();
  }
}

void ServerTransport::start() {
  STANK_ASSERT(!started_);
  started_ = true;
  net_->attach(self_, *this);
}

void ServerTransport::stop() {
  if (!started_) return;
  started_ = false;
  net_->detach(self_);
  for (auto& [id, m] : out_msgs_) {
    clock_->cancel(m.timer);
  }
  out_msgs_.clear();
}

void ServerTransport::handle_datagram(const Bytes& datagram) {
  RxFrame rx;
  Frame& frame = rx.frame();
  if (!decode_into(datagram, frame)) {
    ++counters_->frames_rejected;
    return;
  }
  switch (frame.kind) {
    case FrameKind::kRequest:
      handle_request(frame);
      return;
    case FrameKind::kClientAck: {
      OutMsg* found = out_msgs_.find(frame.msg_id);
      if (found == nullptr) {
        return;  // duplicate ACK
      }
      OutMsg m = std::move(*found);
      clock_->cancel(m.timer);
      out_msgs_.erase(frame.msg_id);
      if (rec_ != nullptr) {
        rec_->record(clock_->engine().now(), self_, obs::EventKind::kServerMsgAcked,
                     frame.msg_id.value(), m.client.value());
      }
      if (m.done) {
        m.done(true);
      }
      return;
    }
    case FrameKind::kAck:
    case FrameKind::kNack:
    case FrameKind::kServerMsg:
      ++counters_->frames_rejected;
      return;
  }
}

void ServerTransport::handle_request(const Frame& f) {
  // reply_cache_size 0 caches nothing: every copy of a request executes.
  if (cfg_.reply_cache_size > 0) {
    Session& s = sessions_[session_key(f.sender, f.epoch)];
    if (const Cached* c = s.find(f.msg_id)) {
      if (c->state != Cached::State::kExecuting) {
        // Retransmission of a completed request: re-send the cached reply,
        // unless the ACK gate has closed in the meantime — then the client
        // must see a NACK, not a lease-renewing ACK.
        Frame reply;
        reply.kind = c->state == Cached::State::kAck ? FrameKind::kAck : FrameKind::kNack;
        reply.sender = self_;
        reply.msg_id = f.msg_id;
        reply.epoch = f.epoch;
        reply.incarnation = c->incarnation;
        if (reply.kind == FrameKind::kAck) {
          if (!owner_->may_ack(f.sender)) {
            reply.kind = FrameKind::kNack;
          } else {
            reply.body = unstash(c->reply);
          }
        }
        ++counters_->reply_cache_hits;
        if (rec_ != nullptr) {
          rec_->record(clock_->engine().now(), self_, obs::EventKind::kReqReplay,
                       f.msg_id.value(), f.sender.value());
        }
        send_reply_frame(f.sender, reply);
      }
      // else: still executing; the eventual reply will go out once.
      return;
    }
    s.admit(f.msg_id, cfg_.reply_cache_size);
  }

  if (rec_ != nullptr) {
    rec_->record(clock_->engine().now(), self_, obs::EventKind::kReqRecv, f.msg_id.value(),
                 f.sender.value(),
                 static_cast<std::uint16_t>(std::get<RequestBody>(f.body).index()));
  }
  Responder r(this, f.sender, f.msg_id, f.epoch);
  owner_->handle_request(f.sender, f.epoch, std::get<RequestBody>(f.body), r);
}

void ServerTransport::Responder::ack(ReplyBody body) const {
  t_->respond(client_, id_, epoch_, true, std::move(body));
}

void ServerTransport::Responder::nack() const {
  t_->respond(client_, id_, epoch_, false, ReplyBody{});
}

void ServerTransport::respond(NodeId client, MsgId id, std::uint32_t epoch, bool positive,
                              ReplyBody body) {
  Frame f;
  f.sender = self_;
  f.msg_id = id;
  f.epoch = epoch;
  f.incarnation = incarnation_;
  // The ACK gate is enforced HERE, unconditionally, so no server-logic bug
  // can leak a lease-renewing ACK to a client being timed out.
  if (positive && !owner_->may_ack(client)) {
    positive = false;
  }
  if (positive) {
    f.kind = FrameKind::kAck;
    f.body = std::move(body);
  } else {
    f.kind = FrameKind::kNack;
  }

  Session* s = sessions_.find(session_key(client, epoch));
  Cached* c = s != nullptr ? s->find(id) : nullptr;
  STANK_ASSERT_MSG(c == nullptr || c->state == Cached::State::kExecuting,
                   "double reply to one request");
  send_reply_frame(client, f);
  if (c != nullptr) {
    // Sending touches no session, so c is still valid; the frame is spent.
    c->incarnation = f.incarnation;
    if (positive) {
      c->state = Cached::State::kAck;
      c->reply = stash(std::move(std::get<ReplyBody>(f.body)));
    } else {
      c->state = Cached::State::kNack;
    }
  }
}

ServerTransport::StoredReply ServerTransport::stash(ReplyBody&& body) {
  return std::visit(
      [&body](auto& alt) -> StoredReply {
        if constexpr (std::is_constructible_v<StoredReply, decltype(alt)>) {
          return std::move(alt);
        } else {
          return std::make_unique<ReplyBody>(std::move(body));
        }
      },
      body);
}

ReplyBody ServerTransport::unstash(const StoredReply& reply) {
  return std::visit(
      [](const auto& alt) -> ReplyBody {
        if constexpr (std::is_same_v<std::decay_t<decltype(alt)>, Boxed>) {
          return *alt;
        } else {
          return alt;
        }
      },
      reply);
}

std::size_t ServerTransport::reply_cache_bytes() const {
  std::size_t bytes = sessions_.capacity() * (sizeof(decltype(sessions_)::Slot) + 1);
  for (const auto& [key, session] : sessions_) {
    bytes += session.capacity() * sizeof(Cached);
    for (const Cached& c : session.entries()) {
      const auto* boxed = std::get_if<Boxed>(&c.reply);
      if (boxed == nullptr) continue;
      bytes += sizeof(ReplyBody);
      if (const auto* open = std::get_if<OpenReply>(boxed->get())) {
        bytes += open->extents.capacity() * sizeof(Extent);
      } else if (const auto* attr = std::get_if<AttrReply>(boxed->get())) {
        bytes += attr->extents.capacity() * sizeof(Extent);
      } else if (const auto* data = std::get_if<DataReply>(boxed->get())) {
        bytes += data->data.capacity();
      }
    }
  }
  return bytes;
}

void ServerTransport::send_reply_frame(NodeId client, const Frame& f) {
  if (f.kind == FrameKind::kAck) {
    ++counters_->acks_sent;
  } else {
    ++counters_->nacks_sent;
  }
  if (rec_ != nullptr) {
    rec_->record(clock_->engine().now(), self_,
                 f.kind == FrameKind::kAck ? obs::EventKind::kAckSend
                                           : obs::EventKind::kNackSend,
                 f.msg_id.value(), client.value());
  }
  send_frame(client, f);
}

void ServerTransport::send_frame(NodeId to, const Frame& f) {
  // Encode into a pooled buffer (exact-size reserve into recycled capacity),
  // then move the bytes into the net: zero allocations per datagram once the
  // pool is warm, zero copies.
  Bytes buf = take_buf();
  encode_into(f, buf);
  net_->send(self_, to, std::move(buf));
}

void ServerTransport::send_server_msg(NodeId client, std::uint32_t epoch, ServerBody body,
                                      DeliveryFn done) {
  STANK_ASSERT_MSG(started_, "send_server_msg on stopped transport");
  const MsgId id{next_msg_++};
  OutMsg& m = *out_msgs_.try_emplace(id).first;
  m.client = client;
  m.frame.kind = FrameKind::kServerMsg;
  m.frame.sender = self_;
  m.frame.msg_id = id;
  m.frame.epoch = epoch;
  m.frame.incarnation = incarnation_;
  m.frame.body = std::move(body);
  m.done = std::move(done);
  transmit_server_msg(id);
}

void ServerTransport::transmit_server_msg(MsgId id) {
  OutMsg* found = out_msgs_.find(id);
  STANK_ASSERT(found != nullptr);
  OutMsg& m = *found;

  ++counters_->server_msgs_sent;
  if (m.transmissions > 0) {
    ++counters_->retransmissions;
  }
  if (rec_ != nullptr) {
    if (m.transmissions == 0) {
      rec_->record(clock_->engine().now(), self_, obs::EventKind::kServerMsgSend, id.value(),
                   m.client.value(),
                   static_cast<std::uint16_t>(std::get<ServerBody>(m.frame.body).index()));
    } else {
      rec_->record(clock_->engine().now(), self_, obs::EventKind::kServerMsgRetransmit,
                   id.value(), m.client.value(),
                   static_cast<std::uint16_t>(m.transmissions));
    }
  }
  ++m.transmissions;
  send_frame(m.client, m.frame);

  m.timer = clock_->schedule_after(cfg_.retransmit_timeout, [this, id]() {
    OutMsg* pending = out_msgs_.find(id);
    if (pending == nullptr) {
      return;  // ACKed meanwhile
    }
    if (pending->transmissions > kMaxRetries) {
      OutMsg m2 = std::move(*pending);
      out_msgs_.erase(id);
      if (rec_ != nullptr) {
        rec_->record(clock_->engine().now(), self_, obs::EventKind::kDeliveryFailure,
                     id.value(), m2.client.value());
      }
      if (m2.done) {
        m2.done(false);  // delivery failure
      }
      return;
    }
    transmit_server_msg(id);
  });
}

void ServerTransport::cancel_server_msgs(NodeId client) {
  // Collect first: erasing shifts later slots back, under a live iterator.
  SmallVec<MsgId, 8> doomed;
  for (auto& [id, m] : out_msgs_) {
    if (m.client == client) {
      clock_->cancel(m.timer);
      doomed.push_back(id);
    }
  }
  for (const MsgId id : doomed) out_msgs_.erase(id);
}

}  // namespace stank::protocol
