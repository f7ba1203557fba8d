// Server side of the control-network session.
//
// Responsibilities:
//  * At-most-once request execution per (client, epoch, msg id), with a
//    bounded reply cache so retransmitted requests re-send the original
//    reply instead of re-executing.
//  * The ACK gate: before ANY positive acknowledgment leaves this node, the
//    owner's may_ack predicate is consulted. Section 3.1: "we require the
//    server not to ACK messages if it has already started a counter to
//    expire client locks". A denied ACK is turned into a NACK (section 3.3).
//  * Server-initiated messages (lock demands/grants) with retransmission;
//    exhausting retries reports a delivery failure, which is what triggers
//    the passive lease authority.
//
// Requests and the ACK gate go to one Owner (server::Server), like the
// client side's ClientTransport::Owner.
#pragma once

#include <memory>
#include <variant>
#include <vector>

#include "common/flat_map.hpp"
#include "metrics/counters.hpp"
#include "net/control_net.hpp"
#include "obs/recorder.hpp"
#include "protocol/codec.hpp"
#include "protocol/id_window.hpp"
#include "protocol/transport.hpp"
#include "sim/clock.hpp"

namespace stank::protocol {

class ServerTransport final : private net::Receiver {
 public:
  class Owner;
  ServerTransport(net::ControlNet& net, sim::NodeClock& clock, NodeId self,
                  metrics::Counters& counters, Owner& owner, TransportConfig cfg = {});
  ~ServerTransport();

  ServerTransport(const ServerTransport&) = delete;
  ServerTransport& operator=(const ServerTransport&) = delete;

  void start();
  void stop();

  // Handle with which the request handler answers exactly once.
  class Responder {
   public:
    void ack(ReplyBody body) const;
    void nack() const;
    [[nodiscard]] NodeId client() const { return client_; }
    [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

   private:
    friend class ServerTransport;
    Responder(ServerTransport* t, NodeId client, MsgId id, std::uint32_t epoch)
        : t_(t), client_(client), id_(id), epoch_(epoch) {}
    ServerTransport* t_;
    NodeId client_;
    MsgId id_;
    std::uint32_t epoch_;
  };

  // What the transport asks of the server it serves.
  class Owner {
   public:
    // A request to execute: new, not a retransmission the reply cache
    // answers. Answer through the Responder exactly once.
    virtual void handle_request(NodeId client, std::uint32_t epoch, const RequestBody& body,
                                Responder r) = 0;
    // The ACK gate: while false, every positive reply to the client leaves
    // as a NACK.
    [[nodiscard]] virtual bool may_ack(NodeId client) const = 0;

   protected:
    ~Owner() = default;
  };

  // Sends a server-initiated message requiring a client transport ACK.
  // done(delivered) fires exactly once; delivered=false after retries are
  // exhausted — the delivery error of section 3.
  using DeliveryFn = MoveFn<void(bool delivered)>;
  void send_server_msg(NodeId client, std::uint32_t epoch, ServerBody body, DeliveryFn done);

  // Drops outstanding server messages to a client without firing their
  // callbacks (used once the client has been declared failed).
  void cancel_server_msgs(NodeId client);

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] std::size_t outstanding_server_msgs() const { return out_msgs_.size(); }

  // Stamps every outgoing frame with this server incarnation. Clients gate
  // server-initiated messages on it: epoch numbers and server msg_ids both
  // restart across reboots, so the incarnation is the only field that makes
  // a captured pre-restart datagram distinguishable from a live one.
  void set_incarnation(std::uint32_t inc) { incarnation_ = inc; }
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }

  // Attaches (or detaches, with nullptr) the flight recorder.
  void set_recorder(obs::Recorder* rec) { rec_ = rec; }

  // Heap bytes the reply cache holds: the session table's block, each
  // session's ring at its capacity, and the boxed reply bodies with their
  // payloads.
  [[nodiscard]] std::size_t reply_cache_bytes() const;

 private:
  // A cached reply body. The four fixed-size replies, almost every one a
  // server sends, sit inline; the three that carry a vector are boxed.
  using Boxed = std::unique_ptr<ReplyBody>;
  using StoredReply = std::variant<OkReply, ErrReply, LockReply, RegisterReply, Boxed>;
  // One request id's entry in a session's reply cache. The reply is stored
  // as its body, not as a Frame: a replay rebuilds the frame from the
  // retransmitted request's id and epoch plus the incarnation stored here,
  // and the ReplyBody from `reply`.
  struct Cached {
    enum class State : std::uint8_t { kExecuting, kAck, kNack };
    MsgId id;
    StoredReply reply{};  // meaningful for kAck only
    std::uint32_t incarnation{0};
    State state{State::kExecuting};
  };
  // Every ring slot of every live session is one of these.
  static_assert(sizeof(Cached) <= 40);
  // A session's reply cache: the last reply_cache_size distinct request ids
  // in arrival order, each admitted as executing.
  using Session = IdWindow<Cached>;
  struct OutMsg {
    NodeId client;
    Frame frame;
    int transmissions{0};
    sim::TimerId timer{0};
    DeliveryFn done;
  };

  [[nodiscard]] static StoredReply stash(ReplyBody&& body);
  [[nodiscard]] static ReplyBody unstash(const StoredReply& reply);

  void receive(NodeId /*from*/, Bytes& datagram) override { handle_datagram(datagram); }
  void handle_datagram(const Bytes& datagram);
  void handle_request(const Frame& f);
  void respond(NodeId client, MsgId id, std::uint32_t epoch, bool positive, ReplyBody body);
  void send_reply_frame(NodeId client, const Frame& f);
  void send_frame(NodeId to, const Frame& f);
  void transmit_server_msg(MsgId id);
  [[nodiscard]] static std::uint64_t session_key(NodeId client, std::uint32_t epoch) {
    return (static_cast<std::uint64_t>(client.value()) << 32) | epoch;
  }

  net::ControlNet* net_;
  sim::NodeClock* clock_;
  NodeId self_;
  metrics::Counters* counters_;
  Owner* owner_;
  obs::Recorder* rec_{nullptr};
  TransportConfig cfg_;
  bool started_{false};
  std::uint32_t incarnation_{0};
  std::uint64_t next_msg_{1};

  // Sessions keyed by packed (client, epoch): one flat table instead of a
  // map-of-maps, so a million-client server pays one probe per request and
  // a 48-byte slot per session plus the ring its window holds. Sessions of
  // superseded epochs are kept: dropping one would let a late duplicate of
  // its RegisterReq execute again and bump the client's epoch.
  FlatMap<std::uint64_t, Session> sessions_;
  // Unacknowledged server-initiated messages; slots recycle in place, so a
  // steady demand/grant stream allocates nothing. No walk over it is
  // observable: stop() and cancel_server_msgs() only cancel timers.
  FlatMap<MsgId, OutMsg> out_msgs_;
};

}  // namespace stank::protocol
