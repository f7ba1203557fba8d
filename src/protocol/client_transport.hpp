// Client side of the control-network session: request/reply with
// retransmission, at-most-once ids, and delivery of server-initiated
// messages (which it transport-ACKs).
//
// The transport reports to one Owner (client::Client), called at fixed
// points of the receive path. The lease integration points:
//  * on_ack fires for every ACK of a current-session request, carrying the
//    request's first-transmission local time — the opportunistic renewal of
//    section 3.1.
//  * on_nack fires when the server negatively acknowledges — the client has
//    missed a message and must treat its cache as suspect (section 3.3).
//  * accept_server_msg gates whether incoming server messages are ACKed at
//    all; a client that knows its lease lapsed must go silent so the server
//    path converges on steal + fence.
// An owner interface rather than a table of callbacks: the transport holds
// one pointer, and a million-client swarm holds a million transports.
#pragma once

#include <vector>

#include "common/small_vec.hpp"
#include "metrics/counters.hpp"
#include "net/control_net.hpp"
#include "obs/recorder.hpp"
#include "protocol/codec.hpp"
#include "protocol/id_window.hpp"
#include "protocol/transport.hpp"
#include "sim/clock.hpp"

namespace stank::protocol {

class ClientTransport final : private net::Receiver {
 public:
  // What the transport asks of the node it serves.
  class Owner {
   public:
    // A current-session request first sent at first_send was ACKed. Fires
    // before the request's handler, so the handler observes a renewed lease.
    virtual void on_ack(sim::LocalTime first_send) = 0;
    // The server NACKed a current-session request.
    virtual void on_nack() = 0;
    // A current-session reply carried ErrReply{kStaleSession}: the server
    // restarted and lost this session (re-register + reassert, section 6).
    // Fires instead of on_ack.
    virtual void handle_stale_session() = 0;
    // Consulted before ACKing/delivering a server-initiated message. Return
    // false to drop it silently (e.g. stale epoch, expired lease).
    virtual bool accept_server_msg(std::uint32_t epoch) = 0;
    // A server-initiated message, ACKed and not seen before.
    virtual void handle_server_msg(const ServerBody& body) = 0;
    // Observes the raw bytes of every decodable server-initiated datagram,
    // BEFORE any gating. This models an on-path recorder: the byzantine
    // client uses it to capture grants/demands for later replay via
    // inject_datagram(). An honest owner ignores it.
    virtual void wiretap_server_msg(const Bytes& /*datagram*/) {}

   protected:
    ~Owner() = default;
  };

  ClientTransport(net::ControlNet& net, sim::NodeClock& clock, NodeId self, NodeId server,
                  metrics::Counters& counters, Owner& owner, TransportConfig cfg = {});
  ~ClientTransport();

  ClientTransport(const ClientTransport&) = delete;
  ClientTransport& operator=(const ClientTransport&) = delete;

  // Attach to / detach from the network. Detaching models a crash: all
  // pending requests are dropped without callbacks.
  void start();
  void stop();

  // Sends a request; the handler always fires exactly once (ACK, NACK, or
  // timeout after retries). lease_only marks pure keep-alives for metrics.
  MsgId send_request(RequestBody body, ReplyHandler handler, bool lease_only = false);

  // Abandons every pending request without invoking handlers. Used when the
  // lease expires and all outstanding state is invalid anyway.
  void abandon_pending();
  [[nodiscard]] std::size_t pending_requests() const { return pending_.size(); }

  // Feeds a raw datagram through the receive path as if the network had just
  // delivered it from the server. Adversarial-replay hook: everything the
  // transport's gates would do to a real duplicate happens to this one too.
  void inject_datagram(const Bytes& datagram) { handle_datagram(datagram); }

  void set_session(std::uint32_t e, std::uint32_t incarnation) {
    if (e != epoch_ || incarnation != incarnation_) {
      // New session epoch: the server-msg dedup window is keyed per epoch.
      // The new incarnation's id sequence is unrelated to the old one, so
      // both the window and its low-water mark start over.
      seen_.clear();
      seen_low_water_ = 0;
    }
    // Always a new session: epoch NUMBERS collide across server
    // incarnations (each numbers from 1), so requests are additionally
    // stamped with a local generation that never repeats.
    ++session_gen_;
    epoch_ = e;
    incarnation_ = incarnation;
  }
  void set_epoch(std::uint32_t e) { set_session(e, incarnation_); }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }
  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] NodeId server() const { return server_; }

  // Attaches (or detaches, with nullptr) the flight recorder. Null in steady
  // state: every instrumentation site is then a single predictable branch.
  void set_recorder(obs::Recorder* rec) { rec_ = rec; }

 private:
  // Widest members first, so the fields pack without padding.
  struct Pending {
    RequestBody body;
    ReplyHandler handler;
    MsgId id;
    sim::LocalTime first_send;
    sim::TimerId timer{0};
    std::uint64_t session_gen{0};
    std::uint32_t epoch{0};
    int transmissions{0};
    bool lease_only{false};
  };

  void receive(NodeId /*from*/, Bytes& datagram) override { handle_datagram(datagram); }
  [[nodiscard]] Pending* find_pending(MsgId id);
  void transmit(MsgId id);
  void arm_retry(MsgId id);
  void send_frame(NodeId to, const Frame& f);
  void handle_datagram(const Bytes& datagram);
  void note_server_msg(const Frame& f);

  net::ControlNet* net_;
  sim::NodeClock* clock_;
  NodeId self_;
  NodeId server_;
  metrics::Counters* counters_;
  Owner* owner_;
  obs::Recorder* rec_{nullptr};
  TransportConfig cfg_;
  std::uint32_t epoch_{0};
  // Server incarnation of the current registration. Server-initiated
  // messages stamped with any other incarnation are replays of a dead
  // session (possibly injected by an adversary) and are dropped un-ACKed.
  std::uint32_t incarnation_{0};
  // Bumped on every set_epoch(): distinguishes requests of the current
  // registration from ones sent under an earlier session whose epoch NUMBER
  // happens to repeat (incarnations each number epochs from 1).
  std::uint64_t session_gen_{0};
  std::uint64_t next_msg_{1};
  bool started_{false};

  // In-flight requests, found by linear search. A client rarely has more
  // than two in flight, so two live inline and more spill to the heap; the
  // order is arbitrary (erase swaps the last entry in), which only
  // stop()/abandon_pending() observe, and they merely cancel timers.
  static constexpr std::size_t kInlinePending = 2;
  SmallVec<Pending, kInlinePending> pending_;
  // Recently seen server-msg ids, to suppress duplicate delivery while still
  // re-ACKing (the ACK may have been lost). The window is bounded
  // (reply_cache_size); ids evicted from it are covered by the monotone
  // low-water mark below, so a duplicate delayed past the window is still
  // suppressed. Both reset when the epoch changes.
  struct Seen {
    MsgId id;
  };
  IdWindow<Seen> seen_;
  std::uint64_t seen_low_water_{0};
};
// Every client holds one: a million-client swarm holds a million. Shrinking
// it is free; growing it should be a decision (DESIGN.md §12, Footprint).
static_assert(sizeof(ClientTransport) <= 480);

}  // namespace stank::protocol
