// Transport owners for the protocol tests: each owner call forwards to a
// settable function, so a test wires only the calls it observes. An unset
// function is a no-op, and an unset gate accepts.
#pragma once

#include <cstdint>
#include <functional>

#include "protocol/client_transport.hpp"
#include "protocol/server_transport.hpp"

namespace stank::protocol {

struct ClientHooks final : ClientTransport::Owner {
  std::function<void(sim::LocalTime first_send)> ack;
  std::function<void()> nack;
  std::function<void()> stale_session;
  std::function<bool(std::uint32_t epoch)> accept;
  std::function<void(const ServerBody&)> server_msg;

  void on_ack(sim::LocalTime first_send) override {
    if (ack) ack(first_send);
  }
  void on_nack() override {
    if (nack) nack();
  }
  void handle_stale_session() override {
    if (stale_session) stale_session();
  }
  bool accept_server_msg(std::uint32_t epoch) override { return !accept || accept(epoch); }
  void handle_server_msg(const ServerBody& body) override {
    if (server_msg) server_msg(body);
  }
};

struct ServerHooks final : ServerTransport::Owner {
  std::function<void(NodeId client, std::uint32_t epoch, const RequestBody&,
                     ServerTransport::Responder)>
      request;
  std::function<bool(NodeId client)> gate;

  void handle_request(NodeId client, std::uint32_t epoch, const RequestBody& body,
                      ServerTransport::Responder r) override {
    if (request) request(client, epoch, body, r);
  }
  bool may_ack(NodeId client) const override { return !gate || gate(client); }
};

// A fake node on the raw datagram layer.
using FnRx = net::FnReceiver<std::function<void(NodeId from, Bytes& datagram)>>;

}  // namespace stank::protocol
