#include "client/machine.hpp"

#include "common/assert.hpp"

namespace stank::client {

Machine::Machine(sim::Engine& engine, net::ControlNet& net, storage::SanFabric& san,
                 sim::LocalClock local_clock, MachineConfig cfg, obs::Recorder* rec) {
  STANK_ASSERT_MSG(!cfg.servers.empty(), "a machine needs at least one server");
  for (std::size_t k = 0; k < cfg.servers.size(); ++k) {
    ClientConfig c = cfg.client;
    c.id = NodeId{cfg.base_id.value() + static_cast<std::uint32_t>(k)};
    c.server = cfg.servers[k];
    // All sub-clients share the machine's single hardware clock.
    subs_.push_back(std::make_unique<Client>(engine, net, san, local_clock, c, rec));
  }
}

void Machine::start() {
  for (auto& s : subs_) {
    s->start();
  }
}

void Machine::crash() {
  crashed_ = true;
  for (auto& s : subs_) {
    s->crash();
  }
}

void Machine::restart() {
  crashed_ = false;
  for (auto& s : subs_) {
    s->restart();
  }
}

std::size_t Machine::route(const std::string& path) const {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (char ch : path) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= 0x100000001B3ULL;
  }
  return static_cast<std::size_t>(h % subs_.size());
}

Client* Machine::sub_for(MFd fd) {
  const std::size_t k = sub_of(fd);
  return k < subs_.size() ? subs_[k].get() : nullptr;
}

void Machine::open(const std::string& path, bool create, std::function<void(Result<MFd>)> cb) {
  const std::size_t k = route(path);
  subs_[k]->open(path, create, [k, cb = std::move(cb)](Result<Fd> r) {
    if (!r.ok()) {
      cb(r.error());
      return;
    }
    cb((static_cast<MFd>(k) << kSubShift) | r.value());
  });
}

void Machine::read(MFd fd, std::uint64_t offset, std::uint32_t len,
                   std::function<void(Result<Bytes>)> cb) {
  Client* c = sub_for(fd);
  if (c == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  c->read(fd_of(fd), offset, len, std::move(cb));
}

void Machine::write(MFd fd, std::uint64_t offset, Bytes data, std::function<void(Status)> cb) {
  Client* c = sub_for(fd);
  if (c == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  c->write(fd_of(fd), offset, std::move(data), std::move(cb));
}

void Machine::fsync(MFd fd, std::function<void(Status)> cb) {
  Client* c = sub_for(fd);
  if (c == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  c->fsync(fd_of(fd), std::move(cb));
}

void Machine::close(MFd fd, std::function<void(Status)> cb) {
  Client* c = sub_for(fd);
  if (c == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  c->close(fd_of(fd), std::move(cb));
}

void Machine::lock(MFd fd, protocol::LockMode mode, std::function<void(Status)> cb) {
  Client* c = sub_for(fd);
  if (c == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  c->lock(fd_of(fd), mode, std::move(cb));
}

void Machine::release(MFd fd, protocol::LockMode downgrade_to, std::function<void(Status)> cb) {
  Client* c = sub_for(fd);
  if (c == nullptr) {
    cb(ErrorCode::kBadHandle);
    return;
  }
  c->release(fd_of(fd), downgrade_to, std::move(cb));
}

void Machine::sync_all(std::function<void(Status)> cb) {
  auto remaining = std::make_shared<std::size_t>(subs_.size());
  auto worst = std::make_shared<Status>(Status::ok());
  auto shared_cb = std::make_shared<std::function<void(Status)>>(std::move(cb));
  for (auto& s : subs_) {
    s->sync_all([remaining, worst, shared_cb](Status st) {
      if (!st.is_ok() && worst->is_ok()) {
        *worst = st;
      }
      if (--*remaining == 0) {
        (*shared_cb)(*worst);
      }
    });
  }
}

bool Machine::fully_registered() const {
  for (const auto& s : subs_) {
    if (!s->registered()) return false;
  }
  return true;
}

std::size_t Machine::total_dirty_pages() const {
  std::size_t n = 0;
  for (const auto& s : subs_) {
    n += s->cache().dirty_count();
  }
  return n;
}

}  // namespace stank::client
