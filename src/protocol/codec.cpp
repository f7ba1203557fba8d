#include "protocol/codec.hpp"

#include <tuple>
#include <type_traits>
#include <utility>

namespace stank::protocol {

namespace {

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
inline constexpr bool kIsVariant = false;
template <typename... Ts>
inline constexpr bool kIsVariant<std::variant<Ts...>> = true;

template <typename T>
inline constexpr bool kIsStrongId = false;
template <typename Tag, typename Rep>
inline constexpr bool kIsStrongId<StrongId<Tag, Rep>> = true;

// Writer that only measures: put() drives it exactly as it drives
// ByteWriter, so encoded_size() can never drift from the real encoding.
class SizeCounter {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void boolean(bool) { n_ += 1; }
  void str(std::string_view s) { n_ += 4 + s.size(); }
  void raw(std::span<const std::uint8_t> data) { n_ += 4 + data.size(); }
  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  std::size_t n_{0};
};

// The whole wire format, by field type. A variant is its tag (index() + 1)
// followed by the alternative's fields; a message struct is the fields its
// tie() names, in order.
template <typename W, typename T>
void put(W& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.boolean(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (kIsStrongId<T>) {
    put(w, v.value());
  } else if constexpr (std::is_enum_v<T>) {
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w.raw(v);
  } else if constexpr (kIsVector<T>) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) put(w, e);
  } else if constexpr (kIsVariant<T>) {
    w.u8(static_cast<std::uint8_t>(v.index() + 1));
    std::visit([&](const auto& alt) { put(w, alt); }, v);
  } else {
    std::apply([&](const auto&... f) { (put(w, f), ...); }, T::tie(v));
  }
}

// Inverse of put(), decoding in place. Anything put() could not have
// written fails the reader: an enum above its max_enumerator, a vector
// longer than the bytes left, an unknown variant tag.
template <typename T>
void get(ByteReader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.boolean();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (kIsStrongId<T>) {
    typename T::rep_type rep{};
    get(r, rep);
    v = T{rep};
  } else if constexpr (std::is_enum_v<T>) {
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(max_enumerator(T{}))) r.fail();
    v = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, Bytes>) {
    v = r.raw();
  } else if constexpr (kIsVector<T>) {
    const std::uint32_t n = r.u32();
    if (n > r.remaining()) {
      r.fail();
      return;
    }
    v.resize(n);
    for (auto& e : v) get(r, e);
  } else if constexpr (kIsVariant<T>) {
    const std::size_t tag = r.u8();
    const bool known = [&]<std::size_t... I>(std::index_sequence<I...>) {
      return ((tag == I + 1 && (get(r, v.template emplace<I>()), true)) || ...);
    }(std::make_index_sequence<std::variant_size_v<T>>{});
    if (!known) r.fail();
  } else {
    std::apply([&](auto&... f) { (get(r, f), ...); }, T::tie(v));
  }
}

template <typename W>
void put_header(W& w, FrameKind kind, NodeId sender, MsgId msg_id, std::uint32_t epoch,
                std::uint32_t incarnation) {
  put(w, kind);
  put(w, sender);
  put(w, msg_id);
  put(w, epoch);
  put(w, incarnation);
}

template <typename W>
void put_frame(W& w, const Frame& f) {
  put_header(w, f.kind, f.sender, f.msg_id, f.epoch, f.incarnation);
  switch (f.kind) {
    case FrameKind::kRequest:
      put(w, std::get<RequestBody>(f.body));
      break;
    case FrameKind::kAck:
      put(w, std::get<ReplyBody>(f.body));
      break;
    case FrameKind::kServerMsg:
      put(w, std::get<ServerBody>(f.body));
      break;
    case FrameKind::kNack:
    case FrameKind::kClientAck:
      break;  // no body
  }
}

// Runs `write` on a counting writer, reserves exactly that many bytes in
// `out` (cleared first), then runs it on the real writer.
template <typename F>
void write_exact(Bytes& out, F&& write) {
  SizeCounter c;
  write(c);
  out.clear();
  out.reserve(c.size());
  ByteWriter w(out);
  write(w);
}

}  // namespace

std::size_t encoded_size(const Frame& frame) {
  SizeCounter c;
  put_frame(c, frame);
  return c.size();
}

void encode_into(const Frame& frame, Bytes& out) {
  write_exact(out, [&](auto& w) { put_frame(w, frame); });
}

void encode_request_into(NodeId sender, MsgId msg_id, std::uint32_t epoch,
                         const RequestBody& body, Bytes& out) {
  write_exact(out, [&](auto& w) {
    put_header(w, FrameKind::kRequest, sender, msg_id, epoch, 0);
    put(w, body);
  });
}

Bytes encode(const Frame& frame) {
  Bytes out;
  encode_into(frame, out);
  return out;
}

bool decode_into(const Bytes& datagram, Frame& f) {
  ByteReader r(datagram);
  const std::uint8_t kind = r.u8();
  if (kind < 1 || kind > 5) {
    return false;
  }
  f.kind = static_cast<FrameKind>(kind);
  get(r, f.sender);
  get(r, f.msg_id);
  get(r, f.epoch);
  get(r, f.incarnation);
  switch (f.kind) {
    case FrameKind::kRequest:
      get(r, f.body.emplace<RequestBody>());
      break;
    case FrameKind::kAck:
      get(r, f.body.emplace<ReplyBody>());
      break;
    case FrameKind::kServerMsg:
      get(r, f.body.emplace<ServerBody>());
      break;
    case FrameKind::kNack:
    case FrameKind::kClientAck:
      f.body.emplace<std::monostate>();
      break;
  }
  return r.ok() && r.at_end();
}

std::optional<Frame> decode(const Bytes& datagram) {
  Frame f;
  if (!decode_into(datagram, f)) return std::nullopt;
  return f;
}

}  // namespace stank::protocol
