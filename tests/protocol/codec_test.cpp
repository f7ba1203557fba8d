#include "protocol/codec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace stank::protocol {
namespace {

Frame mk_request(RequestBody body) {
  Frame f;
  f.kind = FrameKind::kRequest;
  f.sender = NodeId{100};
  f.msg_id = MsgId{42};
  f.epoch = 3;
  f.body = std::move(body);
  return f;
}

Frame mk_reply(ReplyBody body, FrameKind kind = FrameKind::kAck) {
  Frame f;
  f.kind = kind;
  f.sender = NodeId{1};
  f.msg_id = MsgId{42};
  f.epoch = 3;
  if (kind == FrameKind::kAck) {
    f.body = std::move(body);
  }
  return f;
}

void expect_header_round_trip(const Frame& f, const Frame& d) {
  EXPECT_EQ(d.kind, f.kind);
  EXPECT_EQ(d.sender, f.sender);
  EXPECT_EQ(d.msg_id, f.msg_id);
  EXPECT_EQ(d.epoch, f.epoch);
}

template <typename T>
const T& decoded_request(const Frame& d) {
  return std::get<T>(std::get<RequestBody>(d.body));
}
template <typename T>
const T& decoded_reply(const Frame& d) {
  return std::get<T>(std::get<ReplyBody>(d.body));
}

TEST(Codec, OpenReqRoundTrip) {
  Frame f = mk_request(OpenReq{"/some/long/path with spaces", true});
  auto d = decode(encode(f));
  ASSERT_TRUE(d.has_value());
  expect_header_round_trip(f, *d);
  EXPECT_EQ(decoded_request<OpenReq>(*d).path, "/some/long/path with spaces");
  EXPECT_TRUE(decoded_request<OpenReq>(*d).create);
}

TEST(Codec, EncodedSizeMatchesActualEncodingExactly) {
  // The size pass must agree byte-for-byte with the write pass for every
  // body shape, and the buffer must be allocated exactly once at that size.
  const Frame frames[] = {
      mk_request(OpenReq{"/a/path", false}),
      mk_request(LockReq{FileId{9}, LockMode::kExclusive}),
      mk_request(UnlockReq{FileId{9}, LockMode::kShared, 7}),
      mk_request(KeepAliveReq{}),
      mk_request(WriteDataReq{FileId{3}, 128, Bytes{1, 2, 3, 4, 5}}),
      mk_reply(ReplyBody{OpenReply{FileId{4}, FileAttr{10, 20, 2},
                                   {Extent{DiskId{1}, 0, 8}, Extent{DiskId{2}, 8, 8}}}}),
      mk_reply(ReplyBody{ErrReply{ErrorCode::kLeaseExpired}}),
      mk_reply(ReplyBody{OkReply{}}, FrameKind::kNack),
  };
  for (const Frame& f : frames) {
    const Bytes via_encode = encode(f);
    EXPECT_EQ(encoded_size(f), via_encode.size());
    Bytes out;
    encode_into(f, out);
    EXPECT_EQ(out, via_encode);
    EXPECT_EQ(out.capacity(), encoded_size(f));
  }
}

TEST(Codec, EncodeIntoReusesAndClearsTheBuffer) {
  Bytes buf;
  encode_into(mk_request(OpenReq{"/first/longer/path", true}), buf);
  const Bytes first = buf;
  encode_into(mk_request(KeepAliveReq{}), buf);
  EXPECT_EQ(buf.size(), encoded_size(mk_request(KeepAliveReq{})));
  EXPECT_NE(buf, first);
  ASSERT_TRUE(decode(buf).has_value());
}

TEST(Codec, EncodeRequestIntoMatchesEncode) {
  const RequestBody bodies[] = {OpenReq{"/a/path", true}, LockReq{FileId{9}, LockMode::kShared},
                                WriteDataReq{FileId{3}, 128, Bytes{1, 2, 3}}, KeepAliveReq{}};
  for (const RequestBody& body : bodies) {
    Bytes out{0xff};
    encode_request_into(NodeId{100}, MsgId{42}, 3, body, out);
    EXPECT_EQ(out, encode(mk_request(body)));
    EXPECT_EQ(out.capacity(), out.size());
  }
}

// A transport decodes every datagram over one frame. Whatever that frame
// held before, the result must equal a fresh decode of the same bytes.
TEST(Codec, DecodeIntoAReusedFrameMatchesAFreshDecode) {
  const Frame frames[] = {
      mk_request(WriteDataReq{FileId{3}, 128, Bytes{1, 2, 3, 4, 5, 6, 7, 8}}),
      mk_request(WriteDataReq{FileId{4}, 0, Bytes{9}}),
      mk_request(OpenReq{"/a/longer/path/than/the/next", true}),
      mk_request(OpenReq{"/b", false}),
      mk_request(LockReq{FileId{9}, LockMode::kExclusive}),
      mk_reply(ReplyBody{OpenReply{FileId{4}, FileAttr{10, 20, 2},
                                   {Extent{DiskId{1}, 0, 8}, Extent{DiskId{2}, 8, 8}}}}),
      mk_reply(ReplyBody{OpenReply{FileId{5}, FileAttr{1, 2, 3}, {Extent{DiskId{3}, 4, 5}}}}),
      mk_reply(ReplyBody{OkReply{}}, FrameKind::kNack),
      mk_reply(ReplyBody{DataReply{Bytes{4, 5}}}),
  };
  Frame reused;
  for (const Frame& f : frames) {
    const Bytes bytes = encode(f);
    ASSERT_TRUE(decode_into(bytes, reused));
    EXPECT_EQ(encode(reused), bytes);
    EXPECT_EQ(reused.body.index(), f.body.index());
  }
  EXPECT_FALSE(decode_into(Bytes{0xde, 0xad}, reused));
}

TEST(Codec, LockReqRoundTrip) {
  Frame f = mk_request(LockReq{FileId{9}, LockMode::kExclusive});
  auto d = decode(encode(f));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(decoded_request<LockReq>(*d).file, FileId{9});
  EXPECT_EQ(decoded_request<LockReq>(*d).mode, LockMode::kExclusive);
}

TEST(Codec, UnlockAndDemandDoneCarryGen) {
  auto d1 = decode(encode(mk_request(UnlockReq{FileId{1}, LockMode::kShared, 77})));
  ASSERT_TRUE(d1);
  EXPECT_EQ(decoded_request<UnlockReq>(*d1).gen, 77u);

  auto d2 = decode(encode(mk_request(DemandDoneReq{FileId{2}, LockMode::kNone, 88})));
  ASSERT_TRUE(d2);
  EXPECT_EQ(decoded_request<DemandDoneReq>(*d2).gen, 88u);
  EXPECT_EQ(decoded_request<DemandDoneReq>(*d2).new_mode, LockMode::kNone);
}

TEST(Codec, SetSizeCarriesTruncateFlag) {
  auto d = decode(encode(mk_request(SetSizeReq{FileId{4}, 1 << 20, true})));
  ASSERT_TRUE(d);
  EXPECT_EQ(decoded_request<SetSizeReq>(*d).new_size, 1u << 20);
  EXPECT_TRUE(decoded_request<SetSizeReq>(*d).truncate);
}

TEST(Codec, EmptyBodiedRequests) {
  for (RequestBody b : {RequestBody{KeepAliveReq{}}, RequestBody{RegisterReq{}}}) {
    auto d = decode(encode(mk_request(b)));
    ASSERT_TRUE(d);
    EXPECT_EQ(std::get<RequestBody>(d->body).index(), b.index());
  }
}

TEST(Codec, DataRequestsRoundTrip) {
  auto d1 = decode(encode(mk_request(ReadDataReq{FileId{1}, 4096, 512})));
  ASSERT_TRUE(d1);
  EXPECT_EQ(decoded_request<ReadDataReq>(*d1).offset, 4096u);
  EXPECT_EQ(decoded_request<ReadDataReq>(*d1).len, 512u);

  Bytes payload{1, 2, 3, 4, 5, 0, 255};
  auto d2 = decode(encode(mk_request(WriteDataReq{FileId{2}, 7, payload})));
  ASSERT_TRUE(d2);
  EXPECT_EQ(decoded_request<WriteDataReq>(*d2).data, payload);
}

TEST(Codec, OpenReplyWithExtents) {
  OpenReply rep;
  rep.file = FileId{12};
  rep.attr = FileAttr{1 << 16, 123456789, 7};
  rep.extents = {Extent{DiskId{1}, 100, 16}, Extent{DiskId{2}, 0, 8}};
  auto d = decode(encode(mk_reply(ReplyBody{rep})));
  ASSERT_TRUE(d);
  const auto& got = decoded_reply<OpenReply>(*d);
  EXPECT_EQ(got.file, FileId{12});
  EXPECT_EQ(got.attr.size, 1u << 16);
  EXPECT_EQ(got.attr.mtime_ns, 123456789u);
  EXPECT_EQ(got.attr.meta_version, 7u);
  ASSERT_EQ(got.extents.size(), 2u);
  EXPECT_EQ(got.extents[1].disk, DiskId{2});
  EXPECT_EQ(got.extents[0].start, 100u);
  EXPECT_EQ(got.extents[0].count, 16u);
}

TEST(Codec, LockReplyCarriesGen) {
  auto d = decode(encode(mk_reply(ReplyBody{LockReply{true, LockMode::kShared, 31}})));
  ASSERT_TRUE(d);
  EXPECT_TRUE(decoded_reply<LockReply>(*d).granted);
  EXPECT_EQ(decoded_reply<LockReply>(*d).gen, 31u);
}

TEST(Codec, ErrReplyRoundTrip) {
  auto d = decode(encode(mk_reply(ReplyBody{ErrReply{ErrorCode::kNoSpace}})));
  ASSERT_TRUE(d);
  EXPECT_EQ(decoded_reply<ErrReply>(*d).code, ErrorCode::kNoSpace);
}

TEST(Codec, NackHasNoBody) {
  Frame f = mk_reply(ReplyBody{}, FrameKind::kNack);
  auto d = decode(encode(f));
  ASSERT_TRUE(d);
  EXPECT_EQ(d->kind, FrameKind::kNack);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(d->body));
}

TEST(Codec, ClientAckRoundTrip) {
  Frame f;
  f.kind = FrameKind::kClientAck;
  f.sender = NodeId{100};
  f.msg_id = MsgId{7};
  f.epoch = 1;
  auto d = decode(encode(f));
  ASSERT_TRUE(d);
  expect_header_round_trip(f, *d);
}

TEST(Codec, ServerMsgsRoundTrip) {
  Frame f;
  f.kind = FrameKind::kServerMsg;
  f.sender = NodeId{1};
  f.msg_id = MsgId{5};
  f.epoch = 2;
  f.body = ServerBody{LockDemand{FileId{3}, LockMode::kShared, 9}};
  auto d = decode(encode(f));
  ASSERT_TRUE(d);
  const auto& dem = std::get<LockDemand>(std::get<ServerBody>(d->body));
  EXPECT_EQ(dem.file, FileId{3});
  EXPECT_EQ(dem.max_mode, LockMode::kShared);
  EXPECT_EQ(dem.gen, 9u);

  f.body = ServerBody{LockGrant{FileId{4}, LockMode::kExclusive, 10}};
  auto d2 = decode(encode(f));
  ASSERT_TRUE(d2);
  const auto& g = std::get<LockGrant>(std::get<ServerBody>(d2->body));
  EXPECT_EQ(g.mode, LockMode::kExclusive);
  EXPECT_EQ(g.gen, 10u);
}

TEST(Codec, RejectsEmptyDatagram) { EXPECT_FALSE(decode(Bytes{}).has_value()); }

TEST(Codec, RejectsUnknownFrameKind) {
  Bytes b = encode(mk_request(KeepAliveReq{}));
  b[0] = 99;
  EXPECT_FALSE(decode(b).has_value());
}

TEST(Codec, RejectsTrailingGarbage) {
  Bytes b = encode(mk_request(KeepAliveReq{}));
  b.push_back(0);
  EXPECT_FALSE(decode(b).has_value());
}

TEST(Codec, RejectsTruncation) {
  Bytes b = encode(mk_request(OpenReq{"/path", false}));
  for (std::size_t cut = 1; cut < b.size(); ++cut) {
    Bytes t(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode(t).has_value()) << "accepted truncation at " << cut;
  }
}

TEST(Codec, RejectsOutOfRangeLockMode) {
  Bytes b = encode(mk_request(LockReq{FileId{1}, LockMode::kShared}));
  // The mode byte is the last one of this encoding.
  b.back() = 17;
  EXPECT_FALSE(decode(b).has_value());
}

TEST(Codec, RejectsOutOfRangeErrorCode) {
  Bytes b = encode(mk_reply(ReplyBody{ErrReply{max_enumerator(ErrorCode{})}}));
  ASSERT_TRUE(decode(b).has_value());
  // The error code is the last byte of this encoding.
  b.back() = static_cast<std::uint8_t>(static_cast<int>(max_enumerator(ErrorCode{})) + 1);
  EXPECT_FALSE(decode(b).has_value());
  b.back() = 0xFF;
  EXPECT_FALSE(decode(b).has_value());
}

TEST(Codec, RejectsVectorLongerThanTheBytesLeft) {
  Bytes b = encode(mk_reply(ReplyBody{AttrReply{FileAttr{1, 2, 3}, {}}}));
  ASSERT_TRUE(decode(b).has_value());
  // The extent count is the last four bytes; claim two with none following.
  b[b.size() - 4] = 2;
  EXPECT_FALSE(decode(b).has_value());
}

TEST(Codec, RejectsUnknownBodyTag) {
  Bytes b = encode(mk_request(KeepAliveReq{}));
  b.back() = 0;
  EXPECT_FALSE(decode(b).has_value());
  b.back() = static_cast<std::uint8_t>(std::variant_size_v<RequestBody> + 1);
  EXPECT_FALSE(decode(b).has_value());
}

TEST(Codec, FuzzRandomBytesNeverCrash) {
  sim::Rng rng(1234);
  for (int i = 0; i < 20000; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    Bytes b(len);
    for (auto& byte : b) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)decode(b);  // must not crash or hang; may or may not parse
  }
}

TEST(Codec, FuzzBitFlippedValidFramesNeverCrash) {
  sim::Rng rng(99);
  Frame f = mk_request(OpenReq{"/fuzz/target", true});
  const Bytes orig = encode(f);
  for (int i = 0; i < 5000; ++i) {
    Bytes b = orig;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(b.size()) - 1));
    b[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    auto d = decode(b);
    if (d) {
      // Whatever decodes must re-encode to exactly the bytes it came from.
      EXPECT_EQ(encoded_size(*d), b.size());
    }
  }
}

// Hex with optional spaces (they separate wire fields for the reader).
Bytes from_hex(std::string_view s) {
  Bytes out;
  auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : (c | 0x20) - 'a' + 10);
  };
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == ' ') continue;
    out.push_back(static_cast<std::uint8_t>(nibble(s[i]) << 4 | nibble(s[i + 1])));
    ++i;
  }
  return out;
}

std::string to_hex(const Bytes& b) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t v : b) {
    out += kDigits[v >> 4];
    out += kDigits[v & 15];
  }
  return out;
}

Frame mk_server(ServerBody body) {
  Frame f;
  f.kind = FrameKind::kServerMsg;
  f.sender = NodeId{1};
  f.msg_id = MsgId{2};
  f.epoch = 3;
  f.incarnation = 7;
  f.body = std::move(body);
  return f;
}

TEST(Codec, GoldenWireBytesStable) {
  // Byte-exact encodings of every message body. A mismatch means the wire
  // format changed — which must be a conscious, versioned decision, not an
  // accident. Each golden is the header (kind, sender, msg_id, epoch,
  // incarnation), then the body tag, then the body's fields.
  //
  // Conscious wire changes to date: the header carries a u32 server
  // incarnation after the epoch (cross-incarnation replay fix), and
  // UnlockReq/DemandDoneReq/LockReply/LockGrant carry a u64 per-grant cookie
  // (forged-release fix found by fuzz_safety --byzantine).
  struct Golden {
    const char* name;
    Frame frame;
    std::string hex;
  };
  const std::string req = "01 64000000 2a00000000000000 03000000 00000000 ";
  const std::string ack = "02 01000000 2a00000000000000 03000000 00000000 ";
  const std::string srv = "04 01000000 0200000000000000 03000000 07000000 ";
  const std::vector<Golden> goldens = {
      {"open", mk_request(OpenReq{"/a/b", true}), req + "01 04000000 2f612f62 01"},
      {"close", mk_request(CloseReq{FileId{5}}), req + "02 05000000"},
      {"lock", mk_request(LockReq{FileId{9}, LockMode::kExclusive}), req + "03 09000000 02"},
      {"unlock", mk_request(UnlockReq{FileId{9}, LockMode::kShared, 7, 0x0102030405060708}),
       req + "04 09000000 01 07000000 0807060504030201"},
      {"demand-done",
       mk_request(DemandDoneReq{FileId{4}, LockMode::kShared, 12, 0xa1b2c3d4e5f60718}),
       req + "05 04000000 01 0c000000 1807f6e5d4c3b2a1"},
      {"getattr", mk_request(GetAttrReq{FileId{6}}), req + "06 06000000"},
      {"setsize", mk_request(SetSizeReq{FileId{4}, 0x10000, true}),
       req + "07 04000000 0000010000000000 01"},
      {"keepalive", mk_request(KeepAliveReq{}), req + "08"},
      {"register", mk_request(RegisterReq{}), req + "09"},
      {"renew-obj", mk_request(RenewObjReq{FileId{11}}), req + "0a 0b000000"},
      {"read-data", mk_request(ReadDataReq{FileId{1}, 4096, 512}),
       req + "0b 01000000 0010000000000000 00020000"},
      {"write-data", mk_request(WriteDataReq{FileId{2}, 7, Bytes{1, 2, 3, 0xff}}),
       req + "0c 02000000 0700000000000000 04000000 010203ff"},
      {"reassert-lock", mk_request(ReassertLockReq{FileId{3}, LockMode::kExclusive}),
       req + "0d 03000000 02"},
      {"ok", mk_reply(ReplyBody{OkReply{}}), ack + "01"},
      {"err", mk_reply(ReplyBody{ErrReply{ErrorCode::kLeaseExpired}}), ack + "02 05"},
      {"open-reply",
       mk_reply(ReplyBody{OpenReply{FileId{12}, FileAttr{65536, 123456789, 7},
                                    {Extent{DiskId{1}, 100, 16}, Extent{DiskId{2}, 0, 8}}}}),
       ack + "03 0c000000 0000010000000000 15cd5b0700000000 07000000 02000000"
             " 01000000 6400000000000000 10000000 02000000 0000000000000000 08000000"},
      {"lock-reply",
       mk_reply(ReplyBody{LockReply{true, LockMode::kShared, 5, 0x1122334455667788}}),
       ack + "04 01 01 05000000 8877665544332211"},
      {"attr-reply",
       mk_reply(ReplyBody{AttrReply{FileAttr{4096, 99, 3}, {Extent{DiskId{3}, 64, 4}}}}),
       ack + "05 0010000000000000 6300000000000000 03000000 01000000"
             " 03000000 4000000000000000 04000000"},
      {"register-reply", mk_reply(ReplyBody{RegisterReply{4, 2}}),
       ack + "06 04000000 02000000"},
      {"data-reply", mk_reply(ReplyBody{DataReply{Bytes{9, 8, 7}}}), ack + "07 03000000 090807"},
      {"lock-demand", mk_server(LockDemand{FileId{4}, LockMode::kNone, 8}),
       srv + "01 04000000 00 08000000"},
      {"lock-grant", mk_server(LockGrant{FileId{4}, LockMode::kExclusive, 9, 0xdeadbeefcafef00d}),
       srv + "02 04000000 02 09000000 0df0fecaefbeadde"},
      {"nack", mk_reply(ReplyBody{}, FrameKind::kNack),
       "03 01000000 2a00000000000000 03000000 00000000"},
  };
  // Every body alternative has a golden.
  std::set<std::pair<std::size_t, std::size_t>> covered;
  for (const auto& g : goldens) {
    std::visit(
        [&](const auto& body) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(body)>, std::monostate>) {
            covered.emplace(g.frame.body.index(), body.index());
          }
        },
        g.frame.body);
  }
  EXPECT_EQ(covered.size(), std::variant_size_v<RequestBody> + std::variant_size_v<ReplyBody> +
                                std::variant_size_v<ServerBody>);

  for (const auto& g : goldens) {
    const Bytes golden = from_hex(g.hex);
    EXPECT_EQ(encode(g.frame), golden)
        << "wire format drifted for " << g.name << ": encodes as " << to_hex(encode(g.frame));
    EXPECT_EQ(encoded_size(g.frame), golden.size()) << g.name;
    auto d = decode(golden);
    ASSERT_TRUE(d.has_value()) << g.name;
    EXPECT_EQ(encode(*d), golden) << "re-encoding changed the bytes of " << g.name;
  }
}

}  // namespace
}  // namespace stank::protocol
