#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace stank {
namespace {

TEST(ByteWriter, WritesLittleEndianIntegers) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 13u);
  EXPECT_EQ(b[0], 0xAB);
  EXPECT_EQ(b[1], 0xEF);
  EXPECT_EQ(b[2], 0xBE);
  EXPECT_EQ(b[3], 0xAD);
  EXPECT_EQ(b[4], 0xDE);
  EXPECT_EQ(b[5], 0x08);
  EXPECT_EQ(b[12], 0x01);
}

TEST(ByteRoundTrip, AllScalarTypes) {
  ByteWriter w;
  w.u8(0x7F);
  w.u32(0);
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.boolean(true);
  w.boolean(false);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(ByteRoundTrip, StringsAndRaw) {
  ByteWriter w;
  w.str("hello world");
  w.str("");
  Bytes raw{1, 2, 3, 4, 5};
  w.raw(raw);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.raw(), raw);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteReader, TruncationLatchesAndReturnsZero) {
  ByteWriter w;
  w.u32(0x1234);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 0x1234u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // stays latched
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, FailLatchesLikeTruncation) {
  ByteWriter w;
  w.u32(7);
  w.u32(8);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  r.fail();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.at_end());
}

TEST(ByteReader, TruncatedStringDoesNotOverread) {
  ByteWriter w;
  w.u32(1000);  // claims a 1000-byte string
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, TruncatedRawDoesNotOverread) {
  ByteWriter w;
  w.u32(1 << 30);
  w.u8(1);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.raw().empty());
  EXPECT_FALSE(r.ok());
}

TEST(ByteWriter, ExternalBufferAppends) {
  Bytes out{9, 9};
  ByteWriter w(out);
  w.u8(1);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], 1);
}

TEST(ByteReader, AtEndFalseWithRemainingBytes) {
  ByteWriter w;
  w.u32(5);
  ByteReader r(w.bytes());
  r.u8();
  EXPECT_FALSE(r.at_end());
  EXPECT_EQ(r.remaining(), 3u);
}

}  // namespace
}  // namespace stank
