// Little-endian byte buffer writer/reader used by the wire codec.
//
// All control-network messages and disk blocks round-trip through real byte
// buffers; the reader is bounds-checked and reports truncation rather than
// crashing, since a datagram network may hand us garbage.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace stank {

// Fixed-width fields are copied as host words, which is the wire's
// little-endian layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little, "the codec assumes a little-endian host");

using Bytes = std::vector<std::uint8_t>;

// Appends fixed-width little-endian integers and length-prefixed strings.
class ByteWriter {
 public:
  ByteWriter() = default;
  // Appends into a caller-owned buffer instead of the internal one.
  explicit ByteWriter(Bytes& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }

  void raw(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    out_->insert(out_->end(), data.begin(), data.end());
  }

  [[nodiscard]] const Bytes& bytes() const { return *out_; }

 private:
  // One resize and one store per field, not a push_back per byte.
  template <typename T>
  void put_le(T v) {
    const std::size_t at = out_->size();
    out_->resize(at + sizeof(T));
    std::memcpy(out_->data() + at, &v, sizeof(T));
  }

  Bytes owned_;
  Bytes* out_{&owned_};
};

// Bounds-checked reader; any read past the end latches a failure flag and
// returns zeroes so decoders can finish and then test ok() once.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return get_le<std::uint8_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  bool boolean() { return u8() != 0; }

  std::string str();
  Bytes raw();

  // Latches the failure flag, as a read past the end does: for decoders
  // that find a well-formed read carrying an invalid value.
  void fail() {
    failed_ = true;
    pos_ = data_.size();
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size() && !failed_; }

 private:
  // One bounds check and one load per field.
  template <typename T>
  T get_le() {
    if (sizeof(T) > data_.size() - pos_) {
      fail();
      return 0;
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
  bool failed_{false};
};

}  // namespace stank
