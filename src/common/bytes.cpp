#include "common/bytes.hpp"

namespace stank {

std::uint64_t ByteReader::get_le(std::size_t width) {
  if (pos_ + width > data_.size()) {
    fail();
    return 0;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += width;
  return v;
}

std::string ByteReader::str() {
  std::uint32_t n = u32();
  if (failed_ || pos_ + n > data_.size()) {
    fail();
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Bytes ByteReader::raw() {
  std::uint32_t n = u32();
  if (failed_ || pos_ + n > data_.size()) {
    fail();
    return {};
  }
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

}  // namespace stank
