#include "common/bytes.hpp"

namespace stank {

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
