#include "sim/rng.hpp"

#include <cmath>
#include <memory>
#include <mutex>

#include "common/assert.hpp"

namespace stank::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) {
    s = splitmix64(x);
  }
}

Rng Rng::fork(std::uint64_t stream) {
  // Mix the stream id into fresh state derived from this generator.
  std::uint64_t x = next_u64() ^ (stream * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL);
  return Rng(splitmix64(x));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  STANK_ASSERT(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::exponential(double mean) {
  STANK_ASSERT(mean > 0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::zipf(std::size_t n, double s) {
  STANK_ASSERT(n > 0);
  if (zipf_ == nullptr || zipf_->n() != n || zipf_->s() != s) {
    zipf_ = &ZipfTable::shared(n, s);
  }
  return zipf_->pick(uniform());
}

ZipfTable::ZipfTable(std::size_t n, double s) : s_(s) {
  STANK_ASSERT(n > 0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  for (auto& v : cdf_) {
    v /= acc;
  }
}

std::size_t ZipfTable::pick(double u) const {
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

const ZipfTable& ZipfTable::shared(std::size_t n, double s) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<const ZipfTable>> tables;
  const std::lock_guard<std::mutex> lock(mu);
  for (const auto& t : tables) {
    if (t->n() == n && t->s() == s) return *t;
  }
  return *tables.emplace_back(std::make_unique<const ZipfTable>(n, s));
}

}  // namespace stank::sim
