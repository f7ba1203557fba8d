// Deterministic pseudo-random number generation.
//
// We implement the generator and the distributions ourselves (xoshiro256++
// seeded via splitmix64) so that a given seed produces the identical event
// schedule on every platform and standard library. std::*_distribution output
// is implementation-defined and would break cross-machine reproducibility of
// the experiment tables.
#pragma once

#include <cstdint>
#include <vector>

namespace stank::sim {

class ZipfTable;

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Derives an independent stream; used to give each node its own RNG so the
  // order in which nodes draw numbers cannot perturb one another.
  [[nodiscard]] Rng fork(std::uint64_t stream);

  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double uniform();
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Exponential with the given mean (> 0).
  double exponential(double mean);
  bool bernoulli(double p);
  // Zipf-distributed rank in [0, n), exponent s >= 0 (0 = uniform). Draws
  // from the process-wide table for (n, s), looked up only when (n, s)
  // changes between calls.
  std::size_t zipf(std::size_t n, double s);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  // The table of the last (n, s) drawn from; null before the first draw.
  const ZipfTable* zipf_{nullptr};
};

// Immutable Zipf CDF: build once, draw with any Rng via pick(rng.uniform()).
// pick() consumes exactly one uniform draw, the same as Rng::zipf, so
// swapping between them preserves the RNG stream.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double s);
  // Rank in [0, n) for a uniform u in [0, 1).
  [[nodiscard]] std::size_t pick(double u) const;
  [[nodiscard]] std::size_t n() const { return cdf_.size(); }
  [[nodiscard]] double s() const { return s_; }

  // The process-wide table for (n, s), built on first use and never freed
  // before exit: a hundred client Rngs on one (n, s) share one table instead
  // of each binary-searching its own copy. Thread-safe.
  [[nodiscard]] static const ZipfTable& shared(std::size_t n, double s);

 private:
  std::vector<double> cdf_;
  double s_;
};

}  // namespace stank::sim
