#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>

namespace mlck::util {

/// SplitMix64 step: advances @p state and returns the next 64-bit output.
///
/// Used both as a stand-alone mixer for deriving independent stream seeds
/// (hashing a base seed with a stream index) and to expand a single seed
/// into the four words of xoshiro256++ state.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Combines a base seed with a stream index into a well-mixed seed.
///
/// Distinct (seed, stream) pairs yield statistically independent generator
/// states, which is how Monte-Carlo trials get reproducible independent
/// randomness when executed in parallel.
std::uint64_t derive_stream_seed(std::uint64_t base_seed,
                                 std::uint64_t stream) noexcept;

/// xoshiro256++ pseudo-random generator.
///
/// Small, fast, and passes BigCrush; chosen over std::mt19937_64 for the
/// cheap per-trial construction cost (4 words of state, seeded via
/// SplitMix64) required by the trial runner. Not cryptographically secure.
///
/// The sampling methods are defined inline: the simulator's batch engine
/// draws inside a tight per-segment loop, and an out-of-line call per
/// uniform would dominate the draw itself.
class Rng {
 public:
  /// Seeds the generator. Any seed (including 0) is valid; the state is
  /// expanded through SplitMix64 so close seeds give unrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next raw 64-bit output.
  std::uint64_t next_u64() noexcept {
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

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1]; never returns 0, so it is safe to pass
  /// through std::log when sampling exponentials.
  double uniform_pos() noexcept {
    // (u + 1) / 2^53 lies in (0, 1]; avoids log(0) downstream.
    return (static_cast<double>(next_u64() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Exponentially distributed sample with the given rate (mean 1/rate).
  /// Consumes exactly one uniform. @pre rate > 0
  double exponential(double rate) noexcept {
    assert(rate > 0.0);
    return -std::log(uniform_pos()) / rate;
  }

  /// Samples an index from a discrete distribution given by cumulative
  /// probabilities @p cdf (non-decreasing, cdf.back() ~= 1). Returns the
  /// smallest index i with u <= cdf[i]. Consumes exactly one uniform.
  ///
  /// Computed as the number of entries j < n-1 with u > cdf[j]: on a
  /// non-decreasing table those entries are exactly the prefix before the
  /// first u <= cdf[i], so the count is that i, found without a
  /// data-dependent branch per entry (severity draws are random, so a
  /// first-match scan mispredicts on most of them).
  ///
  /// The final entry is never compared: a uniform draw that exceeds every
  /// earlier entry lands in the last bucket regardless of whether the
  /// accumulated cdf falls short of 1.0 in the last place (see
  /// sim::severity_cdf, which nevertheless pins cdf.back() to exactly 1.0
  /// so serialized tables read back unambiguously).
  std::size_t discrete_from_cdf(std::span<const double> cdf) noexcept {
    assert(!cdf.empty());
    const double u = uniform();
    std::size_t index = 0;
    for (std::size_t j = 0; j + 1 < cdf.size(); ++j) {
      index += static_cast<std::size_t>(u > cdf[j]);
    }
    return index;
  }

  /// Uniform integer in [0, n). @pre n > 0
  std::uint64_t below(std::uint64_t n) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace mlck::util
