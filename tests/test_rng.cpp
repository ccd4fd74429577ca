#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace mlck::util {
namespace {

TEST(SplitMix, DeterministicAndAdvancesState) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1, 42u);  // state advanced
  EXPECT_NE(splitmix64(s1), splitmix64(s2) + 1);  // still in lockstep
}

TEST(DeriveStreamSeed, DistinctStreamsDistinctSeeds) {
  std::array<std::uint64_t, 64> seeds{};
  for (std::uint64_t k = 0; k < seeds.size(); ++k) {
    seeds[k] = derive_stream_seed(123, k);
  }
  for (std::size_t a = 0; a < seeds.size(); ++a) {
    for (std::size_t b = a + 1; b < seeds.size(); ++b) {
      EXPECT_NE(seeds[a], seeds[b]);
    }
  }
}

TEST(Rng, ReproducibleForEqualSeeds) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformPosNeverZero) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform_pos();
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(Rng, UniformMomentsMatch) {
  Rng rng(3);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, ExponentialMeanAndMemorylessTail) {
  Rng rng(4);
  const double rate = 0.25;
  const int n = 200000;
  double sum = 0.0;
  int beyond = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(rate);
    EXPECT_GT(x, 0.0);
    sum += x;
    if (x > 4.0) ++beyond;  // P(X > 1/rate) = e^{-1}
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.05);
  EXPECT_NEAR(static_cast<double>(beyond) / n, std::exp(-1.0), 0.01);
}

TEST(Rng, DiscreteFromCdfFrequencies) {
  Rng rng(5);
  const std::vector<double> cdf{0.2, 0.7, 1.0};
  std::array<int, 3> hits{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits[rng.discrete_from_cdf(cdf)]++;
  }
  EXPECT_NEAR(hits[0] / double(n), 0.2, 0.01);
  EXPECT_NEAR(hits[1] / double(n), 0.5, 0.01);
  EXPECT_NEAR(hits[2] / double(n), 0.3, 0.01);
}

TEST(Rng, DiscreteFromCdfDegenerate) {
  Rng rng(6);
  const std::vector<double> point{1.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.discrete_from_cdf(point), 0u);
}

TEST(Rng, DiscreteFromCdfTopBucketReachableWhenCdfFallsShortOfOne) {
  // u ~ 1 edge: the lookup never compares against the final entry, so a
  // running sum that lands a hair below 1.0 (before sim::severity_cdf's
  // pinning) must still resolve to the top bucket, never out of range.
  Rng rng(8);
  const std::vector<double> short_cdf{0.25, 0.5, 0.99999999999999989};
  bool top_hit = false;
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.discrete_from_cdf(short_cdf);
    ASSERT_LT(v, short_cdf.size());
    if (v == 2u) top_hit = true;
  }
  EXPECT_TRUE(top_hit);
  // Pathological underflow: every entry ~0 still yields the last index
  // for essentially every draw (the fall-through branch).
  const std::vector<double> tiny{1e-300, 2e-300};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.discrete_from_cdf(tiny), 1u);
  }
}

/// The first-match scan discrete_from_cdf used before it became a count:
/// the smallest i < n-1 with u <= cdf[i], else n-1.
std::size_t first_match_scan(double u, const std::vector<double>& cdf) {
  for (std::size_t i = 0; i + 1 < cdf.size(); ++i) {
    if (u <= cdf[i]) return i;
  }
  return cdf.size() - 1;
}

TEST(Rng, DiscreteFromCdfMatchesFirstMatchScan) {
  // Random non-decreasing tables of 1..8 buckets, some with repeated
  // entries (zero-probability buckets), some falling short of 1, and a
  // third of the draws aimed exactly at an entry. The count of entries
  // below u must equal the scan's first match on every one.
  Rng table_rng(11);
  Rng draw_rng(12);
  int exact_hits = 0;
  int zero_buckets = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t n = 1 + table_rng.below(8);
    // Peek at the uniform the draw will consume.
    Rng peek = draw_rng;
    const double u = peek.uniform();
    std::vector<double> cdf(n);
    for (double& c : cdf) c = table_rng.uniform();
    if (n > 1 && table_rng.below(3) == 0) {
      cdf[table_rng.below(n - 1)] = u;
    }
    if (n > 2 && table_rng.below(2) == 0) {
      const std::size_t j = table_rng.below(n - 1);
      cdf[j + 1] = cdf[j];
    }
    std::sort(cdf.begin(), cdf.end());
    if (table_rng.below(2) == 0) cdf.back() = 1.0;
    for (std::size_t j = 0; j + 1 < n; ++j) {
      if (cdf[j] == u) ++exact_hits;
      if (cdf[j + 1] == cdf[j]) ++zero_buckets;
    }
    const std::size_t expected = first_match_scan(u, cdf);
    ASSERT_EQ(draw_rng.discrete_from_cdf(cdf), expected)
        << "trial " << trial << " u=" << u;
  }
  EXPECT_GT(exact_hits, 1000);
  EXPECT_GT(zero_buckets, 1000);
}

TEST(Rng, BelowStaysInRangeAndCoversValues) {
  Rng rng(7);
  std::array<int, 5> hits{};
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.below(5);
    ASSERT_LT(v, 5u);
    hits[v]++;
  }
  for (const int h : hits) EXPECT_GT(h, 700);
}

TEST(Rng, StreamsFromDerivedSeedsUncorrelated) {
  Rng a(derive_stream_seed(99, 0));
  Rng b(derive_stream_seed(99, 1));
  // Crude independence check: correlation of consecutive uniforms ~ 0.
  const int n = 50000;
  double sa = 0, sb = 0, sab = 0, saa = 0, sbb = 0;
  for (int i = 0; i < n; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sa += x; sb += y; sab += x * y; saa += x * x; sbb += y * y;
  }
  const double cov = sab / n - (sa / n) * (sb / n);
  const double corr = cov / std::sqrt((saa / n - (sa / n) * (sa / n)) *
                                      (sbb / n - (sb / n) * (sb / n)));
  EXPECT_LT(std::abs(corr), 0.02);
}

}  // namespace
}  // namespace mlck::util
