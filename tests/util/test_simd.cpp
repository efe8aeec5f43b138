// util::simd batch kernels must be drop-in replacements for their scalar
// loops: same bits out, on every ISA tier (AVX2, SSE2, scalar fallback,
// and the MNEMO_SIMD=OFF build). Sizes deliberately straddle the vector
// widths (4 lanes of u64 for AVX2, 2 for SSE2) so head/tail remainder
// handling is exercised on every path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace mnemo::util::simd {
namespace {

TEST(Simd, ActiveIsaIsNamedAndStable) {
  const Isa isa = active_isa();
  EXPECT_EQ(isa, active_isa());  // resolved once, then constant
  const char* name = isa_name(isa);
  ASSERT_NE(name, nullptr);
  EXPECT_GT(std::char_traits<char>::length(name), 0u);
#if defined(MNEMO_SIMD_OFF)
  EXPECT_EQ(isa, Isa::kScalar);
#endif
}

TEST(Simd, Mix64BatchMatchesScalarMix64) {
  util::Rng rng(41);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{15}, std::size_t{16}, std::size_t{33}, std::size_t{67}}) {
    std::vector<std::uint64_t> in(n);
    for (auto& v : in) v = rng.next_u64();
    if (n > 2) {
      in[0] = 0;  // edge inputs ride along
      in[1] = std::numeric_limits<std::uint64_t>::max();
    }
    std::vector<std::uint64_t> out(n, 0xdead);
    mix64_batch(in.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], util::mix64(in[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Simd, Mix64IotaBatchMatchesScalarSequence) {
  for (const std::uint64_t first :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{12345},
        std::numeric_limits<std::uint64_t>::max() - 5}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{4},
                                std::size_t{9}, std::size_t{65}}) {
      std::vector<std::uint64_t> out(n, 0xdead);
      mix64_iota_batch(first, out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], util::mix64(first + i))
            << "first=" << first << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Simd, MinDoubleMatchesMinElement) {
  util::Rng rng(42);
  for (std::size_t n = 1; n <= 70; ++n) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.gaussian() * 1e6;
    const double expected = *std::min_element(x.begin(), x.end());
    ASSERT_EQ(min_double(x.data(), n), expected) << "n=" << n;
  }
  // The minimum can live in the vector body or the scalar tail.
  std::vector<double> tail_min(13, 5.0);
  tail_min.back() = -3.0;
  EXPECT_EQ(min_double(tail_min.data(), tail_min.size()), -3.0);
  std::vector<double> head_min(13, 5.0);
  head_min.front() = -3.0;
  EXPECT_EQ(min_double(head_min.data(), head_min.size()), -3.0);
}

TEST(Simd, AccumulateLanesIsElementwiseExactAddition) {
  util::Rng rng(43);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{5}, std::size_t{8}, std::size_t{16},
                              std::size_t{31}}) {
    std::vector<double> acc(n);
    std::vector<double> x(n);
    std::vector<double> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] = rng.gaussian() * 1e3;
      x[i] = rng.gaussian() * 1e3;
      expected[i] = acc[i] + x[i];
    }
    // Dead lanes contribute +0.0, which must be bit-exact identity.
    if (n > 1) {
      x[n / 2] = 0.0;
      expected[n / 2] = acc[n / 2] + 0.0;
    }
    accumulate_lanes(acc.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(acc[i], expected[i]) << "n=" << n << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace mnemo::util::simd
