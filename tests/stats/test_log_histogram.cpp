#include "stats/log_histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace mnemo::stats {
namespace {

TEST(LogHistogram, DefaultIsEmpty) {
  const LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
}

TEST(LogHistogram, BucketBoundsAreGeometric) {
  const double ratio = LogHistogram::bucket_hi_ns(0) /
                       LogHistogram::bucket_lo_ns(0);
  for (std::size_t i = 1; i < 30; ++i) {
    EXPECT_NEAR(LogHistogram::bucket_hi_ns(i) / LogHistogram::bucket_lo_ns(i),
                ratio, 1e-9);
    EXPECT_NEAR(LogHistogram::bucket_lo_ns(i),
                LogHistogram::bucket_hi_ns(i - 1), 1e-6);
  }
  EXPECT_DOUBLE_EQ(LogHistogram::bucket_lo_ns(0), LogHistogram::kMinNs);
}

TEST(LogHistogram, QuantileTracksExactPercentiles) {
  LogHistogram h;
  util::Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 100'000; ++i) {
    // Lognormal latencies around 100 us.
    const double ns = 1e5 * std::exp(0.5 * rng.gaussian());
    h.add(ns);
    xs.push_back(ns);
  }
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = percentile(xs, q);
    EXPECT_NEAR(h.quantile(q) / exact, 1.0, 0.13) << "q=" << q;
  }
}

TEST(LogHistogram, SaturatesOutOfRange) {
  LogHistogram h;
  h.add(0.001);   // below min
  h.add(1e12);    // above max
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(LogHistogram::kBuckets - 1), 1u);
}

TEST(LogHistogram, MergeSumsCounts) {
  LogHistogram a;
  LogHistogram b;
  a.add(100.0);
  b.add(100.0);
  b.add(1e6);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_NEAR(a.quantile(0.0), 100.0, 30.0);
}

TEST(MixtureQuantile, DegeneratesToComponentQuantiles) {
  LogHistogram fast;
  LogHistogram slow;
  util::Rng rng(4);
  for (int i = 0; i < 50'000; ++i) {
    fast.add(1e4 * (1.0 + 0.1 * rng.gaussian()));
    slow.add(1e6 * (1.0 + 0.1 * rng.gaussian()));
  }
  EXPECT_NEAR(mixture_quantile(fast, 1.0, slow, 0.0, 0.5),
              fast.quantile(0.5), fast.quantile(0.5) * 0.05);
  EXPECT_NEAR(mixture_quantile(fast, 0.0, slow, 1.0, 0.5),
              slow.quantile(0.5), slow.quantile(0.5) * 0.05);
}

TEST(MixtureQuantile, WeightsShiftTheTail) {
  LogHistogram fast;
  LogHistogram slow;
  util::Rng rng(5);
  for (int i = 0; i < 50'000; ++i) {
    fast.add(1e4 * (1.0 + 0.05 * rng.gaussian()));
    slow.add(1e6 * (1.0 + 0.05 * rng.gaussian()));
  }
  // 90% of requests fast: the p95 straddles the slow component.
  const double p95 = mixture_quantile(fast, 0.9, slow, 0.1, 0.95);
  EXPECT_GT(p95, 5e5);
  // 99% fast: the p95 stays in the fast component.
  const double p95_mostly_fast = mixture_quantile(fast, 0.99, slow, 0.01, 0.95);
  EXPECT_LT(p95_mostly_fast, 5e4);
  // Monotone in the slow weight.
  double prev = 0.0;
  for (const double ws : {0.0, 0.1, 0.3, 0.7, 1.0}) {
    const double v = mixture_quantile(fast, 1.0 - ws, slow, ws, 0.99);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(LogHistogram, BucketBoundsTableIsExactAtEveryBoundary) {
  // bounds[i] must be the smallest double classified into bucket i, so
  // the prefix-table lookup's one compare against bounds[b + 1]
  // reproduces bucket_index() bit for bit. Probe every boundary and its
  // one-ulp neighbour.
  const auto bounds = LogHistogram::bucket_bounds();
  EXPECT_EQ(bounds[0], -std::numeric_limits<double>::infinity());
  for (std::size_t i = 1; i < LogHistogram::kBuckets; ++i) {
    ASSERT_LT(bounds[i - 1], bounds[i]) << "i=" << i;
    ASSERT_EQ(LogHistogram::bucket_index(bounds[i]), i) << "i=" << i;
    ASSERT_EQ(LogHistogram::bucket_index(std::nextafter(bounds[i], 0.0)),
              i - 1)
        << "i=" << i;
  }
  // The sentinel past the last bucket is +inf, so no finite sample can
  // ever be counted beyond kBuckets - 1.
  EXPECT_EQ(bounds[LogHistogram::kBuckets],
            std::numeric_limits<double>::infinity());
}

/// Doubles no latency stream produces, but every bucketing path must
/// still clamp exactly as bucket_index does.
std::vector<double> edge_values() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {kInf,
          -kInf,
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          0.0,
          -0.0,
          -1.0,
          -1e300,
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min() / 3.0,
          std::numeric_limits<double>::min(),
          1e300,
          std::numeric_limits<double>::max(),
          LogHistogram::kMinNs,
          std::nextafter(LogHistogram::kMinNs, 0.0),
          LogHistogram::kMaxNs,
          std::nextafter(LogHistogram::kMaxNs, kInf)};
}

std::vector<std::uint32_t> bin_counts(const std::vector<double>& xs) {
  std::vector<std::uint32_t> bins(LogHistogram::PrefixIndex::kBins);
  for (const double x : xs) ++bins[LogHistogram::prefix_index().bin(x)];
  return bins;
}

TEST(LogHistogram, PrefixIndexMatchesBucketIndexAtEveryBoundAndPrefix) {
  const LogHistogram::PrefixIndex& bucket_of = LogHistogram::prefix_index();
  const auto check = [&](double x) {
    ASSERT_EQ(bucket_of(x), LogHistogram::bucket_index(x))
        << "x=" << x << " bits=" << std::hex
        << std::bit_cast<std::uint64_t>(x);
    ASSERT_LT(bucket_of.bin(x), LogHistogram::PrefixIndex::kBins);
    // Bins ascend with value: the next double up never has a lower bin.
    if (x >= 0.0 && x < std::numeric_limits<double>::infinity()) {
      ASSERT_LE(bucket_of.bin(x),
                bucket_of.bin(std::nextafter(
                    x, std::numeric_limits<double>::infinity())))
          << "x=" << x;
    }
  };
  for (const double x : edge_values()) check(x);
  EXPECT_EQ(bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(bucket_of(std::numeric_limits<double>::infinity()),
            LogHistogram::kBuckets - 1);

  // Every bucket bound ± 3 ulp.
  const auto bounds = LogHistogram::bucket_bounds();
  for (std::size_t i = 1; i < LogHistogram::kBuckets; ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(bounds[i]);
    for (std::uint64_t d = 0; d <= 3; ++d) {
      check(std::bit_cast<double>(bits - d));
      check(std::bit_cast<double>(bits + d));
    }
  }
  // Every start (and last double) of a prefix range from below kMinNs to
  // past the top bucket.
  constexpr int kShift = LogHistogram::PrefixIndex::kShift;
  const std::uint64_t first = std::bit_cast<std::uint64_t>(1.0) >> kShift;
  const std::uint64_t last = std::bit_cast<std::uint64_t>(1e12) >> kShift;
  for (std::uint64_t p = first; p <= last; ++p) {
    check(std::bit_cast<double>(p << kShift));
    check(std::bit_cast<double>((p << kShift) - 1));
  }
  // Log-uniform values across and beyond the histogram range.
  util::Rng rng(44);
  for (int i = 0; i < 10'000; ++i) {
    check(std::pow(10.0, rng.next_double() * 14.0 - 2.0));
  }
}

TEST(LogHistogram, AddBatchMatchesPerOpAdd) {
  util::Rng rng(6);
  std::vector<double> samples;
  for (int i = 0; i < 10'000; ++i) {
    // Log-uniform across the full range plus both saturation ends.
    samples.push_back(std::pow(10.0, rng.next_double() * 14.0 - 2.0));
  }
  const auto bounds = LogHistogram::bucket_bounds();
  for (std::size_t i = 1; i < LogHistogram::kBuckets; ++i) {
    samples.push_back(bounds[i]);
    samples.push_back(std::nextafter(bounds[i], 0.0));
  }
  for (const double x : edge_values()) samples.push_back(x);

  LogHistogram scalar;
  for (const double s : samples) scalar.add(s);
  LogHistogram batched;
  batched.add_batch(samples);
  EXPECT_EQ(batched, scalar);
  // Summing per-bin counts builds the same histogram: every bin lies
  // inside one bucket.
  const std::vector<std::uint32_t> counts = bin_counts(samples);
  LogHistogram from_bins;
  from_bins.add_bins(LogHistogram::BinCounts(counts.data(), counts.size()));
  EXPECT_EQ(from_bins, scalar);

  // Batch appends compose with prior per-op contents, and an empty batch
  // is a no-op.
  LogHistogram mixed;
  mixed.add(100.0);
  mixed.add_batch(std::span<const double>(samples.data(), samples.size()));
  mixed.add_batch(std::span<const double>{});
  LogHistogram mixed_scalar;
  mixed_scalar.add(100.0);
  for (const double s : samples) mixed_scalar.add(s);
  EXPECT_EQ(mixed, mixed_scalar);
}

/// exact_quantiles must return, for each q, the very double
/// percentile_sorted returns on the sorted sample.
void expect_exact_quantiles(const std::vector<double>& xs,
                            const std::string& label) {
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double> qs = {0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999,
                                  1.0};
  const std::vector<std::uint32_t> counts = bin_counts(xs);
  const LogHistogram::BinCounts bins(counts.data(), counts.size());
  std::vector<double> got(qs.size());
  LogHistogram::exact_quantiles(xs, bins, qs, got);
  for (std::size_t j = 0; j < qs.size(); ++j) {
    const double want = percentile_sorted(sorted, qs[j]);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
              std::bit_cast<std::uint64_t>(want))
        << label << " n=" << xs.size() << " q=" << qs[j] << " got "
        << got[j] << " want " << want;
  }
  // One quantile at a time reads the same doubles as the batch.
  for (std::size_t j = 0; j < qs.size(); ++j) {
    double one = 0.0;
    LogHistogram::exact_quantiles(xs, bins,
                                  std::span<const double>(&qs[j], 1),
                                  std::span<double>(&one, 1));
    ASSERT_EQ(one, got[j]) << label << " q=" << qs[j];
  }
}

TEST(LogHistogram, ExactQuantilesMatchSortedPercentiles) {
  util::Rng rng(7);
  const auto lognormal = [&](std::size_t n) {
    std::vector<double> xs(n);
    for (auto& x : xs) x = 1e5 * std::exp(0.8 * rng.gaussian());
    return xs;
  };
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{20}, std::size_t{21},
                              std::size_t{100'000}}) {
    expect_exact_quantiles(lognormal(n), "lognormal");
  }

  // All-equal inputs, at sizes where the rank falls on and between
  // samples.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{21}, std::size_t{1000}}) {
    expect_exact_quantiles(std::vector<double>(n, 1234.5), "all-equal");
  }

  // Duplicates on both sides of every rank: a few distinct values inside
  // one bucket and across neighbouring buckets.
  {
    std::vector<double> xs;
    for (int i = 0; i < 2000; ++i) {
      xs.push_back(std::array<double, 5>{500.0, 500.0, 501.0, 530.0,
                                         560.0}[rng.uniform(0, 4)]);
    }
    expect_exact_quantiles(xs, "duplicates");
  }

  // A rank on the last value of its bucket: the interpolation partner is
  // the minimum of a later non-empty bucket, with empty buckets between.
  {
    // n = 21 puts q = 0.95 at rank 19 exactly (frac 0) and q = 0.99 at
    // rank 19.8; ranks 0..19 sit in one bucket, rank 20 decades away.
    std::vector<double> xs(20, 100.0);
    xs.push_back(1e6);
    expect_exact_quantiles(xs, "partner-in-later-bucket");
    // Same split at n = 100, with the tail spread over three buckets.
    std::vector<double> ys;
    for (int i = 0; i < 95; ++i) ys.push_back(200.0 + i * 0.01);
    for (const double t : {5e4, 5e4, 7e5, 7e5, 9e7}) ys.push_back(t);
    expect_exact_quantiles(ys, "spread-tail");
  }

  // More values in the rank's bucket than the selection gathers at once,
  // so it narrows the bucket's value range first: jitter around one
  // value, one value throughout, and a rank on the last of a run whose
  // partner is the next value up.
  {
    std::vector<double> narrow(100'000);
    for (auto& x : narrow) x = 1000.0 * (1.0 + 0.01 * rng.gaussian());
    expect_exact_quantiles(narrow, "narrow");
    expect_exact_quantiles(std::vector<double>(100'000, 777.0),
                           "all-equal-large");
    // q = 0.99 sits at rank 98999, the last 500.0.
    std::vector<double> runs(99'000, 500.0);
    runs.resize(100'000, 501.0);
    expect_exact_quantiles(runs, "runs");
  }

  // Values just below and at a bucket bound inside one prefix range: the
  // ranks q = 0.99 reads lie below the bound, so the gathered range must
  // stop at it.
  for (const std::size_t k : {50, 100, 150}) {
    const double bound = LogHistogram::bucket_bounds()[k];
    std::vector<double> xs(1000, std::nextafter(bound, 0.0));
    xs.resize(1005, bound);
    expect_exact_quantiles(xs, "split-prefix");
  }

  // Both clamp buckets (< kMinNs and >= the top bound) and zero.
  {
    std::vector<double> xs;
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t pick = rng.uniform(0, 5);
      xs.push_back(pick == 0   ? 0.0
                   : pick == 1 ? 3.0
                   : pick == 2 ? 9.999
                   : pick == 3 ? 2e10
                   : pick == 4 ? 1e300
                               : 4e3 * (1.0 + rng.next_double()));
    }
    expect_exact_quantiles(xs, "clamp-buckets");
    expect_exact_quantiles(std::vector<double>{0.0, 0.0, 0.0}, "zeros");
    expect_exact_quantiles(std::vector<double>{0.0, 5.0, 3e10}, "edges");
  }
}

TEST(MixtureQuantile, UnnormalizedWeightsAreEquivalent) {
  LogHistogram a;
  LogHistogram b;
  for (int i = 0; i < 1000; ++i) {
    a.add(1e3 + i);
    b.add(1e5 + i);
  }
  EXPECT_NEAR(mixture_quantile(a, 0.5, b, 0.5, 0.9),
              mixture_quantile(a, 5.0, b, 5.0, 0.9), 1e-6);
}

}  // namespace
}  // namespace mnemo::stats
