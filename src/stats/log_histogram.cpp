#include "stats/log_histogram.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/simd.hpp"

namespace mnemo::stats {

namespace {

double log_min() { return std::log10(LogHistogram::kMinNs); }

constexpr double kBucketWidthLog =
    1.0 / static_cast<double>(LogHistogram::kBucketsPerDecade);

using Bounds = std::array<double, LogHistogram::kBuckets + 1>;

/// Build the exact boundary table: for each bucket i, the smallest double
/// x with bucket_index(x) == i. The index function is monotone
/// non-decreasing (log10, scale, clamp and floor all are), so for
/// positive doubles — whose IEEE bit patterns order the same way as their
/// values — the boundary can be found by bisecting bit patterns between a
/// point below the step and a point at-or-above it. 64 compares per
/// bucket, once per process.
Bounds build_bounds() {
  Bounds bounds;
  bounds[0] = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i < LogHistogram::kBuckets; ++i) {
    // Seed the bracket from the pow estimate of the boundary, then widen
    // until it actually straddles the step (pow is within a few ULP).
    const double guess = std::pow(
        10.0, log_min() + kBucketWidthLog * static_cast<double>(i));
    double lo = guess * (1.0 - 1e-9);
    double hi = guess * (1.0 + 1e-9);
    while (LogHistogram::bucket_index(lo) >= i) lo *= 1.0 - 1e-9;
    while (LogHistogram::bucket_index(hi) < i) hi *= 1.0 + 1e-9;
    std::uint64_t lo_bits = std::bit_cast<std::uint64_t>(lo);
    std::uint64_t hi_bits = std::bit_cast<std::uint64_t>(hi);
    while (hi_bits - lo_bits > 1) {
      const std::uint64_t mid_bits = lo_bits + (hi_bits - lo_bits) / 2;
      const double mid = std::bit_cast<double>(mid_bits);
      if (LogHistogram::bucket_index(mid) >= i) {
        hi_bits = mid_bits;
      } else {
        lo_bits = mid_bits;
      }
    }
    bounds[i] = std::bit_cast<double>(hi_bits);
    MNEMO_ASSERT(LogHistogram::bucket_index(bounds[i]) == i);
    MNEMO_ASSERT(LogHistogram::bucket_index(std::bit_cast<double>(
                     hi_bits - 1)) == i - 1);
  }
  bounds[LogHistogram::kBuckets] = std::numeric_limits<double>::infinity();
  return bounds;
}

/// Maps a double onto an unsigned key of the same order: for non-NaN
/// x < y, order_key(x) < order_key(y) (and -0 sorts just below +0).
std::uint64_t order_key(double x) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return bits ^ ((std::uint64_t{0} - (bits >> 63)) | (std::uint64_t{1} << 63));
}

/// The order_key range [lo, hi] of bin `bin`: every non-NaN x with
/// index.bin(x) == bin has lo <= order_key(x) <= hi. The first bin also
/// takes everything clamped up to kMinNs, the top one everything clamped
/// down to the last bucket's start.
std::pair<std::uint64_t, std::uint64_t> bin_keys(
    const LogHistogram::PrefixIndex& index, std::size_t bin) {
  using PrefixIndex = LogHistogram::PrefixIndex;
  const auto start = [](std::size_t prefix) {
    return std::bit_cast<double>((PrefixIndex::kFirstPrefix + prefix)
                                 << PrefixIndex::kShift);
  };
  const std::size_t prefix = bin / 2;
  const double next = start(prefix + 1);
  // The bucket bound that splits this prefix range, if one falls inside.
  const double split =
      LogHistogram::bucket_bounds()[index.bucket_of_bin(2 * prefix) + 1];
  std::uint64_t lo = 0;
  if (bin % 2 == 1) {
    lo = order_key(split);
  } else if (prefix != 0) {
    lo = order_key(start(prefix));
  }
  std::uint64_t hi = std::numeric_limits<std::uint64_t>::max();
  if (bin != index.bin(LogHistogram::kMaxNs)) {
    hi = (bin % 2 == 0 && split < next ? order_key(split) : order_key(next)) -
         1;
  }
  return {lo, hi};
}

}  // namespace

std::size_t LogHistogram::bucket_index(double ns) noexcept {
  // kMinNs first: std::max returns its first argument when the compare
  // fails, so NaN clamps to the floor like every other sub-range input.
  double idx =
      (std::log10(std::max(kMinNs, ns)) - log_min()) / kBucketWidthLog;
  idx = std::clamp(idx, 0.0, static_cast<double>(kBuckets) - 1.0);
  return static_cast<std::size_t>(idx);
}

std::span<const double, LogHistogram::kBuckets + 1>
LogHistogram::bucket_bounds() noexcept {
  static const Bounds bounds = build_bounds();
  return bounds;
}

const LogHistogram::PrefixIndex& LogHistogram::prefix_index() noexcept {
  static const PrefixIndex table = [] {
    PrefixIndex t;
    t.bounds_ = bucket_bounds().data();
    t.top_ = t.bounds_[kBuckets - 1];
    for (std::size_t p = 0; p < PrefixIndex::kPrefixes; ++p) {
      const std::uint64_t first_bits = (PrefixIndex::kFirstPrefix + p)
                                       << PrefixIndex::kShift;
      const std::size_t b =
          bucket_index(std::bit_cast<double>(first_bits));
      // The one-compare argument: the range's last double is at most one
      // bucket further on.
      MNEMO_ASSERT(bucket_index(std::bit_cast<double>(
                       first_bits + (std::uint64_t{1} << PrefixIndex::kShift) -
                       1)) <= b + 1);
      t.first_[p] = static_cast<std::uint8_t>(b);
    }
    return t;
  }();
  return table;
}

void LogHistogram::add(double ns) noexcept {
  ++counts_[bucket_index(ns)];
  ++total_;
}

void LogHistogram::add_batch(std::span<const double> ns) noexcept {
  const PrefixIndex& bucket_of = prefix_index();
  for (const double x : ns) ++counts_[bucket_of(x)];
  total_ += ns.size();
}

void LogHistogram::add_bins(BinCounts bins) noexcept {
  const PrefixIndex& index = prefix_index();
  for (std::size_t f = 0; f < bins.size(); ++f) {
    counts_[index.bucket_of_bin(f)] += bins[f];
    total_ += bins[f];
  }
}

void LogHistogram::exact_quantiles(std::span<const double> xs,
                                   BinCounts bins,
                                   std::span<const double> qs,
                                   std::span<double> out,
                                   std::pmr::memory_resource* scratch) {
  MNEMO_EXPECTS(!xs.empty() &&
                xs.size() <= std::numeric_limits<std::uint32_t>::max());
  MNEMO_EXPECTS(out.size() == qs.size());
  if (qs.empty()) return;
  const std::size_t n = xs.size();

  // percentile_sorted's rank and fraction per quantile; it returns the
  // largest value when the rank is the last one, and the only value when
  // n == 1. `last` is the highest rank any quantile reads, partner
  // included.
  std::pmr::vector<std::size_t> ranks(qs.size(), scratch);
  std::size_t first = n;
  std::size_t last = 0;
  for (std::size_t j = 0; j < qs.size(); ++j) {
    MNEMO_EXPECTS(qs[j] >= 0.0 && qs[j] <= 1.0);
    const double pos = qs[j] * static_cast<double>(n - 1);
    ranks[j] = static_cast<std::size_t>(pos);
    first = std::min(first, ranks[j]);
    last = std::max(last, std::min(ranks[j] + 1, n - 1));
  }

  // The bins holding ranks first..last bound one key range; gather its
  // values in one pass. Every value below it ranks before `first`.
  std::size_t below = 0;
  std::size_t lo_bin = 0;
  while (lo_bin < bins.size() && below + bins[lo_bin] <= first) {
    below += bins[lo_bin++];
  }
  std::size_t count = 0;
  std::size_t hi_bin = lo_bin;
  while (hi_bin < bins.size() && below + count + bins[hi_bin] <= last) {
    count += bins[hi_bin++];
  }
  MNEMO_EXPECTS(hi_bin < bins.size() && "bins must count the values of xs");
  count += bins[hi_bin];
  const PrefixIndex& index = prefix_index();
  const std::uint64_t lo = bin_keys(index, lo_bin).first;
  const std::uint64_t span = bin_keys(index, hi_bin).second - lo;
  std::pmr::vector<double> values(scratch);
  values.reserve(count);
  for (const double x : xs) {
    if (order_key(x) - lo <= span) values.push_back(x);
  }
  MNEMO_EXPECTS(values.size() == count && "bins must count the values of xs");

  for (std::size_t j = 0; j < qs.size(); ++j) {
    const std::size_t rank = ranks[j] - below;
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank);
    std::nth_element(values.begin(), nth, values.end());
    if (n == 1 || ranks[j] + 1 >= n) {
      out[j] = *nth;
      continue;
    }
    const double pos = qs[j] * static_cast<double>(n - 1);
    const double frac = pos - static_cast<double>(ranks[j]);
    const double next =
        util::simd::min_double(&*nth + 1, values.size() - rank - 1);
    // The interpolation of stats::percentile_sorted, operand for operand.
    out[j] = *nth * (1.0 - frac) + next * frac;
  }
}

double LogHistogram::bucket_lo_ns(std::size_t i) {
  MNEMO_EXPECTS(i < kBuckets);
  return std::pow(10.0, log_min() + kBucketWidthLog * static_cast<double>(i));
}

double LogHistogram::bucket_hi_ns(std::size_t i) {
  return std::pow(10.0,
                  log_min() + kBucketWidthLog * static_cast<double>(i + 1));
}

double LogHistogram::quantile(double q) const {
  MNEMO_EXPECTS(total_ > 0);
  MNEMO_EXPECTS(q >= 0.0 && q <= 1.0);
  const double target = q * static_cast<double>(total_);
  double running = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (running + c >= target && c > 0.0) {
      const double frac = (target - running) / c;
      const double lo = std::log10(bucket_lo_ns(i));
      return std::pow(10.0, lo + frac * kBucketWidthLog);
    }
    running += c;
  }
  return bucket_hi_ns(kBuckets - 1);
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

void LogHistogram::restore(
    std::span<const std::uint64_t, kBuckets> counts) noexcept {
  total_ = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts_[i] = counts[i];
    total_ += counts[i];
  }
}

double mixture_quantile(const LogHistogram& a, double wa,
                        const LogHistogram& b, double wb, double q) {
  MNEMO_EXPECTS(wa >= 0.0 && wb >= 0.0 && wa + wb > 0.0);
  MNEMO_EXPECTS(q >= 0.0 && q <= 1.0);
  // Normalize each component to a probability mass, then scale by its
  // mixture weight.
  const double ta =
      a.count() > 0 ? wa / static_cast<double>(a.count()) : 0.0;
  const double tb =
      b.count() > 0 ? wb / static_cast<double>(b.count()) : 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    total += static_cast<double>(a.bucket(i)) * ta +
             static_cast<double>(b.bucket(i)) * tb;
  }
  MNEMO_EXPECTS(total > 0.0);
  const double target = q * total;
  double running = 0.0;
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    const double c = static_cast<double>(a.bucket(i)) * ta +
                     static_cast<double>(b.bucket(i)) * tb;
    if (running + c >= target && c > 0.0) {
      const double frac = (target - running) / c;
      const double lo = std::log10(LogHistogram::bucket_lo_ns(i));
      const double width = std::log10(LogHistogram::bucket_hi_ns(i)) - lo;
      return std::pow(10.0, lo + frac * width);
    }
    running += c;
  }
  return LogHistogram::bucket_hi_ns(LogHistogram::kBuckets - 1);
}

}  // namespace mnemo::stats
