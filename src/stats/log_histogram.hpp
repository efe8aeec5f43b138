#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory_resource>
#include <span>

namespace mnemo::stats {

/// Log-scale latency histogram: fixed range [10 ns, 10 s), 20 buckets per
/// decade (180 buckets total), plus saturating edge buckets. Default
/// constructible and cheap to copy, so it can ride along in measurement
/// structs; used to carry full latency distributions out of baseline runs
/// for mixture-based tail estimation.
class LogHistogram {
 public:
  static constexpr double kMinNs = 10.0;
  static constexpr double kMaxNs = 10.0e9;
  static constexpr std::size_t kBucketsPerDecade = 20;
  static constexpr std::size_t kDecades = 9;
  static constexpr std::size_t kBuckets = kBucketsPerDecade * kDecades;

  void add(double ns) noexcept;

  /// The bucket add(ns) increments: floor of the clamped log10 position.
  /// NaN, negative values and everything below kMinNs land in bucket 0;
  /// +inf and everything at or above the last bucket's start land in
  /// kBuckets - 1. This is the reference every table-driven path is held
  /// against.
  [[nodiscard]] static std::size_t bucket_index(double ns) noexcept;

  /// Ascending boundary table: bounds[i] is the smallest double whose
  /// bucket_index is i (bounds[0] = -inf), and bounds[kBuckets] = +inf.
  /// Built once per process by bit-level bisection against bucket_index
  /// itself, so monotonicity of the index function makes the table exact,
  /// not approximate.
  [[nodiscard]] static std::span<const double, kBuckets + 1>
  bucket_bounds() noexcept;

  /// bucket_index without libm, for every double, plus the finer bins
  /// that locate exact quantiles. The input is clamped the way
  /// bucket_index clamps it; the top 19 bits of the clamped value (its
  /// exponent plus 8 mantissa bits) then index a table holding the bucket
  /// of that prefix range's first value. A prefix range spans a ratio of
  /// at most 257/256, far narrower than one 10^(1/20) bucket, so at most
  /// one bucket bound falls inside it and one compare against
  /// bucket_bounds() finishes the lookup exactly. That compare also splits
  /// the range in two: these halves are the bins. Bins ascend with value,
  /// each lies inside one bucket, and each spans at most 0.4 % of its
  /// values.
  class PrefixIndex {
   public:
    static constexpr int kShift = 44;
    static constexpr std::uint64_t kFirstPrefix =
        std::bit_cast<std::uint64_t>(kMinNs) >> kShift;
    static constexpr std::size_t kPrefixes =
        (std::bit_cast<std::uint64_t>(kMaxNs) >> kShift) - kFirstPrefix + 1;
    static constexpr std::size_t kBins = 2 * kPrefixes;

    [[nodiscard]] std::size_t bin(double ns) const noexcept {
      // max(kMinNs, NaN) is kMinNs, as in bucket_index.
      const double clamped = std::min(std::max(kMinNs, ns), top_);
      const std::size_t prefix = static_cast<std::size_t>(
          (std::bit_cast<std::uint64_t>(clamped) >> kShift) - kFirstPrefix);
      return 2 * prefix + static_cast<std::size_t>(
                              clamped >= bounds_[first_[prefix] + 1]);
    }
    [[nodiscard]] std::size_t bucket_of_bin(std::size_t bin) const noexcept {
      return first_[bin / 2] + bin % 2;
    }
    [[nodiscard]] std::size_t operator()(double ns) const noexcept {
      return bucket_of_bin(bin(ns));
    }

   private:
    friend class LogHistogram;
    std::array<std::uint8_t, kPrefixes> first_{};
    const double* bounds_ = nullptr;
    double top_ = 0.0;  ///< bounds_[kBuckets - 1]
  };
  [[nodiscard]] static const PrefixIndex& prefix_index() noexcept;

  /// Per-bin counts of a sample, indexed by PrefixIndex::bin.
  using BinCounts = std::span<const std::uint32_t, PrefixIndex::kBins>;

  /// Batch add through prefix_index(). Counts commute, so add_batch(v)
  /// produces exactly the same histogram as add()-ing each element in any
  /// order.
  void add_batch(std::span<const double> ns) noexcept;

  /// Add a sample given as per-bin counts: each bin lies inside one
  /// bucket, so this is the histogram add()-ing every value would build.
  void add_bins(BinCounts bins) noexcept;

  /// Exact sample quantiles of `xs`: out[j] is the double
  /// stats::percentile_sorted returns for qs[j] on xs sorted. `bins` must
  /// count exactly the values of xs. The bins locate the value range
  /// holding every rank the quantiles read (each rank and its
  /// interpolation partner); one pass over xs gathers that range, and a
  /// selection among the gathered values finds each rank. For p95/p99 the
  /// range holds about 4 % of the sample plus two bins. No sort. `xs` must
  /// be non-empty and NaN-free (±0 count as equal, as in a sort); the
  /// gathered values live in `scratch`.
  static void exact_quantiles(std::span<const double> xs, BinCounts bins,
                              std::span<const double> qs,
                              std::span<double> out,
                              std::pmr::memory_resource* scratch =
                                  std::pmr::get_default_resource());

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return counts_[i];
  }

  /// Lower/upper bound of bucket i in ns.
  [[nodiscard]] static double bucket_lo_ns(std::size_t i);
  [[nodiscard]] static double bucket_hi_ns(std::size_t i);

  /// Quantile with log-linear interpolation inside the bucket. Requires a
  /// non-empty histogram.
  [[nodiscard]] double quantile(double q) const;

  /// Accumulate another histogram (e.g. across repeated runs).
  void merge(const LogHistogram& other) noexcept;

  /// Overwrite the bucket counts (artifact deserialization). The total is
  /// recomputed — every add() lands in exactly one bucket, so the sum of
  /// buckets is the count by construction.
  void restore(std::span<const std::uint64_t, kBuckets> counts) noexcept;

  [[nodiscard]] friend bool operator==(const LogHistogram&,
                                       const LogHistogram&) = default;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Quantile of the two-component mixture wa·A + wb·B (weights need not be
/// normalized). This is the tail-estimation primitive: requests served by
/// FastMem draw their latency from the fast baseline's distribution,
/// SlowMem requests from the slow baseline's.
double mixture_quantile(const LogHistogram& a, double wa,
                        const LogHistogram& b, double wb, double q);

}  // namespace mnemo::stats
