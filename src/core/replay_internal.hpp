#pragma once

// Shared internals of the two replays — the per-cell reference replay of
// the raw Trace in sensitivity_engine.cpp and the lane-fused campaign
// executor in lane_band.cpp. Both derive a run's statistics through the
// guards here (the degenerate-fit rule, the zero-runtime refusal), but
// from independent arithmetic: the reference sorts and merges its
// per-class latency vectors and counts the histogram with per-op add();
// LaneBand makes one pass over its flat service-time array that yields
// the same sums and bucket counts, then selects p95/p99 guided by the
// histogram. The equivalence suites and golden fixtures hold the two to
// the same bits. Not installed API — core internals only.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/baselines.hpp"
#include "stats/summary.hpp"
#include "util/status.hpp"
#include "workload/compiled_trace.hpp"

namespace mnemo::core::replay_detail {

/// Fit service ≈ a + b·bytes; degenerate samples (empty, or a single
/// record size) collapse to a flat line at the mean, which makes the
/// size-aware estimate model coincide with the uniform-delta one.
inline stats::Line fit_service_line(std::span<const double> bytes,
                                    std::span<const double> latency) {
  if (latency.empty()) return stats::Line{};
  const double first = bytes.front();
  bool distinct = false;
  for (const double b : bytes) {
    if (b != first) {
      distinct = true;
      break;
    }
  }
  if (!distinct || latency.size() < 2) {
    return stats::Line{stats::mean(latency), 0.0};
  }
  return stats::fit_line(bytes, latency);
}

/// One request class's service-time sums, accumulated in request order:
/// sum_y is the chain stats::mean and stats::fit_line both add up, and
/// sum_xy pairs each latency with its record size.
struct ClassSums {
  std::size_t n = 0;
  double sum_y = 0.0;
  double sum_xy = 0.0;
};

/// fit_service_line from sums: the campaign-invariant x-side (distinct
/// scan + normal-equation moments) precomputed by CompiledTrace, the
/// y-side from the run. Same guards, same solver inputs, bit-identical
/// Line.
inline stats::Line fit_service_line(
    const workload::ServiceFitMoments& moments, const ClassSums& sums) {
  if (sums.n == 0) return stats::Line{};
  if (!moments.distinct || sums.n < 2) {
    return stats::Line{sums.sum_y / static_cast<double>(sums.n), 0.0};
  }
  return stats::fit_line_moments(moments.n, moments.sum_x, moments.sum_xx,
                                 sums.sum_y, sums.sum_xy);
}

/// The rates every replay derives from runtime_ns and requests.
[[nodiscard]] inline util::Status derive_rates(RunMeasurement& m) {
  if (!(m.runtime_ns > 0.0)) {
    // Every request cost 0ns (a degenerate profile): division would turn
    // avg_latency_ns/throughput_ops into NaN/inf and quietly poison every
    // downstream mean. Refuse with a typed error instead.
    util::Error e;
    e.code = util::ErrorCode::kFailedPrecondition;
    e.message = "run accumulated zero simulated runtime; "
                "throughput and average latency are undefined";
    return e;
  }
  m.avg_latency_ns = m.runtime_ns / static_cast<double>(m.requests);
  m.throughput_ops = static_cast<double>(m.requests) / (m.runtime_ns / 1e9);
  return {};
}

/// The reference replay's statistics tail: means and fits straight from
/// the per-class latency vectors in request order, then p95/p99 from the
/// two individually sorted streams merged — the same sorted multiset as
/// sorting their concatenation, without re-comparing elements each stream
/// already ordered.
[[nodiscard]] inline util::Status derive_measurement(
    RunMeasurement& m, std::span<const double> read_bytes,
    std::span<const double> write_bytes, std::vector<double>& read_lat,
    std::vector<double>& write_lat) {
  m.reads = read_lat.size();
  m.writes = write_lat.size();
  m.avg_read_ns = read_lat.empty() ? 0.0 : stats::mean(read_lat);
  m.avg_write_ns = write_lat.empty() ? 0.0 : stats::mean(write_lat);
  m.read_vs_bytes = fit_service_line(read_bytes, read_lat);
  m.write_vs_bytes = fit_service_line(write_bytes, write_lat);
  if (util::Status rates = derive_rates(m); !rates.ok()) return rates;
  std::sort(read_lat.begin(), read_lat.end());
  std::sort(write_lat.begin(), write_lat.end());
  std::vector<double> merged(read_lat.size() + write_lat.size());
  std::merge(read_lat.begin(), read_lat.end(), write_lat.begin(),
             write_lat.end(), merged.begin());
  m.p95_ns = stats::percentile_sorted(merged, 0.95);
  m.p99_ns = stats::percentile_sorted(merged, 0.99);
  return {};
}

[[nodiscard]] inline util::Error empty_trace_error() {
  util::Error e;
  e.code = util::ErrorCode::kInvalidArgument;
  e.message = "trace has no requests to replay; measurement is undefined";
  return e;
}

}  // namespace mnemo::core::replay_detail
