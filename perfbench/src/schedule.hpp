#pragma once

// The serve_mix open-loop schedule: a seeded Poisson arrival process over
// three fixed request classes, and the NDJSON line each arrival sends.
// A pure function of (seed, spec), so the same seed replays the same
// schedule byte for byte.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class ReqClass : std::uint8_t { kSmall, kWarm, kBig };
[[nodiscard]] const char* class_name(ReqClass c);

struct ScheduleSpec {
  std::size_t small = 0;  ///< cold advise, 1k keys / 10k requests
  std::size_t warm = 0;   ///< re-advise of an earlier small trace
  std::size_t big = 0;    ///< cold report at Table III scale
  double rate_per_s = 1.0;
  /// A warm request re-advises a small one due at least this much
  /// earlier, so its measure is normally memoized by then: 1 s is about
  /// 40x the small p99 and 6x a big report, so the small has been
  /// answered even when it queued behind a big.
  double warm_lag_ms = 1000.0;
  /// Trace-seed pools the walks draw from (powers of two).
  std::size_t small_pool = 2048;
  std::size_t big_pool = 256;
};

struct Arrival {
  double due_ms = 0.0;  ///< offset from the start of the schedule
  ReqClass cls = ReqClass::kSmall;
  std::size_t pool_idx = 0;  ///< trace-seed index (warm: the small's)
  std::string line;          ///< the request line, without newline
  std::string digest_key;    ///< expected-output key
};

/// The whole schedule for one run. Class counts are exact; bigs sit one per
/// equal block of arrivals, smalls and warms fill the rest in a seeded
/// shuffle with no warm request in the first 1.5 x warm_lag_ms of
/// arrivals; gaps are exponential at rate_per_s.
[[nodiscard]] std::vector<Arrival> make_schedule(std::uint64_t seed,
                                                 const ScheduleSpec& spec);

/// `count` cold small requests on trace seeds the schedule never uses,
/// for warming a fresh server up during set-up.
[[nodiscard]] std::vector<Arrival> warmup_requests(std::uint64_t seed,
                                                   const ScheduleSpec& spec,
                                                   std::size_t count);

/// The request line of one class and pool index (shared with record mode).
[[nodiscard]] std::string request_line(ReqClass cls, std::size_t pool_idx,
                                       const std::string& id);
[[nodiscard]] std::string digest_key(ReqClass cls, std::size_t pool_idx);

}  // namespace perfbench
