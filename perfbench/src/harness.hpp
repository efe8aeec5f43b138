#pragma once

// Shared pieces of the end-to-end + per-layer benchmark: seeded inputs,
// the percentile rule, spans and self time, output digests, the host-noise
// probe, and the result line. Everything here is the benchmark's own code;
// the system under test is only reached through the workload files.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own generator, so the inputs a seed makes
/// never depend on the generators inside the system under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// A permutation walk over a pool of `pool` inputs (a power of two):
/// index(i) = (offset + i * stride) mod pool with an odd stride, so the
/// first `pool` indices are distinct and the walk is a function of `seed`.
class PoolWalk {
 public:
  PoolWalk(std::uint64_t seed, std::uint64_t salt, std::size_t pool);
  [[nodiscard]] std::size_t at(std::size_t i) const;

 private:
  std::size_t pool_;
  std::size_t offset_;
  std::size_t stride_;
};

/// Nearest-rank percentile, q in (0, 1). Refuses (throws
/// std::invalid_argument) when fewer than ten samples lie beyond the rank:
/// such a "p99" would be set by a handful of samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// One traced interval: `parent` indexes the causing span (-1 for a
/// root); `unit` is the iteration, study or request the span belongs to.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t unit = 0;
};

/// In-memory span recorder. Disabled tracers record nothing; the clock is
/// read only when enabled, so the untraced path pays no tracing cost.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer(bool enabled, Clock::time_point origin);
  [[nodiscard]] double now_ms() const;
  /// Opens a span now; returns its id (-1 when disabled).
  int open(std::string_view name, int parent, std::uint64_t unit);
  void close(int id);
  /// Records an already measured interval (serve requests, where the
  /// times come from the response and the generator).
  int add(std::string_view name, double start_ms, double end_ms, int parent,
          std::uint64_t unit);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Tab-separated dump: id, name, start_ms, end_ms, self_ms, parent, unit.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, int parent = -1,
        std::uint64_t unit = 0)
      : tracer_(tracer), id_(tracer.open(name, parent, unit)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (children may overlap).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Self times (ms) of every span called `name`, in recording order.
[[nodiscard]] std::vector<double> self_ms_of(const std::vector<Span>& spans,
                                             const std::vector<double>& self,
                                             std::string_view name);

/// 64-bit FNV-1a over bytes, chained through `h`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);
/// Digest of a value's object representation (trivially copyable only).
template <class T>
[[nodiscard]] std::uint64_t fnv1a_value(const T& v, std::uint64_t h) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(&v), sizeof v),
               h);
}
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Expected output digests kept with the benchmark (expected/digests.tsv,
/// lines "<key>\t<hex digest>"). In record mode every digest is stored
/// instead of compared, and save() rewrites the file.
class Digests {
 public:
  [[nodiscard]] static Digests load(const std::string& path);
  [[nodiscard]] static Digests recorder();
  /// True when `digest` matches (or is being recorded).
  bool check(const std::string& key, std::uint64_t digest);
  [[nodiscard]] bool recording() const noexcept { return recording_; }
  [[nodiscard]] bool save(const std::string& path) const;
  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }

 private:
  bool recording_ = false;
  std::map<std::string, std::uint64_t> table_;
};

/// Pass/fail ledger of one run: every op counts as attempted; a failed op
/// (error, refusal, non-zero exit, digest mismatch) is printed to stderr
/// with its identity.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void fail(const std::string& op, const std::string& why);
  /// Counts one op; fails it unless `good`.
  void expect(bool good, const std::string& op, const std::string& why);
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Memory-bound pointer chase over a buffer larger than L2: a fixed
/// amount of host work whose time tracks host memory noise, not the code.
[[nodiscard]] double host_probe_ms();

/// Peak resident set of this process (VmHWM), MiB.
[[nodiscard]] double peak_rss_mib();

/// CPUs this process may run on (the affinity mask, like nproc).
[[nodiscard]] std::size_t usable_cpus();

/// The thread budget of a run: workers of the system plus the benchmark's
/// own load generator. Refused (throws) when it exceeds the usable CPUs;
/// otherwise printed, so a result always names its thread layout.
void check_thread_budget(const char* workload, std::size_t workers,
                         std::size_t generators, std::size_t cpus);

/// Shortest round-trip decimal form of a double.
[[nodiscard]] std::string number(double v);

/// The result line: {"correct","attempted","failed","metrics"}.
[[nodiscard]] std::string result_json(const Ledger& ledger,
                                      const Metrics& metrics);

}  // namespace perfbench
