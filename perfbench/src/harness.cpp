#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

PoolWalk::PoolWalk(std::uint64_t seed, std::uint64_t salt, std::size_t pool)
    : pool_(pool) {
  if (pool == 0 || (pool & (pool - 1)) != 0) {
    throw std::invalid_argument("pool size must be a power of two");
  }
  Rng rng(seed ^ salt);
  offset_ = static_cast<std::size_t>(rng.below(pool));
  stride_ = static_cast<std::size_t>(rng.below(pool)) | 1U;
}

std::size_t PoolWalk::at(std::size_t i) const {
  return (offset_ + i * stride_) & (pool_ - 1);
}

double percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("percentile: q outside (0, 1)");
  }
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (n == 0 || rank == 0 || n - rank < 10) {
    std::ostringstream msg;
    msg << "percentile: p" << q * 100 << " of " << n
        << " samples has fewer than 10 samples beyond it";
    throw std::invalid_argument(msg.str());
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of nothing");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("mean of nothing");
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Tracer::Tracer(bool enabled, Clock::time_point origin)
    : enabled_(enabled), origin_(origin) {
  if (enabled_) spans_.reserve(1 << 14);
}

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
      .count();
}

int Tracer::open(std::string_view name, int parent, std::uint64_t unit) {
  if (!enabled_) return -1;
  const double t = now_ms();
  return add(name, t, t, parent, unit);
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
}

int Tracer::add(std::string_view name, double start_ms, double end_ms,
                int parent, std::uint64_t unit) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::string(name), start_ms, end_ms, parent, unit});
  return static_cast<int>(spans_.size() - 1);
}

bool Tracer::write(const std::string& path) const {
  const std::vector<double> self = self_times(spans_);
  std::ofstream out(path);
  out << "id\tname\tstart_ms\tend_ms\tself_ms\tparent\tunit\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.name << '\t' << number(s.start_ms) << '\t'
        << number(s.end_ms) << '\t' << number(self[i]) << '\t' << s.parent
        << '\t' << s.unit << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) throw std::invalid_argument("span parent range");
    children[p].emplace_back(s.start_ms, s.end_ms);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Sweep the sorted, clipped child intervals, merging overlaps.
    double covered = 0.0;
    double run_lo = lo;
    double run_hi = lo;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (a > run_hi) {
        covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
      } else {
        run_hi = std::max(run_hi, b);
      }
    }
    covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<double> self_ms_of(const std::vector<Span>& spans,
                               const std::vector<double>& self,
                               std::string_view name) {
  std::vector<double> v;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) v.push_back(self[i]);
  }
  return v;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[i] = kHex[v & 0xf];
    v >>= 4;
  }
  buf[16] = '\0';
  return buf;
}

Digests Digests::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected digests " + path);
  Digests d;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos || line.size() - tab - 1 != 16) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    std::uint64_t v = 0;
    const char* first = line.data() + tab + 1;
    const auto [ptr, ec] = std::from_chars(first, first + 16, v, 16);
    if (ec != std::errc() || ptr != first + 16) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    d.table_[line.substr(0, tab)] = v;
  }
  return d;
}

Digests Digests::recorder() {
  Digests d;
  d.recording_ = true;
  return d;
}

bool Digests::check(const std::string& key, std::uint64_t digest) {
  if (recording_) {
    table_[key] = digest;
    return true;
  }
  const auto it = table_.find(key);
  return it != table_.end() && it->second == digest;
}

bool Digests::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# Expected output digests (FNV-1a 64) per benchmark input; "
         "regenerate with: python3 perfbench/run.py --record\n";
  for (const auto& [key, digest] : table_) {
    out << key << '\t' << hex64(digest) << '\n';
  }
  return static_cast<bool>(out);
}

void Ledger::fail(const std::string& op, const std::string& why) {
  ++attempted;
  ++failed;
  std::cerr << "perfbench: FAILED " << op << ": " << why << "\n";
}

void Ledger::expect(bool good, const std::string& op, const std::string& why) {
  if (good) {
    ++attempted;
  } else {
    fail(op, why);
  }
}

double host_probe_ms() {
  // 8 MiB of 32-bit links: past any L2, so each hop is a cache miss to L3
  // or DRAM. Sattolo's shuffle makes one cycle through every slot.
  constexpr std::size_t kSlots = std::size_t{1} << 21;
  constexpr std::size_t kHops = std::size_t{1} << 19;
  std::vector<std::uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0U);
  Rng rng(0x9b0be);
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[static_cast<std::size_t>(rng.below(i))]);
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < kHops; ++i) at = next[at];
  const auto t1 = std::chrono::steady_clock::now();
  if (at >= kSlots) std::abort();  // keeps the chase observable
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

void check_thread_budget(const char* workload, std::size_t workers,
                         std::size_t generators, std::size_t cpus) {
  if (workers + generators > cpus) {
    std::ostringstream msg;
    msg << workload << ": " << workers << " workers + " << generators
        << " generator threads exceed the " << cpus << " usable CPUs";
    throw std::runtime_error(msg.str());
  }
  std::cout << "# threads: workers=" << workers
            << " generators=" << generators << " nproc=" << cpus << "\n";
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric");
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) throw std::runtime_error("number formatting");
  return std::string(buf, ptr);
}

std::string result_json(const Ledger& ledger, const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted
      << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
        << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
