// oneshot: the CLI default `mnemo run --workload trending` (vermilion,
// repeats 2, --threads = nproc), cold and in-process, one fresh trace seed
// per iteration. Its 4-cell grid is a single lane band, so band shaping,
// stage overlap and report rendering all show in its latency.

#include <optional>
#include <sstream>
#include <stdexcept>

#include "cli/cli.hpp"
#include "core/campaign.hpp"
#include "core/session.hpp"
#include "workload/suite.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPool = 512;
constexpr std::uint64_t kSeedBase = 10'000;
constexpr std::uint64_t kSalt = 0x0e5407;
constexpr std::size_t kWarmups = 15;
/// Traced iterations when another workload probes this layer set.
constexpr std::size_t kProbeIterations = 9;
constexpr const char* kWorkload = "trending";

std::uint64_t trace_seed(std::size_t idx) { return kSeedBase + idx; }
std::string op_name(std::size_t idx) {
  return "oneshot/" + std::to_string(idx);
}

/// Timed iterations per run: fifteen per second of --seconds (an
/// iteration takes 50-90 ms on a 4-CPU x86-64 host), and never fewer than
/// 100, so the reported p10 has ten samples below it.
std::size_t iterations(int seconds) {
  return std::max<std::size_t>(100, 15 * static_cast<std::size_t>(seconds));
}

struct Outcome {
  double ms = 0.0;
  std::uint64_t digest = 0;
  std::string error;  ///< empty on success
};

/// One `mnemo run` through the CLI entry point; the digest covers stdout.
Outcome cli_iteration(std::size_t idx, std::size_t threads) {
  const std::vector<std::string> args = {
      "run",       "--workload", kWorkload,
      "--repeats", "2",          "--threads",
      std::to_string(threads), "--seed", std::to_string(trace_seed(idx))};
  std::ostringstream out;
  std::ostringstream err;
  const auto t0 = Tracer::Clock::now();
  const int code = mnemo::cli::run(args, out, err);
  const auto t1 = Tracer::Clock::now();
  Outcome o;
  o.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  o.digest = fnv1a(out.str());
  if (code != 0) o.error = "exit " + std::to_string(code) + ": " + err.str();
  return o;
}

/// The same flow as `mnemo run`, stage by stage through core::Session,
/// with a span around every call into the workload and core layers.
Outcome traced_iteration(Tracer& tracer, std::size_t unit, std::size_t idx,
                         std::size_t threads, mnemo::core::CampaignStats* cs) {
  using namespace mnemo;
  const auto t0 = Tracer::Clock::now();
  const Scope it(tracer, "oneshot.iteration", -1, unit);
  std::optional<workload::Trace> trace;
  {
    const Scope s(tracer, "workload.generate", it.id(), unit);
    workload::WorkloadSpec spec = workload::paper_workload(kWorkload);
    spec.seed = trace_seed(idx);
    trace.emplace(workload::Trace::generate(spec));
  }
  core::SessionConfig sc;
  sc.mnemo.store = kvstore::StoreKind::kVermilion;
  sc.mnemo.repeats = 2;
  sc.mnemo.price_factor = 0.2;
  sc.mnemo.slo_slowdown = 0.1;
  sc.mnemo.threads = threads;
  core::reset_campaign_totals();
  std::optional<core::Session> session;
  {
    const Scope s(tracer, "session.open", it.id(), unit);
    session.emplace(std::move(*trace), std::move(sc));
  }
  {
    const Scope s(tracer, "session.characterize", it.id(), unit);
    (void)session->characterize();
  }
  {
    const Scope s(tracer, "session.measure", it.id(), unit);
    (void)session->measure();
  }
  *cs = core::campaign_totals();
  {
    const Scope s(tracer, "session.estimate", it.id(), unit);
    (void)session->estimate();
  }
  {
    const Scope s(tracer, "session.advise", it.id(), unit);
    (void)session->advise();
  }
  Outcome o;
  {
    const Scope s(tracer, "session.report", it.id(), unit);
    o.digest = fnv1a(session->report().text);
  }
  o.ms = std::chrono::duration<double, std::milli>(Tracer::Clock::now() - t0)
             .count();
  return o;
}

/// The oneshot layer set from traced iterations: median span self time
/// per stage, and the campaign ledger each iteration's measure left.
Metrics layers(const Tracer& tracer,
               const std::vector<mnemo::core::CampaignStats>& campaigns) {
  const std::vector<double> self = self_times(tracer.spans());
  const auto stage = [&](const char* span) {
    return median(self_ms_of(tracer.spans(), self, span));
  };
  std::vector<double> cells, threads, occupancy, cell_p50, arena;
  for (const mnemo::core::CampaignStats& cs : campaigns) {
    cells.push_back(static_cast<double>(cs.cells));
    threads.push_back(static_cast<double>(cs.threads));
    occupancy.push_back(cs.occupancy());
    cell_p50.push_back(cs.cell_p50_s * 1e3);
    arena.push_back(static_cast<double>(cs.arena_peak_bytes) / 1024.0);
  }
  return {
      {"workload.generate_ms", stage("workload.generate"), "ms"},
      {"session.open_ms", stage("session.open"), "ms"},
      {"session.characterize_ms", stage("session.characterize"), "ms"},
      {"session.measure_ms", stage("session.measure"), "ms"},
      {"session.estimate_ms", stage("session.estimate"), "ms"},
      {"session.advise_ms", stage("session.advise"), "ms"},
      {"session.report_ms", stage("session.report"), "ms"},
      {"campaign.cells", median(cells), "count"},
      {"campaign.threads_used", median(threads), "count"},
      {"campaign.occupancy", median(occupancy), "ratio"},
      {"campaign.cell_p50_ms", median(cell_p50), "ms"},
      {"campaign.arena_peak_kib", median(arena), "KiB"},
  };
}

}  // namespace

RunResult run_oneshot(const RunConfig& cfg) {
  check_thread_budget("oneshot", cfg.cpus, 0, cfg.cpus);
  RunResult r;
  const PoolWalk walk(cfg.seed, kSalt, kPool);
  const std::size_t n = iterations(cfg.seconds);
  if (n + kWarmups > kPool) throw std::invalid_argument("--seconds too large");

  // Set-up: cold warm-up iterations on inputs the timed loop never uses.
  // The first runs before any timed iteration; the rest are spread through
  // the run, so their median does not hinge on one host window (the host
  // flips between a fast and a slow mode every few seconds).
  std::vector<double> setup_s;
  const auto warm_up = [&](std::size_t w) {
    const std::size_t idx = walk.at(n + w);
    const Outcome o = cli_iteration(idx, cfg.cpus);
    setup_s.push_back(o.ms / 1e3);
    r.ledger.expect(o.error.empty() &&
                        cfg.digests->check(op_name(idx), o.digest),
                    op_name(idx) + " (warm-up)",
                    o.error.empty() ? "output digest mismatch" : o.error);
  };

  std::vector<double> ms;
  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % (n / kWarmups) == 0 && setup_s.size() < kWarmups) {
      warm_up(setup_s.size());
    }
    const std::size_t idx = walk.at(i);
    const Outcome o = cli_iteration(idx, cfg.cpus);
    ms.push_back(o.ms);
    digests.push_back(o.digest);
    r.ledger.expect(o.error.empty() &&
                        cfg.digests->check(op_name(idx), o.digest),
                    op_name(idx),
                    o.error.empty() ? "output digest mismatch" : o.error);
  }

  if (!cfg.trace) {
    // The p10: the p50 and p90 move with how much of the run fell in the
    // host's slow mode (README, "End-to-end metrics").
    r.metrics = {{"latency_ms", percentile(ms, 0.1), "ms"},
                 {"setup_s", median(setup_s), "s"},
                 {"peak_rss_mb", peak_rss_mib(), "MiB"}};
    return r;
  }

  // The first half of the inputs runs the stage-by-stage path twice back
  // to back, with the tracer off and on (alternating which goes first), so
  // the overhead is a paired ratio over one code path in one host window.
  // Half keeps a traced run within three untraced runs' time.
  Tracer off(false, cfg.origin);
  Tracer tracer(true, cfg.origin);
  std::vector<double> traced_over_off;
  std::vector<mnemo::core::CampaignStats> campaigns;
  for (std::size_t i = 0; i < n / 2; ++i) {
    const std::size_t idx = walk.at(i);
    mnemo::core::CampaignStats cs;
    mnemo::core::CampaignStats plain_cs;
    Outcome plain;
    Outcome o;
    if (i % 2 == 0) {
      plain = traced_iteration(off, i, idx, cfg.cpus, &plain_cs);
      o = traced_iteration(tracer, i, idx, cfg.cpus, &cs);
    } else {
      o = traced_iteration(tracer, i, idx, cfg.cpus, &cs);
      plain = traced_iteration(off, i, idx, cfg.cpus, &plain_cs);
    }
    traced_over_off.push_back(o.ms / plain.ms);
    r.ledger.expect(plain.digest == digests[i] && o.digest == digests[i],
                    op_name(idx) + " (traced)",
                    "traced output differs from the untraced run");
    campaigns.push_back(cs);
  }
  if (!tracer.write(cfg.trace_path)) {
    throw std::runtime_error("cannot write " + cfg.trace_path);
  }
  r.metrics = layers(tracer, campaigns);
  r.metrics.push_back(
      {"trace.overhead_pct", (median(traced_over_off) - 1.0) * 100.0, "%"});
  return r;
}

Metrics probe_oneshot(const RunConfig& cfg, Ledger& ledger) {
  Tracer tracer(true, cfg.origin);
  std::vector<mnemo::core::CampaignStats> campaigns(kProbeIterations);
  for (std::size_t idx = 0; idx < kProbeIterations; ++idx) {
    const Outcome o =
        traced_iteration(tracer, idx, idx, cfg.cpus, &campaigns[idx]);
    ledger.expect(cfg.digests->check(op_name(idx), o.digest),
                  op_name(idx) + " (probe)", "output digest mismatch");
  }
  return layers(tracer, campaigns);
}

void record_oneshot(const RunConfig& cfg, Ledger& ledger) {
  for (std::size_t idx = 0; idx < kPool; ++idx) {
    const Outcome o = cli_iteration(idx, cfg.cpus);
    ledger.expect(o.error.empty(), op_name(idx), o.error);
    if (o.error.empty()) (void)cfg.digests->check(op_name(idx), o.digest);
  }
}

}  // namespace perfbench
