// sweep: repeated sizing studies (the paper's Fig 5/8 validation sweeps)
// over three (workload, store) pairs that between them run all three store
// engines, with writes beside reads. A study is a profile, a 17-prefix x 2
// repeat validation grid, and the static oracle plus dynamic re-tiering at
// a 30 % FastMem budget. Bands far outnumber workers here, so replay
// kernels, lane fusion and the serial DynamicTierer dominate; band shaping
// should not move it.

#include <array>
#include <optional>
#include <stdexcept>

#include "core/campaign.hpp"
#include "core/lane_band.hpp"
#include "core/migration.hpp"
#include "core/placement_engine.hpp"
#include "core/session.hpp"
#include "hybridmem/emulation_profile.hpp"
#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/dual_server.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/suite.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mnemo::kvstore::StoreKind;

struct Pair {
  const char* workload;
  StoreKind store;
  const char* store_name;
};
constexpr std::array<Pair, 3> kPairs = {{
    {"trending", StoreKind::kVermilion, "vermilion"},
    {"timeline", StoreKind::kCachet, "cachet"},
    {"edit_thumbnail", StoreKind::kDynaStore, "dynastore"},  // 50:50 r:u
}};
constexpr std::size_t kPool = 32;  ///< trace seeds per pair
constexpr std::uint64_t kSalt = 0x5eeb;
constexpr std::size_t kGridPrefixes = 17;
constexpr double kDynamicBudget = 0.30;
/// Set-ups per run (fewer when the run has fewer rounds than this).
constexpr std::size_t kSetups = 9;
/// Host seconds one round of three studies takes (calibrated on a 4-CPU
/// x86-64 host); rounds per run = --seconds / this, at least one.
constexpr double kRoundSeconds = 1.5;

std::uint64_t trace_seed(std::size_t pair, std::size_t idx) {
  return 20'000 + 100 * pair + idx;
}
std::string op_name(std::size_t pair, std::size_t idx) {
  return std::string("sweep/") + kPairs[pair].store_name + "/" +
         std::to_string(idx);
}

struct StudyInput {
  std::size_t pair = 0;
  std::size_t idx = 0;
  mnemo::workload::Trace trace;
};

mnemo::workload::Trace make_trace(std::size_t pair, std::size_t idx) {
  mnemo::workload::WorkloadSpec spec =
      mnemo::workload::paper_workload(kPairs[pair].workload);
  spec.seed = trace_seed(pair, idx);
  return mnemo::workload::Trace::generate(spec);
}

mnemo::core::SensitivityConfig sensitivity(StoreKind store,
                                           std::size_t threads) {
  mnemo::core::SensitivityConfig s;
  s.store = store;
  s.repeats = 2;
  s.threads = threads;
  return s;
}

std::uint64_t digest(const mnemo::core::RunMeasurement& m, std::uint64_t h) {
  for (const double v : {m.runtime_ns, m.throughput_ops, m.avg_latency_ns,
                         m.avg_read_ns, m.avg_write_ns, m.p95_ns, m.p99_ns,
                         m.llc_hit_rate}) {
    h = fnv1a_value(v, h);
  }
  for (const std::uint64_t v : {m.requests, m.reads, m.writes}) {
    h = fnv1a_value(v, h);
  }
  return h;
}

struct StudyOutput {
  std::uint64_t grid = 0xcbf29ce484222325ULL;
  std::uint64_t curve = 0xcbf29ce484222325ULL;
  std::uint64_t migration = 0xcbf29ce484222325ULL;
  double grid_occupancy = 0.0;
  std::uint64_t moves = 0;
  std::string error;
};

/// One sizing study. Spans (when tracing) sit around each call into core.
StudyOutput study(const StudyInput& in, std::size_t threads, Tracer& tracer,
                  std::uint64_t unit) {
  using namespace mnemo;
  const Pair& pair = kPairs[in.pair];
  const Scope root(tracer, "sweep.study", -1, unit);
  StudyOutput out;

  std::vector<std::uint64_t> order;
  core::EstimateCurve curve;
  {
    const Scope s(tracer, "sweep.profile", root.id(), unit);
    core::SessionConfig sc;
    sc.mnemo.store = pair.store;
    sc.mnemo.repeats = 2;
    sc.mnemo.threads = threads;
    core::Session session(in.trace, std::move(sc));
    order = session.characterize().order;
    if (session.measure().degraded) {
      out.error = "profile measured a degraded grid";
      return out;
    }
    curve = session.estimate().curve;
  }
  for (const core::EstimatePoint& p : curve.points) {
    for (const double v : {p.est_runtime_ns, p.est_throughput_ops,
                           p.est_avg_latency_ns, p.cost_factor}) {
      out.curve = fnv1a_value(v, out.curve);
    }
    out.curve = fnv1a_value(static_cast<std::uint64_t>(p.fast_keys),
                            out.curve);
    out.curve = fnv1a_value(p.fast_bytes, out.curve);
  }

  const core::SensitivityConfig sens = sensitivity(pair.store, threads);
  {
    const Scope s(tracer, "sweep.grid", root.id(), unit);
    std::vector<hybridmem::Placement> placements;
    const std::size_t last = curve.points.size() - 1;
    for (std::size_t j = 0; j < kGridPrefixes; ++j) {
      placements.push_back(core::PlacementEngine::placement_for(
          order, curve.points[j * last / (kGridPrefixes - 1)]));
    }
    const core::SensitivityEngine engine(sens);
    core::CampaignRunner runner(threads);
    for (const core::RunMeasurement& m :
         runner.measure_grid(engine, in.trace, placements)) {
      out.grid = digest(m, out.grid);
    }
    out.grid_occupancy = runner.stats().occupancy();
  }

  core::MigrationConfig mig;
  mig.fast_budget_bytes = static_cast<std::uint64_t>(
      kDynamicBudget * static_cast<double>(in.trace.dataset_bytes()));
  const core::DynamicTierer tierer(sens, mig);
  {
    const Scope s(tracer, "sweep.oracle", root.id(), unit);
    out.migration = digest(tierer.run_static_oracle(in.trace), out.migration);
  }
  {
    const Scope s(tracer, "sweep.dynamic", root.id(), unit);
    const core::MigrationResult r = tierer.run(in.trace);
    out.migration = digest(r.measurement, out.migration);
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(r.epochs), r.migrations,
          r.bytes_migrated, r.rejected_moves, r.failed_requests}) {
      out.migration = fnv1a_value(v, out.migration);
    }
    out.migration = fnv1a_value(r.migration_ns, out.migration);
    out.moves = r.migrations;
  }
  return out;
}

/// Checks one study's outputs against the expected digests.
void check_study(const StudyInput& in, const StudyOutput& out,
                 Digests& digests, Ledger& ledger) {
  const std::string op = op_name(in.pair, in.idx);
  if (!out.error.empty()) {
    ledger.fail(op, out.error);
    return;
  }
  const bool good = digests.check(op + "/grid", out.grid) &&
                    digests.check(op + "/curve", out.curve) &&
                    digests.check(op + "/migration", out.migration);
  ledger.expect(good, op, "grid, curve or migration digest mismatch");
}

struct PassTotals {
  /// Host ms of each round (one study per pair): their median is the
  /// run's latency_ms, so a burst of host load that stalls one round does
  /// not move the run's figure.
  std::vector<double> round_ms;
  std::vector<StudyOutput> outputs;
};

/// Runs round `round` of `studies` (round-major, one study per pair per
/// round) in order, appending to `t`; returns the round's host seconds.
double run_round(const std::vector<StudyInput>& studies, std::size_t round,
                 std::size_t threads, Tracer& tracer, PassTotals& t) {
  const auto r0 = Tracer::Clock::now();
  for (std::size_t j = round * kPairs.size(); j < (round + 1) * kPairs.size();
       ++j) {
    t.outputs.push_back(study(studies[j], threads, tracer, j));
  }
  const double s =
      std::chrono::duration<double>(Tracer::Clock::now() - r0).count();
  t.round_ms.push_back(s * 1e3);
  return s;
}

/// Replay-layer probes on one store: CompiledTrace construction,
/// DualServer populate/execute rates, and a default 4-lane LaneBand
/// replay of the CLI grid (all-FastMem and all-SlowMem, 2 repeats each).
void probe_store(const StudyInput& in, std::size_t threads, Ledger& ledger,
                 Metrics& metrics, std::vector<double>& compile_ms) {
  using namespace mnemo;
  const Pair& pair = kPairs[in.pair];
  const std::string op = std::string("probe/") + pair.store_name;
  std::optional<workload::CompiledTrace> compiled;
  {
    const auto t0 = Tracer::Clock::now();
    compiled.emplace(in.trace);
    compile_ms.push_back(std::chrono::duration<double, std::milli>(
                             Tracer::Clock::now() - t0)
                             .count());
  }
  const workload::CompiledTrace& ct = *compiled;

  std::vector<std::uint64_t> order(in.trace.key_count());
  for (std::uint64_t k = 0; k < order.size(); ++k) order[k] = k;
  const hybridmem::Placement placement =
      hybridmem::Placement::from_order(order, order.size() * 3 / 10);
  const std::uint64_t need = std::max<std::uint64_t>(
      in.trace.dataset_bytes() * 2, 64ULL * 1024 * 1024);
  std::vector<double> populate_s;
  std::vector<double> execute_s;
  bool good = true;
  for (int rep = 0; rep < 3 && good; ++rep) {
    hybridmem::HybridMemory memory(
        hybridmem::paper_testbed_with_capacity(need));
    kvstore::StoreConfig sc;
    sc.seed = 0xbe7c + static_cast<std::uint64_t>(rep);
    kvstore::DualServer servers(memory, pair.store, sc);
    auto t0 = Tracer::Clock::now();
    good = servers.populate(ct, placement).ok();
    populate_s.push_back(
        std::chrono::duration<double>(Tracer::Clock::now() - t0).count());
    memory.drop_caches();
    t0 = Tracer::Clock::now();
    const auto ops = ct.ops();
    const auto keys = ct.keys();
    for (std::size_t i = 0; i < ops.size() && good; ++i) {
      const kvstore::KeyHints hints{ct.key_hash(keys[i]),
                                    ct.key_digest(keys[i])};
      const auto served = servers.execute(ops[i], keys[i], hints);
      good = served.ok() && served.value().ok;
    }
    execute_s.push_back(
        std::chrono::duration<double>(Tracer::Clock::now() - t0).count());
  }
  ledger.expect(good, op + "/replay", "populate or execute failed");

  const core::SensitivityEngine engine(sensitivity(pair.store, threads));
  const hybridmem::Placement fast(in.trace.key_count(),
                                  hybridmem::NodeId::kFast);
  const hybridmem::Placement slow(in.trace.key_count(),
                                  hybridmem::NodeId::kSlow);
  const std::array<core::LaneBand::Lane, 4> lanes = {{
      {&fast, 0, 0, nullptr},
      {&fast, 1, 0, nullptr},
      {&slow, 0, 0, nullptr},
      {&slow, 1, 0, nullptr},
  }};
  std::vector<double> band_ms;
  for (int rep = 0; rep < 3; ++rep) {
    std::array<std::optional<util::Result<core::RunMeasurement>>, 4> out;
    const auto t0 = Tracer::Clock::now();
    core::LaneBand::replay(engine, ct, lanes, out);
    band_ms.push_back(std::chrono::duration<double, std::milli>(
                          Tracer::Clock::now() - t0)
                          .count());
    bool lanes_ok = true;
    for (const auto& r : out) lanes_ok = lanes_ok && r && r->ok();
    ledger.expect(lanes_ok, op + "/lane_band", "a lane failed");
  }

  const std::string store = pair.store_name;
  metrics.push_back({"replay.populate_mops." + store,
                     static_cast<double>(in.trace.initial_key_count()) /
                         median(populate_s) / 1e6,
                     "Mop/s"});
  metrics.push_back({"replay.execute_mops." + store,
                     static_cast<double>(ct.request_count()) /
                         median(execute_s) / 1e6,
                     "Mop/s"});
  metrics.push_back({"lane_band.replay_ms." + store, median(band_ms), "ms"});
}

/// The sweep layer set: per-study means of span self time, grid
/// occupancy and migrations over the traced studies.
Metrics layers(const Tracer& tracer, const std::vector<StudyOutput>& outputs) {
  const std::vector<double> self = self_times(tracer.spans());
  const auto per_study = [&](const char* span) {
    return mean(self_ms_of(tracer.spans(), self, span));
  };
  std::vector<double> occupancy;
  std::vector<double> moves;
  for (const StudyOutput& o : outputs) {
    occupancy.push_back(o.grid_occupancy);
    moves.push_back(static_cast<double>(o.moves));
  }
  return {
      {"sweep.profile_ms", per_study("sweep.profile"), "ms"},
      {"sweep.grid_ms", per_study("sweep.grid"), "ms"},
      {"sweep.grid_occupancy", mean(occupancy), "ratio"},
      {"sweep.oracle_ms", per_study("sweep.oracle"), "ms"},
      {"sweep.dynamic_ms", per_study("sweep.dynamic"), "ms"},
      {"migration.moves", mean(moves), "count"},
  };
}

}  // namespace

RunResult run_sweep(const RunConfig& cfg) {
  check_thread_budget("sweep", cfg.cpus, 0, cfg.cpus);
  RunResult r;
  const std::size_t rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.seconds / kRoundSeconds + 0.5));
  if (rounds > kPool) throw std::invalid_argument("--seconds too large");
  std::array<PoolWalk, kPairs.size()> walks = {
      PoolWalk(cfg.seed, kSalt + 0, kPool),
      PoolWalk(cfg.seed, kSalt + 1, kPool),
      PoolWalk(cfg.seed, kSalt + 2, kPool)};

  // Set-up: generate every study's trace. It is repeated, regenerating
  // each trace in place, before rounds spread through the run, so the
  // median does not hinge on one host window.
  std::vector<double> setup_s;
  std::vector<StudyInput> studies;
  const auto set_up = [&] {
    const auto t0 = Tracer::Clock::now();
    std::size_t j = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t p = 0; p < kPairs.size(); ++p, ++j) {
        const std::size_t idx = walks[p].at(round);
        if (j < studies.size()) {
          studies[j].trace = make_trace(p, idx);
        } else {
          studies.push_back(StudyInput{p, idx, make_trace(p, idx)});
        }
      }
    }
    setup_s.push_back(
        std::chrono::duration<double>(Tracer::Clock::now() - t0).count());
  };
  set_up();

  // A traced run pairs each untraced round with a traced one (alternating
  // which goes first), so the overhead is a paired ratio over one code
  // path in one host window.
  Tracer off(false, cfg.origin);
  Tracer tracer(cfg.trace, cfg.origin);
  PassTotals plain;
  PassTotals traced;
  std::vector<double> traced_over_off;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round > 0 && round * kSetups / rounds > (round - 1) * kSetups / rounds) {
      set_up();
    }
    if (!cfg.trace) {
      (void)run_round(studies, round, cfg.cpus, off, plain);
    } else if (round % 2 == 0) {
      const double a = run_round(studies, round, cfg.cpus, off, plain);
      traced_over_off.push_back(
          run_round(studies, round, cfg.cpus, tracer, traced) / a);
    } else {
      const double b = run_round(studies, round, cfg.cpus, tracer, traced);
      traced_over_off.push_back(
          b / run_round(studies, round, cfg.cpus, off, plain));
    }
  }
  for (std::size_t i = 0; i < studies.size(); ++i) {
    check_study(studies[i], plain.outputs[i], *cfg.digests, r.ledger);
  }
  if (!cfg.trace) {
    r.metrics = {{"latency_ms", median(plain.round_ms), "ms"},
                 {"setup_s", median(setup_s), "s"},
                 {"peak_rss_mb", peak_rss_mib(), "MiB"}};
    return r;
  }

  for (std::size_t i = 0; i < studies.size(); ++i) {
    const StudyOutput& a = plain.outputs[i];
    const StudyOutput& b = traced.outputs[i];
    r.ledger.expect(a.grid == b.grid && a.curve == b.curve &&
                        a.migration == b.migration,
                    op_name(studies[i].pair, studies[i].idx) + " (traced)",
                    "traced outputs differ from the untraced run");
  }
  if (!tracer.write(cfg.trace_path)) {
    throw std::runtime_error("cannot write " + cfg.trace_path);
  }
  r.metrics = layers(tracer, traced.outputs);
  r.metrics.push_back(
      {"trace.overhead_pct", (median(traced_over_off) - 1.0) * 100.0, "%"});
  return r;
}

Metrics probe_sweep(const RunConfig& cfg, Ledger& ledger) {
  std::vector<StudyInput> studies;
  for (std::size_t p = 0; p < kPairs.size(); ++p) {
    studies.push_back(StudyInput{p, 0, make_trace(p, 0)});
  }
  Tracer tracer(true, cfg.origin);
  PassTotals traced;
  (void)run_round(studies, 0, cfg.cpus, tracer, traced);
  for (std::size_t p = 0; p < studies.size(); ++p) {
    check_study(studies[p], traced.outputs[p], *cfg.digests, ledger);
  }
  return layers(tracer, traced.outputs);
}

Metrics probe_replay(const RunConfig& cfg, Ledger& ledger) {
  std::vector<double> compile_ms;
  Metrics metrics;
  for (std::size_t p = 0; p < kPairs.size(); ++p) {
    probe_store(StudyInput{p, 0, make_trace(p, 0)}, cfg.cpus, ledger, metrics,
                compile_ms);
  }
  metrics.push_back({"workload.compile_ms", median(compile_ms), "ms"});
  return metrics;
}

void record_sweep(const RunConfig& cfg, Ledger& ledger) {
  Tracer off(false, cfg.origin);
  for (std::size_t p = 0; p < kPairs.size(); ++p) {
    for (std::size_t idx = 0; idx < kPool; ++idx) {
      const StudyInput in{p, idx, make_trace(p, idx)};
      check_study(in, study(in, cfg.cpus, off, idx), *cfg.digests, ledger);
    }
  }
}

}  // namespace perfbench
