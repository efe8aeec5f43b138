// Byte-identity goldens for the replay path (labelled `concurrency` +
// `faults`): fig5-style validation sweeps across all three store
// architectures plus a faulted degraded campaign per store and a
// retry-acceptance campaign, serialized with exact (hexfloat) formatting and pinned to fixture files generated before the
// flat-table refactor of the hot path. Any change to simulated results —
// an RNG stream, an eviction order, an accounting rule — shows up here as
// a fixture mismatch, at every thread count in {1, 2, 8}.
//
// Regenerate (only for an *intentional* semantics change, and say so in
// the commit):  MNEMO_WRITE_GOLDEN=1 ./tests_golden

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/sensitivity_engine.hpp"
#include "workload/workload_spec.hpp"

namespace mnemo::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

workload::Trace golden_trace() {
  workload::WorkloadSpec spec;
  spec.name = "golden_replay";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.9;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = 300;
  spec.request_count = 3'000;
  spec.seed = 0x901de;
  return workload::Trace::generate(spec);
}

void serialize(std::ostringstream& out, const RunMeasurement& m) {
  out << "rt=" << hex(m.runtime_ns) << " thr=" << hex(m.throughput_ops)
      << " avg=" << hex(m.avg_latency_ns) << " r=" << hex(m.avg_read_ns)
      << " w=" << hex(m.avg_write_ns) << " p95=" << hex(m.p95_ns)
      << " p99=" << hex(m.p99_ns) << " req=" << m.requests
      << " reads=" << m.reads << " writes=" << m.writes
      << " llc=" << hex(m.llc_hit_rate)
      << " rvb=" << hex(m.read_vs_bytes.intercept) << ","
      << hex(m.read_vs_bytes.slope)
      << " wvb=" << hex(m.write_vs_bytes.intercept) << ","
      << hex(m.write_vs_bytes.slope) << " hist=";
  for (std::size_t i = 0; i < stats::LogHistogram::kBuckets; ++i) {
    if (m.latency_hist.bucket(i) != 0) {
      out << i << ":" << m.latency_hist.bucket(i) << ";";
    }
  }
  out << " faults=" << m.faults.transient_faults << ","
      << m.faults.transient_retries << "," << m.faults.transient_failures
      << "," << m.faults.poison_hits << "," << m.faults.degraded_accesses;
}

/// Fig5-style validation sweep: measured placements at prefix fractions of
/// the identity key order, for every store architecture, repeats averaged
/// by the campaign grid.
std::string sweep_snapshot(const workload::Trace& trace,
                           std::size_t threads) {
  std::vector<std::uint64_t> order(trace.key_count());
  for (std::uint64_t k = 0; k < trace.key_count(); ++k) order[k] = k;
  const double fractions[] = {0.0, 0.25, 0.5, 0.75, 1.0};

  std::ostringstream out;
  for (const kvstore::StoreKind store :
       {kvstore::StoreKind::kVermilion, kvstore::StoreKind::kCachet,
        kvstore::StoreKind::kDynaStore}) {
    SensitivityConfig cfg;
    cfg.store = store;
    cfg.repeats = 2;
    const SensitivityEngine engine(cfg);

    std::vector<hybridmem::Placement> placements;
    for (const double f : fractions) {
      placements.push_back(hybridmem::Placement::from_order(
          order, static_cast<std::size_t>(
                     f * static_cast<double>(trace.key_count()))));
    }
    CampaignRunner runner(threads);
    const std::vector<RunMeasurement> grid =
        runner.measure_grid(engine, trace, placements);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      out << kvstore::to_string(store) << " fast_keys="
          << placements[i].fast_keys() << " ";
      serialize(out, grid[i]);
      out << "\n";
    }
  }
  return out.str();
}

/// Degraded campaign: a poison plan that quarantines every all-SlowMem
/// cell while all-FastMem cells stay clean — measurements and the failure
/// ledger both go into the golden. The ledger carries the fault counters of
/// each quarantined cell's final (retry) attempt, so the retry replay is
/// pinned to bytes per store too.
std::string degraded_snapshot(const workload::Trace& trace,
                              std::size_t threads, kvstore::StoreKind store) {
  faultinject::FaultPlan plan;
  plan.poison_rate = 0.2;
  SensitivityConfig cfg;
  cfg.store = store;
  cfg.repeats = 2;
  cfg.faults = plan;
  const SensitivityEngine engine(cfg);

  const hybridmem::Placement all_fast(trace.key_count(),
                                      hybridmem::NodeId::kFast);
  const hybridmem::Placement all_slow(trace.key_count(),
                                      hybridmem::NodeId::kSlow);
  const std::vector<CampaignCell> cells = {
      {all_fast, 0}, {all_slow, 0}, {all_fast, 1}, {all_slow, 1}};

  CampaignRunner runner(threads);
  const CampaignResult result = runner.run_checked(engine, trace, cells);

  std::ostringstream out;
  for (std::size_t i = 0; i < result.measurements.size(); ++i) {
    out << "cell " << i << " ";
    if (result.measurements[i].has_value()) {
      serialize(out, *result.measurements[i]);
    } else {
      out << "quarantined";
    }
    out << "\n";
  }
  for (const CellFailure& f : result.failures) {
    out << "failure cell=" << f.cell << " fast_keys=" << f.fast_keys
        << " repeat=" << f.repeat << " attempts=" << f.attempts
        << " code=" << static_cast<int>(f.error.code)
        << " faults=" << f.faults.transient_faults << ","
        << f.faults.transient_retries << "," << f.faults.transient_failures
        << "," << f.faults.poison_hits << "," << f.faults.degraded_accesses
        << "\n";
  }
  return out.str();
}

/// Retry campaign: a transient-fault rate at which an all-SlowMem cell
/// absorbs zero events on some attempts and not on others, so the grid
/// mixes first-try accepts, retry accepts and quarantines on every store.
/// Which cells survive, and the ledger's retry fault counters, pin the
/// attempt-1 replay to bytes.
std::string retry_snapshot(const workload::Trace& trace,
                           std::size_t threads) {
  std::ostringstream out;
  for (const kvstore::StoreKind store :
       {kvstore::StoreKind::kVermilion, kvstore::StoreKind::kCachet,
        kvstore::StoreKind::kDynaStore}) {
    SensitivityConfig cfg;
    cfg.store = store;
    cfg.repeats = 1;
    cfg.faults.transient_read_rate = 1e-3;
    const SensitivityEngine engine(cfg);
    const hybridmem::Placement all_slow(trace.key_count(),
                                        hybridmem::NodeId::kSlow);
    std::vector<CampaignCell> cells;
    for (int r = 0; r < 8; ++r) cells.push_back({all_slow, r});

    CampaignRunner runner(threads);
    const CampaignResult result = runner.run_checked(engine, trace, cells);
    for (std::size_t i = 0; i < result.measurements.size(); ++i) {
      out << kvstore::to_string(store) << " cell " << i << " ";
      if (result.measurements[i].has_value()) {
        serialize(out, *result.measurements[i]);
      } else {
        out << "quarantined";
      }
      out << "\n";
    }
    for (const CellFailure& f : result.failures) {
      out << kvstore::to_string(store) << " failure cell=" << f.cell
          << " attempts=" << f.attempts
          << " code=" << static_cast<int>(f.error.code)
          << " faults=" << f.faults.transient_faults << ","
          << f.faults.transient_retries << ","
          << f.faults.transient_failures << "," << f.faults.poison_hits
          << "," << f.faults.degraded_accesses << "\n";
    }
  }
  return out.str();
}

std::string fixture_path(const std::string& name) {
  return std::string(MNEMO_FIXTURE_DIR) + "/" + name;
}

std::string read_fixture(const std::string& name) {
  std::ifstream file(fixture_path(name));
  std::stringstream ss;
  ss << file.rdbuf();
  return ss.str();
}

/// Computes the snapshot at every thread count, requires thread-count
/// invariance, then pins against (or, in write mode, regenerates) the
/// fixture.
void check_golden(const std::string& name,
                  const std::function<std::string(std::size_t)>& snapshot) {
  const std::string serial = snapshot(1);
  ASSERT_FALSE(serial.empty());
  for (const std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    EXPECT_EQ(serial, snapshot(threads))
        << name << ": result depends on thread count " << threads;
  }
  if (std::getenv("MNEMO_WRITE_GOLDEN") != nullptr) {
    std::ofstream file(fixture_path(name));
    file << serial;
    ASSERT_TRUE(file.good()) << "cannot write " << fixture_path(name);
    GTEST_SKIP() << "regenerated " << fixture_path(name);
  }
  const std::string golden = read_fixture(name);
  ASSERT_FALSE(golden.empty())
      << "missing fixture " << fixture_path(name)
      << " — generate with MNEMO_WRITE_GOLDEN=1";
  EXPECT_EQ(golden, serial) << name
                            << ": simulated results diverged from the "
                               "pre-refactor golden";
}

TEST(GoldenReplay, SweepByteIdenticalAcrossThreadCountsAndRefactors) {
  const workload::Trace trace = golden_trace();
  check_golden("golden_sweep.txt", [&](std::size_t threads) {
    return sweep_snapshot(trace, threads);
  });
}

TEST(GoldenReplay, DegradedCampaignByteIdenticalWithLedger) {
  const workload::Trace trace = golden_trace();
  check_golden("golden_degraded.txt", [&](std::size_t threads) {
    return degraded_snapshot(trace, threads, kvstore::StoreKind::kVermilion);
  });
}

TEST(GoldenReplay, DegradedCachetCampaignByteIdenticalWithLedger) {
  const workload::Trace trace = golden_trace();
  check_golden("golden_degraded_cachet.txt", [&](std::size_t threads) {
    return degraded_snapshot(trace, threads, kvstore::StoreKind::kCachet);
  });
}

TEST(GoldenReplay, RetryCampaignByteIdenticalAcrossStores) {
  const workload::Trace trace = golden_trace();
  check_golden("golden_retry.txt", [&](std::size_t threads) {
    return retry_snapshot(trace, threads);
  });
}

TEST(GoldenReplay, DegradedDynaStoreCampaignByteIdenticalWithLedger) {
  const workload::Trace trace = golden_trace();
  check_golden("golden_degraded_dynastore.txt", [&](std::size_t threads) {
    return degraded_snapshot(trace, threads, kvstore::StoreKind::kDynaStore);
  });
}

}  // namespace
}  // namespace mnemo::core
