#pragma once

#include <cstdint>

#include "core/baselines.hpp"
#include "faultinject/fault_plan.hpp"
#include "hybridmem/emulation_profile.hpp"
#include "hybridmem/placement.hpp"
#include "kvstore/kvstore.hpp"
#include "kvstore/service_profile.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "util/task_scheduler.hpp"
#include "workload/trace.hpp"

namespace mnemo::core {

/// Configuration of a measurement campaign: which store architecture, on
/// which emulated platform, how many repeated runs per configuration.
struct SensitivityConfig {
  kvstore::StoreKind store = kvstore::StoreKind::kVermilion;
  hybridmem::EmulationProfile platform;  ///< default: paper testbed
  kvstore::PayloadMode payload_mode = kvstore::PayloadMode::kSynthetic;
  int repeats = 3;       ///< paper: "mean of multiple experiment runs"
  std::uint64_t seed = 0xbea5;
  /// Worker threads for the {placement × repeat} measurement campaigns
  /// behind measure()/baselines(); 0 = hardware concurrency, 1 = serial.
  /// Results are bit-identical at any thread count (see core/campaign).
  std::size_t threads = 0;
  /// Deterministic fault plan armed on every deployment the engine builds
  /// (DESIGN.md §7). Empty = healthy platform; the default.
  faultinject::FaultPlan faults;
  /// Optional cooperative cancellation for the campaigns the engine fans
  /// out (not owned; must outlive the engine's calls). Checked between
  /// campaign cells; never hashed into cache keys — a request's deadline
  /// does not change what the answer *is*, only whether it finishes.
  const util::CancelToken* cancel = nullptr;
  /// Optional shared executor for the campaigns (not owned; must outlive
  /// the engine's calls). When set, cells run as tasks of `group` (or of
  /// a transient group) instead of on a private pool — the serve layer
  /// threads its global scheduler through here so every request's cells
  /// interleave under one fairness policy. Never changes results.
  util::TaskScheduler* scheduler = nullptr;
  util::TaskScheduler::Group* group = nullptr;

  SensitivityConfig();
};

/// The paper's Sensitivity Engine: a customized YCSB client that executes
/// the actual workload against the dual-server deployment and extracts
/// client-side performance — total runtime, throughput, average read and
/// write response times, and tail latencies. Runs the two extreme
/// placements to establish the baselines that bound the estimation curve,
/// and arbitrary placements for validation sweeps.
class SensitivityEngine {
 public:
  explicit SensitivityEngine(SensitivityConfig config);

  /// Execute the trace once against a fresh deployment with the given
  /// placement (seed-shifted by `repeat`), returning the client view.
  /// Asserting wrapper over try_run_once for healthy-platform callers.
  /// Campaigns replay through core::LaneBand instead; this per-cell replay
  /// of the raw Trace is the independent reference it is tested against.
  [[nodiscard]] RunMeasurement run_once(
      const workload::Trace& trace, const hybridmem::Placement& placement,
      int repeat = 0) const;

  /// Fault-aware variant: arms config().faults on the deployment (fault
  /// stream derived from repeat and `attempt`, store seeds untouched — a
  /// retry redraws the fault sequence, never the workload service noise)
  /// and returns a typed error instead of aborting when the run fails.
  /// The measurement's `faults` counters report every event absorbed.
  [[nodiscard]] util::Result<RunMeasurement> try_run_once(
      const workload::Trace& trace, const hybridmem::Placement& placement,
      int repeat = 0, int attempt = 0) const;

  /// Mean of `repeats` runs for one placement, fanned out as a
  /// measurement campaign over config().threads workers.
  [[nodiscard]] RunMeasurement measure(
      const workload::Trace& trace,
      const hybridmem::Placement& placement) const;

  /// The two extreme configurations: all-FastMem and all-SlowMem, run as
  /// one 2×repeats campaign so both baselines measure concurrently.
  [[nodiscard]] PerfBaselines baselines(const workload::Trace& trace) const;

  [[nodiscard]] const SensitivityConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Node capacity big enough for the dataset plus engine overhead so
  /// either extreme placement fits on one node.
  [[nodiscard]] hybridmem::EmulationProfile sized_platform(
      std::uint64_t dataset_bytes) const;

  /// The campaign executor (core/lane_band) replays K cells per trace
  /// pass; it builds each lane's deployment exactly like try_run_once, so
  /// it needs the same platform-sizing internals.
  friend class LaneBand;

  SensitivityConfig config_;
};

}  // namespace mnemo::core
