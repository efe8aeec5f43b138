#include "core/sensitivity_engine.hpp"

#include <algorithm>
#include <vector>

#include "core/campaign.hpp"
#include "core/replay_internal.hpp"
#include "hybridmem/hybrid_memory.hpp"
#include "kvstore/dual_server.hpp"
#include "stats/summary.hpp"
#include "util/assert.hpp"

namespace mnemo::core {

SensitivityConfig::SensitivityConfig()
    : platform(hybridmem::paper_testbed()) {}

// The statistics tail (derive_measurement) and the guards it shares with
// the lane-fused campaign executor live in replay_internal.hpp.
using replay_detail::derive_measurement;
using replay_detail::empty_trace_error;

SensitivityEngine::SensitivityEngine(SensitivityConfig config)
    : config_(std::move(config)) {
  MNEMO_EXPECTS(config_.repeats >= 1);
}

hybridmem::EmulationProfile SensitivityEngine::sized_platform(
    std::uint64_t dataset_bytes) const {
  hybridmem::EmulationProfile platform = config_.platform;
  // Headroom for index/journal overhead and slab rounding: 2x dataset.
  const std::uint64_t need =
      std::max<std::uint64_t>(dataset_bytes * 2, 64ULL * 1024 * 1024);
  platform.fast.capacity_bytes =
      std::max(platform.fast.capacity_bytes, need);
  platform.slow.capacity_bytes =
      std::max(platform.slow.capacity_bytes, need);
  return platform;
}

RunMeasurement SensitivityEngine::run_once(
    const workload::Trace& trace, const hybridmem::Placement& placement,
    int repeat) const {
  util::Result<RunMeasurement> run = try_run_once(trace, placement, repeat);
  MNEMO_ASSERT(run.ok() && "run_once requires a run that cannot fail");
  return run.value();
}

util::Result<RunMeasurement> SensitivityEngine::try_run_once(
    const workload::Trace& trace, const hybridmem::Placement& placement,
    int repeat, int attempt) const {
  if (trace.requests().empty()) return empty_trace_error();
  hybridmem::HybridMemory memory(sized_platform(trace.dataset_bytes()));

  kvstore::StoreConfig store_cfg;
  store_cfg.payload_mode = config_.payload_mode;
  store_cfg.seed = config_.seed + static_cast<std::uint64_t>(repeat) * 0x9e37;

  kvstore::DualServer servers(memory, config_.store, store_cfg);
  {
    util::Status loaded = servers.populate(trace, placement);
    if (!loaded.ok()) return loaded.error();
  }
  // The load phase should not pollute the measurement's cache state.
  memory.drop_caches();
  // Faults model degradation of the production serving window; the load
  // phase runs healthy, so a populate failure is always a genuine capacity
  // error. The stream folds in `attempt` so a quarantine retry redraws the
  // fault sequence while the store's service-jitter seed stays fixed.
  if (!config_.faults.empty()) {
    memory.arm_faults(config_.faults,
                      (static_cast<std::uint64_t>(repeat) << 16) +
                          static_cast<std::uint64_t>(attempt));
  }

  std::vector<double> read_lat;
  std::vector<double> write_lat;
  std::vector<double> read_bytes;
  std::vector<double> write_bytes;
  // The read/write split is unknown until the loop runs; full-length
  // reserves trade a little address space for zero growth reallocations.
  read_lat.reserve(trace.requests().size());
  write_lat.reserve(trace.requests().size());
  read_bytes.reserve(trace.requests().size());
  write_bytes.reserve(trace.requests().size());

  RunMeasurement m;
  m.requests = trace.requests().size();
  for (const workload::Request& req : trace.requests()) {
    const util::Result<kvstore::OpResult> served = servers.execute(req);
    if (!served.ok()) return served.error();
    const kvstore::OpResult r = served.value();
    MNEMO_ASSERT(r.ok && "all requested keys were populated");
    m.runtime_ns += r.service_ns;
    const auto bytes = static_cast<double>(trace.size_of(req.key));
    m.latency_hist.add(r.service_ns);
    if (req.op == workload::OpType::kRead) {
      read_lat.push_back(r.service_ns);
      read_bytes.push_back(bytes);
    } else {
      // Updates and inserts are both writes to the store.
      write_lat.push_back(r.service_ns);
      write_bytes.push_back(bytes);
    }
  }
  const util::Status derived =
      derive_measurement(m, read_bytes, write_bytes, read_lat, write_lat);
  if (!derived.ok()) return derived.error();
  m.llc_hit_rate = memory.llc().hit_rate();
  m.faults = memory.fault_stats();
  return m;
}

RunMeasurement SensitivityEngine::measure(
    const workload::Trace& trace,
    const hybridmem::Placement& placement) const {
  CampaignRunner runner(config_.threads, config_.cancel, config_.scheduler,
                        config_.group);
  return runner.measure_grid(*this, trace, {placement}).front();
}

PerfBaselines SensitivityEngine::baselines(
    const workload::Trace& trace) const {
  CampaignRunner runner(config_.threads, config_.cancel, config_.scheduler,
                        config_.group);
  const std::vector<RunMeasurement> merged = runner.measure_grid(
      *this, trace,
      {hybridmem::Placement(trace.key_count(), hybridmem::NodeId::kFast),
       hybridmem::Placement(trace.key_count(), hybridmem::NodeId::kSlow)});
  PerfBaselines b;
  b.fast = merged[0];
  b.slow = merged[1];
  return b;
}

}  // namespace mnemo::core
