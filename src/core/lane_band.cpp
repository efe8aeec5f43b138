#include "core/lane_band.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory_resource>
#include <optional>
#include <span>
#include <vector>

#include "core/replay_internal.hpp"
#include "hybridmem/hybrid_memory.hpp"
#include "stats/log_histogram.hpp"
#include "kvstore/dual_server.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"
#include "workload/compiled_trace.hpp"

namespace mnemo::core {

namespace {

constexpr std::size_t kSelf = static_cast<std::size_t>(-1);

/// Struct-of-arrays lane state: one complete per-cell replay world. The
/// member order is load-bearing — `servers` references `memory`, so
/// `memory` must outlive it (members destroy in reverse order).
struct LaneState {
  std::optional<hybridmem::HybridMemory> memory;
  std::optional<kvstore::DualServer> servers;
  /// Leader-only: each op's deterministic pre-noise service time, recorded
  /// through the kvstore skeleton tap for sibling lanes to replay.
  std::optional<std::pmr::vector<double>> skeleton;
  double* tap = nullptr;  ///< skeleton write cursor, shared by fast+slow
  std::optional<std::pmr::vector<double>> lat;  ///< flat per-op service ns
  RunMeasurement m;
  std::pmr::memory_resource* cell_memory = nullptr;
  std::size_t leader = kSelf;  ///< skeleton source; kSelf = replays fully
  bool active = false;
};

/// The per-lane StoreConfig, exactly as a per-cell try_run_once deployment
/// would build it (the repeat perturbs the noise seed only).
[[nodiscard]] kvstore::StoreConfig lane_store_config(
    const SensitivityConfig& cfg, const LaneBand::Lane& lane,
    std::pmr::memory_resource* memory) {
  kvstore::StoreConfig store_cfg;
  store_cfg.payload_mode = cfg.payload_mode;
  store_cfg.seed =
      cfg.seed + static_cast<std::uint64_t>(lane.repeat) * 0x9e37;
  store_cfg.table_memory = memory;
  return store_cfg;
}

/// Evictions and lazy TTL expirations are the only store behaviours whose
/// outcome can depend on the per-repeat seed (Vermilion samples eviction
/// victims from a seeded rng) or on the store's noisy clock (TTL
/// deadlines) — and each one leaves a counter behind. All-zero counters on
/// the leader prove its deterministic skeleton is repeat-invariant; the
/// triggers themselves (capacity pressure, TTL stamps) are seed-free, so a
/// sibling's full replay could not have taken a path the leader did not.
[[nodiscard]] std::uint64_t structural_divergence_events(
    const kvstore::DualServer& servers) {
  const kvstore::StoreStats& f = servers.fast().stats();
  const kvstore::StoreStats& s = servers.slow().stats();
  return f.evictions + s.evictions + f.expirations + s.expirations;
}

/// `value` where `mask` is all ones, +0.0 where it is zero.
[[nodiscard]] double masked(double value, std::uint64_t mask) noexcept {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(value) & mask);
}

/// A lane's statistics tail: the same RunMeasurement the reference
/// replay's derive_measurement yields from its per-class vectors, from one
/// pass over the flat service times in request order plus a selection
/// among the few values the pass's bin counts locate.
///
/// The pass keeps both classes' sums and picks each op's contribution
/// with a bit mask, not a branch: the other class's chains add +0.0, which
/// leaves any sum but -0.0 unchanged, and a chain that starts at +0.0
/// never holds -0.0 under round-to-nearest (an exact zero sum is +0.0).
/// So every chain is the one the reference adds, term for term, and the
/// means and fits are the same doubles. The same pass counts the values
/// per stats::LogHistogram bin; the histogram is summed from those counts,
/// which also locate the exact p95/p99 (LogHistogram::exact_quantiles).
[[nodiscard]] util::Status derive_lane_measurement(
    RunMeasurement& m, const workload::CompiledTrace& compiled,
    std::span<const double> lat, std::pmr::memory_resource* scratch) {
  const workload::OpType* ops = compiled.ops().data();
  const double* read_bytes = compiled.read_bytes().data();
  const double* write_bytes = compiled.write_bytes().data();
  const stats::LogHistogram::PrefixIndex& index =
      stats::LogHistogram::prefix_index();
  std::pmr::vector<std::uint32_t> bins(
      stats::LogHistogram::PrefixIndex::kBins, scratch);
  replay_detail::ClassSums read{compiled.read_count()};
  replay_detail::ClassSums write{compiled.write_count()};
  std::size_t next_read = 0;
  std::size_t next_write = 0;
  for (std::size_t i = 0; i < lat.size(); ++i) {
    const std::uint64_t is_write = ops[i] != workload::OpType::kRead;
    const std::uint64_t write_mask = 0 - is_write;
    const double y = lat[i];
    const double* bytes[2] = {read_bytes + next_read, write_bytes + next_write};
    const double xy = *bytes[is_write] * y;
    next_read += 1 - is_write;
    next_write += is_write;
    read.sum_y += masked(y, ~write_mask);
    read.sum_xy += masked(xy, ~write_mask);
    write.sum_y += masked(y, write_mask);
    write.sum_xy += masked(xy, write_mask);
    ++bins[index.bin(y)];
  }
  m.reads = read.n;
  m.writes = write.n;
  m.avg_read_ns =
      read.n == 0 ? 0.0 : read.sum_y / static_cast<double>(read.n);
  m.avg_write_ns =
      write.n == 0 ? 0.0 : write.sum_y / static_cast<double>(write.n);
  m.read_vs_bytes = replay_detail::fit_service_line(compiled.read_fit(), read);
  m.write_vs_bytes =
      replay_detail::fit_service_line(compiled.write_fit(), write);
  if (util::Status rates = replay_detail::derive_rates(m); !rates.ok()) {
    return rates;
  }
  const stats::LogHistogram::BinCounts bin_counts(bins.data(), bins.size());
  m.latency_hist.add_bins(bin_counts);
  constexpr std::array<double, 2> kTails = {0.95, 0.99};
  std::array<double, 2> tails{};
  stats::LogHistogram::exact_quantiles(lat, bin_counts, kTails, tails,
                                       scratch);
  m.p95_ns = tails[0];
  m.p99_ns = tails[1];
  return {};
}

}  // namespace

void LaneBand::replay(
    const SensitivityEngine& engine, const workload::CompiledTrace& compiled,
    std::span<const Lane> lanes,
    std::span<std::optional<util::Result<RunMeasurement>>> out) {
  const std::size_t k = lanes.size();
  MNEMO_EXPECTS(k >= 1 && k <= kMaxLanes);
  MNEMO_EXPECTS(out.size() == k);

  if (compiled.request_count() == 0) {
    for (std::size_t l = 0; l < k; ++l) {
      out[l] = replay_detail::empty_trace_error();
    }
    return;
  }

  const SensitivityConfig& cfg = engine.config();
  // The platform depends only on the dataset, never on the lane, so the
  // sizing is hoisted out of the lane loop (same value as per-cell).
  const hybridmem::EmulationProfile platform =
      engine.sized_platform(compiled.dataset_bytes());
  const workload::CompiledTrace::ReplayCursor cur = compiled.cursor();

  std::array<LaneState, kMaxLanes> lane_state;

  // --- repeat-sibling detection ----------------------------------------
  // Lanes with identical placements replay the same deterministic state
  // machine: routing, index walks, LLC hits/misses and capacity accounting
  // depend on the op/key streams and the placement, never on the per-repeat
  // seed, which feeds only the service-noise rng. The first such lane
  // becomes the group leader; it records the skeleton of pre-noise service
  // times its siblings then replay through their own noise streams
  // (DESIGN.md §14). Fault plans are placement-crossing (a poisoned read
  // remaps its key mid-run), so any armed plan disables sharing and every
  // lane replays fully.
  std::array<bool, kMaxLanes> leads_group{};
  if (cfg.faults.empty()) {
    for (std::size_t i = 1; i < k; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (lane_state[j].leader != kSelf) continue;  // followers can't lead
        if (lanes[j].placement == lanes[i].placement ||
            *lanes[j].placement == *lanes[i].placement) {
          lane_state[i].leader = j;
          leads_group[j] = true;
          break;
        }
      }
    }
  }

  // --- lane setup: followers get only measurement buffers; every other
  // lane builds its deployment exactly like try_run_once would, on its
  // own arena -----------------------------------------------------------
  auto setup_full = [&](std::size_t l) -> bool {
    LaneState& s = lane_state[l];
    const Lane& lane = lanes[l];
    s.memory.emplace(platform, s.cell_memory);
    s.servers.emplace(*s.memory, cfg.store,
                      lane_store_config(cfg, lane, s.cell_memory));
    {
      util::Status loaded = s.servers->populate(compiled, *lane.placement);
      if (!loaded.ok()) {
        out[l] = loaded.error();
        return false;
      }
    }
    s.memory->drop_caches();
    // Per-lane fault counters: each lane's injector is seeded from its
    // own (repeat, attempt), untouched by what any other lane absorbs.
    if (!cfg.faults.empty()) {
      s.memory->arm_faults(
          cfg.faults, (static_cast<std::uint64_t>(lane.repeat) << 16) +
                          static_cast<std::uint64_t>(lane.attempt));
    }
    s.active = true;
    return true;
  };

  for (std::size_t l = 0; l < k; ++l) {
    LaneState& s = lane_state[l];
    s.cell_memory =
        lanes[l].arena != nullptr
            ? static_cast<std::pmr::memory_resource*>(lanes[l].arena)
            : std::pmr::get_default_resource();
    s.lat.emplace(s.cell_memory);
    s.lat->resize(compiled.request_count());
    s.m.requests = compiled.request_count();
    if (s.leader != kSelf) {
      s.active = true;  // resolved from its leader's skeleton below
      continue;
    }
    if (!setup_full(l)) continue;
    if (leads_group[l]) {
      s.skeleton.emplace(s.cell_memory);
      s.skeleton->resize(cur.size);
      s.tap = s.skeleton->data();
      s.servers->fast().set_skeleton_tap(&s.tap);
      s.servers->slow().set_skeleton_tap(&s.tap);
    }
  }

  // One lane's pass over ops [base, end): exactly the per-cell replay loop.
  // Service times land in a flat per-lane array (unconditional store, no
  // branch, no growth check); the per-class sums, the histogram and the
  // percentile tail all come out of derive_lane_measurement once the lane
  // is done, instead of a log10 and two branches per op here.
  // runtime is carried through a register: the same single sequential
  // addition chain try_run_once's `m.runtime_ns +=` performs, so the total
  // is bit-identical.
  auto run_range = [&](std::size_t l, std::size_t base, std::size_t end) {
    LaneState& s = lane_state[l];
    kvstore::DualServer& servers = *s.servers;
    double* lat = s.lat->data();
    double runtime = s.m.runtime_ns;
    for (std::size_t i = base; i < end; ++i) {
      const workload::CompiledTrace::ReplayCursor::Decoded d = cur.decode(i);
      const kvstore::KeyHints hints{d.hash, d.digest};
      const util::Result<kvstore::OpResult> served =
          servers.execute(d.op, d.key, hints);
      if (!served.ok()) {
        // The lane dies exactly where the per-cell run would have
        // returned; the other lanes keep replaying.
        out[l] = served.error();
        s.active = false;
        break;
      }
      const kvstore::OpResult r = served.value();
      MNEMO_ASSERT(r.ok && "all requested keys were populated");
      runtime += r.service_ns;
      lat[i] = r.service_ns;
    }
    s.m.runtime_ns = runtime;
  };

  // --- the fused pass: block-interleaved full lanes over one decode -----
  // Lanes advance in blocks of kBlock ops: lane 0 executes ops
  // [base, base+kBlock), then lane 1 the same ops, and so on. Each lane's
  // instruction sequence is exactly the per-cell one (only the
  // interleaving across lanes differs), its store/LLC working set stays
  // cache-resident for a whole block, and the op/key/hash/digest streams —
  // pulled from memory by the first lane of each block — are served to the
  // remaining lanes out of cache.
  constexpr std::size_t kBlock = 4096;
  for (std::size_t base = 0; base < cur.size; base += kBlock) {
    const std::size_t end = std::min(base + kBlock, cur.size);
    for (std::size_t l = 0; l < k; ++l) {
      LaneState& s = lane_state[l];
      if (!s.active || s.leader != kSelf) continue;
      run_range(l, base, end);
    }
  }
  for (std::size_t l = 0; l < k; ++l) {
    LaneState& s = lane_state[l];
    if (s.tap == nullptr || !s.servers) continue;
    s.servers->fast().set_skeleton_tap(nullptr);
    s.servers->slow().set_skeleton_tap(nullptr);
    MNEMO_ASSERT((!s.active || s.tap == s.skeleton->data() + cur.size) &&
                 "one skeleton entry per replayed op");
  }

  // --- resolve followers: replay the leader's skeleton through the
  // sibling's own noise streams -----------------------------------------
  for (std::size_t l = 0; l < k; ++l) {
    LaneState& s = lane_state[l];
    if (s.leader == kSelf) continue;
    const LaneState& ls = lane_state[s.leader];
    if (!ls.active || structural_divergence_events(*ls.servers) != 0) {
      // The leader died (its sibling would die identically — reproduce the
      // exact error) or its run took a seed-dependent path: fall back to
      // an ordinary full replay of this lane, exactly what per-cell does.
      s.leader = kSelf;
      if (!setup_full(l)) continue;
      run_range(l, 0, cur.size);
      continue;
    }
    // The sibling's noise streams, reproduced instance-exactly: same
    // profile resolution, same seeds, same rng type as its own deployment
    // would construct (kvstore::ServiceNoise::for_instance is the one
    // definition both paths share).
    const kvstore::StoreConfig base_cfg =
        lane_store_config(cfg, lanes[l], nullptr);
    kvstore::StoreConfig slow_cfg = base_cfg;
    slow_cfg.seed ^= kvstore::DualServer::kSlowSeedMix;
    kvstore::ServiceNoise fast_noise =
        kvstore::ServiceNoise::for_instance(base_cfg, cfg.store);
    kvstore::ServiceNoise slow_noise =
        kvstore::ServiceNoise::for_instance(slow_cfg, cfg.store);
    // Populate advances each instance's stream by one draw per loaded key
    // (DualServer::populate finalizes one put per key, in key order, routed
    // by the placement): replay that consumption so the streams enter the
    // measured run in the exact state the sibling's own deployment would.
    const hybridmem::Placement& placement = *lanes[l].placement;
    const std::uint64_t initial = compiled.initial_key_count();
    for (std::uint64_t key = 0; key < initial; ++key) {
      (placement.node_of(key) == hybridmem::NodeId::kFast ? fast_noise
                                                          : slow_noise)
          .apply(0.0);
    }
    const double* skeleton = ls.skeleton->data();
    double* lat = s.lat->data();
    double runtime = s.m.runtime_ns;
    for (std::size_t i = 0; i < cur.size; ++i) {
      const bool fast =
          placement.node_of(cur.keys[i]) == hybridmem::NodeId::kFast;
      const double service =
          (fast ? fast_noise : slow_noise).apply(skeleton[i]);
      runtime += service;
      lat[i] = service;
    }
    s.m.runtime_ns = runtime;
  }

  // --- per-lane epilogue: the statistics tail --------------------------
  for (std::size_t l = 0; l < k; ++l) {
    LaneState& s = lane_state[l];
    if (!s.active) continue;
    const util::Status derived = derive_lane_measurement(
        s.m, compiled, std::span<const double>(s.lat->data(), cur.size),
        s.cell_memory);
    if (!derived.ok()) {
      out[l] = derived.error();
      continue;
    }
    // A skeleton-replayed lane's platform counters live on its leader's
    // deployment; the values are structurally identical (LLC decisions and
    // the absence of faults are placement functions, not seed functions).
    const LaneState& platform_state =
        s.leader == kSelf ? s : lane_state[s.leader];
    s.m.llc_hit_rate = platform_state.memory->llc().hit_rate();
    s.m.faults = platform_state.memory->fault_stats();
    out[l] = s.m;
  }
}

}  // namespace mnemo::core
