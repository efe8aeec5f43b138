#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "core/sensitivity_engine.hpp"
#include "hybridmem/placement.hpp"
#include "util/status.hpp"

namespace mnemo::util {
class Arena;
}

namespace mnemo::workload {
class CompiledTrace;
}

namespace mnemo::core {

/// The campaign executor (DESIGN.md §14): one pass over the shared
/// CompiledTrace advances K independent per-cell state machines —
/// K deployments (HybridMemory + DualServer), K latency streams, K fault
/// injectors — so the op-stream decode, the key-hash/digest hint loads
/// and the fault-plan lookups are paid once per op instead of once per
/// op per cell, and the op/key streams stay cache-resident across lanes.
/// CampaignRunner replays every campaign cell through here, a quarantine
/// retry included; a one-lane band is the per-cell schedule.
///
/// Bit-identity with the per-cell reference replay is structural, not
/// statistical: each lane's state machine executes exactly the instruction
/// sequence SensitivityEngine::try_run_once would — same construction
/// order, same seeds, same per-op store calls, same sequential float
/// accumulation per lane — the lanes are only *interleaved*, and no state
/// is shared between them. One deliberate exception rides on top: lanes
/// in the same band that share a placement and differ only in `repeat`
/// ("repeat siblings") run identical deterministic state machines, so
/// the lowest-repeat sibling acts as leader and records the pre-noise
/// service time of every op; each follower then replays that skeleton
/// through its own per-repeat ServiceNoise streams, reproducing its
/// per-cell result bit-for-bit at a fraction of the cost. The sharing
/// self-disables whenever it could diverge: any armed fault plan, any
/// leader eviction/TTL-expiration, or a leader error sends followers
/// back to ordinary full replay. The per-lane statistics tail is exact
/// too: its sums are the reference's addition chains, its histogram bins
/// come from an exact prefix table, and its p95/p99 are selected, not
/// estimated (DESIGN.md §14). tests/core/test_lane_fusion.cpp pins every
/// lane against the reference replay across lane widths, thread counts,
/// stores and fault plans.
class LaneBand {
 public:
  /// Hard cap on lanes per band: bounds the per-band stack state and the
  /// fixed-width SIMD scratch. CampaignRunner clamps its lane width here.
  static constexpr std::size_t kMaxLanes = 16;
  /// Default band width — wide enough to amortize decode and fill an
  /// AVX2 vector, narrow enough to keep K deployments cache-friendly.
  static constexpr std::size_t kDefaultLanes = 4;

  /// One lane = one campaign cell replaying under this band. `arena` may
  /// be null (heap allocation); when set it must be freshly reset and is
  /// exclusively this lane's for the duration of replay(). The arena is an
  /// allocation strategy, never a behaviour change.
  struct Lane {
    const hybridmem::Placement* placement = nullptr;
    int repeat = 0;
    int attempt = 0;
    util::Arena* arena = nullptr;
  };

  /// Replay every lane in one pass. `out[i]` receives exactly what
  /// engine.try_run_once(trace, *lanes[i].placement, lanes[i].repeat,
  /// lanes[i].attempt) would return for the trace `compiled` was built
  /// from — including typed errors: a lane that fails (populate capacity,
  /// zero-runtime guard) carries its error while the surviving lanes
  /// complete the pass.
  /// Requires 1 <= lanes.size() <= kMaxLanes and out.size() ==
  /// lanes.size().
  static void replay(
      const SensitivityEngine& engine,
      const workload::CompiledTrace& compiled, std::span<const Lane> lanes,
      std::span<std::optional<util::Result<RunMeasurement>>> out);
};

}  // namespace mnemo::core
