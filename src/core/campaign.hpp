#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lane_band.hpp"
#include "core/sensitivity_engine.hpp"
#include "faultinject/fault_plan.hpp"
#include "hybridmem/placement.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "util/task_scheduler.hpp"
#include "workload/trace.hpp"

namespace mnemo::core {

/// One cell of a measurement grid: execute `placement` once with the
/// engine's seed shifted by `repeat` (exactly what run_once does).
struct CampaignCell {
  hybridmem::Placement placement;
  int repeat = 0;
};

/// Ledger entry for a campaign cell quarantined by the fault-injection
/// campaign: the cell either errored out (typed error preserved) or its
/// measurement absorbed fault events — meaning it is *not* bit-identical
/// to the fault-free platform — on both the first run and the one retry.
struct CellFailure {
  std::size_t cell = 0;       ///< index into the campaign's cell vector
  std::size_t fast_keys = 0;  ///< identifies the placement of the cell
  int repeat = 0;             ///< seed shift of the cell
  int attempts = 0;           ///< runs consumed (first try + retries)
  util::Error error;          ///< why the final attempt was rejected
  faultinject::FaultStats faults;  ///< events the final attempt absorbed

  [[nodiscard]] bool operator==(const CellFailure&) const = default;
};

/// Outcome of a checked (fault-aware) campaign: one slot per cell, where a
/// quarantined cell is nullopt and described in `failures` instead. Every
/// populated measurement is bit-identical to the fault-free campaign's —
/// that is the acceptance rule, not a best effort (see run_checked).
struct CampaignResult {
  std::vector<std::optional<RunMeasurement>> measurements;  ///< cell order
  std::vector<CellFailure> failures;                        ///< cell order

  [[nodiscard]] bool partial() const noexcept { return !failures.empty(); }
};

/// Render the quarantine ledger as a util::table (one row per cell).
[[nodiscard]] std::string render_failure_ledger(
    const std::vector<CellFailure>& failures);

/// Timing/occupancy accounting of a measurement campaign. All numbers are
/// real wall-clock of the *tool itself* (like Table IV), never the
/// simulated clock, so they are safe to print without perturbing results.
struct CampaignStats {
  std::size_t cells = 0;    ///< simulation runs fanned out
  std::size_t threads = 0;  ///< workers the fan-out used
  double wall_s = 0.0;      ///< end-to-end wall time of the campaign
  double cpu_s = 0.0;       ///< sum of per-cell wall times
  double cell_p50_s = 0.0;  ///< median cell duration
  double cell_p95_s = 0.0;  ///< p95 cell duration
  /// Lanes per band this campaign's partition used (1 = one cell per
  /// band): the runner's lane_width() cap, shaped by the cell and worker
  /// counts. Max-merged: the widest band any merged campaign used.
  std::size_t lane_width = 0;
  /// High-water mark of any single lane arena's bytes_allocated() across
  /// the campaign — the footprint one lane of replay needs from its band's
  /// arena kit. Max-merged; 0 when the campaign had no cells.
  std::size_t arena_peak_bytes = 0;

  /// cpu / wall: average number of cells in flight — the wall-clock
  /// speedup over running the same cells serially.
  [[nodiscard]] double speedup() const;

  /// speedup / threads: fraction of the worker pool kept busy.
  [[nodiscard]] double occupancy() const;

  /// Merge another campaign's accounting (wall times add: campaigns in
  /// one process run back to back, not concurrently).
  void merge(const CampaignStats& other);

  /// Render as a util::table (one metric per row).
  [[nodiscard]] std::string render(const std::string& title) const;
};

/// How a campaign's cells split into lane bands: `bands` runs of `width`
/// consecutive cells (the last one possibly shorter).
struct BandPartition {
  std::size_t width = 1;
  std::size_t bands = 0;

  [[nodiscard]] bool operator==(const BandPartition&) const = default;
};

/// Size of the repeat-sibling group a cell vector opens with: cell 0 plus
/// the cells right after it with `repeat != 0` — a repeat-major grid's
/// `repeats`, and 1 for any vector whose second cell starts a new group.
[[nodiscard]] std::size_t sibling_group(
    const std::vector<CampaignCell>& cells);

/// The band partition of `cells` cells in sibling groups of `group` on
/// `workers` workers, at most `cap` lanes per band (DESIGN.md §14). The
/// width grows in whole sibling groups, so siblings never straddle a band
/// edge and keep sharing their skeleton (a group wider than `cap` is split
/// anyway, and the width then grows by single cells). It starts at the
/// widest such width within `cap` and narrows, one group at a time, while
/// there are fewer bands than workers — never below one group. So at one
/// worker, or when the bands already outnumber the workers, the width is
/// the cap rounded down to whole groups. Lane width never changes results,
/// so neither does the worker count this reads.
[[nodiscard]] BandPartition partition_bands(std::size_t cells,
                                            std::size_t group,
                                            std::size_t workers,
                                            std::size_t cap);

/// The campaign runner: takes a set of (placement, repeat) cells, compiles
/// the trace once, partitions the cells into lane bands shaped by the cell
/// count and the worker count (partition_bands) and submits each band to a
/// util::TaskScheduler as one shared-nothing task that core::LaneBand
/// replays in a single pass (DESIGN.md §14). Each lane builds its own
/// deployment and seed-shifted RNG, and results are merged in the fixed
/// cell order — so aggregates are bit-identical to the serial path at any
/// thread count and lane width.
/// Every sweep-shaped feature (baselines, validation sweeps, sharding)
/// should go through here rather than hand-rolling a fan-out over
/// measurements.
class CampaignRunner {
 public:
  /// `threads` = 0 picks hardware concurrency; the fan-out never exceeds
  /// the band count. `cancel` (optional, not owned, must outlive the
  /// runner's calls) makes every run a cooperative cancellation point: the
  /// token is checked *between* bands — a band that has started always
  /// finishes, so the cells that did complete are bit-identical to an
  /// uncanceled campaign — and a canceled run throws util::CanceledError
  /// instead of returning, so partial grids can never flow into caches or
  /// artifacts.
  ///
  /// When `scheduler` is set the runner owns no workers at all: bands run
  /// as tasks of `group` (or of a transient group when `group` is null) on
  /// the shared scheduler, interleaved with every other campaign's bands
  /// under its fairness policy, while the calling thread cooperatively
  /// helps. Without a scheduler the runner spins up a transient one sized
  /// by `threads` (a plain serial loop when that is 1).
  explicit CampaignRunner(std::size_t threads = 0,
                          const util::CancelToken* cancel = nullptr,
                          util::TaskScheduler* scheduler = nullptr,
                          util::TaskScheduler::Group* group = nullptr);

  /// Execute every cell and return one measurement per cell, in cell
  /// order regardless of scheduling: run_checked with every cell required
  /// to be accepted (always so on a healthy platform, where the empty
  /// fault plan accepts every run on its first attempt).
  [[nodiscard]] std::vector<RunMeasurement> run(
      const SensitivityEngine& engine, const workload::Trace& trace,
      const std::vector<CampaignCell>& cells);

  /// The campaign executor every other entry point wraps. A cell is
  /// accepted only when its run succeeds AND absorbed zero fault events —
  /// the condition under which it is bit-identical to the fault-free
  /// campaign. A rejected cell is retried exactly once with an
  /// attempt-shifted fault stream (the workload seed never changes), then
  /// quarantined into the failure ledger while the remaining cells
  /// complete. With an empty plan every cell is accepted on the first
  /// attempt. Deterministic at any thread count.
  [[nodiscard]] CampaignResult run_checked(
      const SensitivityEngine& engine, const workload::Trace& trace,
      const std::vector<CampaignCell>& cells);

  /// Checked counterpart of measure_grid: each placement's repeats are
  /// averaged only if *every* repeat was accepted — a partial average
  /// would not be bit-identical to the fault-free grid, so one quarantined
  /// repeat quarantines the whole placement (nullopt slot). The failure
  /// ledger indexes cells of the underlying repeat-major grid.
  [[nodiscard]] CampaignResult measure_grid_checked(
      const SensitivityEngine& engine, const workload::Trace& trace,
      const std::vector<hybridmem::Placement>& placements);

  /// The {placement × repeat} grid behind measure()/baselines(): each
  /// placement runs engine.config().repeats times (repeat-major within a
  /// placement) and the repeats are averaged. Returns one merged
  /// measurement per placement, in placement order; every placement must
  /// be accepted, as in run().
  [[nodiscard]] std::vector<RunMeasurement> measure_grid(
      const SensitivityEngine& engine, const workload::Trace& trace,
      const std::vector<hybridmem::Placement>& placements);

  /// What measure_grid_checked_async hands its continuation: either the
  /// merged grid + accounting, or the exception the synchronous path
  /// would have thrown (util::CanceledError for canceled campaigns),
  /// preserved as-is so callers keep one error-mapping path.
  struct AsyncOutcome {
    std::exception_ptr error;  ///< null on success
    CampaignResult grid;       ///< one slot per placement (merged repeats)
    CampaignStats stats;
  };

  /// Continuation-based counterpart of measure_grid_checked for the serve
  /// scheduler: submits every band of the {placement × repeat} grid to
  /// `group` and returns immediately — no thread blocks on the campaign.
  /// After the last band settles, the merge runs as a kRequest task of
  /// the same group and invokes `done` exactly once with the outcome
  /// (bit-identical to what measure_grid_checked would have returned).
  /// `engine` is kept alive by the in-flight bands; `trace` must outlive
  /// `done`. `cancel` follows the same between-bands contract as the
  /// synchronous path.
  static void measure_grid_checked_async(
      std::shared_ptr<const SensitivityEngine> engine,
      const workload::Trace& trace,
      std::vector<hybridmem::Placement> placements,
      const util::CancelToken* cancel,
      std::shared_ptr<util::TaskScheduler::Group> group,
      std::function<void(AsyncOutcome)> done);

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Cap on lanes per band, clamped to [1, LaneBand::kMaxLanes]; width 1
  /// replays one cell per band. partition_bands shapes the actual width
  /// below it from the cell and worker counts; results are bit-identical
  /// at any width, so this only bounds the shape (tests pin it).
  void set_lane_width(std::size_t width) noexcept {
    lane_width_ = std::clamp<std::size_t>(width, 1, LaneBand::kMaxLanes);
  }
  [[nodiscard]] std::size_t lane_width() const noexcept { return lane_width_; }

  /// Accounting of the most recent campaign on this runner.
  [[nodiscard]] const CampaignStats& stats() const noexcept { return stats_; }

 private:
  /// Run fn(0..n) to completion, each task drawing `cost` scheduler
  /// credits: on the injected scheduler group when one was provided, else
  /// on a transient scheduler (serial loop at 1).
  void fan_out(std::size_t n, std::uint32_t cost,
               const std::function<void(std::size_t)>& fn);

  std::size_t threads_;
  const util::CancelToken* cancel_;
  util::TaskScheduler* scheduler_;
  util::TaskScheduler::Group* group_;
  std::size_t lane_width_ = LaneBand::kDefaultLanes;
  CampaignStats stats_;
};

/// Process-wide aggregate over every campaign run so far (thread-safe);
/// what the CLI's --stats and the bench footers print.
[[nodiscard]] CampaignStats campaign_totals();
void reset_campaign_totals();

}  // namespace mnemo::core
