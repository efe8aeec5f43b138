#include "core/campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "faultinject/io_fault.hpp"
#include "stats/summary.hpp"
#include "util/arena.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/compiled_trace.hpp"

namespace mnemo::core {

namespace {

/// Process-wide accumulator behind campaign_totals(). Cell durations are
/// kept so the aggregate p50/p95 are exact; campaigns are small (at most
/// a few thousand cells per bench run).
struct TotalsRegistry {
  std::mutex mu;
  std::vector<double> cell_s;
  std::size_t threads = 0;  ///< widest fan-out seen
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t lane_width = 0;        ///< widest fused band seen
  std::size_t arena_peak_bytes = 0;  ///< largest single-arena high-water
};

TotalsRegistry& totals_registry() {
  static TotalsRegistry registry;
  return registry;
}

void record_campaign(const CampaignStats& stats,
                     const std::vector<double>& cell_s) {
  TotalsRegistry& reg = totals_registry();
  std::lock_guard lock(reg.mu);
  reg.cell_s.insert(reg.cell_s.end(), cell_s.begin(), cell_s.end());
  reg.threads = std::max(reg.threads, stats.threads);
  reg.wall_s += stats.wall_s;
  reg.cpu_s += stats.cpu_s;
  reg.lane_width = std::max(reg.lane_width, stats.lane_width);
  reg.arena_peak_bytes =
      std::max(reg.arena_peak_bytes, stats.arena_peak_bytes);
}

/// Lane arenas for one band (DESIGN.md §12): lane j of the band replays on
/// arenas[j], rewound before each attempt but keeping its grown chunks.
/// Arenas are not movable, hence the unique_ptr indirection.
using ArenaKit = std::vector<std::unique_ptr<util::Arena>>;

/// The process-wide pool of idle kits. A band checks out a whole kit and
/// returns it when it ends, so no more kits exist than bands were ever in
/// flight at once, and a later band — of this campaign or the next —
/// reuses warm arenas instead of going back to malloc. LIFO: the kit last
/// returned, grown to the current footprint, is the next one handed out.
struct KitPool {
  std::mutex mu;
  std::vector<std::unique_ptr<ArenaKit>> idle;
};

KitPool& kit_pool() {
  static KitPool pool;
  return pool;
}

/// One band's lease on a kit. The kit is checked out whole, so lane j
/// keeps its role from band to band — in a shaped band the leader at lane
/// 0 reuses a leader-sized arena. On return every arena is trimmed to the
/// chunks this band reached, which bounds what the pool retains by the
/// footprint of the latest bands rather than the largest ever seen.
class KitLease {
 public:
  KitLease() {
    KitPool& pool = kit_pool();
    std::lock_guard lock(pool.mu);
    if (pool.idle.empty()) {
      kit_ = std::make_unique<ArenaKit>();
    } else {
      kit_ = std::move(pool.idle.back());
      pool.idle.pop_back();
    }
  }
  ~KitLease() {
    for (const std::unique_ptr<util::Arena>& arena : *kit_) arena->trim();
    KitPool& pool = kit_pool();
    std::lock_guard lock(pool.mu);
    pool.idle.push_back(std::move(kit_));
  }
  KitLease(const KitLease&) = delete;
  KitLease& operator=(const KitLease&) = delete;

  [[nodiscard]] util::Arena& arena(std::size_t lane) {
    while (kit_->size() <= lane) {
      kit_->push_back(std::make_unique<util::Arena>());
    }
    return *(*kit_)[lane];
  }

 private:
  std::unique_ptr<ArenaKit> kit_;
};

/// Lock-free running max for the campaign-wide arena high-water mark.
void raise_peak(std::atomic<std::size_t>& peak, std::size_t candidate) {
  std::size_t seen = peak.load(std::memory_order_relaxed);
  while (candidate > seen && !peak.compare_exchange_weak(
                                 seen, candidate, std::memory_order_relaxed)) {
  }
}

/// Runs a cell may consume: the first try plus exactly one retry under an
/// attempt-shifted fault stream (the workload seed never changes).
constexpr int kMaxAttempts = 2;

/// A run is accepted only when it is provably unperturbed — it succeeded
/// AND absorbed zero fault events — the condition under which it is
/// bit-identical to the fault-free platform's run.
[[nodiscard]] bool accepted(const util::Result<RunMeasurement>& run) {
  return run.ok() && run.value().faults.events() == 0;
}

/// Ledger entry for a cell whose final attempt was rejected: that
/// attempt's typed error, or — for a run that completed but absorbed fault
/// events — a kFaultInjected "measurement perturbed" error with the
/// attempt's fault counters.
[[nodiscard]] CellFailure rejected_cell(
    const CampaignCell& cell, std::size_t index,
    const util::Result<RunMeasurement>& last) {
  CellFailure f;
  f.cell = index;
  f.fast_keys = cell.placement.fast_keys();
  f.repeat = cell.repeat;
  f.attempts = kMaxAttempts;
  if (last.ok()) {
    f.faults = last.value().faults;
    f.error.code = util::ErrorCode::kFaultInjected;
    f.error.message = "measurement perturbed: " +
                      std::to_string(f.faults.events()) +
                      " fault events absorbed";
  } else {
    f.error = last.error();
  }
  return f;
}

/// Fold a repeat-major checked grid down to one slot per placement,
/// all-or-nothing: averaging a subset of the repeats would differ from
/// the fault-free average even if every surviving repeat is clean, so one
/// quarantined repeat quarantines the merge.
[[nodiscard]] CampaignResult merge_placement_grid(CampaignResult grid,
                                                  std::size_t num_placements,
                                                  int repeats) {
  CampaignResult merged;
  merged.failures = std::move(grid.failures);
  merged.measurements.reserve(num_placements);
  std::vector<RunMeasurement> group;
  for (std::size_t p = 0; p < num_placements; ++p) {
    group.clear();
    bool complete = true;
    for (int r = 0; r < repeats && complete; ++r) {
      const std::optional<RunMeasurement>& slot =
          grid.measurements[p * static_cast<std::size_t>(repeats) +
                            static_cast<std::size_t>(r)];
      if (slot) {
        group.push_back(*slot);
      } else {
        complete = false;
      }
    }
    if (complete) {
      merged.measurements.emplace_back(average_runs(group));
    } else {
      merged.measurements.emplace_back(std::nullopt);
    }
  }
  return merged;
}

/// The repeat-major cell vector behind every measurement grid.
[[nodiscard]] std::vector<CampaignCell> build_grid_cells(
    const std::vector<hybridmem::Placement>& placements, int repeats) {
  std::vector<CampaignCell> cells;
  cells.reserve(placements.size() * static_cast<std::size_t>(repeats));
  for (const hybridmem::Placement& placement : placements) {
    for (int r = 0; r < repeats; ++r) cells.push_back({placement, r});
  }
  return cells;
}

/// The healthy-platform view of a checked result: every cell (or merged
/// placement) must have been accepted.
[[nodiscard]] std::vector<RunMeasurement> unwrap_accepted(
    CampaignResult result) {
  MNEMO_ASSERT(!result.partial() &&
               "run/measure_grid require cells that cannot fail; a faulted "
               "platform goes through the checked entry points");
  std::vector<RunMeasurement> out;
  out.reserve(result.measurements.size());
  for (std::optional<RunMeasurement>& m : result.measurements) {
    out.push_back(std::move(*m));
  }
  return out;
}

/// One checked campaign in flight, shared by the blocking fan-out and the
/// async grid. The cells are partitioned into bands by partition_bands —
/// shaped by the cell count and the `workers` the campaign fans out on,
/// the one place either entry point picks a width — and band b writes only
/// its own cells' slots, so the result is in cell order and bit-identical
/// at any thread count and width.
class BandCampaign {
 public:
  /// Compiles the trace once: the per-key hashes/digests/byte streams are
  /// placement- and repeat-invariant, so every band shares one read-only
  /// artifact instead of re-deriving them (DESIGN.md §12).
  BandCampaign(const SensitivityEngine& engine, const workload::Trace& trace,
               const std::vector<CampaignCell>& cells, std::size_t workers,
               std::size_t max_width, const util::CancelToken* cancel)
      : engine_(engine),
        compiled_(trace),
        cells_(cells),
        workers_(workers),
        partition_(partition_bands(cells.size(), sibling_group(cells),
                                   workers, max_width)),
        cancel_(cancel),
        slots_(cells.size()),
        failed_(cells.size()),
        cell_s_(cells.size(), 0.0) {}

  [[nodiscard]] std::size_t bands() const { return partition_.bands; }

  /// Scheduler credits one band draws: a band narrower than the default
  /// width draws its share of a full dispatch, so shaping a campaign into
  /// more, narrower bands costs it no extra round-robin rounds.
  [[nodiscard]] std::uint32_t band_cost() const {
    return static_cast<std::uint32_t>(std::min<std::size_t>(
        util::TaskScheduler::kFullCost,
        partition_.width * util::TaskScheduler::kFullCost /
            LaneBand::kDefaultLanes));
  }

  /// The band task. Attempt 0 replays every lane of the band in one
  /// LaneBand pass; a lane that comes back accepted fills its slot, and
  /// the rejected lanes replay again together at attempt 1 — LaneBand
  /// gives each lane exactly the per-cell result, so the ledger (attempts,
  /// errors, fault counters) does not depend on which cells shared a band.
  /// A lane rejected on its last attempt is quarantined.
  void run_band(std::size_t b) {
    // Cancellation point *between* bands: a canceled campaign skips bands
    // it has not started, never interrupts one mid-flight.
    if (cancel_ != nullptr && cancel_->canceled()) return;
    const std::size_t width = partition_.width;
    const std::size_t first = b * width;
    const std::size_t count = std::min(width, cells_.size() - first);
    faultinject::chaos_band_delay(first, count);
    // Thread-CPU time, not wall: a band's cost must not include the time
    // its worker spent descheduled, or an oversubscribed scheduler would
    // fabricate speedup.
    util::ThreadCpuTimer band_timer;
    KitLease kit;

    std::array<std::size_t, LaneBand::kMaxLanes> pending;  ///< band lanes
    std::size_t num_pending = count;
    for (std::size_t j = 0; j < count; ++j) pending[j] = j;
    std::array<LaneBand::Lane, LaneBand::kMaxLanes> lanes;
    std::array<std::optional<util::Result<RunMeasurement>>,
               LaneBand::kMaxLanes>
        outs;
    std::size_t band_arena = 0;
    for (int attempt = 0; attempt < kMaxAttempts && num_pending > 0;
         ++attempt) {
      for (std::size_t p = 0; p < num_pending; ++p) {
        const CampaignCell& cell = cells_[first + pending[p]];
        // The lane's previous attempt is fully torn down, so the rewind
        // is safe between attempts too.
        util::Arena& arena = kit.arena(pending[p]);
        arena.reset();
        lanes[p] = LaneBand::Lane{&cell.placement, cell.repeat, attempt,
                                  &arena};
      }
      LaneBand::replay(
          engine_, compiled_,
          std::span<const LaneBand::Lane>(lanes.data(), num_pending),
          std::span<std::optional<util::Result<RunMeasurement>>>(
              outs.data(), num_pending));
      std::size_t rejected = 0;
      for (std::size_t p = 0; p < num_pending; ++p) {
        const std::size_t i = first + pending[p];
        // Deallocation is a no-op, so bytes_allocated() still reports the
        // attempt's full footprint after its state is gone.
        band_arena =
            std::max(band_arena, kit.arena(pending[p]).bytes_allocated());
        util::Result<RunMeasurement>& run = *outs[p];
        if (accepted(run)) {
          slots_[i] = std::move(run.value());
        } else if (attempt + 1 < kMaxAttempts) {
          pending[rejected++] = pending[p];
        } else {
          failed_[i] = rejected_cell(cells_[i], i, run);
        }
      }
      num_pending = rejected;
    }
    raise_peak(arena_peak_, band_arena);
    // The fused pass is genuinely shared work; attribute it evenly.
    const double per_cell_s =
        band_timer.elapsed_s() / static_cast<double>(count);
    for (std::size_t j = 0; j < count; ++j) cell_s_[first + j] = per_cell_s;
  }

  /// The campaign tail, after every band settled: accounting into `stats`
  /// (the fan-out is the workers, capped by the band count), then the
  /// cell-ordered ledger and the process-wide totals. A canceled campaign
  /// throws util::CanceledError instead, so partial grids can never flow
  /// into caches or artifacts.
  [[nodiscard]] CampaignResult finish(CampaignStats& accounting) {
    accounting = CampaignStats{};
    accounting.cells = cells_.size();
    accounting.lane_width = partition_.width;
    accounting.threads = std::max<std::size_t>(
        1, std::min(workers_, std::max<std::size_t>(1, bands())));
    accounting.wall_s = wall_.elapsed_s();
    accounting.arena_peak_bytes = arena_peak_.load(std::memory_order_relaxed);
    CampaignResult result;
    if (cells_.empty()) return result;
    if (cancel_ != nullptr && cancel_->canceled()) {
      throw util::CanceledError(cancel_->reason());
    }
    result.measurements = std::move(slots_);
    for (std::optional<CellFailure>& f : failed_) {
      if (f) result.failures.push_back(std::move(*f));
    }
    std::vector<double> sorted = cell_s_;
    std::sort(sorted.begin(), sorted.end());
    for (const double s : sorted) accounting.cpu_s += s;
    accounting.cell_p50_s = stats::percentile_sorted(sorted, 0.50);
    accounting.cell_p95_s = stats::percentile_sorted(sorted, 0.95);
    record_campaign(accounting, cell_s_);
    return result;
  }

 private:
  const SensitivityEngine& engine_;
  const workload::CompiledTrace compiled_;
  const std::vector<CampaignCell>& cells_;
  const std::size_t workers_;
  const BandPartition partition_;
  const util::CancelToken* cancel_;
  std::vector<std::optional<RunMeasurement>> slots_;
  std::vector<std::optional<CellFailure>> failed_;
  std::vector<double> cell_s_;
  std::atomic<std::size_t> arena_peak_{0};
  util::WallTimer wall_;
};

/// Shared state of one in-flight async grid. Owned jointly by the band
/// closures and the merge continuation; the last reference dying frees it.
struct AsyncGrid {
  AsyncGrid(std::shared_ptr<const SensitivityEngine> e,
            const workload::Trace& trace,
            const std::vector<hybridmem::Placement>& placements,
            const util::CancelToken* cancel,
            std::shared_ptr<util::TaskScheduler::Group> g,
            std::function<void(CampaignRunner::AsyncOutcome)> d)
      : engine(std::move(e)),
        repeats(engine->config().repeats),
        num_placements(placements.size()),
        cells(build_grid_cells(placements, repeats)),
        group(std::move(g)),
        campaign(*engine, trace, cells, group->scheduler().threads(),
                 LaneBand::kDefaultLanes, cancel),
        done(std::move(d)),
        remaining(campaign.bands()) {}

  std::shared_ptr<const SensitivityEngine> engine;
  int repeats;
  std::size_t num_placements;
  std::vector<CampaignCell> cells;
  std::shared_ptr<util::TaskScheduler::Group> group;
  BandCampaign campaign;
  std::function<void(CampaignRunner::AsyncOutcome)> done;
  std::atomic<std::size_t> remaining;  ///< bands still outstanding
};

/// The merge continuation: runs once, as a kRequest task, after the last
/// band settles — the same tail the blocking path runs, with the thrown
/// error (util::CanceledError for a canceled grid) handed over as-is.
void merge_async_grid(AsyncGrid& grid) {
  CampaignRunner::AsyncOutcome outcome;
  try {
    outcome.grid = merge_placement_grid(
        grid.campaign.finish(outcome.stats),
        grid.num_placements, grid.repeats);
  } catch (...) {
    outcome.error = std::current_exception();
  }
  grid.done(std::move(outcome));
}

}  // namespace

std::size_t sibling_group(const std::vector<CampaignCell>& cells) {
  std::size_t group = 1;
  while (group < cells.size() && cells[group].repeat != 0) ++group;
  return group;
}

BandPartition partition_bands(std::size_t cells, std::size_t group,
                              std::size_t workers, std::size_t cap) {
  cap = std::clamp<std::size_t>(cap, 1, LaneBand::kMaxLanes);
  const std::size_t unit = group >= 1 && group <= cap ? group : 1;
  const auto bands_at = [cells](std::size_t w) { return (cells + w - 1) / w; };
  std::size_t width = cap / unit * unit;
  while (width > unit && bands_at(width) < workers) width -= unit;
  return {width, bands_at(width)};
}

double CampaignStats::speedup() const {
  return wall_s > 0.0 ? cpu_s / wall_s : 0.0;
}

double CampaignStats::occupancy() const {
  return threads > 0 ? speedup() / static_cast<double>(threads) : 0.0;
}

void CampaignStats::merge(const CampaignStats& other) {
  // p50/p95 cannot be merged from summaries; keep a cell-weighted blend
  // as the closest order statistic available to a summary-only merge.
  const auto total = static_cast<double>(cells + other.cells);
  if (total > 0.0) {
    const auto wa = static_cast<double>(cells) / total;
    const auto wb = static_cast<double>(other.cells) / total;
    cell_p50_s = cell_p50_s * wa + other.cell_p50_s * wb;
    cell_p95_s = cell_p95_s * wa + other.cell_p95_s * wb;
  }
  cells += other.cells;
  threads = std::max(threads, other.threads);
  wall_s += other.wall_s;
  cpu_s += other.cpu_s;
  lane_width = std::max(lane_width, other.lane_width);
  arena_peak_bytes = std::max(arena_peak_bytes, other.arena_peak_bytes);
}

std::string CampaignStats::render(const std::string& title) const {
  util::TablePrinter table({title, "value"});
  table.add_row({"cells run", std::to_string(cells)});
  table.add_row({"threads", std::to_string(threads)});
  table.add_row({"lane width", std::to_string(lane_width)});
  table.add_row({"arena peak (KiB)",
                 util::TablePrinter::num(
                     static_cast<double>(arena_peak_bytes) / 1024.0, 1)});
  table.add_row({"wall time (ms)", util::TablePrinter::num(wall_s * 1e3, 1)});
  table.add_row({"cpu time (ms)", util::TablePrinter::num(cpu_s * 1e3, 1)});
  table.add_row(
      {"cell p50 (ms)", util::TablePrinter::num(cell_p50_s * 1e3, 2)});
  table.add_row(
      {"cell p95 (ms)", util::TablePrinter::num(cell_p95_s * 1e3, 2)});
  table.add_row({"speedup vs serial",
                 util::TablePrinter::num(speedup(), 2) + "x"});
  table.add_row({"pool occupancy", util::TablePrinter::pct(occupancy(), 1)});
  return table.render();
}

CampaignRunner::CampaignRunner(std::size_t threads,
                               const util::CancelToken* cancel,
                               util::TaskScheduler* scheduler,
                               util::TaskScheduler::Group* group)
    : threads_(threads == 0 ? util::hardware_threads() : threads),
      cancel_(cancel),
      scheduler_(scheduler),
      group_(group) {}

void CampaignRunner::fan_out(std::size_t n, std::uint32_t cost,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  util::TaskScheduler::GroupOptions opts;
  opts.cancel = cancel_;
  if (scheduler_ != nullptr) {
    // Shared scheduler: bands interleave with every other campaign's under
    // its fairness policy; the calling thread helps run bands meanwhile.
    if (group_ != nullptr) {
      scheduler_->run_batch(*group_, n, fn, cost);
    } else {
      auto group = scheduler_->make_group(opts);
      scheduler_->run_batch(*group, n, fn, cost);
    }
    return;
  }
  const std::size_t workers = std::max<std::size_t>(1, std::min(threads_, n));
  if (workers == 1) {
    // Serial fast path: no workers at all, bands in band order — the
    // reference schedule every parallel fan-out must be bit-identical to.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  util::TaskScheduler local(workers);
  auto group = local.make_group(opts);
  local.run_batch(*group, n, fn, cost);
}

CampaignResult CampaignRunner::run_checked(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<CampaignCell>& cells) {
  BandCampaign campaign(engine, trace, cells, threads_, lane_width_, cancel_);
  fan_out(campaign.bands(), campaign.band_cost(),
          [&](std::size_t b) { campaign.run_band(b); });
  return campaign.finish(stats_);
}

std::vector<RunMeasurement> CampaignRunner::run(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<CampaignCell>& cells) {
  return unwrap_accepted(run_checked(engine, trace, cells));
}

CampaignResult CampaignRunner::measure_grid_checked(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<hybridmem::Placement>& placements) {
  const int repeats = engine.config().repeats;
  return merge_placement_grid(
      run_checked(engine, trace, build_grid_cells(placements, repeats)),
      placements.size(), repeats);
}

std::vector<RunMeasurement> CampaignRunner::measure_grid(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<hybridmem::Placement>& placements) {
  return unwrap_accepted(measure_grid_checked(engine, trace, placements));
}

void CampaignRunner::measure_grid_checked_async(
    std::shared_ptr<const SensitivityEngine> engine,
    const workload::Trace& trace,
    std::vector<hybridmem::Placement> placements,
    const util::CancelToken* cancel,
    std::shared_ptr<util::TaskScheduler::Group> group,
    std::function<void(AsyncOutcome)> done) {
  auto grid = std::make_shared<AsyncGrid>(std::move(engine), trace,
                                          placements, cancel, std::move(group),
                                          std::move(done));
  const std::size_t bands = grid->campaign.bands();
  if (bands == 0) {
    // Degenerate grid: still deliver asynchronously, as a group task, so
    // callers observe one completion path.
    grid->group->submit(util::TaskScheduler::TaskClass::kRequest,
                        [grid] { merge_async_grid(*grid); });
    return;
  }
  for (std::size_t b = 0; b < bands; ++b) {
    // A kCell task is a lane band — the same fairness unit across serve,
    // session and blocking campaigns.
    grid->group->submit(
        util::TaskScheduler::TaskClass::kCell,
        [grid, b] {
          grid->campaign.run_band(b);
          // The last band to settle hands off to the merge continuation —
          // submitted from inside a still-outstanding task, so the
          // scheduler never observes a quiescent gap mid-campaign.
          if (grid->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            grid->group->submit(util::TaskScheduler::TaskClass::kRequest,
                                [grid] { merge_async_grid(*grid); });
          }
        },
        grid->campaign.band_cost());
  }
}

std::string render_failure_ledger(const std::vector<CellFailure>& failures) {
  util::TablePrinter table({"cell", "fast keys", "repeat", "tries",
                            "events t/p/bw", "reason"});
  for (const CellFailure& f : failures) {
    const std::string events =
        std::to_string(f.faults.transient_faults) + "/" +
        std::to_string(f.faults.poison_hits) + "/" +
        std::to_string(f.faults.degraded_accesses);
    table.add_row({std::to_string(f.cell), std::to_string(f.fast_keys),
                   std::to_string(f.repeat), std::to_string(f.attempts),
                   events, f.error.to_string()});
  }
  return table.render();
}

CampaignStats campaign_totals() {
  TotalsRegistry& reg = totals_registry();
  std::lock_guard lock(reg.mu);
  CampaignStats totals;
  totals.cells = reg.cell_s.size();
  totals.threads = reg.threads;
  totals.wall_s = reg.wall_s;
  totals.cpu_s = reg.cpu_s;
  totals.lane_width = reg.lane_width;
  totals.arena_peak_bytes = reg.arena_peak_bytes;
  if (!reg.cell_s.empty()) {
    std::vector<double> sorted = reg.cell_s;
    std::sort(sorted.begin(), sorted.end());
    totals.cell_p50_s = stats::percentile_sorted(sorted, 0.50);
    totals.cell_p95_s = stats::percentile_sorted(sorted, 0.95);
  }
  return totals;
}

void reset_campaign_totals() {
  TotalsRegistry& reg = totals_registry();
  std::lock_guard lock(reg.mu);
  reg.cell_s.clear();
  reg.threads = 0;
  reg.wall_s = 0.0;
  reg.cpu_s = 0.0;
  reg.lane_width = 0;
  reg.arena_peak_bytes = 0;
}

}  // namespace mnemo::core
