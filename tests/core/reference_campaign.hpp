#pragma once

// Serial reference campaigns for the equivalence suites: the checked
// campaign contract (DESIGN.md §7) computed cell by cell, in cell order,
// from SensitivityEngine::try_run_once over the raw Trace — no
// CampaignRunner, no LaneBand, no CompiledTrace, no arenas, no threads.
// The runner's results must equal these bit for bit, so the oracle is
// independent of the code under test rather than another mode of it.

#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/sensitivity_engine.hpp"
#include "hybridmem/placement.hpp"
#include "workload/trace.hpp"

namespace mnemo::core::reference {

/// The checked campaign: a run is accepted only when it succeeded AND
/// absorbed zero fault events; a rejected cell is retried once at
/// attempt 1, then quarantined with its final attempt's error (or a
/// kFaultInjected "measurement perturbed" error) and fault counters.
inline CampaignResult run_checked(const SensitivityEngine& engine,
                                  const workload::Trace& trace,
                                  const std::vector<CampaignCell>& cells) {
  constexpr int kAttempts = 2;
  CampaignResult result;
  result.measurements.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CampaignCell& cell = cells[i];
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      const util::Result<RunMeasurement> run =
          engine.try_run_once(trace, cell.placement, cell.repeat, attempt);
      if (run.ok() && run.value().faults.events() == 0) {
        result.measurements[i] = run.value();
        break;
      }
      if (attempt + 1 < kAttempts) continue;
      CellFailure f;
      f.cell = i;
      f.fast_keys = cell.placement.fast_keys();
      f.repeat = cell.repeat;
      f.attempts = kAttempts;
      if (run.ok()) {
        f.faults = run.value().faults;
        f.error.code = util::ErrorCode::kFaultInjected;
        f.error.message = "measurement perturbed: " +
                          std::to_string(f.faults.events()) +
                          " fault events absorbed";
      } else {
        f.error = run.error();
      }
      result.failures.push_back(f);
    }
  }
  return result;
}

/// The checked {placement × repeat} grid: repeat-major cells, and a
/// placement's repeats averaged only when every one was accepted.
inline CampaignResult measure_grid_checked(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<hybridmem::Placement>& placements) {
  const int repeats = engine.config().repeats;
  std::vector<CampaignCell> cells;
  for (const hybridmem::Placement& placement : placements) {
    for (int r = 0; r < repeats; ++r) cells.push_back({placement, r});
  }
  CampaignResult grid = run_checked(engine, trace, cells);
  CampaignResult merged;
  merged.failures = std::move(grid.failures);
  for (std::size_t p = 0; p < placements.size(); ++p) {
    std::vector<RunMeasurement> runs;
    for (int r = 0; r < repeats; ++r) {
      const std::optional<RunMeasurement>& slot =
          grid.measurements[p * static_cast<std::size_t>(repeats) +
                            static_cast<std::size_t>(r)];
      if (slot) runs.push_back(*slot);
    }
    if (runs.size() == static_cast<std::size_t>(repeats)) {
      merged.measurements.emplace_back(average_runs(runs));
    } else {
      merged.measurements.emplace_back(std::nullopt);
    }
  }
  return merged;
}

/// The healthy-platform grid: one averaged measurement per placement.
inline std::vector<RunMeasurement> measure_grid(
    const SensitivityEngine& engine, const workload::Trace& trace,
    const std::vector<hybridmem::Placement>& placements) {
  std::vector<RunMeasurement> out;
  for (std::optional<RunMeasurement>& m :
       measure_grid_checked(engine, trace, placements).measurements) {
    out.push_back(m.value());
  }
  return out;
}

}  // namespace mnemo::core::reference
