#pragma once

// The three benchmark workloads. Each runs a fixed amount of work chosen
// from (seed, seconds), checks every simulated output against the expected
// digests, and returns its metrics: the end-to-end set on an untraced run,
// its own layer set on a traced run. Every run prints the same metric
// names, so a traced run also reads the layer sets its workload does not
// reach from the short, fixed probes below.

#include <cstddef>
#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  std::size_t cpus = 1;           ///< usable CPUs (nproc)
  std::string work_dir;           ///< scratch space inside the checkout
  std::string trace_path;         ///< where a traced run writes its spans
  Digests* digests = nullptr;     ///< expected outputs (or the recorder)
  Tracer::Clock::time_point origin;
};

struct RunResult {
  Ledger ledger;
  Metrics metrics;
};

RunResult run_oneshot(const RunConfig& cfg);
RunResult run_sweep(const RunConfig& cfg);
RunResult run_serve_mix(const RunConfig& cfg);

/// Short fixed probes of one workload's layer set, for the traced runs of
/// the others: nine traced `mnemo run` iterations (oneshot), one round of
/// three studies (sweep), a 260-request open-loop schedule (serve_mix).
Metrics probe_oneshot(const RunConfig& cfg, Ledger& ledger);
Metrics probe_sweep(const RunConfig& cfg, Ledger& ledger);
Metrics probe_serve(const RunConfig& cfg, Ledger& ledger);
/// Replay-layer probe on all three stores, for every traced run:
/// CompiledTrace construction, DualServer populate/execute rates, and a
/// default 4-lane LaneBand replay of the CLI grid.
Metrics probe_replay(const RunConfig& cfg, Ledger& ledger);

/// Record mode: walk every input of the workload's pools once and store
/// each output digest into cfg.digests.
void record_oneshot(const RunConfig& cfg, Ledger& ledger);
void record_sweep(const RunConfig& cfg, Ledger& ledger);
void record_serve_mix(const RunConfig& cfg, Ledger& ledger);

}  // namespace perfbench
