// Wall-clock campaign microbenchmark for the campaign executor (DESIGN.md
// §12, §14): times measure_grid — the engine behind every sweep, baseline
// and session — which replays lane-fused bands of K cells per pass over
// the shared CompiledTrace with util::simd batch kernels. Every timed grid
// is checked bit for bit against a serial reference grid computed from
// the per-cell replay of the raw Trace (SensitivityEngine::run_once,
// averaged per placement) — the bench refuses to report on any
// divergence. Results go to BENCH_campaign.json
// ("mnemo.bench.campaign/v3") for bench_diff, which compares them against
// the checked-in baseline.
//
//   ./micro_campaign                full run, writes BENCH_campaign.json
//   ./micro_campaign --smoke        tiny workload + schema self-check (CI)
//   ./micro_campaign --out FILE     alternate output path
//   ./micro_campaign --repeats N    timing repeats per (store, threads) cell

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/sensitivity_engine.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"
#include "workload/trace.hpp"
#include "workload/workload_spec.hpp"

namespace {

using namespace mnemo;

struct CellResult {
  kvstore::StoreKind store = kvstore::StoreKind::kVermilion;
  std::size_t threads = 0;
  std::size_t grid_cells = 0;  ///< placements × repeats replayed per timing
  double fused_median_s = 0.0;
  double fused_min_s = 0.0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

workload::Trace make_trace(bool smoke) {
  workload::WorkloadSpec spec;
  spec.name = smoke ? "campaign_smoke" : "campaign";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.9;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = smoke ? 300 : 2'000;
  spec.request_count = smoke ? 3'000 : 20'000;
  spec.seed = 0x5eed;
  return workload::Trace::generate(spec);
}

std::vector<hybridmem::Placement> make_placements(
    const workload::Trace& trace) {
  std::vector<std::uint64_t> order(trace.key_count());
  for (std::uint64_t k = 0; k < trace.key_count(); ++k) order[k] = k;
  std::vector<hybridmem::Placement> placements;
  for (const double f : {0.0, 0.5, 1.0}) {
    placements.push_back(hybridmem::Placement::from_order(
        order, static_cast<std::size_t>(
                   f * static_cast<double>(trace.key_count()))));
  }
  return placements;
}

core::SensitivityConfig bench_config(kvstore::StoreKind store,
                                     std::size_t threads) {
  core::SensitivityConfig cfg;
  cfg.store = store;
  cfg.repeats = 2;
  cfg.threads = threads;
  return cfg;
}

/// The serial reference grid: each placement's repeats replayed one by one
/// from the raw Trace and averaged in repeat order — no campaign runner,
/// no lane band, no compiled trace.
std::vector<core::RunMeasurement> reference_grid(
    const workload::Trace& trace,
    const std::vector<hybridmem::Placement>& placements,
    kvstore::StoreKind store) {
  const core::SensitivityEngine engine(bench_config(store, 1));
  std::vector<core::RunMeasurement> grid;
  for (const hybridmem::Placement& placement : placements) {
    std::vector<core::RunMeasurement> runs;
    for (int r = 0; r < engine.config().repeats; ++r) {
      runs.push_back(engine.run_once(trace, placement, r));
    }
    grid.push_back(core::average_runs(runs));
  }
  return grid;
}

CellResult run_cell(const workload::Trace& trace,
                    const std::vector<hybridmem::Placement>& placements,
                    const std::vector<core::RunMeasurement>& reference,
                    kvstore::StoreKind store, std::size_t threads,
                    int repeats) {
  const core::SensitivityEngine engine(bench_config(store, threads));
  std::vector<double> fused_s;
  for (int r = 0; r < repeats; ++r) {
    core::CampaignRunner runner(threads);
    util::WallTimer timer;
    const std::vector<core::RunMeasurement> grid =
        runner.measure_grid(engine, trace, placements);
    fused_s.push_back(timer.elapsed_s());
    // A timing of a wrong grid is meaningless — refuse to report anything
    // on divergence.
    if (grid != reference) {
      std::fprintf(stderr,
                   "micro_campaign: fused grid diverged from the serial "
                   "reference (%s, threads %zu)\n",
                   std::string(kvstore::to_string(store)).c_str(), threads);
      std::exit(1);
    }
  }

  CellResult cell;
  cell.store = store;
  cell.threads = threads;
  cell.grid_cells =
      placements.size() * static_cast<std::size_t>(engine.config().repeats);
  cell.fused_median_s = median(fused_s);
  cell.fused_min_s = *std::min_element(fused_s.begin(), fused_s.end());
  return cell;
}

void write_json(const std::string& path, const workload::Trace& trace,
                bool smoke, int repeats,
                const std::vector<CellResult>& cells) {
  double fused_total = 0.0;
  for (const CellResult& c : cells) fused_total += c.fused_median_s;

  std::ostringstream out;
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return std::string(buf);
  };
  out << "{\n";
  out << "  \"schema\": \"mnemo.bench.campaign/v3\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"workload\": {\"name\": \"" << trace.name()
      << "\", \"key_count\": " << trace.key_count()
      << ", \"request_count\": " << trace.requests().size() << "},\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    out << "    {\"store\": \"" << kvstore::to_string(c.store)
        << "\", \"threads\": " << c.threads
        << ", \"grid_cells\": " << c.grid_cells << ",\n";
    out << "     \"fused\": {\"median_s\": " << num(c.fused_median_s)
        << ", \"min_s\": " << num(c.fused_min_s) << "}}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"aggregate\": {\"fused_s\": " << num(fused_total) << "}\n";
  out << "}\n";

  std::ofstream file(path);
  file << out.str();
  if (!file.good()) {
    std::fprintf(stderr, "micro_campaign: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

/// Schema self-check for --smoke: stable keys present, braces balanced,
/// one result object per (store, threads) cell.
bool validate_json(const std::string& path, std::size_t expected_results) {
  std::ifstream file(path);
  std::stringstream ss;
  ss << file.rdbuf();
  const std::string text = ss.str();
  if (text.empty()) return false;
  for (const char* key :
       {"\"schema\": \"mnemo.bench.campaign/v3\"", "\"repeats\"",
        "\"workload\"", "\"results\"", "\"fused\"", "\"median_s\"",
        "\"min_s\"", "\"aggregate\"", "\"fused_s\""}) {
    if (text.find(key) == std::string::npos) {
      std::fprintf(stderr, "micro_campaign: missing key %s\n", key);
      return false;
    }
  }
  long depth = 0;
  for (const char ch : text) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    if (depth < 0) return false;
  }
  if (depth != 0) return false;
  std::size_t stores = 0;
  for (std::size_t pos = text.find("\"store\""); pos != std::string::npos;
       pos = text.find("\"store\"", pos + 1)) {
    ++stores;
  }
  return stores == expected_results;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser(
      "micro_campaign",
      "lane-fused campaign wall-clock benchmark");
  parser.add_flag("smoke", "tiny workload + schema self-check (CI)");
  parser.add_option("out", "output JSON path", "BENCH_campaign.json");
  parser.add_option("repeats", "timing repeats per cell", "");
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  if (!parser.parse(args, &error)) {
    std::fprintf(stderr, "%s\n%s", error.c_str(), parser.help().c_str());
    return 2;
  }
  const bool smoke = parser.has_flag("smoke");
  const int repeats = parser.get("repeats").empty()
                          ? (smoke ? 2 : 5)
                          : static_cast<int>(parser.get_u64("repeats"));
  const std::string out = parser.get("out");

  const workload::Trace trace = make_trace(smoke);
  const std::vector<hybridmem::Placement> placements =
      make_placements(trace);
  const std::vector<kvstore::StoreKind> stores = {
      kvstore::StoreKind::kVermilion, kvstore::StoreKind::kCachet,
      kvstore::StoreKind::kDynaStore};
  const std::vector<std::size_t> thread_counts = {1, 2, 8};

  std::printf(
      "== micro_campaign: %s, %llu keys, %zu requests, %d repeats ==\n",
      trace.name().c_str(),
      static_cast<unsigned long long>(trace.key_count()),
      trace.requests().size(), repeats);

  std::vector<CellResult> cells;
  for (const kvstore::StoreKind store : stores) {
    const std::vector<core::RunMeasurement> reference =
        reference_grid(trace, placements, store);
    for (const std::size_t threads : thread_counts) {
      const CellResult cell =
          run_cell(trace, placements, reference, store, threads, repeats);
      std::printf("%-10s threads %zu  fused %8.1f ms (min %8.1f ms)\n",
                  std::string(kvstore::to_string(store)).c_str(), threads,
                  cell.fused_median_s * 1e3, cell.fused_min_s * 1e3);
      cells.push_back(cell);
    }
  }

  write_json(out, trace, smoke, repeats, cells);
  std::printf("wrote %s\n", out.c_str());
  if (smoke && !validate_json(out, cells.size())) {
    std::fprintf(stderr, "micro_campaign: schema validation FAILED\n");
    return 1;
  }
  if (smoke) std::printf("schema ok\n");
  return 0;
}
