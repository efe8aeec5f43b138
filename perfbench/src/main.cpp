// perfbench: end-to-end + per-layer benchmark of the mnemo consultant.
//
//   perfbench --workload <oneshot|sweep|serve_mix> --seed N --seconds S
//             --trace <0|1> --digests FILE --work-dir DIR
//   perfbench --record --digests FILE --work-dir DIR
//
// Prints host facts as '#' lines, then one JSON result as the last line of
// stdout: the end-to-end metrics with --trace 0, the per-layer metrics
// (from a separate traced pass plus the layer probes) with --trace 1. The
// same names on every workload. Exits non-zero without a
// result when the run cannot be made.

#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "harness.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <oneshot|sweep|serve_mix> "
               "--seed N --seconds S --trace <0|1> --digests FILE "
               "--work-dir DIR\n       perfbench --record --digests FILE "
               "--work-dir DIR\n";
  return 2;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used);
  if (used != text.size()) throw std::invalid_argument("bad " + flag);
  return v;
}

int record(RunConfig cfg, const std::string& digests_path) {
  Digests recorder = Digests::recorder();
  cfg.digests = &recorder;
  Ledger ledger;
  record_oneshot(cfg, ledger);
  record_sweep(cfg, ledger);
  record_serve_mix(cfg, ledger);
  if (ledger.failed != 0) {
    std::cerr << "perfbench: " << ledger.failed
              << " op(s) failed; digests not written\n";
    return 1;
  }
  if (!recorder.save(digests_path)) {
    std::cerr << "perfbench: cannot write " << digests_path << "\n";
    return 1;
  }
  std::cout << "recorded " << recorder.size() << " digests from "
            << ledger.attempted << " ops into " << digests_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool record_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      record_mode = true;
    } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
      args[flag.substr(2)] = argv[++i];
    } else {
      return usage("unexpected argument '" + flag + "'");
    }
  }
  for (const char* required : {"digests", "work-dir"}) {
    if (!args.count(required)) {
      return usage(std::string("missing --") + required);
    }
  }

  try {
    RunConfig cfg;
    cfg.cpus = usable_cpus();
    cfg.work_dir = args["work-dir"];
    cfg.origin = Tracer::Clock::now();
    std::filesystem::create_directories(cfg.work_dir);
    std::cout << "# host: nproc=" << cfg.cpus << " isa="
              << mnemo::util::simd::isa_name(mnemo::util::simd::active_isa())
              << " build=" << PERFBENCH_BUILD_TYPE << "\n";
    if (record_mode) return record(cfg, args["digests"]);

    for (const char* required : {"workload", "seed", "seconds", "trace"}) {
      if (!args.count(required)) {
        return usage(std::string("missing --") + required);
      }
    }
    const std::string workload = args["workload"];
    cfg.seed = parse_u64("--seed", args["seed"]);
    cfg.seconds = static_cast<int>(parse_u64("--seconds", args["seconds"]));
    if (cfg.seconds < 1 || cfg.seconds > 60) {
      return usage("--seconds must be in [1, 60]");
    }
    const std::string trace = args["trace"];
    if (trace != "0" && trace != "1") return usage("--trace must be 0 or 1");
    cfg.trace = trace == "1";
    cfg.trace_path = (std::filesystem::path(cfg.work_dir) /
                      (workload + "-" + args["seed"] + ".spans.tsv"))
                         .string();
    Digests digests = Digests::load(args["digests"]);
    cfg.digests = &digests;

    RunResult (*run)(const RunConfig&) = nullptr;
    if (workload == "oneshot") run = run_oneshot;
    if (workload == "sweep") run = run_sweep;
    if (workload == "serve_mix") run = run_serve_mix;
    if (run == nullptr) return usage("unknown workload '" + workload + "'");

    const double probe_before = host_probe_ms();
    RunResult result = run(cfg);
    const double probe_after = host_probe_ms();
    std::cout << "# host.probe_ms: before=" << number(probe_before)
              << " after=" << number(probe_after) << "\n";
    if (cfg.trace) {
      const auto append = [&](const Metrics& m) {
        result.metrics.insert(result.metrics.end(), m.begin(), m.end());
      };
      if (run != run_oneshot) append(probe_oneshot(cfg, result.ledger));
      if (run != run_sweep) append(probe_sweep(cfg, result.ledger));
      if (run != run_serve_mix) append(probe_serve(cfg, result.ledger));
      append(probe_replay(cfg, result.ledger));
      result.metrics.push_back(
          {"host.probe_ms", 0.5 * (probe_before + probe_after), "ms"});
      std::cout << "# spans: " << cfg.trace_path << "\n";
    }
    std::cout << result_json(result.ledger, result.metrics) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
