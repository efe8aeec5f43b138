// serve_mix: one serve::Server (nproc - 1 workers, fresh cache_dir) fed by
// one generator thread on a seeded open-loop Poisson schedule at a rate
// that keeps the workers about one third busy. Three classes, each with a
// fixed workload and store: cold small advises, warm re-advises answered
// from the measure memo or artifact store, and cold Table III reports.
// Queueing, fairness, single-flight, the artifact store and rendering all
// show here; warm requests bypass replay.

#include <algorithm>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "schedule.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// The traffic mix is an assumption, not measured traffic: there is no
/// public trace of sizing-consultant requests. It is derived from the
/// run's constraints, with the worker time each class takes on a 4-CPU
/// x86-64 host (small ~8 ms, warm ~1.3 ms, big ~130 ms):
///  - load: a third of three workers, one worker-second per second
///    (checked by serve.utilization);
///  - bigs: as many as can run one at a time as a rule, 3/s, which leaves
///    ~330 ms between ~130 ms reports (390 ms/s of worker time);
///  - smalls: fill the remaining ~560 ms/s, 70/s (1400 in a 20 s run);
///  - warms: the one free choice, ~0.4 re-advise per cold advise (27/s,
///    35 ms/s), on the assumption that a user tries a second SLO or price
///    on about every other cold advice.
constexpr double kRatePerS = 100.0;
constexpr double kSmallShare = 0.70;
constexpr double kBigShare = 0.03;
/// No class has fewer requests per run than its p50 needs.
constexpr std::size_t kMinPerClass = 20;
constexpr int kSetups = 9;
constexpr int kSetupsAfter = 4;  ///< of kSetups, run after the pass
constexpr std::size_t kWarmups = 4;  ///< small requests per set-up

/// The short schedule another workload's traced run sends to read the
/// serve layer set: enough warms and bigs for their p50 and enough
/// arrivals for the generator's p90, about 3.3 s at 80 req/s.
constexpr std::uint64_t kProbeSeed = 1;
ScheduleSpec probe_spec() {
  ScheduleSpec s;
  s.rate_per_s = 80.0;
  s.small = 200;
  s.warm = 40;
  s.big = 20;
  return s;
}

ScheduleSpec schedule_spec(int seconds) {
  ScheduleSpec s;
  s.rate_per_s = kRatePerS;
  const auto n = static_cast<std::size_t>(kRatePerS * seconds);
  s.small = std::max(kMinPerClass, static_cast<std::size_t>(n * kSmallShare));
  s.big = std::max(kMinPerClass, static_cast<std::size_t>(n * kBigShare));
  s.warm =
      std::max(kMinPerClass, n > s.small + s.big ? n - s.small - s.big : 0);
  return s;
}

/// The id of a request line the schedule built ({"id":"...",...}).
std::string request_id(const std::string& line) {
  return line.substr(7, line.find('"', 7) - 7);
}

struct Reply {
  bool ok = false;
  std::string error;
  std::uint64_t digest = 0;
  double late_ms = 0.0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  double sent_ms = 0.0;  ///< offset of the submit from the schedule start
};

/// Parses one response line: ok flag, output (+ csv) digest, timing.
Reply parse_reply(const std::string& line, const std::string& id) {
  Reply r;
  mnemo::serve::JsonLimits limits;
  limits.max_input = std::size_t{64} << 20;
  limits.max_string = std::size_t{64} << 20;
  const mnemo::serve::JsonValue v = mnemo::serve::json_parse(line, limits);
  const auto* rid = v.find("id");
  const auto* ok = v.find("ok");
  if (rid == nullptr || rid->value.string != id) {
    r.error = "response id mismatch";
    return r;
  }
  if (ok == nullptr || !ok->value.boolean) {
    const auto* err = v.find("error");
    r.error = err != nullptr && err->value.find("code") != nullptr
                  ? err->value.find("code")->value.string
                  : "not ok";
    return r;
  }
  const auto* output = v.find("output");
  const auto* csv = v.find("csv");
  const auto* timing = v.find("timing");
  if (output == nullptr || timing == nullptr) {
    r.error = "response without output or timing";
    return r;
  }
  r.digest = fnv1a(output->value.string);
  if (csv != nullptr) r.digest = fnv1a(csv->value.string, r.digest);
  r.queue_ms = timing->value.find("queue_ms")->value.number;
  r.run_ms = timing->value.find("run_ms")->value.number;
  r.ok = true;
  return r;
}

struct Pass {
  std::vector<Reply> replies;
  double wall_ms = 0.0;
  mnemo::serve::ServeStats stats;
};

/// The generator loop: submit each line at its due time and note how late
/// the submit was.
void send(mnemo::serve::Server& server, const std::vector<Arrival>& schedule,
          Tracer::Clock::time_point start,
          std::vector<std::future<std::string>>& futures,
          std::vector<Reply>& replies) {
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto due =
        start + std::chrono::duration_cast<Tracer::Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        schedule[i].due_ms));
    std::this_thread::sleep_until(due);
    const auto sent = Tracer::Clock::now();
    replies[i].late_ms =
        std::chrono::duration<double, std::milli>(sent - due).count();
    replies[i].sent_ms =
        std::chrono::duration<double, std::milli>(sent - start).count();
    futures[i] = server.submit_line(schedule[i].line);
  }
}

/// Sends the schedule open-loop from one generator thread and collects
/// every reply. Latency is later taken from the due time: the
/// generator's lateness plus the response's queue_ms + run_ms.
Pass run_pass(mnemo::serve::Server& server,
              const std::vector<Arrival>& schedule) {
  const std::size_t n = schedule.size();
  std::vector<std::future<std::string>> futures(n);
  Pass pass;
  pass.replies.resize(n);
  const auto start = Tracer::Clock::now() + std::chrono::milliseconds(20);
  std::exception_ptr failure;
  std::thread generator([&] {
    try {
      send(server, schedule, start, futures, pass.replies);
    } catch (...) {
      failure = std::current_exception();
    }
  });
  generator.join();
  if (failure) std::rethrow_exception(failure);
  for (std::size_t i = 0; i < n; ++i) {
    const double late = pass.replies[i].late_ms;
    const double sent = pass.replies[i].sent_ms;
    try {
      pass.replies[i] =
          parse_reply(futures[i].get(), request_id(schedule[i].line));
    } catch (const std::exception& e) {
      pass.replies[i].error = e.what();
    }
    pass.replies[i].late_ms = late;
    pass.replies[i].sent_ms = sent;
  }
  pass.wall_ms =
      std::chrono::duration<double, std::milli>(Tracer::Clock::now() - start)
          .count();
  pass.stats = server.stats();
  return pass;
}

std::unique_ptr<mnemo::serve::Server> make_server(const RunConfig& cfg,
                                                  std::size_t workers,
                                                  const std::string& name) {
  const fs::path dir = fs::path(cfg.work_dir) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  mnemo::serve::ServeOptions opts;
  opts.threads = workers;
  opts.queue_capacity = 4096;
  opts.cache_dir = dir.string();
  return std::make_unique<mnemo::serve::Server>(std::move(opts));
}

/// A fresh server warmed up by a few cold requests on traces the schedule
/// never sends, each checked against its expected digest.
std::unique_ptr<mnemo::serve::Server> start_server(const RunConfig& cfg,
                                                   std::size_t workers,
                                                   const std::string& name,
                                                   const ScheduleSpec& spec,
                                                   Ledger& ledger) {
  auto server = make_server(cfg, workers, name);
  for (const Arrival& a : warmup_requests(cfg.seed, spec, kWarmups)) {
    const Reply rep =
        parse_reply(server->submit_line(a.line).get(), request_id(a.line));
    ledger.expect(rep.ok && cfg.digests->check(a.digest_key, rep.digest),
                  a.digest_key + " (warm-up)",
                  rep.ok ? "output digest mismatch" : rep.error);
  }
  return server;
}

/// Checks every reply against the expected digests.
void check_pass(const std::vector<Arrival>& schedule, const Pass& pass,
                Digests& digests, Ledger& ledger, const char* suffix) {
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Reply& r = pass.replies[i];
    const std::string op = schedule[i].digest_key + suffix;
    if (!r.ok) {
      ledger.fail(op, r.error);
    } else {
      ledger.expect(digests.check(schedule[i].digest_key, r.digest), op,
                    "output digest mismatch");
    }
  }
}

std::vector<double> latencies(const std::vector<Arrival>& schedule,
                              const Pass& pass, ReqClass cls) {
  std::vector<double> v;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Reply& r = pass.replies[i];
    if (schedule[i].cls == cls && r.ok) {
      v.push_back(r.late_ms + r.queue_ms + r.run_ms);
    }
  }
  return v;
}

/// The serve layer set of one pass: the parser on every line, each
/// class's queue/run split, the server's ledger, and the load it saw.
Metrics layers(const std::vector<Arrival>& schedule, const Pass& pass,
               std::size_t workers, Ledger& ledger) {
  std::vector<double> parse_us;
  for (const Arrival& a : schedule) {
    const auto t0 = Tracer::Clock::now();
    const mnemo::serve::Request req = mnemo::serve::Request::parse_line(a.line);
    parse_us.push_back(std::chrono::duration<double, std::micro>(
                           Tracer::Clock::now() - t0)
                           .count());
    ledger.expect(req.id == request_id(a.line), a.digest_key + " (parse)",
                  "request line parsed to another id");
  }
  Metrics m = {{"serve.parse_us", median(parse_us), "us"}};
  for (const ReqClass cls :
       {ReqClass::kSmall, ReqClass::kWarm, ReqClass::kBig}) {
    std::vector<double> queue;
    std::vector<double> run;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      if (schedule[i].cls != cls || !pass.replies[i].ok) continue;
      queue.push_back(pass.replies[i].queue_ms);
      run.push_back(pass.replies[i].run_ms);
    }
    const std::string p = std::string("serve.") + class_name(cls) + ".";
    m.push_back({p + "queue_p50_ms", percentile(queue, 0.5), "ms"});
    m.push_back({p + "run_p50_ms", percentile(run, 0.5), "ms"});
  }
  std::vector<double> late;
  double busy_ms = 0.0;
  std::set<std::string> measure_keys;  // distinct traces sent cold
                                       // (plus the kWarmups warm-ups)
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    late.push_back(pass.replies[i].late_ms);
    busy_ms += pass.replies[i].run_ms;
    if (schedule[i].cls != ReqClass::kWarm) {
      measure_keys.insert(schedule[i].digest_key);
    }
  }
  const auto& st = pass.stats;
  m.insert(
      m.end(),
      {{"serve.measure_leads", static_cast<double>(st.measure_leads), "count"},
       {"serve.memo_hits", static_cast<double>(st.measure_memo_hits), "count"},
       {"serve.queue_depth_hwm", static_cast<double>(st.queue_depth_hwm),
        "count"},
       {"serve.cells_run", static_cast<double>(st.cells_run), "count"},
       {"serve.replay_useful_ratio",
        st.measure_leads == 0
            ? 0.0
            : static_cast<double>(measure_keys.size() + kWarmups) /
                  static_cast<double>(st.measure_leads),
        "ratio"},
       {"serve.utilization",
        busy_ms / (static_cast<double>(workers) * pass.wall_ms), "ratio"},
       {"serve.gen_late_p90_ms", percentile(late, 0.9), "ms"}});
  return m;
}

}  // namespace

RunResult run_serve_mix(const RunConfig& cfg) {
  const std::size_t workers = cfg.cpus > 1 ? cfg.cpus - 1 : 1;
  check_thread_budget("serve_mix", workers, 1, cfg.cpus);
  RunResult r;

  // Set-up, several times: the schedule with its request lines, then a
  // fresh cache directory and server warmed up by a few cold requests on
  // traces the schedule never sends. The last one before the pass serves
  // it; the rest run after it, so the median spans two host windows.
  std::vector<double> setup_s;
  std::unique_ptr<mnemo::serve::Server> server;
  std::vector<Arrival> schedule;
  const ScheduleSpec spec = schedule_spec(cfg.seconds);
  const auto set_up = [&] {
    server.reset();
    fs::remove_all(fs::path(cfg.work_dir) / "serve-cache");
    const auto t0 = Tracer::Clock::now();
    schedule = make_schedule(cfg.seed, spec);
    server = start_server(cfg, workers, "serve-cache", spec, r.ledger);
    setup_s.push_back(
        std::chrono::duration<double>(Tracer::Clock::now() - t0).count());
  };
  for (int s = 0; s < kSetups - kSetupsAfter; ++s) set_up();
  const Pass plain = run_pass(*server, schedule);
  for (int s = 0; s < kSetupsAfter; ++s) set_up();
  server.reset();
  check_pass(schedule, plain, *cfg.digests, r.ledger, "");

  if (!cfg.trace) {
    r.metrics = {
        {"latency_ms",
         percentile(latencies(schedule, plain, ReqClass::kSmall), 0.5), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"}};
    return r;
  }

  // Traced run: replay the same schedule against a fresh server and
  // record per-request spans.
  server = start_server(cfg, workers, "serve-cache-traced", spec, r.ledger);
  const Pass traced = run_pass(*server, schedule);
  server.reset();
  check_pass(schedule, traced, *cfg.digests, r.ledger, " (traced)");
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Reply& a = plain.replies[i];
    const Reply& b = traced.replies[i];
    if (a.ok && b.ok) {
      r.ledger.expect(a.digest == b.digest, schedule[i].digest_key + " (traced)",
                      "traced output differs from the untraced run");
    }
  }

  // Serve spans are built from the response timings after the pass, so
  // tracing adds nothing to a request's latency; its cost is the time to
  // record them, reported against the pass's wall time.
  Tracer tracer(true, cfg.origin);
  const auto record_t0 = Tracer::Clock::now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Reply& rep = traced.replies[i];
    const double due = schedule[i].due_ms;
    const double sent = rep.sent_ms;
    const int root = tracer.add(std::string("serve.") +
                                    class_name(schedule[i].cls),
                                due, sent + rep.queue_ms + rep.run_ms, -1, i);
    tracer.add("serve.generator_late", due, sent, root, i);
    tracer.add("serve.queue", sent, sent + rep.queue_ms, root, i);
    tracer.add("serve.run", sent + rep.queue_ms,
               sent + rep.queue_ms + rep.run_ms, root, i);
  }
  const double record_ms = std::chrono::duration<double, std::milli>(
                               Tracer::Clock::now() - record_t0)
                               .count();
  if (!tracer.write(cfg.trace_path)) {
    throw std::runtime_error("cannot write " + cfg.trace_path);
  }
  r.metrics = layers(schedule, traced, workers, r.ledger);
  r.metrics.push_back(
      {"trace.overhead_pct", record_ms / traced.wall_ms * 100.0, "%"});
  return r;
}

Metrics probe_serve(const RunConfig& cfg, Ledger& ledger) {
  const std::size_t workers = cfg.cpus > 1 ? cfg.cpus - 1 : 1;
  const ScheduleSpec spec = probe_spec();
  const std::vector<Arrival> schedule = make_schedule(kProbeSeed, spec);
  auto server = start_server(cfg, workers, "serve-cache-probe", spec, ledger);
  const Pass pass = run_pass(*server, schedule);
  server.reset();
  check_pass(schedule, pass, *cfg.digests, ledger, " (probe)");
  return layers(schedule, pass, workers, ledger);
}

void record_serve_mix(const RunConfig& cfg, Ledger& ledger) {
  const std::size_t workers = cfg.cpus > 1 ? cfg.cpus - 1 : 1;
  const ScheduleSpec spec;
  const auto server = make_server(cfg, workers, "serve-cache-record");
  // Every small and big trace, then every warm variant of each small
  // (after its small, so the warm answer is the re-advise one).
  for (const ReqClass cls :
       {ReqClass::kSmall, ReqClass::kBig, ReqClass::kWarm}) {
    const std::size_t pool =
        cls == ReqClass::kBig ? spec.big_pool : spec.small_pool;
    std::vector<std::future<std::string>> futures;
    for (std::size_t idx = 0; idx < pool; ++idx) {
      futures.push_back(server->submit_line(
          request_line(cls, idx, "r" + std::to_string(idx))));
    }
    for (std::size_t idx = 0; idx < pool; ++idx) {
      const Reply rep = parse_reply(futures[idx].get(),
                                    "r" + std::to_string(idx));
      ledger.expect(rep.ok, digest_key(cls, idx), rep.error);
      if (rep.ok) (void)cfg.digests->check(digest_key(cls, idx), rep.digest);
    }
  }
}

}  // namespace perfbench
