#include "schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "harness.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kSmallSeedBase = 30'000;
constexpr std::uint64_t kBigSeedBase = 40'000;

}  // namespace

const char* class_name(ReqClass c) {
  switch (c) {
    case ReqClass::kSmall:
      return "small";
    case ReqClass::kWarm:
      return "warm";
    case ReqClass::kBig:
      return "big";
  }
  return "?";
}

std::string request_line(ReqClass cls, std::size_t pool_idx,
                         const std::string& id) {
  std::string line = "{\"id\":\"" + id + "\",";
  if (cls == ReqClass::kBig) {
    line += "\"op\":\"report\",\"workload\":\"timeline\",\"store\":\"cachet\","
            "\"keys\":10000,\"requests\":100000,\"seed\":" +
            std::to_string(kBigSeedBase + pool_idx);
  } else {
    line += "\"op\":\"advise\",\"workload\":\"trending\","
            "\"store\":\"vermilion\",\"keys\":1000,\"requests\":10000,"
            "\"seed\":" +
            std::to_string(kSmallSeedBase + pool_idx);
    // A warm re-advise changes only an analytic knob, so the measure
    // stage is reused: even pool entries move the SLO, odd ones the price.
    if (cls == ReqClass::kWarm) {
      line += pool_idx % 2 == 0 ? ",\"slo\":0.05" : ",\"p\":0.3";
    }
  }
  return line + ",\"timing\":true}";
}

std::string digest_key(ReqClass cls, std::size_t pool_idx) {
  return std::string("serve/") + class_name(cls) + "/" +
         std::to_string(pool_idx);
}

std::vector<Arrival> make_schedule(std::uint64_t seed,
                                   const ScheduleSpec& spec) {
  if (spec.small > spec.small_pool || spec.big > spec.big_pool) {
    throw std::invalid_argument("schedule larger than its seed pools");
  }
  const std::size_t n = spec.small + spec.warm + spec.big;
  if (n == 0) return {};
  Rng rng(seed ^ 0x5e7e);

  // Bigs are stratified (one at a seeded offset in the middle third of
  // each of `big` equal blocks of arrivals), so two bigs rarely overlap
  // and a run's small-request tail reflects steady interference, not
  // whether the seed happened to bunch the bigs up. Smalls and warms fill
  // the other slots in a seeded shuffle.
  std::vector<ReqClass> classes(n, ReqClass::kSmall);
  const double block =
      static_cast<double>(n) / static_cast<double>(std::max<std::size_t>(
                                   spec.big, 1));
  for (std::size_t k = 0; k < spec.big; ++k) {
    classes[static_cast<std::size_t>(
        (static_cast<double>(k) + (1.0 + rng.uniform()) / 3.0) * block)] =
        ReqClass::kBig;
  }
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < n; ++i) {
    if (classes[i] != ReqClass::kBig) open.push_back(i);
  }
  for (std::size_t i = open.size(); i > 1; --i) {
    std::swap(open[i - 1], open[static_cast<std::size_t>(rng.below(i))]);
  }
  for (std::size_t i = 0; i < spec.warm; ++i) {
    classes[open[i]] = ReqClass::kWarm;
  }

  std::vector<Arrival> out(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-rng.uniform()) * 1e3 / spec.rate_per_s;
    out[i].due_ms = t;
  }
  // No warm request before there is an old enough small one: swap each
  // early warm with the first small after the lead-in.
  const std::size_t lead = static_cast<std::size_t>(
      spec.warm_lag_ms * 1.5 * spec.rate_per_s / 1e3);
  std::size_t donor = lead;
  for (std::size_t i = 0; i < std::min(lead, n); ++i) {
    if (classes[i] != ReqClass::kWarm) continue;
    while (donor < n && classes[donor] != ReqClass::kSmall) ++donor;
    if (donor == n) throw std::invalid_argument("too few small requests");
    std::swap(classes[i], classes[donor]);
  }

  const PoolWalk small_walk(seed, 0x5a11, spec.small_pool);
  const PoolWalk big_walk(seed, 0xb16, spec.big_pool);
  std::size_t smalls = 0;
  std::size_t bigs = 0;
  std::vector<std::size_t> small_at;  // arrival indices of smalls so far
  for (std::size_t i = 0; i < n; ++i) {
    Arrival& a = out[i];
    a.cls = classes[i];
    switch (a.cls) {
      case ReqClass::kSmall:
        a.pool_idx = small_walk.at(smalls++);
        small_at.push_back(i);
        break;
      case ReqClass::kBig:
        a.pool_idx = big_walk.at(bigs++);
        break;
      case ReqClass::kWarm: {
        // Uniform over smalls due at least warm_lag_ms earlier (the
        // latest earlier small when none is that old).
        std::size_t eligible = 0;
        while (eligible < small_at.size() &&
               out[small_at[eligible]].due_ms <= a.due_ms - spec.warm_lag_ms) {
          ++eligible;
        }
        if (small_at.empty()) throw std::invalid_argument("warm before small");
        const std::size_t pick =
            eligible == 0 ? small_at.back()
                          : small_at[static_cast<std::size_t>(
                                rng.below(eligible))];
        a.pool_idx = out[pick].pool_idx;
        break;
      }
    }
    const char tag = a.cls == ReqClass::kSmall  ? 's'
                     : a.cls == ReqClass::kWarm ? 'w'
                                                : 'b';
    a.line = request_line(a.cls, a.pool_idx, tag + std::to_string(i));
    a.digest_key = digest_key(a.cls, a.pool_idx);
  }
  return out;
}

std::vector<Arrival> warmup_requests(std::uint64_t seed,
                                     const ScheduleSpec& spec,
                                     std::size_t count) {
  if (spec.small + count > spec.small_pool) {
    throw std::invalid_argument("warm-ups exceed the small pool");
  }
  const PoolWalk small_walk(seed, 0x5a11, spec.small_pool);
  std::vector<Arrival> out(count);
  for (std::size_t k = 0; k < count; ++k) {
    Arrival& a = out[k];
    a.pool_idx = small_walk.at(spec.small + k);
    a.line = request_line(ReqClass::kSmall, a.pool_idx,
                          "u" + std::to_string(k));
    a.digest_key = digest_key(ReqClass::kSmall, a.pool_idx);
  }
  return out;
}

}  // namespace perfbench
