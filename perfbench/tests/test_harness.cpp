// Tests of the benchmark's own helpers: the percentile rule, the span
// self-time arithmetic, and the seeded open-loop schedule.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "harness.hpp"
#include "schedule.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

TEST(Percentile, RefusesTailsWithoutTenSamplesBeyond) {
  EXPECT_THROW((void)percentile(ramp(99), 0.9), std::invalid_argument);
  EXPECT_THROW((void)percentile(ramp(999), 0.99), std::invalid_argument);
  EXPECT_THROW((void)percentile(ramp(19), 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile(ramp(100), 1.0), std::invalid_argument);
}

TEST(Percentile, NearestRankAtTheMinimumSampleCounts) {
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 0.9), 90.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(1000), 0.99), 990.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(20), 0.5), 10.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(21), 0.5), 11.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 0},
      {"a", 1.0, 4.0, 0, 0},   // overlaps b
      {"b", 3.0, 5.0, 0, 0},
      {"c", 8.0, 12.0, 0, 0},  // runs past the parent's end
      {"a.child", 1.5, 2.0, 1, 0},
      {"other", 0.0, 3.0, -1, 1},
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 2.0));  // [1,5] and [8,10]
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
  EXPECT_DOUBLE_EQ(self[5], 3.0);
  EXPECT_EQ(self_ms_of(spans, self, "a"), std::vector<double>{2.5});
}

TEST(SelfTime, RejectsADanglingParent) {
  EXPECT_THROW((void)self_times({{"x", 0.0, 1.0, 3, 0}}),
               std::invalid_argument);
}

ScheduleSpec small_spec() {
  ScheduleSpec s;
  s.small = 200;
  s.warm = 80;
  s.big = 20;
  s.rate_per_s = 90.0;
  return s;
}

TEST(Schedule, SameSeedGivesTheIdenticalScheduleAndLines) {
  const std::vector<Arrival> a = make_schedule(7, small_spec());
  const std::vector<Arrival> b = make_schedule(7, small_spec());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ms, b[i].due_ms);
    EXPECT_EQ(a[i].line, b[i].line);
    EXPECT_EQ(a[i].digest_key, b[i].digest_key);
  }
  const std::vector<Arrival> c = make_schedule(8, small_spec());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].line != c[i].line || a[i].due_ms != c[i].due_ms;
  }
  EXPECT_TRUE(differs);
}

TEST(Schedule, ExactClassCountsDistinctColdTracesAndOldEnoughWarmTargets) {
  const ScheduleSpec spec = small_spec();
  const std::vector<Arrival> s = make_schedule(11, spec);
  std::size_t counts[3] = {0, 0, 0};
  std::set<std::string> cold;
  for (std::size_t i = 0; i < s.size(); ++i) {
    ++counts[static_cast<int>(s[i].cls)];
    if (i > 0) {
      EXPECT_GT(s[i].due_ms, s[i - 1].due_ms);
    }
    if (s[i].cls != ReqClass::kWarm) {
      EXPECT_TRUE(cold.insert(s[i].digest_key).second) << s[i].line;
      continue;
    }
    EXPECT_GE(s[i].due_ms, spec.warm_lag_ms);
    bool target_seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      target_seen = target_seen || (s[j].cls == ReqClass::kSmall &&
                                    s[j].pool_idx == s[i].pool_idx);
    }
    EXPECT_TRUE(target_seen) << s[i].line;
  }
  EXPECT_EQ(counts[0], spec.small);
  EXPECT_EQ(counts[1], spec.warm);
  EXPECT_EQ(counts[2], spec.big);
  // Mean gap near 1/rate.
  EXPECT_NEAR(s.back().due_ms / static_cast<double>(s.size()),
              1e3 / spec.rate_per_s, 0.2 * 1e3 / spec.rate_per_s);
}

TEST(Schedule, BigsSitInTheMiddleThirdOfEqualBlocks) {
  ScheduleSpec spec = small_spec();
  const std::vector<Arrival> s = make_schedule(5, spec);
  const double block = static_cast<double>(s.size()) / spec.big;
  std::size_t k = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i].cls != ReqClass::kBig) continue;
    EXPECT_GE(static_cast<double>(i), (k + 1.0 / 3.0) * block - 1.0);
    EXPECT_LT(static_cast<double>(i), (k + 2.0 / 3.0) * block);
    ++k;
  }
  EXPECT_EQ(k, spec.big);
}

TEST(PoolWalk, VisitsEveryIndexOnceAndDependsOnTheSeed) {
  const PoolWalk w(3, 1, 64);
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < 64; ++i) seen.insert(w.at(i));
  EXPECT_EQ(seen.size(), 64U);
  const PoolWalk other(4, 1, 64);
  bool differs = false;
  for (std::size_t i = 0; i < 8; ++i) differs |= w.at(i) != other.at(i);
  EXPECT_TRUE(differs);
  EXPECT_THROW(PoolWalk(3, 1, 48), std::invalid_argument);
}

TEST(Digests, RecordThenCheck) {
  Digests rec = Digests::recorder();
  EXPECT_TRUE(rec.check("k", 42));
  Digests none;
  EXPECT_FALSE(none.check("k", 42));
  EXPECT_EQ(hex64(0x0123456789abcdefULL), "0123456789abcdef");
}

}  // namespace
}  // namespace perfbench
