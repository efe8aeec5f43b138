// Equivalence oracle for the campaign executor (DESIGN.md §14): K cells
// advanced per pass over the shared CompiledTrace by core::LaneBand, with
// util::simd batch kernels, must produce measurements bit-identical
// (field-for-field via RunMeasurement's defaulted operator==) to the
// serial reference campaign of reference_campaign.hpp — per-cell
// SensitivityEngine::try_run_once over the raw Trace — for every store
// architecture, at every lane width in {1, 2, 4, 8}, every thread count in
// {1, 2, 8}, with and without fault injection. The golden fixtures
// (test_golden_replay, test_serve_golden) pin the same bits to files.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/campaign.hpp"
#include "core/lane_band.hpp"
#include "core/sensitivity_engine.hpp"
#include "util/arena.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/workload_spec.hpp"

#include "reference_campaign.hpp"

namespace mnemo::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr std::size_t kLaneWidths[] = {1, 2, 4, 8};
constexpr kvstore::StoreKind kStores[] = {kvstore::StoreKind::kVermilion,
                                          kvstore::StoreKind::kCachet,
                                          kvstore::StoreKind::kDynaStore};

workload::Trace small_trace() {
  workload::WorkloadSpec spec;
  spec.name = "lane_fusion";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.85;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = 200;
  spec.request_count = 2'000;
  spec.seed = 0xc0dec;
  return workload::Trace::generate(spec);
}

std::vector<hybridmem::Placement> sweep_placements(
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

TEST(LaneFusion, GridBitIdenticalAcrossWidthsThreadsAndStores) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace);

  for (const kvstore::StoreKind store : kStores) {
    SensitivityConfig cfg;
    cfg.store = store;
    cfg.repeats = 2;
    const SensitivityEngine engine(cfg);

    const std::vector<RunMeasurement> reference =
        reference::measure_grid(engine, trace, placements);

    for (const std::size_t width : kLaneWidths) {
      for (const std::size_t threads : kThreadCounts) {
        CampaignRunner fused(threads);
        fused.set_lane_width(width);
        ASSERT_EQ(fused.lane_width(), width);
        const std::vector<RunMeasurement> out =
            fused.measure_grid(engine, trace, placements);
        ASSERT_EQ(out.size(), reference.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
          EXPECT_EQ(reference[i], out[i])
              << kvstore::to_string(store) << " placement " << i << " width "
              << width << " threads " << threads;
        }
        EXPECT_EQ(fused.stats().lane_width, width);
      }
    }
  }
}

TEST(LaneFusion, CheckedCampaignWithFaultsMatchesPerCellAndLegacy) {
  const workload::Trace trace = small_trace();
  faultinject::FaultPlan plan;
  plan.poison_rate = 0.2;

  for (const kvstore::StoreKind store : kStores) {
    SensitivityConfig cfg;
    cfg.store = store;
    cfg.repeats = 2;
    cfg.faults = plan;
    const SensitivityEngine engine(cfg);

    const hybridmem::Placement all_fast(trace.key_count(),
                                        hybridmem::NodeId::kFast);
    const hybridmem::Placement all_slow(trace.key_count(),
                                        hybridmem::NodeId::kSlow);
    // Six cells so a band of width 4 mixes accepted lanes with retried
    // ones and the last band is partial.
    const std::vector<CampaignCell> cells = {{all_fast, 0}, {all_slow, 0},
                                             {all_fast, 1}, {all_slow, 1},
                                             {all_fast, 2}, {all_slow, 2}};

    const CampaignResult reference =
        reference::run_checked(engine, trace, cells);
    ASSERT_TRUE(reference.partial()) << kvstore::to_string(store);

    for (const std::size_t width : kLaneWidths) {
      for (const std::size_t threads : kThreadCounts) {
        CampaignRunner fused(threads);
        fused.set_lane_width(width);
        const CampaignResult out = fused.run_checked(engine, trace, cells);
        ASSERT_EQ(out.measurements.size(), reference.measurements.size());
        for (std::size_t i = 0; i < out.measurements.size(); ++i) {
          EXPECT_EQ(reference.measurements[i], out.measurements[i])
              << kvstore::to_string(store) << " cell " << i << " width "
              << width << " threads " << threads;
        }
        EXPECT_EQ(reference.failures, out.failures)
            << kvstore::to_string(store) << " width " << width << " threads "
            << threads;
      }
    }
  }
}

TEST(LaneFusion, DirectBandMatchesTryRunOncePerLane) {
  const workload::Trace trace = small_trace();
  const workload::CompiledTrace compiled(trace);
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace);
  SensitivityConfig cfg;
  const SensitivityEngine engine(cfg);

  // One band of three lanes over distinct placements/repeats, with and
  // without arenas, against the per-cell reference replay of each lane.
  const std::vector<LaneBand::Lane> lane_specs = {
      {&placements[0], 0, 0, nullptr},
      {&placements[1], 1, 0, nullptr},
      {&placements[2], 0, 1, nullptr},
  };
  std::vector<std::optional<util::Result<RunMeasurement>>> outs(
      lane_specs.size());
  LaneBand::replay(engine, compiled, lane_specs, outs);

  for (std::size_t l = 0; l < lane_specs.size(); ++l) {
    const util::Result<RunMeasurement> expected = engine.try_run_once(
        trace, *lane_specs[l].placement, lane_specs[l].repeat,
        lane_specs[l].attempt);
    ASSERT_TRUE(outs[l].has_value()) << "lane " << l;
    ASSERT_EQ(outs[l]->ok(), expected.ok()) << "lane " << l;
    EXPECT_EQ(outs[l]->value(), expected.value()) << "lane " << l;
  }

  // Arena-backed lanes are an allocation strategy, never a behaviour
  // change — same bits again, across arena reuse cycles.
  util::Arena arenas[3];
  for (int cycle = 0; cycle < 2; ++cycle) {
    std::vector<LaneBand::Lane> arena_lanes = lane_specs;
    for (std::size_t l = 0; l < arena_lanes.size(); ++l) {
      arenas[l].reset();
      arena_lanes[l].arena = &arenas[l];
    }
    std::vector<std::optional<util::Result<RunMeasurement>>> arena_outs(
        arena_lanes.size());
    LaneBand::replay(engine, compiled, arena_lanes, arena_outs);
    for (std::size_t l = 0; l < arena_lanes.size(); ++l) {
      ASSERT_TRUE(arena_outs[l].has_value());
      EXPECT_EQ(arena_outs[l]->value(), outs[l]->value())
          << "lane " << l << " cycle " << cycle;
    }
  }
}

// Repeat-sibling skeleton sharing (DESIGN.md §14): lanes whose placements
// are identical and differ only in repeat replay the leader's recorded
// deterministic skeleton through their own noise streams. The shortcut
// must be invisible: every lane's measurement equals its own per-cell
// reference replay, for every store, including content-equal placements at
// different addresses, a sibling separated from its leader by an
// unrelated lane, and a degenerate duplicate of the leader itself.
TEST(LaneFusion, RepeatSiblingBandMatchesPerCellExactly) {
  const workload::Trace trace = small_trace();
  const workload::CompiledTrace compiled(trace);
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace);
  // Same key → node map as placements[1], distinct object: sibling
  // detection must match on placement content, not addresses (campaign
  // cells copy their placement).
  const hybridmem::Placement half_copy = placements[1];

  for (const kvstore::StoreKind store : kStores) {
    SensitivityConfig cfg;
    cfg.store = store;
    const SensitivityEngine engine(cfg);

    const std::vector<LaneBand::Lane> lane_specs = {
        {&placements[1], 0, 0, nullptr},  // leader
        {&half_copy, 1, 0, nullptr},      // sibling via content equality
        {&placements[2], 0, 0, nullptr},  // unrelated lane between siblings
        {&placements[1], 2, 0, nullptr},  // sibling after the gap
        {&placements[1], 0, 0, nullptr},  // duplicate of the leader
    };
    std::vector<std::optional<util::Result<RunMeasurement>>> outs(
        lane_specs.size());
    LaneBand::replay(engine, compiled, lane_specs, outs);

    for (std::size_t l = 0; l < lane_specs.size(); ++l) {
      const util::Result<RunMeasurement> expected = engine.try_run_once(
          trace, *lane_specs[l].placement, lane_specs[l].repeat,
          lane_specs[l].attempt);
      ASSERT_TRUE(outs[l].has_value())
          << kvstore::to_string(store) << " lane " << l;
      ASSERT_TRUE(outs[l]->ok()) << kvstore::to_string(store) << " lane " << l;
      EXPECT_EQ(outs[l]->value(), expected.value())
          << kvstore::to_string(store) << " lane " << l;
    }
    // The degenerate sibling shares the leader's seed, so the whole
    // measurement — noise stream included — must be bit-equal to it.
    EXPECT_EQ(outs[4]->value(), outs[0]->value()) << kvstore::to_string(store);
  }
}

TEST(LaneFusion, EmptyTraceIsTypedErrorOnEveryLane) {
  const workload::Trace trace("empty", 16, {},
                              std::vector<std::uint64_t>(16, 64));
  const workload::CompiledTrace compiled(trace);
  const hybridmem::Placement placement(trace.key_count(),
                                       hybridmem::NodeId::kFast);
  SensitivityConfig cfg;
  const SensitivityEngine engine(cfg);

  const std::vector<LaneBand::Lane> lanes = {{&placement, 0, 0, nullptr},
                                             {&placement, 1, 0, nullptr}};
  std::vector<std::optional<util::Result<RunMeasurement>>> outs(lanes.size());
  LaneBand::replay(engine, compiled, lanes, outs);
  for (std::size_t l = 0; l < outs.size(); ++l) {
    ASSERT_TRUE(outs[l].has_value());
    ASSERT_FALSE(outs[l]->ok());
    EXPECT_EQ(outs[l]->error().code, util::ErrorCode::kInvalidArgument);
  }
}

TEST(LaneFusion, StatsReportLaneWidthAndArenaPeak) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace);
  SensitivityConfig cfg;
  cfg.repeats = 2;
  const SensitivityEngine engine(cfg);

  reset_campaign_totals();
  CampaignRunner runner(2);
  (void)runner.measure_grid(engine, trace, placements);
  const CampaignStats& s = runner.stats();
  EXPECT_EQ(s.lane_width, LaneBand::kDefaultLanes);
  EXPECT_GT(s.arena_peak_bytes, 0u);

  const std::string table = s.render("campaign");
  EXPECT_NE(table.find("lane width"), std::string::npos);
  EXPECT_NE(table.find("arena peak (KiB)"), std::string::npos);

  const CampaignStats totals = campaign_totals();
  EXPECT_EQ(totals.lane_width, LaneBand::kDefaultLanes);
  EXPECT_EQ(totals.arena_peak_bytes, s.arena_peak_bytes);
  reset_campaign_totals();

  // The clamp: widths are held to [1, LaneBand::kMaxLanes].
  runner.set_lane_width(0);
  EXPECT_EQ(runner.lane_width(), 1u);
  runner.set_lane_width(1000);
  EXPECT_EQ(runner.lane_width(), LaneBand::kMaxLanes);
}

}  // namespace
}  // namespace mnemo::core
