// Equivalence oracle for the campaign executor (DESIGN.md §14): K cells
// advanced per pass over the shared CompiledTrace by core::LaneBand, with
// util::simd batch kernels, must produce measurements bit-identical
// (field-for-field via RunMeasurement's defaulted operator==) to the
// serial reference campaign of reference_campaign.hpp — per-cell
// SensitivityEngine::try_run_once over the raw Trace — for every store
// architecture, at every lane-width cap in {1, 2, 4, 8}, every thread count
// in {1, 2, 8}, with and without fault injection. The width-4 legs are the
// runner's default configuration; they keep the CompiledReplay names they
// had in test_compiled_replay.cpp, and the LaneFusion tests run the other
// caps. Concurrent async grids on one shared scheduler, drawing lane
// arenas from the one process-wide kit pool, must match the same oracle.
// The golden fixtures (test_golden_replay, test_serve_golden) pin the same
// bits to files.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/campaign.hpp"
#include "core/lane_band.hpp"
#include "core/sensitivity_engine.hpp"
#include "util/arena.hpp"
#include "util/task_scheduler.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/workload_spec.hpp"

#include "reference_campaign.hpp"

namespace mnemo::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
/// Lane-width caps other than the runner's default (LaneBand::kDefaultLanes).
constexpr std::optional<std::size_t> kOtherWidths[] = {1, 2, 8};
/// The runner as constructed: no set_lane_width call.
constexpr std::optional<std::size_t> kDefaultWidth[] = {std::nullopt};
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

/// The width partition_bands shapes the 3-placement x 2-repeat grid to:
/// the cap in whole sibling pairs, narrowed while bands < threads.
std::size_t shaped_grid_width(std::size_t cap, std::size_t threads) {
  if (cap == 1) return 1;
  if (threads == 1) return cap;
  if (threads == 2) return cap == 8 ? 4 : cap;
  return 2;  // 8 threads: never below one sibling pair
}

/// The 3-placement x 2-repeat grid at every store x cap in `widths` x
/// thread count, bit for bit against the serial reference grid, and the
/// shaped width the runner reports.
void check_grid(std::span<const std::optional<std::size_t>> widths) {
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

    for (const std::optional<std::size_t> cap : widths) {
      const std::size_t width = cap.value_or(LaneBand::kDefaultLanes);
      for (const std::size_t threads : kThreadCounts) {
        CampaignRunner fused(threads);
        if (cap) fused.set_lane_width(*cap);
        ASSERT_EQ(fused.lane_width(), width);
        const std::vector<RunMeasurement> out =
            fused.measure_grid(engine, trace, placements);
        ASSERT_EQ(out.size(), reference.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
          EXPECT_EQ(reference[i], out[i])
              << kvstore::to_string(store) << " placement " << i << " width "
              << width << " threads " << threads;
        }
        // The cap is the set width; the partition actually used narrows
        // it so every worker gets a band.
        EXPECT_EQ(fused.stats().lane_width, shaped_grid_width(width, threads))
            << "cap " << width << " threads " << threads;
      }
    }
  }
}

/// A poisoned six-cell checked campaign at every store x cap in `widths` x
/// thread count: measurements and failure ledger equal the serial
/// reference campaign's.
void check_checked_campaign(
    std::span<const std::optional<std::size_t>> widths) {
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

    for (const std::optional<std::size_t> cap : widths) {
      const std::size_t width = cap.value_or(LaneBand::kDefaultLanes);
      for (const std::size_t threads : kThreadCounts) {
        CampaignRunner fused(threads);
        if (cap) fused.set_lane_width(*cap);
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

TEST(LaneFusion, GridBitIdenticalAcrossWidthsThreadsAndStores) {
  check_grid(kOtherWidths);
}

TEST(CompiledReplay, GridBitIdenticalToLegacyAcrossStoresAndThreads) {
  check_grid(kDefaultWidth);
}

TEST(LaneFusion, CheckedCampaignWithFaultsMatchesPerCellAndLegacy) {
  check_checked_campaign(kOtherWidths);
}

TEST(CompiledReplay, CheckedCampaignWithFaultsMatchesLegacy) {
  check_checked_campaign(kDefaultWidth);
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

  // Shaped: at 8 workers the 6-cell grid splits into sibling pairs.
  CampaignRunner wide(8);
  (void)wide.measure_grid(engine, trace, placements);
  EXPECT_EQ(wide.stats().lane_width, 2u);
  EXPECT_EQ(wide.stats().threads, 3u);
  reset_campaign_totals();

  // The clamp: widths are held to [1, LaneBand::kMaxLanes].
  runner.set_lane_width(0);
  EXPECT_EQ(runner.lane_width(), 1u);
  runner.set_lane_width(1000);
  EXPECT_EQ(runner.lane_width(), LaneBand::kMaxLanes);
}

// Several async grids in flight at once on one shared scheduler: mixed
// stores, repeat counts and therefore shaped widths (1 through 4), every
// band checking lane arenas out of the one process-wide kit pool while
// other grids' bands return theirs. Each grid must still equal the serial
// reference campaign bit for bit (labelled `concurrency`: TSan covers the
// pool's checkout/return).
TEST(LaneFusion, ConcurrentAsyncGridsShareTheKitPool) {
  const workload::Trace trace = small_trace();
  const std::vector<hybridmem::Placement> placements =
      sweep_placements(trace);
  struct Shape {
    kvstore::StoreKind store;
    int repeats;
    std::size_t width;  ///< shaped at 3 workers, cap kDefaultLanes
  };
  const Shape shapes[] = {
      {kvstore::StoreKind::kVermilion, 2, 2},
      {kvstore::StoreKind::kCachet, 1, 1},
      {kvstore::StoreKind::kDynaStore, 3, 3},
      {kvstore::StoreKind::kVermilion, 4, 4},
      {kvstore::StoreKind::kCachet, 2, 2},
      {kvstore::StoreKind::kDynaStore, 1, 1},
  };

  std::vector<std::shared_ptr<const SensitivityEngine>> engines;
  std::vector<CampaignResult> references;
  for (const Shape& shape : shapes) {
    SensitivityConfig cfg;
    cfg.store = shape.store;
    cfg.repeats = shape.repeats;
    engines.push_back(std::make_shared<const SensitivityEngine>(cfg));
    references.push_back(
        reference::measure_grid_checked(*engines.back(), trace, placements));
  }

  util::TaskScheduler scheduler(3);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::promise<CampaignRunner::AsyncOutcome>> promises(
        std::size(shapes));
    std::vector<std::future<CampaignRunner::AsyncOutcome>> futures;
    for (std::size_t g = 0; g < std::size(shapes); ++g) {
      futures.push_back(promises[g].get_future());
      CampaignRunner::measure_grid_checked_async(
          engines[g], trace, placements, nullptr, scheduler.make_group(),
          [&promises, g](CampaignRunner::AsyncOutcome outcome) {
            promises[g].set_value(std::move(outcome));
          });
    }
    for (std::size_t g = 0; g < std::size(shapes); ++g) {
      const CampaignRunner::AsyncOutcome outcome = futures[g].get();
      ASSERT_EQ(outcome.error, nullptr) << "grid " << g;
      EXPECT_EQ(outcome.stats.lane_width, shapes[g].width) << "grid " << g;
      ASSERT_EQ(outcome.grid.measurements.size(),
                references[g].measurements.size());
      for (std::size_t p = 0; p < placements.size(); ++p) {
        EXPECT_EQ(outcome.grid.measurements[p], references[g].measurements[p])
            << kvstore::to_string(shapes[g].store) << " repeats "
            << shapes[g].repeats << " placement " << p << " round " << round;
      }
      EXPECT_TRUE(outcome.grid.failures.empty());
    }
  }
}

}  // namespace
}  // namespace mnemo::core
