// The compile-once replay inputs (DESIGN.md §12): CompiledTrace must hoist
// exactly what the stores would compute per op, and a one-lane LaneBand
// over it — on an external arena, or on a requestless trace — must match
// the per-cell SensitivityEngine replay of the raw Trace. Whole-campaign
// equivalence against the serial reference campaign, default width
// included, lives in test_lane_fusion.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/lane_band.hpp"
#include "core/sensitivity_engine.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "workload/compiled_trace.hpp"
#include "workload/workload_spec.hpp"

namespace mnemo::core {
namespace {

workload::Trace small_trace() {
  workload::WorkloadSpec spec;
  spec.name = "compiled_replay";
  spec.distribution = workload::DistributionKind::kZipfian;
  spec.dist_params.zipf_theta = 0.9;
  spec.read_fraction = 0.85;
  spec.record_size = workload::RecordSizeType::kPreviewMix;
  spec.key_count = 200;
  spec.request_count = 2'000;
  spec.seed = 0xc0dec;
  return workload::Trace::generate(spec);
}

TEST(CompiledTrace, HoistsExactlyWhatTheStoresWouldCompute) {
  const workload::Trace trace = small_trace();
  const workload::CompiledTrace compiled(trace);

  ASSERT_EQ(compiled.key_count(), trace.key_count());
  ASSERT_EQ(compiled.request_count(), trace.requests().size());
  EXPECT_EQ(compiled.dataset_bytes(), trace.dataset_bytes());

  for (std::uint64_t key = 0; key < trace.key_count(); ++key) {
    ASSERT_EQ(compiled.key_hash(key), util::mix64(key));
    ASSERT_EQ(compiled.key_digest(key),
              util::record_digest(key, trace.size_of(key)));
  }

  std::size_t reads = 0;
  for (std::size_t i = 0; i < compiled.request_count(); ++i) {
    const workload::Request& req = trace.requests()[i];
    ASSERT_EQ(compiled.ops()[i], req.op);
    ASSERT_EQ(compiled.keys()[i], req.key);
    if (req.op == workload::OpType::kRead) ++reads;
  }
  EXPECT_EQ(compiled.read_count(), reads);
  EXPECT_EQ(compiled.write_count(), compiled.request_count() - reads);
  EXPECT_EQ(compiled.read_bytes().size(), compiled.read_count());
  EXPECT_EQ(compiled.write_bytes().size(), compiled.write_count());
}

TEST(CompiledReplay, DirectRunOnceWithExternalArenaMatchesHeap) {
  const workload::Trace trace = small_trace();
  const workload::CompiledTrace compiled(trace);
  const hybridmem::Placement half(
      trace.key_count(), hybridmem::NodeId::kFast);
  SensitivityConfig cfg;
  const SensitivityEngine engine(cfg);

  // A one-lane band is the per-cell schedule the campaign runner uses for
  // every cell; on an external arena it must match the heap reference
  // replay, across arena reuse cycles.
  const RunMeasurement heap_legacy = engine.run_once(trace, half, 1);
  util::Arena arena;
  for (int cycle = 0; cycle < 3; ++cycle) {
    arena.reset();
    const LaneBand::Lane lane{&half, 1, 0, &arena};
    std::optional<util::Result<RunMeasurement>> out;
    LaneBand::replay(engine, compiled, {&lane, 1}, {&out, 1});
    ASSERT_TRUE(out.has_value() && out->ok()) << "arena cycle " << cycle;
    EXPECT_EQ(out->value(), heap_legacy) << "arena cycle " << cycle;
  }
}

TEST(CompiledReplay, ZeroRequestTraceIsTypedErrorOnBothPaths) {
  // WorkloadSpec forbids generating an empty trace, but a loaded/derived
  // trace (CSV import, aggressive downsample) can legally be requestless.
  const workload::Trace trace("empty", 16, {},
                              std::vector<std::uint64_t>(16, 64));
  const workload::CompiledTrace compiled(trace);
  const hybridmem::Placement placement(trace.key_count(),
                                       hybridmem::NodeId::kFast);
  SensitivityConfig cfg;
  const SensitivityEngine engine(cfg);

  const util::Result<RunMeasurement> legacy =
      engine.try_run_once(trace, placement);
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.error().code, util::ErrorCode::kInvalidArgument);

  util::Arena arena;
  const LaneBand::Lane lane{&placement, 0, 0, &arena};
  std::optional<util::Result<RunMeasurement>> fast;
  LaneBand::replay(engine, compiled, {&lane, 1}, {&fast, 1});
  ASSERT_TRUE(fast.has_value());
  ASSERT_FALSE(fast->ok());
  EXPECT_EQ(fast->error().code, util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(legacy.error().message, fast->error().message);
}

}  // namespace
}  // namespace mnemo::core
