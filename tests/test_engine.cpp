// Engine layer: factory spec parsing, engine registry, FlowEngine /
// PacketEngine semantics per pattern kind, and the paper's own sanity
// check — flow-level and packet-level results agreeing on a small
// HammingMesh through one shared TrafficSpec.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "engine/factory.hpp"
#include "engine/flow_engine.hpp"
#include "engine/packet_engine.hpp"
#include "flow/flow_sim.hpp"
#include "topo/fattree.hpp"
#include "topo/hammingmesh.hpp"

namespace hxmesh::engine {
namespace {

// ------------------------------------------------------ topology factory --
TEST(TopologyFactory, ParsesHxMeshFamilies) {
  auto hx2 = make_topology("hx2mesh:16x16");
  EXPECT_EQ(hx2->num_endpoints(), 1024);
  EXPECT_EQ(hx2->ports_per_endpoint(), 4);

  auto hx4 = make_topology("hx4mesh:8x8");
  EXPECT_EQ(hx4->num_endpoints(), 1024);

  auto general = make_topology("hxmesh:4x2:16x32");
  EXPECT_EQ(general->num_endpoints(), 4 * 2 * 16 * 32);

  auto tapered = make_topology("hxmesh:2x2:16x16:taper=0.5");
  auto* hx = dynamic_cast<const topo::HammingMesh*>(tapered.get());
  ASSERT_NE(hx, nullptr);
  EXPECT_DOUBLE_EQ(hx->params().rail_taper, 0.5);
}

TEST(TopologyFactory, ParsesOtherFamilies) {
  EXPECT_EQ(make_topology("fattree:1024")->num_endpoints(), 1024);
  EXPECT_EQ(make_topology("torus:8x8")->num_endpoints(), 64);
  EXPECT_EQ(make_topology("hyperx:8x8")->num_endpoints(), 64);
  EXPECT_EQ(make_topology("dragonfly:small")->num_endpoints(), 1024);
  auto ft = make_topology("fattree:256:taper=0.25");
  auto* tree = dynamic_cast<const topo::FatTree*>(ft.get());
  ASSERT_NE(tree, nullptr);
  EXPECT_DOUBLE_EQ(tree->params().taper, 0.25);
}

TEST(TopologyFactory, RejectsBadSpecs) {
  EXPECT_THROW(make_topology("warpnet:4x4"), std::invalid_argument);
  EXPECT_THROW(make_topology("hx2mesh"), std::invalid_argument);
  EXPECT_THROW(make_topology("hx2mesh:banana"), std::invalid_argument);
  EXPECT_THROW(make_topology("fattree:many"), std::invalid_argument);
  EXPECT_THROW(make_topology("hx2mesh:4x4:frob=1"), std::invalid_argument);
  // Out-of-range numbers must surface as the documented invalid_argument,
  // not as std::out_of_range escaping from stoi/stod.
  EXPECT_THROW(make_topology("fattree:99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(make_topology("hx2mesh:4x99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(make_topology("hx2mesh:4x4:taper=abc"), std::invalid_argument);
}

// --------------------------------------------------------- engine factory --
TEST(EngineFactory, BuildsRegisteredEngines) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  EXPECT_EQ(make_engine("flow", hx)->name(), "flow");
  EXPECT_EQ(make_engine("packet", hx)->name(), "packet");
  EXPECT_THROW(make_engine("quantum", hx), std::invalid_argument);
  EXPECT_EQ(engine_names(), (std::vector<std::string>{"flow", "packet"}));
}

// ------------------------------------------------------------ FlowEngine --
// Every Summary field, bit for bit (n first, then the nine doubles).
std::vector<std::uint64_t> summary_bits(const Summary& s) {
  std::vector<std::uint64_t> bits = {s.n};
  for (double v : {s.mean, s.stddev, s.min, s.p01, s.p25, s.median, s.p75,
                   s.p99, s.max})
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

TEST(FlowEngine, ShiftMatchesDirectSolver) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  FlowEngine eng(hx);
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kShift;
  spec.shift = 3;
  RunResult result = eng.run(spec);
  EXPECT_EQ(result.flow_count, 64u);

  flow::FlowSolver solver(hx);  // direct construction allowed in unit tests
  auto flows = flow::shift_pattern(64, 3);
  solver.solve(flows);
  EXPECT_EQ(summary_bits(result.rate_summary),
            summary_bits(summarize_rates(flows)));
}

TEST(FlowEngine, PermutationRunsAreSeedDeterministic) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  FlowEngine eng(hx);
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kPermutation;
  spec.seed = 99;
  RunResult a = eng.run(spec);
  RunResult b = eng.run(spec);
  EXPECT_EQ(a.flow_count, b.flow_count);
  EXPECT_EQ(summary_bits(a.rate_summary), summary_bits(b.rate_summary));
}

TEST(FlowEngine, AllreduceFractionNearPeakForLargeMessages) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  FlowEngine eng(hx);
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kAllreduce;
  spec.message_bytes = 1 * GiB;
  RunResult result = eng.run(spec);
  EXPECT_GT(result.fraction_of_peak, 0.9);
  EXPECT_LT(result.fraction_of_peak, 1.02);
  EXPECT_GT(result.alpha_s, 0.0);
}

TEST(FlowEngine, AlltoallFractionMatchesTableTwoShape) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 16, .y = 16});
  FlowEngine eng(hx);
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kAlltoall;
  spec.samples = 32;
  RunResult result = eng.run(spec);
  // Table II: small Hx2Mesh global bandwidth ~25% of injection.
  EXPECT_GT(result.aggregate_fraction, 0.18);
  EXPECT_LT(result.aggregate_fraction, 0.35);
}

// ----------------------------------------------------------- PacketEngine --
TEST(PacketEngine, ShiftDeliversAllMessages) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  PacketEngine eng(hx);
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kShift;
  spec.shift = 5;
  spec.message_bytes = 256 * KiB;
  RunResult result = eng.run(spec);
  EXPECT_TRUE(result.numerics_ok);
  EXPECT_GT(result.completion_s, 0.0);
  EXPECT_GT(result.rate_summary.min, 0.0);  // every message delivered
}

TEST(PacketEngine, AllreduceVerifiesNumerics) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  PacketEngine eng(hx);
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kAllreduce;
  spec.message_bytes = 64 * KiB;
  RunResult result = eng.run(spec);
  EXPECT_TRUE(result.numerics_ok);
  EXPECT_GT(result.fraction_of_peak, 0.0);
}

// ------------------------------------------- flow vs packet cross-check ---
// The paper's own sanity check, via the unified TrafficSpec: both engines
// run the same ring scenario on a small HammingMesh and must agree on
// sustained bandwidth within a packet-transient tolerance.
TEST(CrossValidation, FlowAndPacketAgreeOnRing) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kRing;
  spec.bidirectional = false;  // one message per rank: no injection queueing
  // Snake ring along row 0: physical neighbors.
  for (int gx = 0; gx < hx.accel_x(); ++gx)
    spec.ranks.push_back(hx.rank_at(gx, 0));
  spec.message_bytes = 4 * MiB;

  RunResult flow_result = FlowEngine(hx).run(spec);
  RunResult packet_result = PacketEngine(hx).run(spec);
  ASSERT_TRUE(packet_result.numerics_ok);
  ASSERT_EQ(flow_result.flow_count, packet_result.flow_count);

  // The packet simulator includes serialization pipelines and ramp-up;
  // agreement within 25% on the mean validates both models (same bound as
  // the seed's shift-pattern integration test).
  EXPECT_NEAR(packet_result.rate_summary.mean, flow_result.rate_summary.mean,
              0.25 * flow_result.rate_summary.mean);
}

TEST(CrossValidation, FlowAndPacketAgreeOnShift) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kShift;
  spec.shift = 3;
  spec.message_bytes = 4 * MiB;
  RunResult flow_result = FlowEngine(hx).run(spec);
  RunResult packet_result = PacketEngine(hx).run(spec);
  ASSERT_TRUE(packet_result.numerics_ok);
  EXPECT_NEAR(packet_result.rate_summary.mean, flow_result.rate_summary.mean,
              0.25 * flow_result.rate_summary.mean);
}

}  // namespace
}  // namespace hxmesh::engine
