// Workload models: volume formulas, paper compute constants, and the
// cross-topology shape of Section V-B (who wins, roughly by how much).
#include <gtest/gtest.h>

#include "engine/factory.hpp"
#include "engine/flow_engine.hpp"
#include "flow/patterns.hpp"
#include "paper_topology.hpp"
#include "topo/zoo.hpp"
#include "workload/dnn.hpp"

namespace hxmesh::workload {
namespace {

using topo::ClusterSize;
using topo::PaperTopology;

TEST(Volumes, DataParallelFormula) {
  // VD = W * Np / (O * P): ResNet-152 at O=P=1 reduces all 60.2M params.
  EXPECT_DOUBLE_EQ(data_parallel_volume(4.0, 60.2e6, 1, 1), 240.8e6);
  EXPECT_DOUBLE_EQ(data_parallel_volume(4.0, 60.2e6, 2, 2), 60.2e6);
}

TEST(Volumes, PipelineFormula) {
  // VP = M * W * Na / (D * P * O).
  EXPECT_DOUBLE_EQ(pipeline_volume(32, 4.0, 1e6, 1, 4, 4), 8e6);
}

TEST(Models, ComputeTimesMatchPaperConstants) {
  auto ft = test::paper_topology(PaperTopology::kFatTree, ClusterSize::kSmall);
  CommEnv env(*ft);
  auto all = eval_all_models(env);
  ASSERT_EQ(all.size(), 5u);
  EXPECT_DOUBLE_EQ(all[0].compute_ms, 108.0);   // ResNet-152
  EXPECT_DOUBLE_EQ(all[1].compute_ms, 31.8);    // GPT-3
  EXPECT_DOUBLE_EQ(all[2].compute_ms, 49.9);    // GPT-3 MoE
  EXPECT_DOUBLE_EQ(all[3].compute_ms, 44.3);    // CosmoFlow
  EXPECT_NEAR(all[4].compute_ms, 1.1, 0.01);    // DLRM
  for (const auto& r : all) EXPECT_GE(r.iteration_ms, r.compute_ms);
}

struct Overheads {
  double resnet, gpt3, moe, cosmo, dlrm;
};

Overheads overheads_on(PaperTopology which) {
  auto t = test::paper_topology(which, ClusterSize::kSmall);
  CommEnv env(*t);
  auto all = eval_all_models(env);
  return {all[0].overhead_ms(), all[1].overhead_ms(), all[2].overhead_ms(),
          all[3].overhead_ms(), all[4].overhead_ms()};
}

TEST(Models, ResNetOverheadSmallEverywhere) {
  // Paper: < 2.5% communication overhead in the worst case.
  for (auto which : topo::paper_topology_list()) {
    auto o = overheads_on(which);
    EXPECT_LT(o.resnet / 108.0, 0.035) << topo::paper_topology_label(which);
  }
}

TEST(Models, Gpt3ShapeFatTreeBeatsHxMeshBeatsTorus) {
  auto ft = overheads_on(PaperTopology::kFatTree);
  auto hx2 = overheads_on(PaperTopology::kHx2Mesh);
  auto hx4 = overheads_on(PaperTopology::kHx4Mesh);
  auto torus = overheads_on(PaperTopology::kTorus);
  // Paper runtimes: FT 34.8 < Hx2 41.7 < Hx4 49.9 < torus 72.2.
  EXPECT_LT(ft.gpt3, hx2.gpt3);
  EXPECT_LT(hx2.gpt3, hx4.gpt3);
  EXPECT_LT(hx4.gpt3, torus.gpt3);
}

TEST(Models, MoeShapeMatchesPaperOrdering) {
  auto ft = overheads_on(PaperTopology::kFatTree);
  auto hx2 = overheads_on(PaperTopology::kHx2Mesh);
  auto hx4 = overheads_on(PaperTopology::kHx4Mesh);
  auto torus = overheads_on(PaperTopology::kTorus);
  // Paper: FT 52.2 < Hx2 58.3 < Hx4 63.3 < torus 73.8.
  EXPECT_LT(ft.moe, hx2.moe);
  EXPECT_LT(hx2.moe, hx4.moe);
  EXPECT_LT(hx4.moe, torus.moe);
}

TEST(Models, TorusWorstForCosmoFlow) {
  // Paper: all topologies < 2% except Hx4Mesh (3.4%) and torus (4.4%).
  auto ft = overheads_on(PaperTopology::kFatTree);
  auto torus = overheads_on(PaperTopology::kTorus);
  EXPECT_GT(torus.cosmo, ft.cosmo);
}

TEST(CommEnvTest, PlaneFactorFourForSinglePortTopologies) {
  auto ft = test::paper_topology(PaperTopology::kFatTree, ClusterSize::kSmall);
  auto hx = test::paper_topology(PaperTopology::kHx2Mesh, ClusterSize::kSmall);
  EXPECT_EQ(CommEnv(*ft).plane_factor(), 4);
  EXPECT_EQ(CommEnv(*hx).plane_factor(), 1);
}

TEST(CommEnvTest, ConsecutiveRingsOnHxMeshRunAtLinkRate) {
  auto hx = test::paper_topology(PaperTopology::kHx2Mesh, ClusterSize::kSmall);
  CommEnv env(*hx);
  MappedRing o_ring = env.rings_consecutive(384, 4);
  EXPECT_EQ(o_ring.p, 4);
  EXPECT_GT(o_ring.rate_bps, 0.4 * kLinkBandwidthBps);
}

TEST(CommEnvTest, AllreduceTimeScalesWithSize) {
  auto ft = test::paper_topology(PaperTopology::kFatTree, ClusterSize::kSmall);
  CommEnv env(*ft);
  MappedRing ring = env.rings_strided(256, 1);
  EXPECT_LT(env.t_allreduce(ring, 1e6), env.t_allreduce(ring, 1e8));
  EXPECT_EQ(env.t_allreduce(MappedRing{1, 0, kLinkBandwidthBps}, 1e6), 0.0);
}

TEST(CommEnvTest, AlltoallLatencyBoundForTinyMessages) {
  auto ft = test::paper_topology(PaperTopology::kFatTree, ClusterSize::kSmall);
  CommEnv env(*ft);
  double tiny = env.t_alltoall(64, 8.0);
  double big = env.t_alltoall(64, 1e6);
  EXPECT_GT(big, tiny);
  EXPECT_GT(tiny, 0.0);
}

// CommEnv and the flow engine read one alltoall estimate: t_alltoall is
// the alpha-beta round model over the engine's alltoall:samples=8 row, bit
// for bit, on a four-port and a one-port (four-plane) machine.
TEST(CommEnvTest, AlltoallTimeReadsTheFlowEngineEstimate) {
  for (const char* spec : {"hx2mesh:4x4", "fattree:64"}) {
    SCOPED_TRACE(spec);
    auto t = engine::make_topology(spec);
    const int n = t->num_endpoints();
    const engine::RunResult row =
        engine::FlowEngine(*t).run(flow::parse_traffic("alltoall:samples=8"));
    CommEnv env(*t);
    const double bytes = 1e6;
    EXPECT_EQ(env.t_alltoall(n, bytes),
              (n - 1) * (row.alpha_s + bytes / env.plane_factor() /
                                           row.rate_summary.mean));
  }
}

}  // namespace
}  // namespace hxmesh::workload
