// End-to-end integration: cross-validation between the packet-level
// simulator and the flow-level solver, allocation + collective on the
// allocated virtual sub-HxMesh, and Table II-level consistency checks.
#include <gtest/gtest.h>

#include <numeric>

#include "alloc/allocator.hpp"
#include "collectives/hamiltonian.hpp"
#include "collectives/models.hpp"
#include "collectives/runtime.hpp"
#include "cost/cost_model.hpp"
#include "flow/patterns.hpp"
#include "paper_topology.hpp"
#include "sim/minimpi.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/zoo.hpp"

namespace hxmesh {
namespace {

// The two simulation tiers must agree on steady-state bandwidth: run the
// same shift permutation through the packet simulator (large transfers)
// and the flow solver, and compare aggregate throughput.
TEST(Integration, PacketSimMatchesFlowSolverOnShiftPattern) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  const int n = hx.num_endpoints();
  const int shift = 3;

  flow::FlowSolver solver(hx);
  auto flows = flow::shift_pattern(n, shift);
  solver.solve(flows);
  double flow_rate = 0;
  for (const auto& f : flows) flow_rate += f.rate;
  flow_rate /= n;

  const std::uint64_t bytes = 4 * MiB;
  sim::PacketSim sim(hx);
  for (int i = 0; i < n; ++i)
    sim.send_message(i, (i + shift) % n, bytes, nullptr);
  picoseconds t = sim.run();
  double pkt_rate = static_cast<double>(bytes) / ps_to_s(t);

  EXPECT_EQ(sim.unfinished_messages(), 0);
  // The packet simulator includes serialization pipelines and transient
  // ramp-up; agreement within ~25% validates both models.
  EXPECT_NEAR(pkt_rate, flow_rate, 0.25 * flow_rate)
      << "packet " << pkt_rate / 1e9 << " GB/s vs flow " << flow_rate / 1e9;
}

TEST(Integration, AllocateJobThenRunAllreduceOnVirtualSubmesh) {
  // Allocate a 2x2-board job on a 4x4 Hx2Mesh (possibly split around an
  // obstacle), map a ring over the job's accelerators, and run a verified
  // allreduce on the packet simulator.
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  alloc::Allocator cluster(4, 4);
  Rng rng(1);
  cluster.allocate(0, 3, rng);  // obstacle
  auto job = cluster.allocate(1, 4, rng);
  ASSERT_TRUE(job.has_value());
  ASSERT_EQ(job->num_boards(), 4);

  // Accelerator ranks of the virtual sub-HxMesh, snake order over boards.
  std::vector<int> ring;
  for (std::size_t r = 0; r < job->rows.size(); ++r)
    for (std::size_t c = 0; c < job->cols.size(); ++c) {
      int bx = job->cols[r % 2 == 0 ? c : job->cols.size() - 1 - c];
      int by = job->rows[r];
      for (int j = 0; j < 2; ++j)
        for (int i = 0; i < 2; ++i)
          ring.push_back(hx.rank_at(bx * 2 + i, by * 2 + j));
    }
  sim::MiniMpi mpi(hx);
  bool ok = false;
  collectives::run_allreduce_ring(mpi, ring, 256, &ok);
  EXPECT_TRUE(ok);
}

TEST(Integration, TwoRingsBeatBidirOnPacketSim) {
  // The Appendix D claim, measured end to end: two edge-disjoint rings
  // (4 ports) complete the same allreduce faster than one bidirectional
  // ring (2 ports).
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  auto rings = collectives::disjoint_hamiltonian_rings(4, 4);
  std::vector<int> red, green;
  for (auto [r, c] : rings.red) red.push_back(hx.rank_at(c, r));
  for (auto [r, c] : rings.green) green.push_back(hx.rank_at(c, r));
  const int words = 32 * 1024;

  sim::MiniMpi mpi1(hx);
  bool ok_two = false;
  picoseconds t_two = collectives::run_allreduce_two_rings(mpi1, red, green,
                                                           words, &ok_two);
  sim::MiniMpi mpi2(hx);
  bool ok_bidir = false;
  picoseconds t_bidir =
      collectives::run_allreduce_bidir(mpi2, red, words, &ok_bidir);
  EXPECT_TRUE(ok_two);
  EXPECT_TRUE(ok_bidir);
  EXPECT_LT(t_two, t_bidir);
}

TEST(Integration, TableTwoShapeSmallCluster) {
  // The cost/bandwidth relationships that carry the paper's argument.
  using topo::ClusterSize;
  using topo::PaperTopology;
  auto ft = test::paper_topology(PaperTopology::kFatTree, ClusterSize::kSmall);
  auto hx2 = test::paper_topology(PaperTopology::kHx2Mesh, ClusterSize::kSmall);
  double ft_cost = cost::bom_for(*ft).total_musd();
  double hx_cost = cost::bom_for(*hx2).total_musd();
  auto ft_ring = collectives::measure_ring(*ft);
  auto hx_ring = collectives::measure_ring(*hx2);
  double ft_ared = collectives::allreduce_fraction_of_peak(ft_ring, 4.0 * GiB);
  double hx_ared = collectives::allreduce_fraction_of_peak(hx_ring, 4.0 * GiB);
  // Both sustain near-peak allreduce...
  EXPECT_GT(ft_ared, 0.95);
  EXPECT_GT(hx_ared, 0.95);
  // ...but HxMesh is >4x cheaper per allreduce byte (paper: 4.7x).
  double saving = (hx_ared / hx_cost) / (ft_ared / ft_cost);
  EXPECT_GT(saving, 4.0);
  EXPECT_LT(saving, 5.5);
}

TEST(Integration, RailTaperTradesGlobalBandwidthForCost) {
  // Section III-F's "second dial", end to end: tapering rail trees cuts
  // cost and global bandwidth but leaves ring allreduce untouched.
  topo::HammingMesh full({.a = 2, .b = 2, .x = 16, .y = 16, .radix = 16});
  topo::HammingMesh tapered(
      {.a = 2, .b = 2, .x = 16, .y = 16, .radix = 16, .rail_taper = 0.5});
  ASSERT_EQ(full.rail_levels_x(), 2);
  flow::FlowSolver sf(full), st(tapered);
  auto ff = flow::shift_pattern(full.num_endpoints(), 300);
  auto ft = flow::shift_pattern(tapered.num_endpoints(), 300);
  sf.solve(ff);
  st.solve(ft);
  double full_rate = 0, tapered_rate = 0;
  for (auto& f : ff) full_rate += f.rate;
  for (auto& f : ft) tapered_rate += f.rate;
  EXPECT_LT(tapered_rate, full_rate * 0.8);
  auto ring_full = collectives::measure_ring(full);
  auto ring_tap = collectives::measure_ring(tapered);
  EXPECT_NEAR(ring_tap.rate_bps, ring_full.rate_bps,
              0.15 * ring_full.rate_bps);
}

}  // namespace
}  // namespace hxmesh
