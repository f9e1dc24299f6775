// Collectives: Hamiltonian-cycle properties (parameterized over all valid
// torus shapes), numerical correctness of every allreduce algorithm on the
// packet simulator, and sanity of the alpha-beta models.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>

#include "collectives/hamiltonian.hpp"
#include "collectives/models.hpp"
#include "collectives/runtime.hpp"
#include "topo/fattree.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/torus.hpp"

namespace hxmesh::collectives {
namespace {

// ----------------------------------------------------- Hamiltonian rings --
using Shape = std::pair<int, int>;

class DisjointRingsTest : public ::testing::TestWithParam<Shape> {};

// Undirected torus edge between consecutive ring cells, normalized.
std::set<std::pair<int, int>> ring_edges(const std::vector<Coord>& ring,
                                         int rows, int cols) {
  std::set<std::pair<int, int>> edges;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    auto [r1, c1] = ring[i];
    auto [r2, c2] = ring[(i + 1) % ring.size()];
    int a = r1 * cols + c1, b = r2 * cols + c2;
    edges.insert({std::min(a, b), std::max(a, b)});
  }
  return edges;
}

TEST_P(DisjointRingsTest, BothRingsAreHamiltonianCycles) {
  auto [rows, cols] = GetParam();
  ASSERT_TRUE(disjoint_rings_supported(rows, cols));
  DisjointRings rings = disjoint_hamiltonian_rings(rows, cols);
  for (const auto* ring : {&rings.red, &rings.green}) {
    ASSERT_EQ(ring->size(), static_cast<std::size_t>(rows) * cols);
    std::set<Coord> visited(ring->begin(), ring->end());
    EXPECT_EQ(visited.size(), ring->size()) << "cell visited twice";
    EXPECT_TRUE(is_torus_neighbor_ring(*ring, rows, cols))
        << rows << "x" << cols;
  }
}

TEST_P(DisjointRingsTest, RingsAreEdgeDisjoint) {
  auto [rows, cols] = GetParam();
  DisjointRings rings = disjoint_hamiltonian_rings(rows, cols);
  auto red = ring_edges(rings.red, rows, cols);
  auto green = ring_edges(rings.green, rows, cols);
  for (const auto& e : red)
    EXPECT_FALSE(green.count(e)) << "shared edge " << e.first << "-"
                                 << e.second << " on " << rows << "x" << cols;
}

TEST_P(DisjointRingsTest, EveryNodeUsesAllFourPorts) {
  // Red + green together must touch each node with 4 distinct edges — the
  // property that lets the two-rings allreduce saturate all HxMesh ports.
  auto [rows, cols] = GetParam();
  DisjointRings rings = disjoint_hamiltonian_rings(rows, cols);
  auto red = ring_edges(rings.red, rows, cols);
  auto green = ring_edges(rings.green, rows, cols);
  std::vector<int> degree(rows * cols, 0);
  for (const auto& edges : {red, green})
    for (auto [a, b] : edges) {
      ++degree[a];
      ++degree[b];
    }
  for (int d : degree) EXPECT_EQ(d, 4);
}

// All shapes from Figure 16 plus every valid shape up to 20x20.
std::vector<Shape> valid_shapes() {
  std::vector<Shape> shapes{{4, 4}, {8, 4}, {9, 3}, {16, 8}};
  for (int c = 3; c <= 20; ++c)
    for (int r = c; r <= 20; r += c)
      if (disjoint_rings_supported(r, c)) shapes.push_back({r, c});
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(AllValidShapes, DisjointRingsTest,
                         ::testing::ValuesIn(valid_shapes()));

TEST(DisjointRings, UnsupportedShapesRejected) {
  EXPECT_FALSE(disjoint_rings_supported(6, 4));   // 6 not multiple of 4
  EXPECT_FALSE(disjoint_rings_supported(9, 4));   // gcd(9,3) = 3
  EXPECT_FALSE(disjoint_rings_supported(4, 1));   // degenerate
  EXPECT_THROW(disjoint_hamiltonian_rings(6, 4), std::invalid_argument);
}

TEST(RingOrderGrid, CoversEveryCellOnce) {
  for (auto [r, c] : std::vector<Shape>{{4, 4}, {6, 4}, {5, 4}, {4, 6},
                                        {3, 5}, {2, 2}, {1, 7}}) {
    auto ring = ring_order_grid(r, c);
    std::set<Coord> seen(ring.begin(), ring.end());
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(r) * c) << r << "x" << c;
  }
}

TEST(RingOrderGrid, UnitStepsWhenSizeEven) {
  for (auto [r, c] : std::vector<Shape>{{4, 4}, {6, 4}, {4, 6}, {2, 8},
                                        {5, 4}, {4, 5}, {8, 2}}) {
    auto ring = ring_order_grid(r, c);
    EXPECT_TRUE(is_torus_neighbor_ring(ring, r, c)) << r << "x" << c;
  }
}

// The rank-level rings actually handed to run_allreduce_two_rings (grid
// coordinates mapped through rank_at) must stay edge-disjoint: every
// consecutive rank pair is an undirected accelerator-grid edge used by
// exactly one of the two rings.
TEST(DisjointRings, RankRingsUsedByTwoRingsAllreduceAreEdgeDisjoint) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  RingMapping m = build_ring_mapping(hx);
  ASSERT_EQ(m.rings.size(), 2u);
  std::set<std::pair<int, int>> seen;
  for (const auto& ring : m.rings) {
    ASSERT_EQ(ring.size(), static_cast<std::size_t>(hx.num_endpoints()));
    for (std::size_t i = 0; i < ring.size(); ++i) {
      int a = ring[i], b = ring[(i + 1) % ring.size()];
      auto edge = std::make_pair(std::min(a, b), std::max(a, b));
      EXPECT_TRUE(seen.insert(edge).second)
          << "edge " << edge.first << "-" << edge.second
          << " used by both rings";
    }
  }
  // Together the two cycles consume all four ports of every accelerator.
  std::vector<int> degree(hx.num_endpoints(), 0);
  for (auto [a, b] : seen) {
    ++degree[a];
    ++degree[b];
  }
  for (int d : degree) EXPECT_EQ(d, 4);
}

// ------------------------------------------------ runtime collectives ----
std::vector<std::vector<float>> make_data(int ranks, int elems) {
  std::vector<std::vector<float>> data(ranks);
  for (int r = 0; r < ranks; ++r) {
    data[r].resize(elems);
    for (int e = 0; e < elems; ++e)
      data[r][e] = static_cast<float>(r + 1) * 0.5f + e;
  }
  return data;
}

std::vector<float> expected_sum(const std::vector<std::vector<float>>& data,
                                const std::vector<int>& ranks) {
  std::vector<float> sum(data[ranks[0]].size(), 0.0f);
  for (int r : ranks)
    for (std::size_t e = 0; e < sum.size(); ++e) sum[e] += data[r][e];
  return sum;
}

void expect_allreduce_result(const std::vector<std::vector<float>>& data,
                             const std::vector<int>& ranks,
                             const std::vector<float>& want) {
  for (int r : ranks)
    for (std::size_t e = 0; e < want.size(); ++e)
      ASSERT_NEAR(data[r][e], want[e], 1e-3) << "rank " << r << " elem " << e;
}

TEST(RuntimeCollectives, RingAllreduceCorrectOnFatTree) {
  topo::FatTree ft({.num_endpoints = 64});
  sim::MiniMpi mpi(ft);
  auto data = make_data(64, 40);
  std::vector<int> ring(16);
  std::iota(ring.begin(), ring.end(), 0);
  auto want = expected_sum(data, ring);
  picoseconds t = run_allreduce_ring(mpi, ring, data);
  EXPECT_GT(t, 0u);
  expect_allreduce_result(data, ring, want);
}

TEST(RuntimeCollectives, RingAllreduceTwoRanks) {
  topo::FatTree ft({.num_endpoints = 64});
  sim::MiniMpi mpi(ft);
  auto data = make_data(64, 7);
  std::vector<int> ring{4, 9};
  auto want = expected_sum(data, ring);
  run_allreduce_ring(mpi, ring, data);
  expect_allreduce_result(data, ring, want);
}

TEST(RuntimeCollectives, BidirAllreduceCorrectOnHxMesh) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  sim::MiniMpi mpi(hx);
  auto data = make_data(hx.num_endpoints(), 64);
  auto coords = ring_order_grid(hx.accel_y(), hx.accel_x());
  std::vector<int> ring;
  for (auto [row, col] : coords) ring.push_back(hx.rank_at(col, row));
  auto want = expected_sum(data, ring);
  run_allreduce_bidir(mpi, ring, data);
  expect_allreduce_result(data, ring, want);
}

TEST(RuntimeCollectives, TwoRingsAllreduceCorrectAndFasterThanSingle) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  const int elems = 16 * 1024;
  auto rings = disjoint_hamiltonian_rings(hx.accel_y(), hx.accel_x());
  std::vector<int> red, green;
  for (auto [row, col] : rings.red) red.push_back(hx.rank_at(col, row));
  for (auto [row, col] : rings.green) green.push_back(hx.rank_at(col, row));

  auto data = make_data(hx.num_endpoints(), elems);
  auto want = expected_sum(data, red);
  sim::MiniMpi mpi_two(hx);
  picoseconds t_two = run_allreduce_two_rings(mpi_two, red, green, data);
  expect_allreduce_result(data, red, want);

  auto data2 = make_data(hx.num_endpoints(), elems);
  sim::MiniMpi mpi_one(hx);
  picoseconds t_one = run_allreduce_ring(mpi_one, red, data2);
  EXPECT_LT(t_two, t_one) << "two disjoint rings should beat one ring";
}

TEST(RuntimeCollectives, Torus2dAllreduceCorrect) {
  topo::Torus t({.width = 4, .height = 4});
  sim::MiniMpi mpi(t);
  auto data = make_data(t.num_endpoints(), 48);
  std::vector<std::vector<int>> grid(4, std::vector<int>(4));
  std::vector<int> all;
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) {
      grid[r][c] = t.rank_at(c, r);
      all.push_back(grid[r][c]);
    }
  auto want = expected_sum(data, all);
  run_allreduce_torus2d(mpi, grid, data);
  expect_allreduce_result(data, all, want);
}

TEST(RuntimeCollectives, Torus2dAllreduceCorrectOnRectangle) {
  topo::Torus t({.width = 6, .height = 3});
  sim::MiniMpi mpi(t);
  auto data = make_data(t.num_endpoints(), 36);
  std::vector<std::vector<int>> grid(3, std::vector<int>(6));
  std::vector<int> all;
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 6; ++c) {
      grid[r][c] = t.rank_at(c, r);
      all.push_back(grid[r][c]);
    }
  auto want = expected_sum(data, all);
  run_allreduce_torus2d(mpi, grid, data);
  expect_allreduce_result(data, all, want);
}

TEST(RuntimeCollectives, AlltoallCompletes) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  sim::MiniMpi mpi(hx);
  std::vector<int> ranks(hx.num_endpoints());
  std::iota(ranks.begin(), ranks.end(), 0);
  bool blocks_ok = false;
  picoseconds t = run_alltoall(mpi, ranks, 512, &blocks_ok);
  EXPECT_GT(t, 0u);
  EXPECT_EQ(mpi.sim().unfinished_messages(), 0);
  EXPECT_TRUE(blocks_ok);
}

// A block that does not hold its sender's value fails the verdict even
// though every message is delivered: rank 1's first receive from rank 0
// matches a corrupted message that arrived before the alltoall started.
TEST(RuntimeCollectives, AlltoallCorruptedBlockFailsVerdict) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  sim::MiniMpi mpi(hx);
  std::vector<int> ranks(hx.num_endpoints());
  std::iota(ranks.begin(), ranks.end(), 0);
  std::vector<float> corrupt(512, 1.0f);  // rank 0 sends 1.0f ...
  corrupt[100] = 7.0f;                     // ... except here
  mpi.send(0, 1, /*tag=*/1,
           std::make_shared<const std::vector<float>>(std::move(corrupt)));
  mpi.run();
  bool blocks_ok = true;
  run_alltoall(mpi, ranks, 512, &blocks_ok);
  EXPECT_EQ(mpi.sim().unfinished_messages(), 0);
  EXPECT_FALSE(blocks_ok);
}

// -------------------------------------------------------- alpha-beta -----
TEST(Models, RingMappingUsesDisjointRingsOnSquareHxMesh) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  RingMapping m = build_ring_mapping(hx);
  EXPECT_EQ(m.rings.size(), 2u);
  EXPECT_EQ(m.planes_simulated, 1);
  for (const auto& ring : m.rings)
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(hx.num_endpoints()));
}

TEST(Models, MeasuredRingFullRateOnHxMesh) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  MeasuredRing r = measure_ring(hx);
  EXPECT_EQ(r.p, 64);
  EXPECT_EQ(r.directions_total, 4);
  // Disjoint rings give every flow a dedicated port/link chain.
  EXPECT_GT(r.rate_bps, 0.9 * kLinkBandwidthBps);
  EXPECT_GT(r.alpha_s, 0.0);
}

TEST(Models, AllreduceFractionApproachesOneForLargeMessages) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  MeasuredRing r = measure_ring(hx);
  double frac = allreduce_fraction_of_peak(r, 1e9);
  EXPECT_GT(frac, 0.9);
  EXPECT_LT(frac, 1.02);
}

TEST(Models, FractionMonotonicInMessageSize) {
  topo::FatTree ft({.num_endpoints = 256});
  MeasuredRing r = measure_ring(ft);
  double prev = 0.0;
  for (double s : {1e4, 1e6, 1e8, 1e10}) {
    double f = allreduce_fraction_of_peak(r, s);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(Models, TorusAlgorithmWinsAtSmallMessages) {
  // The 2D-torus algorithm has sqrt(p) latency vs the rings' p: it must win
  // for small S at scale, and lose (or tie) for huge S — the crossover the
  // paper shows in Figure 13.
  topo::Torus t({.width = 32, .height = 32});
  MeasuredRing r = measure_ring(t);
  EXPECT_LT(t_allreduce_torus2d(r, 1e4), t_allreduce_rings(r, 1e4));
  EXPECT_GT(t_allreduce_torus2d(r, 64e9), t_allreduce_rings(r, 64e9));
}

}  // namespace
}  // namespace hxmesh::collectives
