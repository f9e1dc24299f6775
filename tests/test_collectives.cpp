// Collectives: Hamiltonian-cycle properties (parameterized over all valid
// torus shapes), the contribution witnesses of every allreduce algorithm
// and the alltoall on the packet simulator (forged messages must fail
// them), and sanity of the alpha-beta models.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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
// A forged message sent (and delivered) before a collective starts is
// matched by the collective's first receive of its (rank, src, tag) in
// place of the real message, which then waits unmatched.
void forge(sim::MiniMpi& mpi, int src, int dst, int tag, std::uint64_t bytes,
           sim::Witness witness) {
  mpi.send(src, dst, tag, bytes, witness);
  mpi.run();
}

TEST(RuntimeCollectives, RingAllreduceCorrectOnFatTree) {
  topo::FatTree ft({.num_endpoints = 64});
  sim::MiniMpi mpi(ft);
  std::vector<int> ring(16);
  std::iota(ring.begin(), ring.end(), 0);
  bool ok = false;
  picoseconds t = run_allreduce_ring(mpi, ring, 40, &ok);
  EXPECT_GT(t, 0u);
  EXPECT_TRUE(ok);
}

TEST(RuntimeCollectives, RingAllreduceTwoRanks) {
  topo::FatTree ft({.num_endpoints = 64});
  sim::MiniMpi mpi(ft);
  bool ok = false;
  run_allreduce_ring(mpi, {4, 9}, 7, &ok);
  EXPECT_TRUE(ok);
}

TEST(RuntimeCollectives, BidirAllreduceCorrectOnHxMesh) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  sim::MiniMpi mpi(hx);
  auto coords = ring_order_grid(hx.accel_y(), hx.accel_x());
  std::vector<int> ring;
  for (auto [row, col] : coords) ring.push_back(hx.rank_at(col, row));
  bool ok = false;
  run_allreduce_bidir(mpi, ring, 64, &ok);
  EXPECT_TRUE(ok);
}

TEST(RuntimeCollectives, TwoRingsAllreduceCorrectAndFasterThanSingle) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  const int words = 16 * 1024;
  auto rings = disjoint_hamiltonian_rings(hx.accel_y(), hx.accel_x());
  std::vector<int> red, green;
  for (auto [row, col] : rings.red) red.push_back(hx.rank_at(col, row));
  for (auto [row, col] : rings.green) green.push_back(hx.rank_at(col, row));

  sim::MiniMpi mpi_two(hx);
  bool ok_two = false;
  picoseconds t_two = run_allreduce_two_rings(mpi_two, red, green, words,
                                              &ok_two);
  EXPECT_TRUE(ok_two);

  sim::MiniMpi mpi_one(hx);
  bool ok_one = false;
  picoseconds t_one = run_allreduce_ring(mpi_one, red, words, &ok_one);
  EXPECT_TRUE(ok_one);
  EXPECT_LT(t_two, t_one) << "two disjoint rings should beat one ring";
}

std::vector<std::vector<int>> torus_grid(const topo::Torus& t, int rows,
                                         int cols) {
  std::vector<std::vector<int>> grid(rows, std::vector<int>(cols));
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) grid[r][c] = t.rank_at(c, r);
  return grid;
}

TEST(RuntimeCollectives, Torus2dAllreduceCorrect) {
  topo::Torus t({.width = 4, .height = 4});
  sim::MiniMpi mpi(t);
  bool ok = false;
  run_allreduce_torus2d(mpi, torus_grid(t, 4, 4), 48, &ok);
  EXPECT_TRUE(ok);
}

TEST(RuntimeCollectives, Torus2dAllreduceCorrectOnRectangle) {
  topo::Torus t({.width = 6, .height = 3});
  sim::MiniMpi mpi(t);
  bool ok = false;
  run_allreduce_torus2d(mpi, torus_grid(t, 3, 6), 36, &ok);
  EXPECT_TRUE(ok);
}

// The packet engine's allreduce on hx2mesh:XxY (the two disjoint rings of
// build_ring_mapping) at 4p words, so every chunk of every quarter is one
// word, after `forgery` has run against its red ring. Returns the verdict.
bool two_rings_verdict(int boards,
                       const std::function<void(sim::MiniMpi&,
                                                const std::vector<int>& red)>&
                           forgery) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = boards, .y = boards});
  const RingMapping mapping = build_ring_mapping(hx);
  const std::vector<int>& red = mapping.rings.at(0);
  sim::MiniMpi mpi(hx);
  if (forgery) forgery(mpi, red);
  bool ok = false;
  run_allreduce_two_rings(mpi, red, mapping.rings.at(1),
                          4 * hx.num_endpoints(), &ok);
  EXPECT_EQ(mpi.sim().unfinished_messages(), 0);
  return ok;
}

int position(const std::vector<int>& ring, int rank) {
  return static_cast<int>(std::find(ring.begin(), ring.end(), rank) -
                          ring.begin());
}

// Drops `rank`'s contribution to one chunk: its first reduce-scatter
// message on the red ring arrives empty at its successor.
auto drop_contribution(int rank) {
  return [rank](sim::MiniMpi& mpi, const std::vector<int>& red) {
    const int p = static_cast<int>(red.size());
    forge(mpi, rank, red[(position(red, rank) + 1) % p], /*tag=*/0, 4,
          sim::Witness{});
  };
}

// A single lost contribution fails the verdict at any scale: rank 0's and
// one in mid-ring, on 256 and 1,024 ranks (the 1,024-rank runs take
// seconds each, so only the 256-rank run has an unforged control).
TEST(RuntimeCollectives, DroppedContributionFailsAllreduceVerdict) {
  EXPECT_TRUE(two_rings_verdict(8, nullptr));
  for (const int boards : {8, 16}) {
    SCOPED_TRACE(testing::Message() << "hx2mesh:" << boards << "x" << boards);
    for (const int rank : {0, 98}) {
      SCOPED_TRACE(testing::Message() << "rank " << rank << " dropped");
      EXPECT_FALSE(two_rings_verdict(boards, drop_contribution(rank)));
    }
  }
}

// A non-zero rank whose last allgather round matches a stale chunk keeps
// it: the last round is never forwarded, so no other rank sees it.
TEST(RuntimeCollectives, StaleChunkAtOneRankFailsAllreduceVerdict) {
  EXPECT_FALSE(two_rings_verdict(8, [](sim::MiniMpi& mpi,
                                       const std::vector<int>& red) {
    const int p = static_cast<int>(red.size());
    const int pos = position(red, 98);
    const int last_gather_tag = (p - 1) + (p - 2);
    const int prev = red[(pos + p - 1) % p];
    forge(mpi, prev, red[pos], last_gather_tag, 4, sim::Witness::of(prev));
  }));
}

// The 2D torus allreduce, whose row phases carry several segments per
// message, catches a contribution dropped in the row reduce-scatter and a
// stale chunk left by the last row-allgather round.
TEST(RuntimeCollectives, Torus2dDroppedOrStaleChunkFailsVerdict) {
  topo::Torus t({.width = 4, .height = 4});
  const auto grid = torus_grid(t, 4, 4);
  const int row_allgather_base = 4 + 1 + 2 * 4 + 2;
  struct Case {
    const char* name;
    int src, dst, tag;
    sim::Witness witness;
  };
  const Case cases[] = {
      {"rank 0 dropped", grid[0][0], grid[0][1], 0, sim::Witness{}},
      {"stale chunk", grid[1][1], grid[1][2], row_allgather_base + 2,
       sim::Witness::of(grid[1][1])},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    sim::MiniMpi mpi(t);
    forge(mpi, c.src, c.dst, c.tag, 48, c.witness);
    bool ok = true;
    run_allreduce_torus2d(mpi, grid, 48, &ok);
    EXPECT_EQ(mpi.sim().unfinished_messages(), 0);
    EXPECT_FALSE(ok);
  }
}

std::vector<int> all_ranks(const topo::Topology& t) {
  std::vector<int> ranks(t.num_endpoints());
  std::iota(ranks.begin(), ranks.end(), 0);
  return ranks;
}

TEST(RuntimeCollectives, AlltoallCompletes) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  sim::MiniMpi mpi(hx);
  bool blocks_ok = false;
  picoseconds t = run_alltoall(mpi, all_ranks(hx), 512, &blocks_ok);
  EXPECT_GT(t, 0u);
  EXPECT_EQ(mpi.sim().unfinished_messages(), 0);
  EXPECT_TRUE(blocks_ok);
}

// A block that does not carry its sender's witness, or is short, fails the
// verdict even though every message is delivered: rank 1's first receive
// from rank 0 matches a forged message that arrived before the alltoall
// started.
TEST(RuntimeCollectives, AlltoallCorruptedBlockFailsVerdict) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  const std::pair<std::uint64_t, sim::Witness> forgeries[] = {
      {2048, sim::Witness::of(2)},  // another sender's block
      {2044, sim::Witness::of(0)},  // one word short
  };
  for (const auto& [bytes, witness] : forgeries) {
    sim::MiniMpi mpi(hx);
    forge(mpi, 0, 1, /*tag=*/1, bytes, witness);
    bool blocks_ok = true;
    run_alltoall(mpi, all_ranks(hx), 512, &blocks_ok);
    EXPECT_EQ(mpi.sim().unfinished_messages(), 0);
    EXPECT_FALSE(blocks_ok) << bytes << " bytes";
  }
}

// A receive posted before the alltoall takes rank 0's real block to rank
// 1, so the alltoall's own receive never fires: the verdict counts the
// blocks it verified, and one is missing.
TEST(RuntimeCollectives, AlltoallStolenBlockFailsVerdict) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  sim::MiniMpi mpi(hx);
  bool stolen = false;
  mpi.recv(1, 0, /*tag=*/1, [&stolen](std::uint64_t, sim::Witness) {
    stolen = true;
  });
  bool blocks_ok = true;
  run_alltoall(mpi, all_ranks(hx), 512, &blocks_ok);
  EXPECT_TRUE(stolen);
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
