// Structural tests for the topology families: the graph's adjacency index,
// node/link counts, diameters (closed form vs BFS), closed-form distances
// vs BFS, and minimal-path sampling validity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/hash.hpp"
#include "engine/factory.hpp"
#include "flow/patterns.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/graph.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/torus.hpp"

namespace hxmesh::topo {
namespace {

// ---------------------------------------------------------------- Graph --
TEST(Graph, DuplexCreatesBothDirections) {
  Graph g;
  NodeId a = g.add_node(NodeKind::kEndpoint);
  NodeId b = g.add_node(NodeKind::kSwitch);
  LinkId l = g.add_duplex(a, b, kLinkBandwidthBps, kCableLatencyPs,
                          CableKind::kDac);
  g.finalize();
  ASSERT_EQ(g.num_links(), 2u);
  EXPECT_EQ(g.link(l).src, a);
  EXPECT_EQ(g.link(l).dst, b);
  EXPECT_EQ(g.link(l + 1).src, b);
  EXPECT_EQ(g.link(l + 1).dst, a);
}

TEST(Graph, MultiEdgesAreKept) {
  Graph g;
  NodeId a = g.add_node(NodeKind::kEndpoint);
  NodeId b = g.add_node(NodeKind::kSwitch);
  g.add_duplex(a, b, kLinkBandwidthBps, kCableLatencyPs, CableKind::kDac);
  g.add_duplex(a, b, kLinkBandwidthBps, kCableLatencyPs, CableKind::kDac);
  g.finalize();
  EXPECT_EQ(g.bundle(a, b).size(), 2u);
  EXPECT_EQ(g.bundle(b, a).size(), 2u);
}

TEST(Graph, BfsDistancesOnPath) {
  Graph g;
  std::vector<NodeId> n;
  for (int i = 0; i < 5; ++i) n.push_back(g.add_node(NodeKind::kSwitch));
  for (int i = 0; i + 1 < 5; ++i)
    g.add_duplex(n[i], n[i + 1], kLinkBandwidthBps, kCableLatencyPs,
                 CableKind::kDac);
  g.finalize();
  auto dist = g.dist_to(n[4]);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dist[n[i]], 4 - i);
  auto from = g.dist_from(n[0]);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(from[n[i]], i);
}

TEST(Graph, UnreachableIsMinusOne) {
  Graph g;
  NodeId a = g.add_node(NodeKind::kSwitch);
  NodeId b = g.add_node(NodeKind::kSwitch);
  g.finalize();
  auto dist = g.dist_to(b);
  EXPECT_EQ(dist[a], -1);
  EXPECT_EQ(dist[b], 0);
}

// ----------------------------------------------------------- GraphIndex --
// The adjacency index built at finalize(), checked against definitions read
// straight off the link array: the small instance of every family, a
// faulted one, and HammingMeshes with two-level rails, plain and tapered
// (their leaf-spine bundles hold many parallel cables).
const std::vector<std::string>& index_specs() {
  static const std::vector<std::string> specs = {
      "hx2mesh:4x4",
      "hxmesh:3x2:3x4",
      "hx4mesh:2x2",
      "hx2mesh:40x4",
      "hx2mesh:40x4:taper=0.5",
      "hyperx:4x3",
      "fattree:64",
      "fattree:4096:taper=0.5",  // three levels
      "dragonfly:small",
      "torus:8x6:board=2x2",
      "torus:2x4",
      "hx2mesh:4x4:faults=links:0.05:seed=7"};
  return specs;
}

// Links with src (or dst) n, in ascending id, per node.
std::vector<std::vector<LinkId>> rows_by_scan(const Graph& g, bool in) {
  std::vector<std::vector<LinkId>> rows(g.num_nodes());
  for (LinkId l = 0; l < g.num_links(); ++l)
    rows[in ? g.link(l).dst : g.link(l).src].push_back(l);
  return rows;
}

// Hop distances to `dst` by relaxing every healthy link until nothing
// changes: no adjacency index involved.
std::vector<std::int32_t> dist_to_by_relaxation(const Graph& g, NodeId dst) {
  std::vector<std::int32_t> dist(g.num_nodes(), -1);
  dist[dst] = 0;
  for (bool changed = true; changed;) {
    changed = false;
    for (LinkId l = 0; l < g.num_links(); ++l) {
      const Link& lnk = g.link(l);
      if (g.link_failed(l) || dist[lnk.dst] < 0) continue;
      if (dist[lnk.src] < 0 || dist[lnk.src] > dist[lnk.dst] + 1) {
        dist[lnk.src] = dist[lnk.dst] + 1;
        changed = true;
      }
    }
  }
  return dist;
}

TEST(GraphIndex, OutAndInRowsListLinksInAscendingId) {
  for (const std::string& spec : index_specs()) {
    SCOPED_TRACE(spec);
    auto t = engine::make_topology(spec);
    const Graph& g = t->graph();
    const auto out_rows = rows_by_scan(g, /*in=*/false);
    const auto in_rows = rows_by_scan(g, /*in=*/true);
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      auto out = g.out_links(n);
      ASSERT_EQ(std::vector<LinkId>(out.begin(), out.end()), out_rows[n])
          << "node " << n;
      auto in = g.in_links(n);
      ASSERT_EQ(std::vector<LinkId>(in.begin(), in.end()), in_rows[n])
          << "node " << n;
    }
  }
}

TEST(GraphIndex, BundlesAndFindLinkFollowOutLinkOrder) {
  for (const std::string& spec : index_specs()) {
    SCOPED_TRACE(spec);
    auto t = engine::make_topology(spec);
    const Graph& g = t->graph();
    for (NodeId a = 0; a < g.num_nodes(); ++a) {
      std::set<NodeId> neighbors;
      for (LinkId l : g.out_links(a)) neighbors.insert(g.link(l).dst);
      // Every out-neighbor, plus a node that is not one (if any).
      std::vector<NodeId> probes(neighbors.begin(), neighbors.end());
      for (NodeId b = 0; b < g.num_nodes(); ++b)
        if (!neighbors.count(b)) {
          probes.push_back(b);
          break;
        }
      for (NodeId b : probes) {
        std::vector<LinkId> expected;
        for (LinkId l : g.out_links(a))
          if (g.link(l).dst == b) expected.push_back(l);
        auto bundle = g.bundle(a, b);
        ASSERT_EQ(std::vector<LinkId>(bundle.begin(), bundle.end()), expected)
            << a << " -> " << b;
        EXPECT_EQ(g.find_link(a, b),
                  expected.empty() ? kInvalidLink : expected.front())
            << a << " -> " << b;
      }
    }
  }
}

TEST(GraphIndex, DistToMatchesIndependentSearchOnFaultedFabric) {
  auto t = engine::make_topology("hx2mesh:4x4:faults=links:0.05:seed=7");
  const Graph& g = t->graph();
  ASSERT_GT(g.num_failed_links(), 0u);
  for (NodeId dst = 0; dst < g.num_nodes(); ++dst)
    ASSERT_EQ(g.dist_to(dst), dist_to_by_relaxation(g, dst)) << "dst " << dst;
}

TEST(GraphIndex, HammingMeshClosedFormSizeMatchesBuild) {
  const std::vector<HxMeshParams> cases = {
      {.a = 2, .b = 2, .x = 4, .y = 4},
      {.a = 3, .b = 2, .x = 3, .y = 4},
      {.a = 1, .b = 1, .x = 5, .y = 3},
      {.a = 4, .b = 4, .x = 2, .y = 2},
      {.a = 2, .b = 2, .x = 40, .y = 4},
      {.a = 2, .b = 2, .x = 40, .y = 4, .rail_taper = 0.5},
      {.a = 2, .b = 2, .x = 40, .y = 36, .rail_taper = 0.25},
  };
  for (const HxMeshParams& p : cases) {
    HammingMesh hx(p);
    SCOPED_TRACE(hx.name());
    const HammingMesh::Size size = HammingMesh::size_of(p);
    EXPECT_EQ(size.nodes, hx.graph().num_nodes());
    EXPECT_EQ(size.links, hx.graph().num_links());
  }
}

TEST(GraphIndex, AddingAfterFinalizeThrows) {
  Graph g;
  NodeId a = g.add_node(NodeKind::kEndpoint);
  NodeId b = g.add_node(NodeKind::kSwitch);
  g.add_duplex(a, b, kLinkBandwidthBps, kCableLatencyPs, CableKind::kDac);
  g.finalize();
  EXPECT_THROW(g.add_link(a, b, kLinkBandwidthBps, kCableLatencyPs,
                          CableKind::kDac),
               std::logic_error);
  EXPECT_THROW(g.add_duplex(a, b, kLinkBandwidthBps, kCableLatencyPs,
                            CableKind::kDac),
               std::logic_error);
  EXPECT_THROW(g.add_node(NodeKind::kSwitch), std::logic_error);
  EXPECT_THROW(g.finalize(), std::logic_error);
  EXPECT_EQ(g.num_links(), 2u);
  EXPECT_EQ(g.out_links(a).size(), 1u);
}

// Validates that sampled path `k` of 8 is a connected minimal walk
// src -> dst.
void expect_valid_minimal_path(const Topology& t, int src, int dst, int k,
                               Rng& rng) {
  std::vector<LinkId> path;
  t.sample_path_stratified(src, dst, k, 8, rng, path);
  NodeId cur = t.endpoint_node(src);
  for (LinkId l : path) {
    ASSERT_EQ(t.graph().link(l).src, cur) << "path not connected";
    cur = t.graph().link(l).dst;
  }
  EXPECT_EQ(cur, t.endpoint_node(dst));
  auto dist = t.graph().dist_to(t.endpoint_node(dst));
  EXPECT_EQ(static_cast<int>(path.size()), dist[t.endpoint_node(src)])
      << "path from " << src << " to " << dst << " is not minimal";
}

void check_sampled_paths(const Topology& t, int trials, unsigned seed = 7) {
  Rng rng(seed);
  for (int i = 0; i < trials; ++i) {
    int src = static_cast<int>(rng.uniform(t.num_endpoints()));
    int dst = static_cast<int>(rng.uniform(t.num_endpoints()));
    if (src == dst) continue;
    expect_valid_minimal_path(t, src, dst, i % 8, rng);
  }
}

// -------------------------------------------------------------- FatTree --
TEST(FatTree, SmallNonblockingStructure) {
  FatTree ft({.num_endpoints = 1024, .radix = 64, .taper = 1.0});
  EXPECT_EQ(ft.levels(), 2);
  EXPECT_EQ(ft.down_ports(), 32);
  EXPECT_EQ(ft.up_ports(), 32);
  EXPECT_EQ(ft.num_leaves(), 32);
  EXPECT_EQ(ft.num_spines(), 16);
  EXPECT_EQ(ft.num_switches(), 48);  // 48 per plane, x16 planes = 768 total
  EXPECT_EQ(ft.planes(), 16);
  EXPECT_EQ(ft.name(), "nonblocking fat tree");
}

TEST(FatTree, TaperedPortSplitsMatchPaper) {
  FatTree t50({.num_endpoints = 1024, .radix = 64, .taper = 0.5});
  EXPECT_EQ(t50.down_ports(), 42);  // paper: 42 down / 22 up
  EXPECT_EQ(t50.up_ports(), 22);
  EXPECT_EQ(t50.num_leaves(), 25);
  EXPECT_EQ(t50.num_spines(), 9);
  EXPECT_EQ(t50.name(), "50% tapered fat tree");

  FatTree t75({.num_endpoints = 1024, .radix = 64, .taper = 0.25});
  EXPECT_EQ(t75.down_ports(), 51);  // paper: 51 down / 13 up
  EXPECT_EQ(t75.up_ports(), 13);
  EXPECT_EQ(t75.num_leaves(), 21);
  EXPECT_EQ(t75.num_spines(), 5);
  EXPECT_EQ(t75.name(), "75% tapered fat tree");
}

TEST(FatTree, TwoLevelDiameterIsFour) {
  FatTree ft({.num_endpoints = 256, .radix = 64, .taper = 1.0});
  EXPECT_EQ(ft.diameter_formula(), 4);
  EXPECT_EQ(ft.diameter(), 4);
}

TEST(FatTree, ThreeLevelStructureLarge) {
  FatTree ft({.num_endpoints = 16384, .radix = 64, .taper = 1.0});
  EXPECT_EQ(ft.levels(), 3);
  EXPECT_EQ(ft.num_pods(), 16);
  EXPECT_EQ(ft.num_leaves(), 512);
  EXPECT_EQ(ft.num_switches(), 512 + 512 + 256);  // paper's large FT counts
  EXPECT_EQ(ft.diameter_formula(), 6);
}

TEST(FatTree, ThreeLevelDiameterBfs) {
  // Small enough three-level instance for exact BFS.
  FatTree ft({.num_endpoints = 2300, .radix = 64, .taper = 1.0});
  EXPECT_EQ(ft.levels(), 3);
  EXPECT_EQ(ft.diameter(), 6);
}

TEST(FatTree, SampledPathsAreMinimal) {
  FatTree ft({.num_endpoints = 512, .radix = 64, .taper = 0.5});
  check_sampled_paths(ft, 40);
  FatTree big({.num_endpoints = 2100, .radix = 64, .taper = 1.0});
  check_sampled_paths(big, 25);
}

TEST(FatTree, SameLeafPathLengthTwo) {
  FatTree ft({.num_endpoints = 1024, .radix = 64, .taper = 1.0});
  Rng rng(1);
  std::vector<LinkId> path;
  ft.sample_path_stratified(0, 1, 0, 1, rng, path);  // both on leaf 0
  EXPECT_EQ(path.size(), 2u);
}

// A permutation's strata must reach every core switch of a three-level
// tree (2-core groups on fattree:4096, 8-core groups on fattree:16384) at
// every strata count, also once the L2 stride is 1 (32 and 64 strata),
// where a core digit tied to the L2 digit would reach one core per L2.
TEST(FatTree, StrataCrossEveryCore) {
  for (int n : {4096, 16384}) {
    FatTree ft({.num_endpoints = n});
    ASSERT_EQ(ft.levels(), 3);
    Rng perm_rng(5);
    const auto flows = flow::random_permutation(n, perm_rng);
    for (int strata : {8, 16, 32, 64}) {
      SCOPED_TRACE(std::to_string(n) + " endpoints, " +
                   std::to_string(strata) + " strata");
      std::set<NodeId> cores;
      std::vector<LinkId> path;
      for (std::size_t f = 0; f < flows.size(); ++f) {
        Rng rng = Rng::substream(1, f);
        for (int k = 0; k < strata; ++k) {
          ft.sample_path_stratified(flows[f].src, flows[f].dst, k, strata,
                                    rng, path);
          // Cross-pod paths climb e -> leaf -> L2 -> core: link 2 ends at it.
          if (path.size() == 6) cores.insert(ft.graph().link(path[2]).dst);
        }
      }
      EXPECT_EQ(static_cast<int>(cores.size()), ft.num_spines());
    }
  }
}

TEST(FatTree, RejectsBadParams) {
  EXPECT_THROW(FatTree({.num_endpoints = 0}), std::invalid_argument);
  EXPECT_THROW(FatTree({.num_endpoints = 16, .radix = 2}),
               std::invalid_argument);
}

// ------------------------------------------------------------ Dragonfly --
TEST(Dragonfly, SmallConfigStructure) {
  Dragonfly df({.routers_per_group = 16, .endpoints_per_router = 8,
                .global_per_router = 8, .groups = 8});
  EXPECT_EQ(df.num_endpoints(), 1024);
  EXPECT_EQ(df.num_routers(), 128);
  // h=8 >= groups-1=7: every router reaches every other group directly,
  // so the worst router-to-router distance is 2 (global + local).
  EXPECT_EQ(df.diameter_formula(), 4);
  EXPECT_EQ(df.diameter(), 4);
}

TEST(Dragonfly, LargeConfigDiameter) {
  Dragonfly df({.routers_per_group = 32, .endpoints_per_router = 17,
                .global_per_router = 16, .groups = 30});
  EXPECT_EQ(df.num_endpoints(), 16320);
  // h=16 < groups-1=29: a local hop may be needed on both sides.
  EXPECT_EQ(df.diameter_formula(), 5);
}

TEST(Dragonfly, SampledPathsAreMinimal) {
  Dragonfly df({.routers_per_group = 8, .endpoints_per_router = 4,
                .global_per_router = 4, .groups = 5});
  check_sampled_paths(df, 60);
}

TEST(Dragonfly, GroupsFullyConnected) {
  Dragonfly df({.routers_per_group = 16, .endpoints_per_router = 8,
                .global_per_router = 8, .groups = 8});
  // Any endpoint can reach any other (BFS connectivity).
  auto dist = df.graph().dist_to(df.endpoint_node(0));
  for (int r = 0; r < df.num_endpoints(); ++r)
    EXPECT_GE(dist[df.endpoint_node(r)], 0);
}

TEST(Dragonfly, RejectsTooManyGroups) {
  EXPECT_THROW(Dragonfly({.routers_per_group = 2, .endpoints_per_router = 1,
                          .global_per_router = 1, .groups = 10}),
               std::invalid_argument);
}

// ---------------------------------------------------------------- Torus --
TEST(Torus, StructureAndDiameter) {
  Torus t({.width = 32, .height = 32, .board_a = 2, .board_b = 2});
  EXPECT_EQ(t.num_endpoints(), 1024);
  EXPECT_EQ(t.diameter_formula(), 32);  // Table II small torus diameter
  EXPECT_EQ(t.ports_per_endpoint(), 4);
}

TEST(Torus, DiameterBfsMatchesFormula) {
  for (auto [w, h] : {std::pair{8, 8}, {6, 10}, {5, 7}}) {
    Torus t({.width = w, .height = h, .board_a = 2, .board_b = 2});
    EXPECT_EQ(t.diameter(), w / 2 + h / 2) << w << "x" << h;
  }
}

TEST(Torus, CableKinds) {
  Torus t({.width = 4, .height = 4, .board_a = 2, .board_b = 2});
  int pcb = 0, aoc = 0;
  for (std::size_t l = 0; l < t.graph().num_links(); ++l) {
    auto kind = t.graph().link(static_cast<LinkId>(l)).cable;
    if (kind == CableKind::kPcb) ++pcb;
    if (kind == CableKind::kAoc) ++aoc;
  }
  // 4 boards x 4 internal duplex links = 16 PCB duplex = 32 directed;
  // inter-board: per row 2 + wrap... with width 4: 2 duplex per row pair,
  // counted via directed links below.
  EXPECT_EQ(pcb, 32);
  EXPECT_EQ(aoc, static_cast<int>(t.graph().num_links()) - 32);
}

TEST(Torus, SampledPathsAreMinimal) {
  Torus t({.width = 8, .height = 6, .board_a = 2, .board_b = 2});
  check_sampled_paths(t, 60);
}

TEST(Torus, WidthTwoRingHasSingleDuplex) {
  Torus t({.width = 2, .height = 4, .board_a = 2, .board_b = 2});
  // No duplicated wrap link for size-2 dimensions.
  EXPECT_EQ(t.graph().bundle(t.endpoint_node(0), t.endpoint_node(1)).size(),
            1u);
}

// ----------------------------------------------------------- HammingMesh --
TEST(HammingMesh, SmallHx2Structure) {
  HammingMesh hx({.a = 2, .b = 2, .x = 16, .y = 16});
  EXPECT_EQ(hx.num_endpoints(), 1024);
  // Paper (App. C): 16 + 16 = 32 switches per plane.
  EXPECT_EQ(hx.num_switches(), 32);
  EXPECT_EQ(hx.rail_levels_x(), 1);
  EXPECT_EQ(hx.name(), "16x16 Hx2Mesh");
  EXPECT_EQ(hx.diameter_formula(), 4);  // Table II
  EXPECT_EQ(hx.planes(), 4);
}

TEST(HammingMesh, SmallHx4Structure) {
  HammingMesh hx({.a = 4, .b = 4, .x = 8, .y = 8});
  EXPECT_EQ(hx.num_endpoints(), 1024);
  EXPECT_EQ(hx.num_switches(), 16);  // paper: 8 + 8
  EXPECT_EQ(hx.diameter_formula(), 8);
}

TEST(HammingMesh, SmallHyperXStructure) {
  HammingMesh hx({.a = 1, .b = 1, .x = 32, .y = 32});
  EXPECT_EQ(hx.num_endpoints(), 1024);
  EXPECT_EQ(hx.num_switches(), 64);  // paper: 32 + 32
  EXPECT_EQ(hx.name(), "2D HyperX");
  EXPECT_EQ(hx.diameter_formula(), 4);
}

TEST(HammingMesh, LargeHx4UsesSingleSwitchRails) {
  HammingMesh hx({.a = 4, .b = 4, .x = 32, .y = 32});
  EXPECT_EQ(hx.num_endpoints(), 16384);
  EXPECT_EQ(hx.rail_levels_x(), 1);
  // Paper (App. C): 2 * 32 * 4 = 256 switches per plane.
  EXPECT_EQ(hx.num_switches(), 256);
  EXPECT_EQ(hx.diameter_formula(), 8);
}

TEST(HammingMesh, LargeHx2UsesRailFatTrees) {
  HammingMesh hx({.a = 2, .b = 2, .x = 64, .y = 64});
  EXPECT_EQ(hx.num_endpoints(), 16384);
  EXPECT_EQ(hx.rail_levels_x(), 2);
  // Paper (App. C): 2 * 64 * 2 * 6 = 1,536 switches per plane.
  EXPECT_EQ(hx.num_switches(), 1536);
  EXPECT_EQ(hx.diameter_formula(), 8);
}

TEST(HammingMesh, DiameterBfsMatchesFormulaSmallInstances) {
  for (auto p : {HxMeshParams{.a = 2, .b = 2, .x = 4, .y = 4},
                 HxMeshParams{.a = 4, .b = 4, .x = 3, .y = 3},
                 HxMeshParams{.a = 1, .b = 1, .x = 6, .y = 6},
                 HxMeshParams{.a = 3, .b = 2, .x = 4, .y = 3}}) {
    HammingMesh hx(p);
    EXPECT_EQ(hx.diameter(), hx.diameter_formula()) << hx.name();
  }
}

TEST(HammingMesh, ClosedFormDistanceMatchesBfs) {
  HammingMesh hx({.a = 3, .b = 2, .x = 4, .y = 3});
  for (int dst = 0; dst < hx.num_endpoints(); dst += 5) {
    auto dist = hx.graph().dist_to(hx.endpoint_node(dst));
    for (int src = 0; src < hx.num_endpoints(); ++src)
      ASSERT_EQ(hx.dist(src, dst), dist[hx.endpoint_node(src)])
          << "src=" << src << " dst=" << dst;
  }
}

TEST(HammingMesh, ClosedFormDistanceMatchesBfsWithRailTrees) {
  // Force two-level rails with a tiny radix so leaves > 1.
  HammingMesh hx({.a = 2, .b = 2, .x = 6, .y = 6, .radix = 8});
  EXPECT_EQ(hx.rail_levels_x(), 2);
  for (int dst = 0; dst < hx.num_endpoints(); dst += 7) {
    auto dist = hx.graph().dist_to(hx.endpoint_node(dst));
    for (int src = 0; src < hx.num_endpoints(); ++src)
      ASSERT_EQ(hx.dist(src, dst), dist[hx.endpoint_node(src)])
          << "src=" << src << " dst=" << dst;
  }
}

TEST(HammingMesh, SampledPathsAreMinimal) {
  HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  check_sampled_paths(hx, 80);
  HammingMesh hyperx({.a = 1, .b = 1, .x = 8, .y = 8});
  check_sampled_paths(hyperx, 60);
  HammingMesh trees({.a = 2, .b = 2, .x = 6, .y = 6, .radix = 8});
  check_sampled_paths(trees, 60);
}

TEST(HammingMesh, EndpointPortCount) {
  HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  // Every accelerator has exactly 4 outgoing links in the plane:
  // corner accelerators have 2 mesh + 2 rail ports, inner mesh-only... for
  // a 2x2 board every accelerator sits on both a W/E and an S/N edge.
  for (int r = 0; r < hx.num_endpoints(); ++r)
    EXPECT_EQ(hx.graph().out_links(hx.endpoint_node(r)).size(), 4u) << r;
}

TEST(HammingMesh, MeshOnlyAcceleratorsOnBigBoards) {
  HammingMesh hx({.a = 4, .b = 4, .x = 2, .y = 2});
  // Inner accelerators of a 4x4 board touch only the on-board mesh.
  int inner = hx.rank_at(1, 1);
  for (LinkId l : hx.graph().out_links(hx.endpoint_node(inner)))
    EXPECT_EQ(hx.graph().link(l).cable, CableKind::kPcb);
}

TEST(HammingMesh, BadParamsThrow) {
  EXPECT_THROW(HammingMesh({.a = 0, .b = 2, .x = 4, .y = 4}),
               std::invalid_argument);
}

// --------------------------------------------------------- HxMeshRoutes --
// The healthy HammingMesh router computes every link id from coordinates.
// These tests pin what it emits on every rail shape: single-switch and
// two-level rails, plain and tapered (multi-cable leaf-spine bundles),
// asymmetric boards, and 1x1 boards (an edge accelerator's two side cables
// form one bundle). Flow sets are sampled as the flow solver samples them:
// 16 strata per flow, each flow from its own RNG substream.
struct RouteCase {
  const char* spec;
  // FNV-1a over the 16-strata paths of minimal perm, Valiant perm and
  // UGAL shift:1, recorded from the table-driven router these closed
  // forms replaced. The Valiant and UGAL digests of hxmesh:1x1:16x16,
  // hx2mesh:40x4, hx2mesh:40x4:taper=0.5 and hx2mesh:64x64 were
  // re-recorded when Valiant legs stopped clearing stratum bit 1. The bit
  // feeds the spine pick and the hashed pick among parallel cables
  // (leaf-spine bundles, a 1-wide board's two side cables), which these
  // four rails have. Every minimal digest is the original.
  std::uint64_t minimal_perm, valiant_perm, ugal_shift;
};

const std::vector<RouteCase>& route_cases() {
  static const std::vector<RouteCase> cases = {
      {"hx2mesh:2x2", 0xdf1c86e769bb31e5ull,
       0x6530d4d0aa307b38ull, 0xfcad77e2a5f96f77ull},
      {"hx2mesh:4x4", 0xab1be702aebbc1a5ull,
       0x20a50380e88810d4ull, 0xa9ff519a642c58fdull},
      {"hx2mesh:8x8", 0xfe84b7e63e861df5ull,
       0x5ab5fd8928d84e5bull, 0x98dcdd26c9e77ef5ull},
      {"hx4mesh:4x4", 0xdc9401a300a76eb5ull,
       0x8e6766e019d34a67ull, 0x9f0d91bc1b4a890cull},
      {"hxmesh:2x4:4x4", 0x7a30bc0310c34075ull,
       0xa890a8dfcc27055dull, 0xe0c76193db9f88dbull},
      {"hxmesh:1x1:16x16", 0x972ade4985e5f369ull,
       0xc94543137a415daaull, 0xca2f917a044bbeecull},
      {"hx2mesh:40x4", 0x70c2ce796d6ba30dull,
       0x35b6a36597ea5b71ull, 0x7c6de08bd9349080ull},
      {"hx2mesh:40x4:taper=0.5", 0xde46b006f61c2511ull,
       0x70030848940b2f1eull, 0x98c178e75136a933ull},
      {"hx2mesh:64x64", 0xfd8e10d39253a41dull,
       0x574316d6ae8b0348ull, 0xdd94b240545cc7dcull},
  };
  return cases;
}

constexpr int kRouteStrata = 16;

std::vector<flow::Flow> route_perm(int n) {
  Rng rng(42);
  return flow::random_permutation(n, rng);
}

// Calls fn(flow, path) for every stratum of every flow.
template <typename Fn>
void for_each_path(const Topology& t, const std::vector<flow::Flow>& flows,
                   RouteMode mode, Fn&& fn, int strata = kRouteStrata) {
  std::vector<LinkId> path;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    Rng rng = Rng::substream(1, f);
    for (int k = 0; k < strata; ++k) {
      t.sample_path_stratified(flows[f].src, flows[f].dst, k, strata, rng,
                               path, mode);
      fn(flows[f], path);
    }
  }
}

std::uint64_t path_digest(const Topology& t,
                          const std::vector<flow::Flow>& flows,
                          RouteMode mode, int strata = kRouteStrata) {
  Fnv1a h;
  for_each_path(
      t, flows, mode,
      [&](const flow::Flow&, const std::vector<LinkId>& path) {
        h.update(static_cast<std::uint64_t>(path.size()));
        for (LinkId l : path) h.update(static_cast<std::uint64_t>(l));
      },
      strata);
  return h.digest();
}

TEST(HxMeshRoutes, SampledPathsAreWalksAndMinimalOnesAreShortest) {
  for (const RouteCase& c : route_cases()) {
    SCOPED_TRACE(c.spec);
    auto t = engine::make_topology(c.spec);
    const Graph& g = t->graph();
    const int n = t->num_endpoints();
    for (auto [flows, mode] :
         {std::pair{route_perm(n), RouteMode::kMinimal},
          std::pair{route_perm(n), RouteMode::kValiant},
          std::pair{flow::shift_pattern(n, 1), RouteMode::kUgal}}) {
      SCOPED_TRACE(route_mode_name(mode));
      int bad = 0;
      for_each_path(*t, flows, mode, [&](const flow::Flow& f,
                                         const std::vector<LinkId>& path) {
        NodeId cur = t->endpoint_node(f.src);
        bool walk = true;
        for (LinkId l : path) {
          walk = l < g.num_links() && g.link(l).src == cur;
          if (!walk) break;
          cur = g.link(l).dst;
        }
        walk = walk && cur == t->endpoint_node(f.dst);
        const bool shortest =
            mode != RouteMode::kMinimal ||
            static_cast<int>(path.size()) == t->hop_distance(f.src, f.dst);
        if ((!walk || !shortest) && bad++ < 3)
          ADD_FAILURE() << f.src << " -> " << f.dst << ": "
                        << (walk ? "not shortest" : "not a walk");
      });
      EXPECT_EQ(bad, 0);
    }
  }
}

TEST(HxMeshRoutes, PathDigestsArePinned) {
  for (const RouteCase& c : route_cases()) {
    SCOPED_TRACE(c.spec);
    auto t = engine::make_topology(c.spec);
    const int n = t->num_endpoints();
    const auto perm = route_perm(n);
    EXPECT_EQ(path_digest(*t, perm, RouteMode::kMinimal), c.minimal_perm);
    EXPECT_EQ(path_digest(*t, perm, RouteMode::kValiant), c.valiant_perm);
    EXPECT_EQ(path_digest(*t, flow::shift_pattern(n, 1), RouteMode::kUgal),
              c.ugal_shift);
  }
}

// A Valiant leg keeps every stratum bit, so on rails of 4 spines (radix 8,
// 16 boards per line) the strata of a permutation reach every rail switch.
// Clearing stratum bit 1 reached 2 of every 4 spines: 640 of the 768.
TEST(HxMeshRoutes, ValiantStrataCrossEveryRailSwitch) {
  HammingMesh hx({.a = 2, .b = 2, .x = 16, .y = 16, .radix = 8});
  const Graph& g = hx.graph();
  std::vector<char> crossed(g.num_nodes(), 0);
  for_each_path(hx, route_perm(hx.num_endpoints()), RouteMode::kValiant,
                [&](const flow::Flow&, const std::vector<LinkId>& path) {
                  for (LinkId l : path) crossed[g.link(l).dst] = 1;
                });
  int switches = 0, reached = 0;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (g.kind(static_cast<NodeId>(v)) != NodeKind::kSwitch) continue;
    ++switches;
    reached += crossed[v];
  }
  EXPECT_EQ(switches, 768);
  EXPECT_EQ(reached, switches);
}

// --------------------------------------------------------- FamilyRoutes --
// Every family samples through one Topology::sample_path_stratified. These
// digests, in path_digest's format over the seed-42 permutation, were
// recorded from the per-family samplers it replaced, and pin what it
// kept: the minimal strata of the torus, HyperX and both fat-tree depths
// at 8 and 16 strata, Dragonfly's Valiant and UGAL paths, and every
// mode's distance-field walk on one faulted instance of every family.
TEST(FamilyRoutes, PathDigestsArePinned) {
  struct Case {
    const char* spec;
    RouteMode mode;
    int strata;
    std::uint64_t digest;
  };
  constexpr RouteMode kMin = RouteMode::kMinimal, kVal = RouteMode::kValiant,
                      kUgal = RouteMode::kUgal;
  const Case cases[] = {
      {"torus:16x16", kMin, 8, 0x2e9187d7c5a267caull},
      {"torus:16x16", kMin, 16, 0x0d3377b192521b18ull},
      {"hyperx:16x16", kMin, 8, 0xa877e845ce0b7ed5ull},
      {"hyperx:16x16", kMin, 16, 0x47bd554d5de75705ull},
      {"fattree:256", kMin, 8, 0x0a5a6be86957545dull},
      {"fattree:256", kMin, 16, 0x848ab164ebaccbfdull},
      {"fattree:4096", kMin, 8, 0x81939839c21724bdull},
      {"fattree:4096", kMin, 16, 0x26037f33abb9d561ull},
      {"dragonfly:small", kVal, 8, 0x3013c87f4f25a525ull},
      {"dragonfly:small", kUgal, 8, 0x5094ea4bf5652a71ull},
      {"hx2mesh:4x4:faults=links:0.02:seed=7", kMin, 8, 0x8b1a7ef84ed2c465ull},
      {"hx2mesh:4x4:faults=links:0.02:seed=7", kVal, 8, 0xd19e179742d7e4ecull},
      {"hx2mesh:4x4:faults=links:0.02:seed=7", kUgal, 8, 0x21b744734c59a85aull},
      {"torus:8x8:faults=links:0.02:seed=7", kMin, 8, 0x0ad3dfdfec4a1badull},
      {"torus:8x8:faults=links:0.02:seed=7", kVal, 8, 0xe4ee38352cbb19f3ull},
      {"torus:8x8:faults=links:0.02:seed=7", kUgal, 8, 0xbc0c5102fc2ec9beull},
      {"hyperx:4x4:faults=links:0.02:seed=7", kMin, 8, 0xe8be383d6091d4c5ull},
      {"hyperx:4x4:faults=links:0.02:seed=7", kVal, 8, 0x5466162f47e04285ull},
      {"hyperx:4x4:faults=links:0.02:seed=7", kUgal, 8, 0xca28bd374f954ef8ull},
      {"fattree:256:faults=links:0.02:seed=7", kMin, 8, 0xdb165caba611b56dull},
      {"fattree:256:faults=links:0.02:seed=7", kVal, 8, 0xc737f67410ca4f2cull},
      {"fattree:256:faults=links:0.02:seed=7", kUgal, 8, 0x880bffc779eec5d1ull},
      {"dragonfly:4:2:2:5:faults=links:0.02:seed=7", kMin, 8,
       0x1d5ffb442e4b90edull},
      {"dragonfly:4:2:2:5:faults=links:0.02:seed=7", kVal, 8,
       0xb5c0e8dec26a8e43ull},
      {"dragonfly:4:2:2:5:faults=links:0.02:seed=7", kUgal, 8,
       0x11bbe2beedd8c788ull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.spec) + " " + route_mode_name(c.mode) + " " +
                 std::to_string(c.strata));
    auto t = engine::make_topology(c.spec);
    ASSERT_EQ(t->faulted(), std::string(c.spec).find("faults=") !=
                                std::string::npos);
    EXPECT_EQ(path_digest(*t, route_perm(t->num_endpoints()), c.mode,
                          c.strata),
              c.digest);
  }
}

// ------------------------------------------------------- OneMinimalPath --
// The flow solver draws a flow once when Topology::one_path says every
// stratum returns the same path. Checked on every pair against an
// independent count of shortest link sequences (parallel cables count
// apart): a claimed pair must have exactly one, and strata 0..63 under
// several seeds must all return it.

// Shortest link sequences from `src` to every node over healthy links,
// saturated at 2 ("more than one").
std::vector<int> shortest_path_counts(const Graph& g, NodeId src) {
  std::vector<int> dist(g.num_nodes(), -1), count(g.num_nodes(), 0);
  std::vector<NodeId> frontier{src};
  dist[src] = 0;
  count[src] = 1;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const NodeId u = frontier[i];
    for (LinkId l : g.out_links(u)) {
      if (g.link_failed(l)) continue;
      const NodeId v = g.link(l).dst;
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        frontier.push_back(v);
      }
      if (dist[v] == dist[u] + 1) count[v] = std::min(2, count[v] + count[u]);
    }
  }
  return count;
}

TEST(OneMinimalPath, ClaimedPairsHaveOneShortestPathAndOneSample) {
  struct Case {
    const char* spec;
    // The family's answer is exact: it claims every pair that has one
    // shortest path, not only some.
    bool exact;
  };
  const Case cases[] = {
      // Every family's small instance. The torus (one ring, no half-way
      // tie) and the two-level fat tree (one leaf) answer exactly; the
      // others keep the base's false.
      {"torus:8x6", true},
      {"torus:5x7", true},
      {"hyperx:4x3", false},
      {"fattree:256", true},
      {"dragonfly:4:2:2:5", false},
      // HammingMesh: single-switch and two-level rails, tapered, odd and
      // asymmetric boards, 1-wide boards (the 1x1 board claims no pair).
      {"hx2mesh:2x2", true},
      {"hx2mesh:4x4", true},
      {"hx2mesh:40x4", true},
      {"hx2mesh:40x4:taper=0.5", true},
      {"hx4mesh:4x4", true},
      {"hxmesh:3x3:3x3", true},
      {"hxmesh:1x1:4x4", true},
      {"hxmesh:1x2:4x4", true},
      // A faulted fabric walks distance fields: never one path.
      {"hx2mesh:4x4:faults=links:0.02:seed=7", false},
  };
  constexpr int kStrata = 64;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec);
    auto t = engine::make_topology(c.spec);
    const Graph& g = t->graph();
    const int n = t->num_endpoints();
    int claimed = 0, single = 0, bad = 0;
    std::vector<LinkId> first, path;
    for (int src = 0; src < n; ++src) {
      const std::vector<int> count =
          shortest_path_counts(g, t->endpoint_node(src));
      for (int dst = 0; dst < n; ++dst) {
        EXPECT_FALSE(t->one_path(src, dst, RouteMode::kValiant));
        EXPECT_FALSE(t->one_path(src, dst, RouteMode::kUgal));
        single += src != dst && count[t->endpoint_node(dst)] == 1;
        if (!t->one_path(src, dst, RouteMode::kMinimal)) continue;
        ++claimed;
        if (count[t->endpoint_node(dst)] != 1 && bad++ < 3)
          ADD_FAILURE() << src << " -> " << dst << ": "
                        << "claimed one path, the graph has more";
        Rng rng0 = Rng::substream(0, 0);
        t->sample_path_stratified(src, dst, 0, kStrata, rng0, first);
        for (std::uint64_t seed : {1u, 2u, 99u}) {
          Rng rng = Rng::substream(seed, static_cast<std::uint64_t>(src));
          for (int k = 0; k < kStrata; ++k) {
            t->sample_path_stratified(src, dst, k, kStrata, rng, path);
            if (path != first && bad++ < 3)
              ADD_FAILURE() << src << " -> " << dst << ": stratum " << k
                            << " under seed " << seed << " differs";
          }
        }
      }
    }
    EXPECT_EQ(bad, 0);
    if (c.exact) EXPECT_EQ(claimed, single);
    if (t->faulted()) EXPECT_EQ(claimed, 0);
  }
}

// ------------------------------------------------------------- Diameters --
// diameter() (oracle-backed eccentricity search) and diameter_formula()
// (Section III-B closed forms) must agree for every family — including
// the paper's full-size instances, which the O(1)-per-pair oracle path
// makes cheap to sweep. HyperX is the deliberate exception: its formula
// reports the Hx1Mesh rail-equivalent of Table II, not the switch-graph
// eccentricity (see hyperx.hpp), so it is checked separately.
TEST(Diameters, FormulaMatchesOracleDiameterForEveryFamily) {
  std::vector<std::pair<std::string, std::unique_ptr<Topology>>> zoo;
  auto add = [&](std::unique_ptr<Topology> t) {
    std::string name = t->name() + " (" +
                       std::to_string(t->num_endpoints()) + " endpoints)";
    zoo.emplace_back(std::move(name), std::move(t));
  };
  // HammingMesh: paper design points, rail trees, asymmetric boards.
  add(std::make_unique<HammingMesh>(HxMeshParams{.a = 2, .b = 2, .x = 16, .y = 16}));
  add(std::make_unique<HammingMesh>(HxMeshParams{.a = 2, .b = 2, .x = 64, .y = 64}));
  add(std::make_unique<HammingMesh>(HxMeshParams{.a = 4, .b = 4, .x = 8, .y = 8}));
  add(std::make_unique<HammingMesh>(HxMeshParams{.a = 4, .b = 4, .x = 32, .y = 32}));
  add(std::make_unique<HammingMesh>(HxMeshParams{.a = 1, .b = 1, .x = 32, .y = 32}));
  add(std::make_unique<HammingMesh>(HxMeshParams{.a = 3, .b = 2, .x = 4, .y = 3}));
  add(std::make_unique<HammingMesh>(
      HxMeshParams{.a = 2, .b = 2, .x = 6, .y = 6, .radix = 8}));
  // Torus: even, odd, and the paper's sizes.
  add(std::make_unique<Torus>(TorusParams{.width = 32, .height = 32}));
  add(std::make_unique<Torus>(TorusParams{.width = 6, .height = 10}));
  add(std::make_unique<Torus>(TorusParams{.width = 128, .height = 128}));
  // Fat trees: two-level (all tapers) and three-level.
  add(std::make_unique<FatTree>(FatTreeParams{.num_endpoints = 1024}));
  add(std::make_unique<FatTree>(
      FatTreeParams{.num_endpoints = 1024, .taper = 0.5}));
  add(std::make_unique<FatTree>(
      FatTreeParams{.num_endpoints = 1024, .taper = 0.25}));
  add(std::make_unique<FatTree>(FatTreeParams{.num_endpoints = 16384}));
  // Dragonfly: both paper design points.
  add(std::make_unique<Dragonfly>(DragonflyParams{.routers_per_group = 16,
                                                  .endpoints_per_router = 8,
                                                  .global_per_router = 8,
                                                  .groups = 8}));
  add(std::make_unique<Dragonfly>(DragonflyParams{.routers_per_group = 32,
                                                  .endpoints_per_router = 17,
                                                  .global_per_router = 16,
                                                  .groups = 30}));
  for (const auto& [name, t] : zoo)
    EXPECT_EQ(t->diameter(), t->diameter_formula()) << name;
}

// Rank/coordinate round-trips.
TEST(HammingMesh, CoordinateRoundTrip) {
  HammingMesh hx({.a = 2, .b = 3, .x = 5, .y = 4});
  for (int r = 0; r < hx.num_endpoints(); ++r) {
    EXPECT_EQ(hx.rank_at(hx.gx_of(r), hx.gy_of(r)), r);
  }
  EXPECT_EQ(hx.accel_x(), 10);
  EXPECT_EQ(hx.accel_y(), 12);
}

}  // namespace
}  // namespace hxmesh::topo
