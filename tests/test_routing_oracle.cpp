// Oracle-vs-BFS equivalence: every closed-form routing oracle must agree
// with a real reverse BFS on hop distances (all nodes, including rail and
// tree switches), minimal next-hop candidate sets (membership AND order),
// and sampled-path minimality — for every topology family, including
// asymmetric boards and degenerate 1-wide meshes. These tests are what
// license Topology::dist_field to skip BFS on the hot path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/counters.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/hyperx.hpp"
#include "topo/routing_oracle.hpp"
#include "topo/torus.hpp"

namespace hxmesh::topo {
namespace {

using Instance = std::pair<std::string, std::unique_ptr<Topology>>;

// Every family instance under test, chosen to cover the structural
// variants: single-switch and fat-tree rails, tapered rails, two- and
// three-level fat trees, asymmetric and 1-wide boards, single-board
// dimensions, odd torus rings.
std::vector<Instance> oracle_zoo() {
  std::vector<Instance> out;
  auto add = [&](std::string name, std::unique_ptr<Topology> t) {
    out.emplace_back(std::move(name), std::move(t));
  };
  add("hx2mesh:4x4", std::make_unique<HammingMesh>(
                         HxMeshParams{.a = 2, .b = 2, .x = 4, .y = 4}));
  add("hx2mesh rail trees",
      std::make_unique<HammingMesh>(
          HxMeshParams{.a = 2, .b = 2, .x = 6, .y = 6, .radix = 8}));
  add("hx2mesh tapered rail trees",
      std::make_unique<HammingMesh>(HxMeshParams{
          .a = 2, .b = 2, .x = 6, .y = 6, .radix = 8, .rail_taper = 0.5}));
  add("hxmesh:2x4:3x3 asymmetric board",
      std::make_unique<HammingMesh>(
          HxMeshParams{.a = 2, .b = 4, .x = 3, .y = 3}));
  add("hxmesh:1x4:4x2 one-wide board",
      std::make_unique<HammingMesh>(
          HxMeshParams{.a = 1, .b = 4, .x = 4, .y = 2}));
  add("hxmesh:3x2:4x3", std::make_unique<HammingMesh>(
                            HxMeshParams{.a = 3, .b = 2, .x = 4, .y = 3}));
  add("hxmesh:1x1 HyperX degenerate",
      std::make_unique<HammingMesh>(
          HxMeshParams{.a = 1, .b = 1, .x = 6, .y = 6}));
  add("hxmesh single board column",
      std::make_unique<HammingMesh>(
          HxMeshParams{.a = 2, .b = 2, .x = 1, .y = 5}));
  add("torus:8x6", std::make_unique<Torus>(
                       TorusParams{.width = 8, .height = 6}));
  add("torus:5x7 odd rings", std::make_unique<Torus>(
                                 TorusParams{.width = 5, .height = 7}));
  add("torus:2x4 wrapless dimension",
      std::make_unique<Torus>(TorusParams{.width = 2, .height = 4}));
  add("hyperx:4x3", std::make_unique<HyperX>(HyperXParams{.x = 4, .y = 3}));
  add("fattree two-level", std::make_unique<FatTree>(FatTreeParams{
                               .num_endpoints = 96, .radix = 8}));
  add("fattree two-level tapered",
      std::make_unique<FatTree>(
          FatTreeParams{.num_endpoints = 96, .radix = 8, .taper = 0.5}));
  // 100 endpoints at radix 8: 7 pods, within the radix-8 core budget
  // (ceil(pods/2) <= radix/2 — the builder's three-level precondition).
  add("fattree three-level", std::make_unique<FatTree>(FatTreeParams{
                                 .num_endpoints = 100, .radix = 8}));
  add("dragonfly", std::make_unique<Dragonfly>(
                       DragonflyParams{.routers_per_group = 8,
                                       .endpoints_per_router = 4,
                                       .global_per_router = 4,
                                       .groups = 5}));
  return out;
}

// A modest stride keeps the quadratic sweeps fast while still touching
// every coordinate class (strides are coprime to the board sizes in use).
int dst_stride(const Topology& t) {
  return std::max(1, t.num_endpoints() / 40) | 1;
}

TEST(RoutingOracle, EveryFamilyInstallsAClosedForm) {
  for (const auto& [name, t] : oracle_zoo())
    EXPECT_TRUE(t->routing_oracle().closed_form()) << name;
}

// node_dist and fill must equal reverse BFS for every node of the graph —
// endpoints, rail leaves, rail spines, tree switches, routers — toward
// every sampled destination endpoint.
TEST(RoutingOracle, NodeDistancesAndFillsMatchBfsEverywhere) {
  for (const auto& [name, t] : oracle_zoo()) {
    const Graph& g = t->graph();
    const RoutingOracle& oracle = t->routing_oracle();
    std::vector<std::int32_t> field;
    for (int dst = 0; dst < t->num_endpoints(); dst += dst_stride(*t)) {
      const NodeId goal = t->endpoint_node(dst);
      const auto bfs = g.dist_to(goal);
      oracle.fill(goal, field);
      ASSERT_EQ(field.size(), bfs.size()) << name;
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        ASSERT_EQ(field[n], bfs[n])
            << name << ": fill diverged at node " << n << " (kind "
            << (g.kind(n) == NodeKind::kEndpoint ? "endpoint" : "switch")
            << ") toward endpoint " << dst;
        ASSERT_EQ(oracle.node_dist(n, goal), bfs[n])
            << name << ": node_dist diverged at node " << n << " toward "
            << dst;
      }
    }
  }
}

// Candidate sets must match the BFS-field filter exactly — same links, in
// the same (out-link) order. Order is what keeps packet-sim tie-breaking
// and path-sampling RNG consumption bit-identical.
TEST(RoutingOracle, NextHopCandidatesMatchBfsMembershipAndOrder) {
  for (const auto& [name, t] : oracle_zoo()) {
    const Graph& g = t->graph();
    const RoutingOracle& oracle = t->routing_oracle();
    std::vector<LinkId> got, want;
    for (int dst = 0; dst < t->num_endpoints(); dst += dst_stride(*t) * 2) {
      const NodeId goal = t->endpoint_node(dst);
      const auto bfs = g.dist_to(goal);
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        want.clear();
        RoutingOracle::next_hops_from_field(g, bfs, n, want);
        oracle.next_hops(n, goal, got);
        ASSERT_EQ(got, want) << name << ": candidates of node " << n
                             << " toward endpoint " << dst;
        if (bfs[n] > 0)
          ASSERT_FALSE(want.empty())
              << name << ": no minimal hop out of node " << n;
      }
    }
  }
}

// dist_field must serve oracle-rendered fields that are still exact, and
// hop_distance must agree with the oracle for endpoint pairs.
TEST(RoutingOracle, DistFieldAndHopDistanceAgreeWithBfs) {
  for (const auto& [name, t] : oracle_zoo()) {
    const int n = t->num_endpoints();
    for (int dst = 0; dst < n; dst += dst_stride(*t) * 2) {
      const NodeId goal = t->endpoint_node(dst);
      const auto bfs = t->graph().dist_to(goal);
      const auto field = t->dist_field(goal);
      for (NodeId u = 0; u < t->graph().num_nodes(); ++u)
        ASSERT_EQ((*field)[u], bfs[u]) << name << " node " << u;
      for (int src = 0; src < n; src += 3)
        ASSERT_EQ(t->hop_distance(src, dst), bfs[t->endpoint_node(src)])
            << name << " " << src << "->" << dst;
    }
  }
}

// Minimal-mode paths must be connected, minimal (length == oracle
// distance), and end at the destination — on every family and every
// stratum: detours belong to route=valiant|ugal only.
TEST(RoutingOracle, SampledPathsAreMinimalUnderTheOracle) {
  for (const auto& [name, t] : oracle_zoo()) {
    const RoutingOracle& oracle = t->routing_oracle();
    Rng rng(17);
    std::vector<LinkId> path;
    const int n = t->num_endpoints();
    for (int trial = 0; trial < 60; ++trial) {
      const int src = static_cast<int>(rng.uniform(n));
      const int dst = static_cast<int>(rng.uniform(n));
      if (src == dst) continue;
      t->sample_path_stratified(src, dst, trial % 8, 8, rng, path);
      NodeId cur = t->endpoint_node(src);
      for (LinkId l : path) {
        ASSERT_EQ(t->graph().link(l).src, cur) << name << ": disconnected";
        cur = t->graph().link(l).dst;
      }
      ASSERT_EQ(cur, t->endpoint_node(dst)) << name;
      ASSERT_EQ(static_cast<int>(path.size()),
                oracle.node_dist(t->endpoint_node(src), t->endpoint_node(dst)))
          << name << ": sampled path not minimal for " << src << "->" << dst
          << " (stratum " << trial % 8 << ")";
    }
  }
}

// Valiant and UGAL paths must be connected walks from source to
// destination that use healthy links only, no shorter than minimal, on
// every family, healthy and faulted; Valiant must detour at least once.
TEST(RouteMode, ValiantPathsAreConnectedWalks) {
  for (const auto& [name, t] : oracle_zoo()) {
    for (const bool faulted : {false, true}) {
      SCOPED_TRACE(name + (faulted ? " (faulted)" : ""));
      if (faulted) t->apply_faults(FaultSpec::parse("faults=links:3:seed=5"));
      ASSERT_EQ(t->faulted(), faulted);
      const Graph& g = t->graph();
      Rng rng(3);
      std::vector<LinkId> path;
      const int n = t->num_endpoints();
      bool saw_detour = false;
      for (int trial = 0; trial < 32; ++trial) {
        const int src = static_cast<int>(rng.uniform(n));
        int dst = src;
        while (dst == src) dst = static_cast<int>(rng.uniform(n));
        const int minimal = t->hop_distance(src, dst);
        for (RouteMode m : {RouteMode::kValiant, RouteMode::kUgal}) {
          t->sample_path_stratified(src, dst, trial % 8, 8, rng, path, m);
          NodeId cur = t->endpoint_node(src);
          for (LinkId l : path) {
            ASSERT_FALSE(g.link_failed(l)) << "path uses a failed link";
            ASSERT_EQ(g.link(l).src, cur) << "disconnected path";
            cur = g.link(l).dst;
          }
          ASSERT_EQ(cur, t->endpoint_node(dst));
          ASSERT_GE(static_cast<int>(path.size()), minimal);
          if (m == RouteMode::kValiant &&
              static_cast<int>(path.size()) > minimal)
            saw_detour = true;
        }
      }
      EXPECT_TRUE(saw_detour);
    }
  }
}

// The BFS fallback oracle is the executable reference: it must agree with
// a closed-form oracle on a shared instance, and report itself as such.
TEST(RoutingOracle, BfsFallbackMatchesClosedFormOracle) {
  HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  BfsOracle bfs(hx.graph());
  EXPECT_FALSE(bfs.closed_form());
  const RoutingOracle& oracle = hx.routing_oracle();
  std::vector<std::int32_t> a, b;
  std::vector<LinkId> ha, hb;
  for (int dst = 0; dst < hx.num_endpoints(); dst += 7) {
    const NodeId goal = hx.endpoint_node(dst);
    oracle.fill(goal, a);
    bfs.fill(goal, b);
    ASSERT_EQ(a, b) << "dst " << dst;
    for (NodeId n = 0; n < hx.graph().num_nodes(); n += 3) {
      oracle.next_hops(n, goal, ha);
      bfs.next_hops(n, goal, hb);
      ASSERT_EQ(ha, hb) << "node " << n << " dst " << dst;
    }
  }
}

// Observability: oracle fills and dist-cache hits must show up in the
// process-wide counters, and closed-form topologies must not add BFS
// fills through the dist_field hot path.
TEST(RoutingOracle, CountersObserveFillsAndCacheHits) {
  const counters::Map before = counters::snapshot();
  HammingMesh hx({.a = 2, .b = 2, .x = 3, .y = 3});
  const NodeId goal = hx.endpoint_node(5);
  hx.dist_field(goal);  // miss: one closed-form fill
  hx.dist_field(goal);  // hit
  const counters::Map after = counters::snapshot();
  EXPECT_GE(after.at("routing.oracle_fills"),
            before.at("routing.oracle_fills") + 1);
  EXPECT_GE(after.at("routing.dist_cache_hits"),
            before.at("routing.dist_cache_hits") + 1);
  EXPECT_EQ(after.at("routing.bfs_fills"), before.at("routing.bfs_fills"));
}

// ---------------------------------------------------- degraded fabrics --
// Independent reference BFS over the faulted graph: plain queue sweep that
// skips failed links, sharing no code with Graph::dist_to.
std::vector<std::int32_t> reference_bfs_to(const Graph& g, NodeId goal) {
  std::vector<std::int32_t> dist(g.num_nodes(), -1);
  std::vector<NodeId> queue{goal};
  dist[goal] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    // Reverse BFS: relax over in-links (v -> u means dist[v] <= dist[u]+1).
    for (std::size_t l = 0; l < g.num_links(); ++l) {
      const Link& lnk = g.link(static_cast<LinkId>(l));
      if (lnk.dst != u || g.link_failed(static_cast<LinkId>(l))) continue;
      if (dist[lnk.src] >= 0) continue;
      dist[lnk.src] = dist[u] + 1;
      queue.push_back(lnk.src);
    }
  }
  return dist;
}

// After seeded faults every family must route over the degraded graph:
// the served oracle's distances and candidate sets (membership AND order)
// must match the reference BFS that skips failed links.
TEST(RoutingOracle, DegradedGraphsMatchReferenceBfs) {
  for (int nfaults = 1; nfaults <= 5; ++nfaults) {
    for (const auto& [name, t] : oracle_zoo()) {
      t->apply_faults(FaultSpec::parse(
          "faults=links:" + std::to_string(nfaults) + ":seed=" +
          std::to_string(17 + nfaults)));
      ASSERT_TRUE(t->faulted()) << name;
      const Graph& g = t->graph();
      const RoutingOracle& oracle = t->routing_oracle();
      std::vector<std::int32_t> field;
      std::vector<LinkId> got, want;
      for (int dst = 0; dst < t->num_endpoints();
           dst += dst_stride(*t) * 4) {
        const NodeId goal = t->endpoint_node(dst);
        const auto ref = reference_bfs_to(g, goal);
        oracle.fill(goal, field);
        for (NodeId n = 0; n < g.num_nodes(); ++n) {
          ASSERT_EQ(field[n], ref[n])
              << name << " (" << nfaults << " faults): distance diverged "
              << "at node " << n << " toward endpoint " << dst;
          want.clear();
          if (ref[n] > 0)
            for (LinkId l : g.out_links(n))
              if (!g.link_failed(l) && ref[g.link(l).dst] == ref[n] - 1)
                want.push_back(l);
          oracle.next_hops(n, goal, got);
          ASSERT_EQ(got, want)
              << name << " (" << nfaults << " faults): candidates of node "
              << n << " toward endpoint " << dst;
        }
      }
    }
  }
}

// Faults flip the serving oracle to the BFS fallback; sampled minimal
// paths stay valid (connected, healthy links only, reference-BFS length).
TEST(RoutingOracle, DegradedSampledPathsAvoidFailedLinks) {
  for (const auto& [name, t] : oracle_zoo()) {
    t->apply_faults(FaultSpec::parse("faults=links:3:seed=5"));
    EXPECT_FALSE(t->routing_oracle().closed_form()) << name;
    const Graph& g = t->graph();
    Rng rng(23);
    std::vector<LinkId> path;
    const int n = t->num_endpoints();
    for (int trial = 0; trial < 24; ++trial) {
      const int src = static_cast<int>(rng.uniform(n));
      const int dst = static_cast<int>(rng.uniform(n));
      if (src == dst) continue;
      t->sample_path_stratified(src, dst, trial % 8, 8, rng, path);
      NodeId cur = t->endpoint_node(src);
      for (LinkId l : path) {
        ASSERT_FALSE(g.link_failed(l)) << name << ": path uses failed link";
        ASSERT_EQ(g.link(l).src, cur) << name << ": disconnected path";
        cur = g.link(l).dst;
      }
      ASSERT_EQ(cur, t->endpoint_node(dst)) << name;
      const auto ref = reference_bfs_to(g, t->endpoint_node(dst));
      ASSERT_EQ(static_cast<int>(path.size()), ref[t->endpoint_node(src)])
          << name << ": degraded sampled path not minimal " << src << "->"
          << dst;
    }
  }
}

// Reachability loss must surface as the typed DisconnectedError — never
// as silent -1 distances in a served field.
TEST(RoutingOracle, DegradedUnreachableEndpointThrowsTypedError) {
  HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  const NodeId victim = hx.endpoint_node(3);
  std::vector<LinkId> cut(hx.graph().out_links(victim).begin(),
                          hx.graph().out_links(victim).end());
  hx.fail_links(cut);
  EXPECT_THROW((void)hx.dist_field(hx.endpoint_node(0)), DisconnectedError);
  EXPECT_THROW((void)hx.dist_field(hx.endpoint_node(3)), DisconnectedError);
}

}  // namespace
}  // namespace hxmesh::topo
