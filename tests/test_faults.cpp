// Fault-injection axis: FaultSpec parse/serialize round-trips, seeded
// deterministic link knock-outs, cache-key separation of degraded fabrics,
// the DisconnectedError contract, and the route-mode plumbing that rides
// on the same spec strings.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/factory.hpp"
#include "engine/result_cache.hpp"
#include "flow/patterns.hpp"
#include "topo/faults.hpp"
#include "topo/graph.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/torus.hpp"

namespace hxmesh::topo {
namespace {

// ------------------------------------------------------------ FaultSpec --
TEST(FaultSpec, RoundTripsThroughSpecString) {
  const std::vector<std::string> specs = {
      "faults=links:0.01",
      "faults=links:0.01:seed=7",
      "faults=links:0.5",
      "faults=links:3",
      "faults=links:3:seed=42",
      "faults=links:0",
  };
  for (const std::string& s : specs) {
    FaultSpec parsed = FaultSpec::parse(s);
    EXPECT_EQ(parsed.spec(), s) << s;
    EXPECT_EQ(FaultSpec::parse(parsed.spec()), parsed) << s;
  }
}

TEST(FaultSpec, DistinguishesFractionFromCount) {
  FaultSpec frac = FaultSpec::parse("faults=links:0.5");
  EXPECT_EQ(frac.mode, FaultSpec::Mode::kFraction);
  EXPECT_DOUBLE_EQ(frac.fraction, 0.5);
  FaultSpec count = FaultSpec::parse("faults=links:5");
  EXPECT_EQ(count.mode, FaultSpec::Mode::kCount);
  EXPECT_EQ(count.count, 5);
  EXPECT_NE(frac.spec(), count.spec());
}

TEST(FaultSpec, DefaultSeedOmittedFromSpec) {
  FaultSpec spec = FaultSpec::parse("faults=links:0.1:seed=1");
  EXPECT_EQ(spec.spec(), "faults=links:0.1");  // seed=1 is the default
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "faults=links",           // missing rate
      "faults=links:",          // empty rate
      "faults=links:-0.5",      // negative fraction
      "faults=links:1.5",       // fraction > 1
      "faults=links:abc",       // junk
      "faults=links:0.1:x=2",   // unknown option
      "faults=nodes:0.1",       // unsupported class
      "faults=links:0.1:seed=", // empty seed
  };
  for (const std::string& s : bad)
    EXPECT_THROW(FaultSpec::parse(s), std::invalid_argument) << s;
}

TEST(FaultSpec, EmptyByDefault) {
  FaultSpec spec;
  EXPECT_TRUE(spec.empty());
  EXPECT_FALSE(FaultSpec::parse("faults=links:0.1").empty());
}

// ----------------------------------------------------- seeded knock-outs --
std::set<LinkId> failed_links(const Topology& t) {
  std::set<LinkId> out;
  const Graph& g = t.graph();
  for (std::size_t l = 0; l < g.num_links(); ++l)
    if (g.link_failed(static_cast<LinkId>(l)))
      out.insert(static_cast<LinkId>(l));
  return out;
}

TEST(Faults, SameSpecKnocksOutIdenticalSetAcrossBuilds) {
  const std::string spec = "hx2mesh:4x4:faults=links:0.05:seed=9";
  auto t1 = engine::make_topology(spec);
  auto t2 = engine::make_topology(spec);
  ASSERT_TRUE(t1->faulted());
  EXPECT_GT(t1->graph().num_failed_links(), 0u);
  EXPECT_EQ(failed_links(*t1), failed_links(*t2));
}

TEST(Faults, FailedLinksComeInDuplexPairs) {
  auto t = engine::make_topology("torus:8x8:faults=links:0.1:seed=3");
  const Graph& g = t->graph();
  ASSERT_GT(g.num_failed_links(), 0u);
  for (std::size_t l = 0; l < g.num_links(); ++l)
    if (g.link_failed(static_cast<LinkId>(l)))
      EXPECT_TRUE(g.link_failed(static_cast<LinkId>(l) ^ 1u)) << l;
}

TEST(Faults, CountModeFailsExactlyThatManyCables) {
  auto t = engine::make_topology("hx2mesh:4x4:faults=links:4:seed=2");
  EXPECT_EQ(t->graph().num_failed_links(), 8u);  // 4 cables = 8 directed
  EXPECT_EQ(t->fault_spec().count, 4);
}

TEST(Faults, DisjointSeedsDrawDifferentVictims) {
  // Statistically disjoint: over a large torus at low rate the two seeds'
  // victim sets must not coincide (identical sets mean the seed is dead).
  auto t1 = engine::make_topology("torus:16x16:faults=links:0.05:seed=1");
  auto t2 = engine::make_topology("torus:16x16:faults=links:0.05:seed=2");
  auto f1 = failed_links(*t1), f2 = failed_links(*t2);
  ASSERT_GT(f1.size(), 0u);
  ASSERT_GT(f2.size(), 0u);
  EXPECT_NE(f1, f2);
}

TEST(Faults, EligibilityNeverSeversANode) {
  // Even at a brutal fault rate every node keeps at least one healthy
  // out-link (partitions may still exist, but no outright severed port).
  auto t = engine::make_topology("hx2mesh:4x4:faults=links:0.9:seed=11");
  const Graph& g = t->graph();
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    int healthy = 0;
    for (LinkId l : g.out_links(n))
      if (!g.link_failed(l)) ++healthy;
    EXPECT_GE(healthy, 1) << "node " << n;
  }
}

TEST(Faults, SpecStringRoundTripsThroughTopology) {
  auto t = engine::make_topology("hx2mesh:4x4:faults=links:0.05:seed=9");
  EXPECT_EQ(t->fault_spec().spec(), "faults=links:0.05:seed=9");
}

// ------------------------------------------------------ cache separation --
TEST(Faults, CacheKeysSeparateFaultedFromHealthy) {
  flow::TrafficSpec pattern = flow::parse_traffic("shift:1");
  const std::string healthy =
      engine::ResultCache::cell_key("hx2mesh:4x4", "flow", pattern, 1);
  const std::string faulted = engine::ResultCache::cell_key(
      "hx2mesh:4x4:faults=links:0.01", "flow", pattern, 1);
  const std::string faulted_seed = engine::ResultCache::cell_key(
      "hx2mesh:4x4:faults=links:0.01:seed=2", "flow", pattern, 1);
  EXPECT_NE(healthy, faulted);
  EXPECT_NE(faulted, faulted_seed);
}

TEST(Faults, CacheKeysSeparateRouteModes) {
  flow::TrafficSpec minimal = flow::parse_traffic("shift:1");
  flow::TrafficSpec valiant = flow::parse_traffic("shift:1:route=valiant");
  flow::TrafficSpec ugal = flow::parse_traffic("shift:1:route=ugal");
  const std::string k_min =
      engine::ResultCache::cell_key("hx2mesh:4x4", "flow", minimal, 1);
  const std::string k_val =
      engine::ResultCache::cell_key("hx2mesh:4x4", "flow", valiant, 1);
  const std::string k_ugal =
      engine::ResultCache::cell_key("hx2mesh:4x4", "flow", ugal, 1);
  EXPECT_NE(k_min, k_val);
  EXPECT_NE(k_val, k_ugal);
  EXPECT_NE(k_min, k_ugal);
}

// -------------------------------------------------- DisconnectedError ----
TEST(Faults, DisconnectedEndpointThrowsTypedError) {
  // fail_links() applies raw faults with no eligibility guard: isolating
  // one endpoint of a torus must surface as DisconnectedError at fill
  // time, never as silent -1 distances.
  Torus t(TorusParams{.width = 4, .height = 4});
  const Graph& g = t.graph();
  const NodeId victim = t.endpoint_node(5);
  std::vector<LinkId> cut(g.out_links(victim).begin(),
                          g.out_links(victim).end());
  t.fail_links(cut);
  EXPECT_THROW((void)t.dist_field(t.endpoint_node(0)), DisconnectedError);
}

TEST(Faults, UnreachableSpecThrowsFromEngineRun) {
  // The same contract holds through the public engine path.
  Torus t(TorusParams{.width = 4, .height = 4});
  const NodeId victim = t.endpoint_node(5);
  std::vector<LinkId> cut(t.graph().out_links(victim).begin(),
                          t.graph().out_links(victim).end());
  t.fail_links(cut);
  auto eng = engine::make_engine("flow", t);
  EXPECT_THROW(eng->run(flow::parse_traffic("shift:1")), DisconnectedError);
}

// -------------------------------------------------- route-mode plumbing --
TEST(RouteMode, NamesRoundTripThroughParse) {
  for (RouteMode m :
       {RouteMode::kMinimal, RouteMode::kValiant, RouteMode::kUgal})
    EXPECT_EQ(parse_route_mode(route_mode_name(m)), m);
  EXPECT_THROW(parse_route_mode("bogus"), std::invalid_argument);
}

TEST(RouteMode, PatternSpecRoundTripsRoute) {
  flow::TrafficSpec spec = flow::parse_traffic("alltoall:route=ugal");
  EXPECT_EQ(spec.route, RouteMode::kUgal);
  EXPECT_EQ(flow::pattern_spec(spec), "alltoall:route=ugal");
  // Minimal is the default and stays out of the canonical string, so all
  // pre-existing cache keys are untouched.
  flow::TrafficSpec minimal = flow::parse_traffic("alltoall");
  EXPECT_EQ(flow::pattern_spec(minimal), "alltoall");
}

// The sampler must honor the requested mode: minimal stays exactly
// minimal, and Valiant detours actually leave the minimal length.
TEST(RouteMode, HammingMeshSamplePathHonorsMode) {
  HammingMesh hx(HxMeshParams{.a = 2, .b = 2, .x = 4, .y = 4});
  Rng rng(7);
  std::vector<LinkId> path;
  bool saw_detour = false;
  for (int trial = 0; trial < 64; ++trial) {
    const int src = static_cast<int>(rng.uniform(hx.num_endpoints()));
    int dst = src;
    while (dst == src)
      dst = static_cast<int>(rng.uniform(hx.num_endpoints()));
    hx.sample_path_stratified(src, dst, trial % 8, 8, rng, path,
                              RouteMode::kMinimal);
    EXPECT_EQ(static_cast<int>(path.size()), hx.dist(src, dst));
    hx.sample_path_stratified(src, dst, trial % 8, 8, rng, path,
                              RouteMode::kValiant);
    ASSERT_GE(static_cast<int>(path.size()), hx.dist(src, dst));
    if (static_cast<int>(path.size()) > hx.dist(src, dst)) saw_detour = true;
  }
  EXPECT_TRUE(saw_detour);
}

}  // namespace
}  // namespace hxmesh::topo
