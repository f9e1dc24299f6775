// Flow-level max-min solver: exactness on hand-checkable cases, fairness
// properties, and Table II-shaped results on the paper's small networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/counters.hpp"
#include "core/rng.hpp"
#include "flow/flow_sim.hpp"
#include "flow/patterns.hpp"
#include "paper_topology.hpp"
#include "topo/fattree.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/torus.hpp"
#include "topo/zoo.hpp"

namespace hxmesh::flow {
namespace {

constexpr double kLink = kLinkBandwidthBps;

TEST(FlowSolver, SingleFlowGetsFullLink) {
  topo::FatTree ft({.num_endpoints = 64, .radix = 64, .taper = 1.0});
  FlowSolver solver(ft);
  std::vector<Flow> flows{{0, 1, 0.0}};
  solver.solve(flows);
  EXPECT_NEAR(flows[0].rate, kLink, kLink * 1e-6);
}

TEST(FlowSolver, TwoFlowsShareInjectionLink) {
  topo::FatTree ft({.num_endpoints = 64, .radix = 64, .taper = 1.0});
  FlowSolver solver(ft);
  // Both flows leave endpoint 0: its single NIC link is the bottleneck.
  std::vector<Flow> flows{{0, 1, 0.0}, {0, 2, 0.0}};
  solver.solve(flows);
  EXPECT_NEAR(flows[0].rate, kLink / 2, kLink * 1e-6);
  EXPECT_NEAR(flows[1].rate, kLink / 2, kLink * 1e-6);
}

TEST(FlowSolver, IncastSharesEjectionLink) {
  topo::FatTree ft({.num_endpoints = 64, .radix = 64, .taper = 1.0});
  FlowSolver solver(ft);
  std::vector<Flow> flows{{1, 0, 0.0}, {2, 0, 0.0}, {3, 0, 0.0}, {4, 0, 0.0}};
  solver.solve(flows);
  for (const Flow& f : flows) EXPECT_NEAR(f.rate, kLink / 4, kLink * 1e-6);
}

TEST(FlowSolver, SelfFlowIgnored) {
  topo::FatTree ft({.num_endpoints = 64, .radix = 64, .taper = 1.0});
  FlowSolver solver(ft);
  std::vector<Flow> flows{{3, 3, 0.0}};
  solver.solve(flows);
  EXPECT_EQ(flows[0].rate, 0.0);
}

TEST(FlowSolver, MaxMinFairnessProperty) {
  // On any solved instance: the sum of rates over every link must respect
  // capacity (conservation), checked by re-tracing flows over fresh paths
  // is not possible (paths are internal), so we check the aggregate:
  // total egress of each endpoint <= its injection bandwidth.
  auto hx = test::paper_topology(topo::PaperTopology::kHx2Mesh,
                                 topo::ClusterSize::kSmall);
  FlowSolver solver(*hx);
  auto flows = shift_pattern(hx->num_endpoints(), 7);
  solver.solve(flows);
  std::vector<double> egress(hx->num_endpoints(), 0.0);
  for (const Flow& f : flows) egress[f.src] += f.rate;
  for (double e : egress) EXPECT_LE(e, hx->injection_bandwidth() * 1.0001);
}

TEST(FlowSolver, NonblockingFatTreePermutationFullRate) {
  topo::FatTree ft({.num_endpoints = 256, .radix = 64, .taper = 1.0});
  FlowSolver solver(ft);
  Rng rng(3);
  auto flows = random_permutation(256, rng);
  solver.solve(flows);
  double mean = 0;
  for (const Flow& f : flows) mean += f.rate;
  mean /= flows.size();
  // A nonblocking fat tree sustains (nearly) full injection on permutations.
  EXPECT_GT(mean, 0.93 * kLink);
}

TEST(FlowSolver, TaperedFatTreeShiftMatchesTaperRatio) {
  // Large shifts push every flow through the spine: expect ~ up/down rate.
  topo::FatTree ft({.num_endpoints = 1024, .radix = 64, .taper = 0.25});
  FlowSolver solver(ft);
  auto flows = shift_pattern(1024, 512);
  solver.solve(flows);
  double mean = 0;
  for (const Flow& f : flows) mean += f.rate;
  mean /= flows.size();
  double expected = kLink * ft.up_ports() / ft.down_ports();  // 13/51
  EXPECT_NEAR(mean / kLink, expected / kLink, 0.05);
}

TEST(FlowSolver, TorusShiftIsBisectionLimited) {
  topo::Torus t({.width = 16, .height = 16});
  FlowSolver solver(t);
  auto flows = shift_pattern(256, 128);  // worst-case half-way shift
  solver.solve(flows);
  double mean = 0;
  for (const Flow& f : flows) mean += f.rate;
  mean /= flows.size();
  // Far below injection: the torus has tiny global bandwidth.
  EXPECT_LT(mean, 0.25 * t.injection_bandwidth());
}

TEST(FlowSolver, RingOnTorusGetsFullLinkBothDirections) {
  topo::Torus t({.width = 8, .height = 1, .board_a = 2, .board_b = 1});
  FlowSolver solver(t);
  std::vector<int> ring(8);
  for (int i = 0; i < 8; ++i) ring[i] = i;
  auto flows = ring_flows(ring, /*bidirectional=*/true);
  solver.solve(flows);
  for (const Flow& f : flows)
    EXPECT_NEAR(f.rate, kLink, kLink * 0.01)
        << f.src << "->" << f.dst;
}

// ---------------------------------------------- max-min certificate -----
// An independent check that solve() returned the max-min fair allocation.
// It uses nothing of the solver but its public config: with one path per
// flow every flow is a single subflow, whose path is rebuilt here from the
// same counter-seeded substream the solver samples from. Then
//  - feasibility: every link carries at most capacity * (1 + 1e-9), and
//  - bottleneck: every flow crosses a saturated link on which no other
//    flow gets a higher rate.
// A link counts as saturated within the solver's documented tolerance
// (1e-6 of a link's bandwidth) plus float slack.
void certify_max_min(const topo::Topology& topology, std::vector<Flow> flows) {
  FlowSolverConfig config;
  config.paths_per_flow = 1;
  FlowSolver(topology, config).solve(flows);

  const topo::Graph& g = topology.graph();
  std::vector<double> load(g.num_links(), 0.0);
  std::vector<double> top_rate(g.num_links(), 0.0);
  std::vector<std::vector<topo::LinkId>> paths(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].src == flows[f].dst) continue;
    Rng rng = Rng::substream(config.seed, f);
    topology.sample_path_stratified(flows[f].src, flows[f].dst, 0, 1, rng,
                                    paths[f], config.route);
    for (topo::LinkId l : paths[f]) {
      load[l] += flows[f].rate;
      top_rate[l] = std::max(top_rate[l], flows[f].rate);
    }
  }
  std::vector<bool> saturated(g.num_links());
  for (std::size_t l = 0; l < g.num_links(); ++l) {
    const double cap = g.link(static_cast<topo::LinkId>(l)).bandwidth();
    EXPECT_LE(load[l], cap * (1 + 1e-9)) << "link " << l << " oversubscribed";
    saturated[l] = load[l] >= cap - 1e-6 * kLink - 1e-9 * cap;
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].src == flows[f].dst) continue;
    const double rate = flows[f].rate;
    const bool bottlenecked =
        std::any_of(paths[f].begin(), paths[f].end(), [&](topo::LinkId l) {
          return saturated[l] && top_rate[l] <= rate * (1 + 1e-9);
        });
    EXPECT_TRUE(bottlenecked) << "flow " << f << " (" << flows[f].src
                              << " -> " << flows[f].dst << ", rate " << rate
                              << ") has no bottleneck link";
  }
}

TEST(FlowSolver, MaxMinCertificateOnSmallNetworks) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 8, .y = 8});
  topo::FatTree ft({.num_endpoints = 256, .radix = 64, .taper = 0.5});
  topo::Torus torus({.width = 16, .height = 16});
  const topo::Topology* topologies[] = {&hx, &ft, &torus};
  for (const topo::Topology* t : topologies) {
    Rng rng(7);
    certify_max_min(*t, random_permutation(t->num_endpoints(), rng));
    certify_max_min(*t, shift_pattern(t->num_endpoints(), 5));
  }
}

// The permutation instances that need far more filling levels at their
// engine path counts than the 400-round cap the solver used to stop at
// (see FlowSolverDeterminism.ConvergesPastFormerRoundCap).
TEST(FlowSolver, MaxMinCertificateOnLargePermutations) {
  auto dragonfly = test::paper_topology(topo::PaperTopology::kDragonfly,
                                        topo::ClusterSize::kSmall);
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 64, .y = 64});
  const topo::Topology* topologies[] = {dragonfly.get(), &hx};
  for (const topo::Topology* t : topologies)
    for (std::uint64_t seed : {1ull, 7ull}) {
      Rng rng(seed);
      certify_max_min(*t, random_permutation(t->num_endpoints(), rng));
    }
}

TEST(FlowSolver, HxMeshNeighborRingFullRate) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  FlowSolver solver(hx);
  // Ring along row 0: accelerators 0..7 in snake order are physical
  // neighbors (on-board link or one rail crossing).
  std::vector<int> ring;
  for (int gx = 0; gx < hx.accel_x(); ++gx) ring.push_back(hx.rank_at(gx, 0));
  auto flows = ring_flows(ring, true);
  solver.solve(flows);
  for (const Flow& f : flows) EXPECT_GT(f.rate, 0.9 * kLink);
}

// A pair with one minimal path draws one stratum, which stands for all of
// them: flow.strata counts every stratum, flow.draws only the sampled
// ones, and the flow's one run carries weight paths_per_flow.
TEST(FlowSolver, PairsWithOnePathDrawOnce) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  FlowSolverConfig config;
  config.paths_per_flow = 16;
  FlowSolver solver(hx, config);
  std::vector<int> ring;
  for (int gx = 0; gx < hx.accel_x(); ++gx) ring.push_back(hx.rank_at(gx, 0));
  auto flows = ring_flows(ring, true);
  flows.push_back({hx.rank_at(0, 0), hx.rank_at(3, 3)});  // two orders
  std::uint64_t once = 0;
  for (const Flow& f : flows)
    once += hx.one_path(f.src, f.dst, topo::RouteMode::kMinimal);
  ASSERT_GT(once, 0u);
  ASSERT_LT(once, flows.size());
  const counters::Map before = counters::snapshot();
  EXPECT_TRUE(solver.solve(flows));
  const counters::Map grew = counters::delta(before, counters::snapshot());
  EXPECT_EQ(grew.at("flow.strata"), 16 * flows.size());
  EXPECT_EQ(grew.at("flow.draws"), once + 16 * (flows.size() - once));
  EXPECT_LE(grew.at("flow.subflows"), grew.at("flow.draws"));
  // Under Valiant no pair has one path: every stratum is drawn.
  const counters::Map valiant = counters::snapshot();
  solver.solve(flows, topo::RouteMode::kValiant);
  EXPECT_EQ(counters::delta(valiant, counters::snapshot()).at("flow.draws"),
            16 * flows.size());
}

// The initial queue order: sort_level_keys (a radix sort on the level's
// bits, stable in link order) must equal std::sort by (level, link) on
// keys built in link order, with level ties, duplicate keys, a range of
// one level and a one-element range. The rate digests cannot see a
// tie-order change.
TEST(LevelKeys, RadixSortEqualsSortByLevelThenLink) {
  std::vector<std::vector<LevelKey>> inputs = {
      {},
      {{3.5e9, 7}},
      {{2.0, 0}, {1.0, 1}},
      {{1e9, 4}, {1e9, 5}, {1e9, 5}, {1e9, 9}},  // one level, a duplicate
  };
  Rng rng(7);
  for (int distinct : {1, 3, 40, 1 << 20}) {
    // Levels as the solver makes them: capacity left over crossers, few
    // distinct values at a time, in ascending (repeated) link order.
    std::vector<LevelKey> keys;
    std::uint32_t link = 0;
    for (int i = 0; i < 5000; ++i) {
      link += static_cast<std::uint32_t>(rng.uniform(3));  // 0: duplicate
      const double v = static_cast<double>(rng.uniform(distinct));
      const double left = kLink - v * (kLink / (distinct + 1));
      keys.push_back({left / static_cast<double>(1 + rng.uniform(4)), link});
    }
    inputs.push_back(keys);
  }
  for (const std::vector<LevelKey>& input : inputs) {
    SCOPED_TRACE(input.size());
    std::vector<LevelKey> expected = input, got = input;
    std::sort(expected.begin(), expected.end());
    sort_level_keys(got);
    ASSERT_EQ(got.size(), expected.size());
    const auto same = [](const LevelKey& a, const LevelKey& b) {
      return a.level == b.level && a.link == b.link;
    };
    const auto [at, _] =
        std::mismatch(got.begin(), got.end(), expected.begin(), same);
    EXPECT_EQ(at - got.begin(), got.end() - got.begin()) << "first mismatch";
  }
}

// --------------------------------------------------------- patterns ------
TEST(Patterns, ShiftPatternNormalizesNegativeAndLargeShifts) {
  EXPECT_TRUE(shift_pattern(0, 3).empty());  // no endpoints, no flows
  for (int shift : {-1, -5, -8, 7, 8, 23}) {
    auto flows = shift_pattern(8, shift);
    ASSERT_EQ(flows.size(), 8u) << shift;
    for (const Flow& f : flows) {
      EXPECT_GE(f.dst, 0) << shift;
      EXPECT_LT(f.dst, 8) << shift;
    }
    // shift:-1 is the reverse neighbor shift.
    if (shift == -1) EXPECT_EQ(flows[0].dst, 7);
  }
}

TEST(Patterns, MakeFlowsRejectsOutOfRangeRingRanks) {
  TrafficSpec spec = parse_traffic("ring:ranks=0,2,1");
  EXPECT_EQ(make_flows(spec, 3).size(), 6u);  // valid: bidirectional ring
  EXPECT_THROW(make_flows(parse_traffic("ring:ranks=0,999"), 16),
               std::invalid_argument);
  EXPECT_THROW(make_flows(parse_traffic("ring:ranks=0,-1"), 16),
               std::invalid_argument);
}

TEST(Patterns, ShiftPatternIsPermutation) {
  auto flows = shift_pattern(10, 3);
  std::vector<int> seen(10, 0);
  for (const Flow& f : flows) seen[f.dst]++;
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Patterns, RandomPermutationHasNoFixedPoints) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    auto flows = random_permutation(64, rng);
    std::vector<int> seen(64, 0);
    for (const Flow& f : flows) {
      EXPECT_NE(f.src, f.dst);
      seen[f.dst]++;
    }
    for (int c : seen) EXPECT_EQ(c, 1);
  }
}

TEST(Patterns, RandomPermutationIsDeterministicUnderFixedSeed) {
  for (std::uint64_t seed : {1ull, 42ull, 0x5eedull}) {
    Rng a(seed), b(seed);
    auto fa = random_permutation(128, a);
    auto fb = random_permutation(128, b);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].src, fb[i].src);
      EXPECT_EQ(fa[i].dst, fb[i].dst);
    }
  }
  // Different seeds almost surely give different permutations.
  Rng a(1), b(2);
  auto fa = random_permutation(128, a);
  auto fb = random_permutation(128, b);
  int differing = 0;
  for (std::size_t i = 0; i < fa.size(); ++i)
    if (fa[i].dst != fb[i].dst) ++differing;
  EXPECT_GT(differing, 0);
}

TEST(Patterns, RingFlowsBothDirections) {
  std::vector<int> ring{0, 1, 2, 3};
  auto uni = ring_flows(ring, false);
  auto bi = ring_flows(ring, true);
  EXPECT_EQ(uni.size(), 4u);
  EXPECT_EQ(bi.size(), 8u);
}

TEST(Patterns, ParseTrafficRoundTripsNames) {
  EXPECT_EQ(parse_traffic("shift:7").kind, PatternKind::kShift);
  EXPECT_EQ(parse_traffic("shift:7").shift, 7);
  EXPECT_EQ(parse_traffic("perm").kind, PatternKind::kPermutation);
  EXPECT_EQ(parse_traffic("perm:42").seed, 42u);
  EXPECT_TRUE(parse_traffic("ring").bidirectional);
  EXPECT_FALSE(parse_traffic("ring:uni").bidirectional);
  EXPECT_EQ(parse_traffic("alltoall:8").samples, 8);
  EXPECT_FALSE(parse_traffic("allreduce").torus_algorithm);
  EXPECT_TRUE(parse_traffic("allreduce:torus").torus_algorithm);
  // pattern_name(parse_traffic(s)) == s for every canonical name.
  for (const char* name : {"shift:3", "perm", "ring", "ring:uni", "alltoall",
                           "allreduce", "allreduce:torus"})
    EXPECT_EQ(pattern_name(parse_traffic(name)), name);
}

TEST(Patterns, ParseTrafficRejectsBadInput) {
  EXPECT_THROW(parse_traffic("warp:1"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("shift:abc"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("shift:3x"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("shift:99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(parse_traffic("ring:diagonal"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("allreduce:tree"), std::invalid_argument);
}

TEST(Patterns, ParseTrafficOptions) {
  EXPECT_EQ(parse_traffic("alltoall:msg=1MiB").message_bytes, MiB);
  EXPECT_EQ(parse_traffic("alltoall:msg=4GiB").message_bytes, 4 * GiB);
  EXPECT_EQ(parse_traffic("shift:3:msg=256KiB").message_bytes, 256 * KiB);
  EXPECT_EQ(parse_traffic("shift:3:msg=256KiB").shift, 3);
  EXPECT_EQ(parse_traffic("perm:msg=16MB").message_bytes, 16'000'000u);
  EXPECT_EQ(parse_traffic("perm:msg=12345").message_bytes, 12345u);
  EXPECT_EQ(parse_traffic("perm:seed=9").seed, 9u);
  EXPECT_EQ(parse_traffic("alltoall:samples=4:seed=2").samples, 4);
  EXPECT_EQ(parse_traffic("alltoall:samples=4:seed=2").seed, 2u);
  EXPECT_EQ(parse_traffic("ring:uni:ranks=0,3,1").ranks,
            (std::vector<int>{0, 3, 1}));

  EXPECT_THROW(parse_traffic("alltoall:msg=1Mib"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("alltoall:msg="), std::invalid_argument);
  EXPECT_THROW(parse_traffic("alltoall:msg=-5"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("alltoall:msg=99999999999GiB"),
               std::invalid_argument);
  EXPECT_THROW(parse_traffic("perm:seed=-1"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("alltoall:bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("shift:samples=4"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("perm:ranks=0,1"), std::invalid_argument);
  EXPECT_THROW(parse_traffic("shift:1:2"), std::invalid_argument);
}

TEST(Patterns, PatternSpecRoundTrips) {
  // parse_traffic(pattern_spec(s)) must reproduce s field for field, for
  // specs covering every kind and every serialized option.
  std::vector<TrafficSpec> specs;
  TrafficSpec s;
  s.kind = PatternKind::kShift;
  s.shift = 5;
  s.message_bytes = 256 * KiB;
  specs.push_back(s);
  s = {};
  s.kind = PatternKind::kPermutation;
  s.seed = 77;
  specs.push_back(s);
  s = {};
  s.kind = PatternKind::kRing;
  s.bidirectional = false;
  s.ranks = {0, 2, 1, 3};
  specs.push_back(s);
  s = {};
  s.kind = PatternKind::kAlltoall;
  s.samples = 4;
  s.message_bytes = 4 * GiB;
  specs.push_back(s);
  s = {};
  s.kind = PatternKind::kAllreduce;
  s.torus_algorithm = true;
  s.message_bytes = 12345;  // no exact binary suffix
  specs.push_back(s);
  specs.push_back(TrafficSpec{});  // all defaults

  for (const TrafficSpec& spec : specs) {
    const std::string text = pattern_spec(spec);
    const TrafficSpec back = parse_traffic(text);
    EXPECT_EQ(back.kind, spec.kind) << text;
    EXPECT_EQ(back.shift, spec.shift) << text;
    EXPECT_EQ(back.seed, spec.seed) << text;
    EXPECT_EQ(back.bidirectional, spec.bidirectional) << text;
    EXPECT_EQ(back.ranks, spec.ranks) << text;
    EXPECT_EQ(back.samples, spec.samples) << text;
    EXPECT_EQ(back.torus_algorithm, spec.torus_algorithm) << text;
    EXPECT_EQ(back.message_bytes, spec.message_bytes) << text;
    // And the serialization is canonical: one more trip is a fixed point.
    EXPECT_EQ(pattern_spec(back), text);
  }
}

TEST(Patterns, PatternSpecIsCanonicalAcrossInputSpellings) {
  // Different accepted spellings of the same scenario canonicalize to one
  // string — the property the result cache's key depends on.
  EXPECT_EQ(pattern_spec(parse_traffic("perm:42")),
            pattern_spec(parse_traffic("perm:seed=42")));
  EXPECT_EQ(pattern_spec(parse_traffic("alltoall:msg=1048576")),
            pattern_spec(parse_traffic("alltoall")));
  EXPECT_EQ(pattern_spec(parse_traffic("alltoall:8")),
            pattern_spec(parse_traffic("alltoall:samples=8")));
}

}  // namespace
}  // namespace hxmesh::flow
