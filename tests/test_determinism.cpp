// Determinism guarantees of the optimized hot paths.
//
// The event core, the routing tables, and the event-driven max-min solver
// are performance rewrites whose output is pinned:
//  - the calendar EventQueue must pop in exact (time, FIFO-seq) order,
//  - FlowSolver::solve must reproduce the classic full-rescan progressive
//    filling, run to convergence, to 1e-9 relative (the event-driven
//    filling visits the same levels but sums rates in a different order),
//    and its rates must be bit-identical at every solver pool width,
//  - both engines together must reproduce the committed regression-grid
//    baselines byte for byte when run through ExperimentHarness, and the
//    packet engine its committed packet-grid row on wide switches.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "collectives/models.hpp"
#include "core/counters.hpp"
#include "core/fsio.hpp"
#include "core/hash.hpp"
#include "core/json_parse.hpp"
#include "core/rng.hpp"
#include "engine/factory.hpp"
#include "engine/harness.hpp"
#include "flow/flow_sim.hpp"
#include "flow/patterns.hpp"
#include "paper_topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/packet_sim.hpp"
#include "topo/fattree.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/torus.hpp"
#include "topo/zoo.hpp"

namespace hxmesh {
namespace {

// ------------------------------------------------------------ EventQueue --

// Pops must come out in ascending (time, seq) order no matter how the
// calendar buckets, overflow list, and resizes shuffle storage.
TEST(EventQueueDeterminism, PopsInTimeThenFifoOrder) {
  Rng rng(123);
  sim::EventQueue q;
  struct Ref {
    picoseconds time;
    std::uint32_t id;
  };
  std::vector<Ref> scheduled;
  std::uint32_t next_id = 0;
  std::vector<Ref> popped;

  // Three phases stress different calendar shapes: a dense burst with many
  // ties, interleaved push/pop in steady state (the simulator's pattern),
  // and a sparse far-future tail that exercises year jumps.
  auto push = [&](picoseconds t) {
    q.schedule(t, sim::EventKind::kUserCallback, next_id);
    scheduled.push_back({t, next_id});
    ++next_id;
  };
  for (int i = 0; i < 2000; ++i) push(rng.uniform(64));  // tie-heavy burst
  for (int i = 0; i < 6000; ++i) {
    sim::Event e = q.pop();
    popped.push_back({e.time, e.a});
    if (next_id < 7000) push(q.now() + rng.uniform(5000));
    if (next_id < 7000 && rng.uniform(4) == 0)
      push(q.now() + 1000000 + rng.uniform(900000000));  // far-future years
  }
  while (!q.empty()) {
    sim::Event e = q.pop();
    popped.push_back({e.time, e.a});
  }

  ASSERT_EQ(popped.size(), scheduled.size());
  // Because every push is at or after the pop time that triggered it, the
  // global pop sequence must be non-decreasing in time with schedule-order
  // (FIFO) tie-breaks — exactly the heap's (time, seq) total order.
  for (std::size_t i = 1; i < popped.size(); ++i) {
    ASSERT_LE(popped[i - 1].time, popped[i].time) << "at pop " << i;
    if (popped[i - 1].time == popped[i].time)
      ASSERT_LT(popped[i - 1].id, popped[i].id) << "FIFO tie at pop " << i;
  }
}

TEST(EventQueueDeterminism, EmptyRefillCycles) {
  sim::EventQueue q;
  for (int cycle = 0; cycle < 5; ++cycle) {
    picoseconds base = q.now() + 1 + cycle * 999999937ull;  // new year each time
    q.schedule(base + 5, sim::EventKind::kUserCallback, 2);
    q.schedule(base, sim::EventKind::kUserCallback, 1);
    q.schedule(base + 5, sim::EventKind::kUserCallback, 3);
    EXPECT_EQ(q.pop().a, 1u);
    EXPECT_EQ(q.pop().a, 2u);  // FIFO among the time-tied pair
    EXPECT_EQ(q.pop().a, 3u);
    EXPECT_TRUE(q.empty());
  }
  EXPECT_EQ(q.events_processed(), 15u);
}

// Synchronized ring steps and zero-delay receives schedule thousands of
// events at one picosecond, all in one calendar bucket. Mixed with a
// spread of nearby events (which keeps buckets wider than one
// picosecond), pushes just ahead of the current time (which land in the
// bucket being drained, before its later entries), grow/shrink rebuilds
// and far-future pushes, the pop sequence must still be exactly a binary
// heap's.
TEST(EventQueueDeterminism, TieStormMatchesPriorityQueue) {
  Rng rng(7);
  sim::EventQueue q;
  using Ref = std::pair<picoseconds, std::uint32_t>;  // (time, FIFO id)
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
  std::uint32_t next_id = 0;
  auto push = [&](picoseconds t) {
    q.schedule(t, sim::EventKind::kUserCallback, next_id);
    ref.push({t, next_id});
    ++next_id;
  };
  std::size_t pops = 0;
  // Pops both queues; false, with the mismatch reported, if they differ.
  auto pop_matches = [&] {
    const sim::Event e = q.pop();
    const Ref want = ref.top();
    ref.pop();
    ++pops;
    EXPECT_EQ(e.time, want.first) << "pop " << pops;
    EXPECT_EQ(e.a, want.second) << "pop " << pops;
    return e.time == want.first && e.a == want.second;
  };
  for (int i = 0; i < 4000; ++i) push(rng.uniform(4000));
  for (int step = 0; step < 40; ++step) {
    const picoseconds at = q.now() + rng.uniform(3) * 1000;
    for (int i = 0; i < 2000; ++i) push(at);  // one synchronized step
    for (int i = 0; i < 1500; ++i) {
      ASSERT_TRUE(pop_matches());
      const std::uint64_t r = rng.uniform(8);
      if (r < 2) {
        push(q.now());  // zero-delay receive
      } else if (r < 4) {
        push(q.now() + rng.uniform(8));
      } else if (r < 7) {
        push(q.now() + rng.uniform(4000));
      } else {
        push(q.now() + 1'000'000'000 + rng.uniform(1'000'000'000));
      }
    }
  }
  while (!ref.empty()) ASSERT_TRUE(pop_matches());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(pops, next_id);
}

// ------------------------------------------------------------ FlowSolver --

// The unoptimized progressive filling: every round rescans all links for
// the fair-share minimum and all subflows for saturation, until every
// subflow froze, and sampling is one serial loop over the flows (each
// drawing from its own counter-seeded substream, exactly like the
// production sampler's definition). Kept as the executable specification
// of solve()'s semantics — the parallel chunked sampler and the
// event-driven filling must both be invisible here. Returns the number of
// filling rounds the instance needed.
int solve_reference(const topo::Topology& topology,
                    const flow::FlowSolverConfig& config,
                    std::vector<flow::Flow>& flows) {
  const topo::Graph& g = topology.graph();

  struct Subflow {
    int flow = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    double rate = 0.0;
    bool active = true;
  };
  std::vector<Subflow> subflows;
  std::vector<topo::LinkId> path_links;
  std::vector<topo::LinkId> path;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    flows[f].rate = 0.0;
    if (flows[f].src == flows[f].dst) continue;
    Rng rng = Rng::substream(config.seed, f);
    for (int k = 0; k < config.paths_per_flow; ++k) {
      topology.sample_path_stratified(flows[f].src, flows[f].dst, k,
                                      config.paths_per_flow, rng, path,
                                      config.route);
      Subflow s;
      s.flow = static_cast<int>(f);
      s.first = static_cast<std::uint32_t>(path_links.size());
      s.count = static_cast<std::uint32_t>(path.size());
      path_links.insert(path_links.end(), path.begin(), path.end());
      subflows.push_back(s);
    }
  }

  std::vector<double> residual(g.num_links());
  for (std::size_t l = 0; l < g.num_links(); ++l)
    residual[l] = g.link(static_cast<topo::LinkId>(l)).bandwidth();
  std::vector<std::uint32_t> active_count(g.num_links(), 0);
  for (const Subflow& s : subflows)
    for (std::uint32_t i = 0; i < s.count; ++i)
      ++active_count[path_links[s.first + i]];

  std::size_t remaining = subflows.size();
  int rounds = 0;
  for (; remaining > 0; ++rounds) {
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < g.num_links(); ++l)
      if (active_count[l] > 0)
        delta = std::min(delta, residual[l] / active_count[l]);
    if (!std::isfinite(delta)) break;

    for (std::size_t l = 0; l < g.num_links(); ++l)
      if (active_count[l] > 0) residual[l] -= delta * active_count[l];

    const double eps = 1e-6 * kLinkBandwidthBps;
    for (Subflow& s : subflows) {
      if (!s.active) continue;
      s.rate += delta;
      bool frozen = false;
      for (std::uint32_t i = 0; i < s.count && !frozen; ++i)
        frozen = residual[path_links[s.first + i]] <= eps;
      if (frozen) {
        s.active = false;
        --remaining;
        for (std::uint32_t i = 0; i < s.count; ++i)
          --active_count[path_links[s.first + i]];
      }
    }
  }

  for (const Subflow& s : subflows) flows[s.flow].rate += s.rate;
  return rounds;
}

// Returns the reference's round count.
int expect_solver_matches_reference(const topo::Topology& topology,
                                    std::vector<flow::Flow> flows,
                                    flow::FlowSolverConfig config = {}) {
  std::vector<flow::Flow> expected = flows;
  const int rounds = solve_reference(topology, config, expected);
  flow::FlowSolver solver(topology, config);
  EXPECT_TRUE(solver.solve(flows));
  EXPECT_EQ(flows.size(), expected.size());
  for (std::size_t i = 0; i < flows.size() && i < expected.size(); ++i)
    EXPECT_NEAR(flows[i].rate, expected[i].rate, 1e-9 * expected[i].rate)
        << "flow " << i << " (" << flows[i].src << " -> " << flows[i].dst
        << ") diverged from the reference filling";
  return rounds;
}

TEST(FlowSolverDeterminism, AlltoallMatchesReferenceOnHxMesh) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  const int n = hx.num_endpoints();
  std::vector<flow::Flow> flows;
  for (int shift : {1, 7, 31, 32, 63})
    for (const flow::Flow& f : flow::shift_pattern(n, shift))
      flows.push_back(f);
  expect_solver_matches_reference(hx, std::move(flows));
}

TEST(FlowSolverDeterminism, RandomPermutationsMatchReference) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  topo::FatTree ft({.num_endpoints = 64, .radix = 64, .taper = 0.5});
  topo::Torus torus({.width = 8, .height = 8});
  const topo::Topology* topologies[] = {&hx, &ft, &torus};
  for (const topo::Topology* t : topologies) {
    for (std::uint64_t seed : {7ull, 1234ull, 0xdeadbeefull}) {
      Rng rng(seed);
      auto flows = flow::random_permutation(t->num_endpoints(), rng);
      flow::FlowSolverConfig config;
      config.seed = seed;
      expect_solver_matches_reference(*t, std::move(flows), config);
    }
  }
}

// Permutations that need more filling rounds than the 400-round safety cap
// the solver used to stop at: a capped solve froze every subflow still
// rising at round 400 and understated their rates.
TEST(FlowSolverDeterminism, ConvergesPastFormerRoundCap) {
  // (topology, seed, route): dragonfly:small under UGAL needs ~1,140
  // rounds (minimal paths alone converge in ~360), hx2mesh:64x64 ~2,800
  // (the reference's cost keeps the latter to one seed).
  auto dragonfly = test::paper_topology(topo::PaperTopology::kDragonfly,
                                        topo::ClusterSize::kSmall);
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 64, .y = 64});
  const std::tuple<const topo::Topology*, std::uint64_t, topo::RouteMode>
      instances[] = {{dragonfly.get(), 1, topo::RouteMode::kUgal},
                     {dragonfly.get(), 7, topo::RouteMode::kUgal},
                     {&hx, 1, topo::RouteMode::kMinimal}};
  for (const auto& [t, seed, route] : instances) {
    Rng rng(seed);
    auto flows = flow::random_permutation(t->num_endpoints(), rng);
    flow::FlowSolverConfig config;
    config.seed = seed;
    config.route = route;
    const int rounds =
        expect_solver_matches_reference(*t, std::move(flows), config);
    EXPECT_GT(rounds, 400) << "instance no longer exercises the old cap";
  }
}

// Intra-cell parallelism: everything before the event loop — sampling,
// the path layout, the counting-sort index, the first level's batch and
// the initial key sort — runs over a pool in blocks, one per worker, and
// the rates must be bit-identical for every width. Odd widths split
// chunks, subflows and links unevenly. At width 5 the rates are also
// checked against the reference filling. Leaves the width-1 rates in
// `flows`.
void expect_width_invariant(const topo::Topology& topology,
                            std::vector<flow::Flow>& flows,
                            flow::FlowSolverConfig config = {}) {
  ASSERT_GE(flows.size(), 2048u) << "grow the flow set: it no longer "
                                    "reaches the parallel solver path";
  const std::vector<flow::Flow> input = flows;
  config.threads = 1;
  flow::FlowSolver(topology, config).solve(flows);
  for (int width : {2, 3, 5, 8}) {
    std::vector<flow::Flow> wide = input;
    config.threads = width;
    flow::FlowSolver(topology, config).solve(wide);
    for (std::size_t i = 0; i < flows.size(); ++i)
      ASSERT_EQ(flows[i].rate, wide[i].rate)
          << "flow " << i << " at width " << width;
    if (width == 5) expect_solver_matches_reference(topology, input, config);
  }
}

TEST(FlowSolverDeterminism, RatesIndependentOfSampleWorkerCount) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 8, .y = 8});
  const int n = hx.num_endpoints();
  std::vector<flow::Flow> flows;
  for (int shift = 1; shift <= 16; ++shift)
    for (const flow::Flow& f : flow::shift_pattern(n, shift))
      flows.push_back(f);
  expect_width_invariant(hx, flows);
}

// Alltoall shift 1 sends mostly to a board neighbour, so many flows draw
// one path in every stratum and the solver stores them as weighted runs:
// the runs must stay width-invariant and match the reference, which keeps
// one subflow per stratum.
TEST(FlowSolverDeterminism, CollapsedShiftIndependentOfWorkerCount) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 32, .y = 32});
  auto flows = flow::shift_pattern(hx.num_endpoints(), 1);
  const counters::Map before = counters::snapshot();
  expect_width_invariant(hx, flows);
  const counters::Map grown = counters::delta(before, counters::snapshot());
  EXPECT_LT(grown.at("flow.subflows"), grown.at("flow.strata"))
      << "shift 1 no longer collapses any strata";
}

// The measure_ring flow set: every subflow freezes in the first batch, so
// the parallel batch alone sets every rate — all of them equal.
TEST(FlowSolverDeterminism, RingFirstBatchIndependentOfWorkerCount) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 16, .y = 16});
  std::vector<flow::Flow> flows;
  for (const auto& ring : collectives::build_ring_mapping(hx).rings)
    for (const flow::Flow& f : flow::ring_flows(ring, /*bidirectional=*/true))
      flows.push_back(f);
  expect_width_invariant(hx, flows);
  for (const flow::Flow& f : flows)
    ASSERT_EQ(f.rate, flows.front().rate)
        << "the ring no longer freezes in one batch";
}

// True when some subflow frozen by the first batch crosses a link more
// than once: the case where the batch must charge a link once per
// occurrence. Recomputes the first level from the reference's sampling.
bool first_batch_repeats_a_link(const topo::Topology& topology,
                                const std::vector<flow::Flow>& flows,
                                const flow::FlowSolverConfig& config) {
  const topo::Graph& g = topology.graph();
  std::vector<std::vector<topo::LinkId>> paths;
  std::vector<std::uint32_t> count(g.num_links(), 0);
  std::vector<topo::LinkId> path;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].src == flows[f].dst) continue;
    Rng rng = Rng::substream(config.seed, f);
    for (int k = 0; k < config.paths_per_flow; ++k) {
      topology.sample_path_stratified(flows[f].src, flows[f].dst, k,
                                      config.paths_per_flow, rng, path,
                                      config.route);
      for (topo::LinkId l : path) ++count[l];
      paths.push_back(path);
    }
  }
  auto bandwidth = [&](topo::LinkId l) { return g.link(l).bandwidth(); };
  double level = std::numeric_limits<double>::infinity();
  for (topo::LinkId l = 0; l < g.num_links(); ++l)
    if (count[l] > 0) level = std::min(level, bandwidth(l) / count[l]);
  const double eps = 1e-6 * kLinkBandwidthBps;
  for (std::vector<topo::LinkId>& p : paths) {
    const bool frozen = std::any_of(p.begin(), p.end(), [&](topo::LinkId l) {
      return bandwidth(l) - level * count[l] <= eps;
    });
    std::sort(p.begin(), p.end());
    if (frozen && std::adjacent_find(p.begin(), p.end()) != p.end())
      return true;
  }
  return false;
}

// A Valiant path on the zoo's fabrics never crosses a directed link twice:
// both legs are shortest paths over symmetric distances, so leg 1 crossing
// u->v toward the intermediate `mid` means d(u, mid) > d(v, mid), while
// leg 2 crossing it from `mid` would need the opposite. This mesh repeats
// the first hop of every odd stratum's Valiant path, the case where a
// frozen subflow charges a link once per occurrence — the event loop's
// rule, which the parallel first batch and the reference must share.
class RepeatingValiantMesh : public topo::HammingMesh {
 public:
  RepeatingValiantMesh() : HammingMesh({.a = 2, .b = 2, .x = 16, .y = 16}) {}
  void sample_path_stratified(int src, int dst, int k, int num_strata,
                              Rng& rng, std::vector<topo::LinkId>& out,
                              topo::RouteMode mode) const override {
    HammingMesh::sample_path_stratified(src, dst, k, num_strata, rng, out,
                                        mode);
    if (k % 2 == 1 && !out.empty()) out.push_back(out.front());
  }
};

TEST(FlowSolverDeterminism, ValiantFirstBatchIndependentOfWorkerCount) {
  RepeatingValiantMesh hx;
  std::vector<flow::Flow> flows;
  for (std::uint64_t seed : {3ull, 5ull, 11ull}) {
    Rng rng(seed);
    for (const flow::Flow& f : flow::random_permutation(hx.num_endpoints(), rng))
      flows.push_back(f);
  }
  flow::FlowSolverConfig config;
  config.route = topo::RouteMode::kValiant;
  ASSERT_TRUE(first_batch_repeats_a_link(hx, flows, config))
      << "no first-batch subflow repeats a link any more; pick another set";
  expect_width_invariant(hx, flows, config);
}

// A faulted fabric: failed links stay in the index with no crossers.
TEST(FlowSolverDeterminism, FaultedRatesIndependentOfWorkerCount) {
  const auto hx = engine::make_topology("hx2mesh:4x4:faults=links:1:seed=5");
  ASSERT_TRUE(hx->graph().has_failed_links());
  const int n = hx->num_endpoints();
  std::vector<flow::Flow> flows;
  for (int shift = 1; shift <= 40; ++shift)
    for (const flow::Flow& f : flow::shift_pattern(n, shift))
      flows.push_back(f);
  expect_width_invariant(*hx, flows);
}

// FNV-1a over the bit patterns of the flows' rates, in flow order.
std::uint64_t rate_digest(const std::vector<flow::Flow>& flows) {
  Fnv1a h;
  for (const flow::Flow& f : flows) h.update(std::bit_cast<std::uint64_t>(f.rate));
  return h.digest();
}

// The measure_ring flow set: every ring of the mapping, both directions.
std::vector<flow::Flow> ring_flow_set(const topo::Topology& topology) {
  std::vector<flow::Flow> flows;
  for (const auto& ring : collectives::build_ring_mapping(topology).rings)
    for (const flow::Flow& f : flow::ring_flows(ring, /*bidirectional=*/true))
      flows.push_back(f);
  return flows;
}

// Solver rates pinned bit for bit. The reference filling agrees only to
// 1e-9 relative, so these digests are what proves that a change to the
// solver's internals (how subflows are stored, batched or settled) kept
// every floating-point operation. Rings collapse most of their strata
// into repeated paths; alltoall shift 1 collapses some and shift 5
// others; the permutation, the repeated-link Valiant mesh and the faulted
// fabric collapse few.
TEST(FlowSolverDeterminism, RateDigestsArePinned) {
  auto digest = [](const topo::Topology& topology,
                   std::vector<flow::Flow> flows,
                   flow::FlowSolverConfig config = {}) {
    EXPECT_TRUE(flow::FlowSolver(topology, config).solve(flows))
        << "the filling stopped before every subflow froze";
    return rate_digest(flows);
  };
  for (const auto& [spec, expected] :
       std::vector<std::pair<std::string, std::uint64_t>>{
           {"hx2mesh:16x16", 0x2124d6b852cd2325ull},
           {"torus:8x8", 0x432ad359d36cd325ull},
           {"fattree:256", 0x68f29015b265a325ull}}) {
    const auto t = engine::make_topology(spec);
    EXPECT_EQ(digest(*t, ring_flow_set(*t)), expected) << spec << " ring";
  }

  const auto hx4 = engine::make_topology("hx2mesh:4x4");
  const int n4 = hx4->num_endpoints();
  EXPECT_EQ(digest(*hx4, flow::shift_pattern(n4, 1)), 0x8b8d02df5562cf25ull)
      << "hx2mesh:4x4 shift 1";
  EXPECT_EQ(digest(*hx4, flow::shift_pattern(n4, 5)), 0x8b8d02df5562cf25ull)
      << "hx2mesh:4x4 shift 5";

  const auto hx16 = engine::make_topology("hx2mesh:16x16");
  Rng rng(1);
  EXPECT_EQ(digest(*hx16, flow::random_permutation(hx16->num_endpoints(), rng)),
            0x2af4af0b0417d0b6ull)
      << "hx2mesh:16x16 perm";

  RepeatingValiantMesh valiant_mesh;
  std::vector<flow::Flow> valiant_flows;
  for (std::uint64_t seed : {3ull, 5ull, 11ull}) {
    Rng perm_rng(seed);
    for (const flow::Flow& f :
         flow::random_permutation(valiant_mesh.num_endpoints(), perm_rng))
      valiant_flows.push_back(f);
  }
  flow::FlowSolverConfig valiant;
  valiant.route = topo::RouteMode::kValiant;
  EXPECT_EQ(digest(valiant_mesh, valiant_flows, valiant), 0xc8739bc3f56e55a6ull)
      << "repeated-link Valiant mesh";

  const auto faulted = engine::make_topology("hx2mesh:4x4:faults=links:1:seed=5");
  std::vector<flow::Flow> shifts;
  for (int shift = 1; shift <= 40; ++shift)
    for (const flow::Flow& f : flow::shift_pattern(n4, shift))
      shifts.push_back(f);
  EXPECT_EQ(digest(*faulted, shifts), 0xe29157dde551cc58ull) << "faulted hx2mesh:4x4";
}

TEST(FlowSolverDeterminism, SelfFlowsAndRepeatSolvesMatchReference) {
  topo::Torus torus({.width = 4, .height = 4});
  std::vector<flow::Flow> flows = {{0, 5}, {3, 3}, {5, 0}, {1, 1}, {2, 14}};
  expect_solver_matches_reference(torus, flows);
  // solve() must be reusable: a second run resets rates and reproduces
  // the same answer from the same config seed.
  flow::FlowSolver solver(torus);
  std::vector<flow::Flow> once = flows, twice = flows;
  solver.solve(once);
  solver.solve(twice);
  solver.solve(twice);
  for (std::size_t i = 0; i < once.size(); ++i)
    EXPECT_EQ(once[i].rate, twice[i].rate);
}

// ------------------------------------------- regression grid, both engines --

#ifdef HXMESH_SOURCE_DIR
// The full 27-row pinned grid (flow and packet engines, up to
// hx2mesh:256x256, plus faulted fabrics under Valiant/UGAL routing)
// rendered through the harness must stay byte-identical
// to the committed baseline: the optimizations change speed, not results.
TEST(RegressionGridDeterminism, HarnessReproducesCommittedBaselineByteExact) {
  const std::string base = std::string(HXMESH_SOURCE_DIR) + "/bench/baselines";
  const std::optional<std::string> grid_text =
      read_file(base + "/regression_grid.json");
  ASSERT_TRUE(grid_text) << "cannot open " << base << "/regression_grid.json";
  const JsonValue doc = parse_json(*grid_text);
  const JsonValue* grids = doc.get("grids");
  ASSERT_NE(grids, nullptr) << "regression_grid.json lost its grids array";
  std::vector<engine::GridSpec> specs;
  for (const JsonValue& grid : grids->array) {
    engine::GridSpec spec;
    spec.config.engines.clear();
    spec.config.seeds.clear();
    for (const JsonValue& t : grid.get("topologies")->array)
      spec.config.topologies.push_back(t.str);
    for (const JsonValue& e : grid.get("engines")->array)
      spec.config.engines.push_back(e.str);
    for (const JsonValue& p : grid.get("patterns")->array)
      spec.config.patterns.push_back(flow::parse_traffic(p.str));
    for (const JsonValue& s : grid.get("seeds")->array)
      spec.config.seeds.push_back(s.as_u64());
    specs.push_back(std::move(spec));
  }

  engine::ExperimentHarness harness;
  std::vector<engine::SweepRow> rows = harness.run_grids(specs);
  EXPECT_EQ(rows.size(), 27u) << "regression grid changed size; update the "
                                 "baselines and this test together";
  std::ostringstream rendered;
  engine::write_json(rendered, rows);
  const std::optional<std::string> baseline =
      read_file(base + "/bench_regression.json");
  ASSERT_TRUE(baseline) << "cannot open " << base << "/bench_regression.json";
  EXPECT_EQ(rendered.str(), *baseline)
      << "harness rows diverged from bench/baselines/bench_regression.json";
}

// The regression grid's packet cells all run on switches with at most 64
// (in-link, VC) arbitration slots, one mask word. The packet grid's
// Dragonfly Valiant cell (six VCs per link) arbitrates switches with more,
// so its committed row pins the multi-word occupancy masks.
TEST(PacketGridDeterminism, WideSwitchValiantRowMatchesCommittedRow) {
  const auto topology = engine::make_topology("dragonfly:small");
  const topo::Graph& g = topology->graph();
  std::vector<int> in_degree(g.num_nodes(), 0);
  for (std::size_t l = 0; l < g.num_links(); ++l)
    ++in_degree[g.link(static_cast<topo::LinkId>(l)).dst];
  const int kValiantVcs = 2 * sim::PacketSimConfig{}.num_vcs;
  ASSERT_GT(*std::max_element(in_degree.begin(), in_degree.end()) *
                kValiantVcs,
            64);

  engine::GridSpec spec;
  spec.config.topologies = {"dragonfly:small"};
  spec.config.engines = {"packet"};
  spec.config.patterns = {
      flow::parse_traffic("perm:msg=256KiB:route=valiant")};
  spec.config.seeds = {1};
  engine::ExperimentHarness harness;
  std::ostringstream rendered;
  engine::write_json(rendered, harness.run_grids({spec}));
  const std::string row =
      rendered.str().substr(2, rendered.str().size() - 5);  // "[\n" .. "\n]\n"

  const std::string path =
      std::string(HXMESH_SOURCE_DIR) + "/bench/baselines/bench_packet.json";
  const std::optional<std::string> baseline = read_file(path);
  ASSERT_TRUE(baseline) << "cannot open " << path;
  std::istringstream lines(*baseline);
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    if (line.find("\"dragonfly:small\"") == std::string::npos ||
        line.find("route=valiant") == std::string::npos)
      continue;
    if (line.back() == ',') line.pop_back();
    EXPECT_EQ(row, line);
    found = true;
  }
  EXPECT_TRUE(found) << "bench_packet.json lost its Dragonfly Valiant row";
}
#endif  // HXMESH_SOURCE_DIR

// --------------------------------- non-minimal routing, faulted fabrics --

std::string render_rows(const std::vector<engine::SweepRow>& rows) {
  std::ostringstream out;
  engine::write_json(out, rows);
  return out.str();
}

// Valiant and UGAL packet rows — including on a degraded fabric — must be
// byte-identical for any harness thread count, and a sharded run_cells
// split merged back in plan order must reproduce the single-process rows.
// The via draws come from a per-cell substream RNG inside a single-threaded
// PacketSim, so neither the pool width nor the shard boundaries may leak
// into the rows.
TEST(RouteModeDeterminism, PacketRowsIndependentOfThreadsAndSharding) {
  engine::GridSpec grid;
  grid.config.topologies = {"hx2mesh:2x2", "hx2mesh:2x2:faults=links:1:seed=5",
                            "torus:4x4"};
  grid.config.engines = {"packet"};
  grid.config.patterns = {flow::parse_traffic("shift:1:route=valiant"),
                          flow::parse_traffic("perm:route=ugal"),
                          flow::parse_traffic("alltoall:route=valiant")};
  grid.config.seeds = {1, 7};

  engine::ExperimentHarness narrow(1);
  engine::ExperimentHarness wide(4);
  const std::vector<engine::SweepRow> rows1 = narrow.run_grid(grid.config);
  const std::vector<engine::SweepRow> rows4 = wide.run_grid(grid.config);
  ASSERT_EQ(rows1.size(), 18u);
  EXPECT_EQ(render_rows(rows1), render_rows(rows4))
      << "packet rows depend on the harness thread count";

  engine::GridPlan plan({grid});
  ASSERT_EQ(plan.total_cells(), rows1.size());
  std::vector<engine::SweepRow> merged;
  for (unsigned shard = 0; shard < 4; ++shard) {
    auto [lo, hi] = plan.shard_cells(shard, 4);
    std::vector<engine::SweepRow> part = wide.run_cells(plan, lo, hi, nullptr);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  EXPECT_EQ(render_rows(merged), render_rows(rows1))
      << "sharded merge diverged from the single-process sweep";
}

// The flow solver's parallel path sampler must stay width-invariant when
// the grid asks for Valiant paths (each flow draws from its own
// counter-seeded substream, so the detour draws cannot depend on chunking).
TEST(RouteModeDeterminism, ValiantRatesIndependentOfSampleWorkerCount) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 8, .y = 8});
  const int n = hx.num_endpoints();
  std::vector<flow::Flow> flows;
  for (int shift = 1; shift <= 16; ++shift)
    for (const flow::Flow& f : flow::shift_pattern(n, shift))
      flows.push_back(f);
  flow::FlowSolverConfig config;
  config.route = topo::RouteMode::kValiant;
  expect_width_invariant(hx, flows, config);
}

}  // namespace
}  // namespace hxmesh
