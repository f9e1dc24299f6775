// google-benchmark microbenchmarks of the core engines: event queue
// (steady hold model and same-time bursts), packet engine, flow engine,
// routing/BFS, topology build, path sampling, allocator, the Hamiltonian-ring
// construction, and a full harness grid.
#include <benchmark/benchmark.h>

#include "alloc/experiments.hpp"
#include "collectives/hamiltonian.hpp"
#include "collectives/models.hpp"
#include "engine/factory.hpp"
#include "engine/harness.hpp"
#include "flow/flow_sim.hpp"
#include "flow/patterns.hpp"
#include "sim/packet_sim.hpp"
#include "sim/event_queue.hpp"
#include "topo/fattree.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/routing_oracle.hpp"

using namespace hxmesh;

static void BM_EventQueue(benchmark::State& state) {
  // Steady-state hold model — the packet simulator's access pattern: ~1k
  // events in flight, and every dispatched event schedules a successor a
  // bounded delay into the future. Exercises the typed schedule/pop API
  // the simulator dispatches on (and, before it, the calendar buckets'
  // push/scan/advance machinery).
  constexpr std::uint32_t kInFlight = 1024;
  constexpr std::uint64_t kPops = 100000;
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::uint32_t i = 0; i < kInFlight; ++i)
      q.schedule(static_cast<picoseconds>((i * 2654435761u) % 4096),
                 sim::EventKind::kUserCallback, i);
    std::uint64_t pops = 0, sum = 0;
    while (!q.empty()) {
      sim::Event e = q.pop();
      sum += e.a;
      if (++pops < kPops)
        q.schedule_in((e.a * 2654435761u + pops) % 4096,
                      sim::EventKind::kUserCallback, e.a);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kPops);
}
BENCHMARK(BM_EventQueue);

static void BM_EventQueueTies(benchmark::State& state) {
  // Synchronized-step hold model — the collectives' access pattern: 1024
  // ranks finish a ring step at the same picosecond, each step event
  // schedules a zero-delay receive, and each receive schedules its rank's
  // next step one fixed delay later. Every step is a burst of 2048
  // same-time events in one calendar bucket.
  constexpr std::uint32_t kRanks = 1024;
  constexpr std::uint64_t kPops = 100000;
  constexpr picoseconds kStep = 4096;
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::uint32_t i = 0; i < kRanks; ++i)
      q.schedule(0, sim::EventKind::kUserCallback, i, /*b=step*/ 1);
    std::uint64_t pops = 0, sum = 0;
    while (!q.empty()) {
      sim::Event e = q.pop();
      sum += e.a;
      if (++pops >= kPops) continue;
      if (e.b == 1)
        q.schedule_in(0, sim::EventKind::kUserCallback, e.a, 0);
      else
        q.schedule_in(kStep, sim::EventKind::kUserCallback, e.a, 1);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kPops);
}
BENCHMARK(BM_EventQueueTies);

static void BM_PacketEnginePermutation(benchmark::State& state) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  auto eng = engine::make_engine("packet", hx);
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kShift;
  spec.shift = 17;
  spec.message_bytes = 64 * KiB;
  for (auto _ : state) {
    auto result = eng->run(spec);
    benchmark::DoNotOptimize(result.completion_s);
  }
}
BENCHMARK(BM_PacketEnginePermutation);

static void BM_FlowEngineShift(benchmark::State& state) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 16, .y = 16});
  auto eng = engine::make_engine("flow", hx);
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kShift;
  spec.shift = 321;
  for (auto _ : state) {
    auto result = eng->run(spec);
    benchmark::DoNotOptimize(result.rate_summary.mean);
  }
}
BENCHMARK(BM_FlowEngineShift);

static void BM_FlowSolverAlltoallLarge(benchmark::State& state) {
  // Two shift rounds of the balanced alltoall on the paper's 16384-
  // accelerator Hx2Mesh, solved exactly as collectives::measure_alltoall
  // solves its sampled ensemble (one flow set per shift): the shape that
  // dominates hx2mesh:64x64 sweep cells.
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 64, .y = 64});
  flow::FlowSolver solver(hx);
  const int n = hx.num_endpoints();
  for (auto _ : state) {
    for (int shift : {1365, 8191}) {
      auto flows = flow::shift_pattern(n, shift);
      solver.solve(flows);
      benchmark::DoNotOptimize(flows.front().rate);
    }
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_FlowSolverAlltoallLarge);

// A converged 64x64 permutation: thousands of filling levels, the instance
// class the solver's former 400-round cap truncated.
static void BM_FlowSolverPermutationLarge(benchmark::State& state) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 64, .y = 64});
  flow::FlowSolver solver(hx);
  Rng rng(3);
  const auto pattern = flow::random_permutation(hx.num_endpoints(), rng);
  for (auto _ : state) {
    auto flows = pattern;
    solver.solve(flows);
    benchmark::DoNotOptimize(flows.front().rate);
  }
  state.SetItemsProcessed(state.iterations() * pattern.size());
}
BENCHMARK(BM_FlowSolverPermutationLarge);

// The measure_ring flow set of the 16384-accelerator Hx2Mesh at 16 paths,
// as FlowEngine solves it for an allreduce cell: every subflow freezes in
// the first batch, so the index build and that batch are the whole solve.
static void BM_FlowSolverRingLarge(benchmark::State& state) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 64, .y = 64});
  flow::FlowSolverConfig config;
  config.paths_per_flow = 16;
  flow::FlowSolver solver(hx, config);
  std::vector<flow::Flow> pattern;
  for (const auto& ring : collectives::build_ring_mapping(hx).rings)
    for (const flow::Flow& f : flow::ring_flows(ring, /*bidirectional=*/true))
      pattern.push_back(f);
  for (auto _ : state) {
    auto flows = pattern;
    solver.solve(flows);
    benchmark::DoNotOptimize(flows.front().rate);
  }
  state.SetItemsProcessed(state.iterations() * pattern.size());
}
BENCHMARK(BM_FlowSolverRingLarge);

static void BM_PacketForwardHeavy(benchmark::State& state) {
  // try_forward-dominated run: every endpoint keeps four distant messages
  // in flight, so switches arbitrate full input buffers the whole time.
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  const int n = hx.num_endpoints();
  for (auto _ : state) {
    sim::PacketSim sim(hx);
    for (int i = 0; i < n; ++i)
      for (int k : {5, 17, 29, 41})
        sim.send_message(i, (i + k) % n, 32 * KiB, nullptr);
    sim.run();
    benchmark::DoNotOptimize(sim.stats().packets_delivered);
  }
  state.SetItemsProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_PacketForwardHeavy);

static void BM_BfsDistanceField(benchmark::State& state) {
  topo::FatTree ft({.num_endpoints = 1024});
  for (auto _ : state) {
    auto dist = ft.graph().dist_to(ft.endpoint_node(0));
    benchmark::DoNotOptimize(dist.back());
  }
}
BENCHMARK(BM_BfsDistanceField);

// Dist-field construction on the paper's large Hx2Mesh (16,384
// accelerators plus rail-tree switches) — the per-destination setup cost
// behind packet-sim route tables and the dist_field cache. The Oracle/Bfs
// pair measures the closed-form fill against the reverse BFS it replaced
// (the headline route-table/dist-field speedup of the routing-oracle
// work). Destinations stride through the machine so no per-destination
// state is reused.
static void BM_DistFieldOracleHx64(benchmark::State& state) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 64, .y = 64});
  const topo::RoutingOracle& oracle = hx.routing_oracle();
  std::vector<std::int32_t> field;
  int dst = 0;
  for (auto _ : state) {
    oracle.fill(hx.endpoint_node(dst), field);
    benchmark::DoNotOptimize(field.back());
    dst = (dst + 4097) % hx.num_endpoints();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DistFieldOracleHx64);

static void BM_DistFieldBfsHx64(benchmark::State& state) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 64, .y = 64});
  int dst = 0;
  for (auto _ : state) {
    auto field = hx.graph().dist_to(hx.endpoint_node(dst));
    benchmark::DoNotOptimize(field.back());
    dst = (dst + 4097) % hx.num_endpoints();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DistFieldBfsHx64);

static void BM_DiameterHx64(benchmark::State& state) {
  // Oracle-backed eccentricity search at full machine scale (was 128
  // whole-graph BFS passes before the oracle).
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 64, .y = 64});
  for (auto _ : state) {
    benchmark::DoNotOptimize(hx.diameter());
  }
}
BENCHMARK(BM_DiameterHx64);

static void BM_TopologyBuildHx128(benchmark::State& state) {
  // One hx2mesh:128x128 build (65,536 accelerators, 655k directed links)
  // from its spec string, destruction included: node and link arrays, the
  // graph's out- and in-rows and the routing oracle (HammingMesh never
  // looks a bundle up, so no bundle rows are built).
  for (auto _ : state) {
    auto topology = engine::make_topology("hx2mesh:128x128");
    benchmark::DoNotOptimize(topology->graph().num_links());
  }
}
BENCHMARK(BM_TopologyBuildHx128);

// Path sampling alone on hx2mesh:128x128 (65,536 accelerators): all 16
// strata of every flow of a permutation on one thread, each flow from its
// own RNG substream, as the flow solver samples them. The machine is
// large enough that any per-hop table a router reads misses the cache.
static void BM_SamplePathsHx128(benchmark::State& state) {
  constexpr int kStrata = 16;
  auto topology = engine::make_topology("hx2mesh:128x128");
  Rng rng(3);
  const auto flows = flow::random_permutation(topology->num_endpoints(), rng);
  std::vector<topo::LinkId> path;
  for (auto _ : state) {
    std::size_t links = 0;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      Rng flow_rng = Rng::substream(1, f);
      for (int k = 0; k < kStrata; ++k) {
        topology->sample_path_stratified(flows[f].src, flows[f].dst, k,
                                         kStrata, flow_rng, path);
        links += path.size();
      }
    }
    benchmark::DoNotOptimize(links);
  }
  state.SetItemsProcessed(state.iterations() * flows.size() * kStrata);
}
BENCHMARK(BM_SamplePathsHx128);

static void BM_AllocatorJobMix(benchmark::State& state) {
  for (auto _ : state) {
    alloc::ExperimentConfig cfg;
    cfg.x = 16;
    cfg.y = 16;
    cfg.trials = 1;
    cfg.stack = alloc::HeuristicStack::kAll;
    auto r = alloc::run_allocation_experiment(cfg);
    benchmark::DoNotOptimize(r.utilization.mean);
  }
}
BENCHMARK(BM_AllocatorJobMix);

static void BM_HamiltonianRings(benchmark::State& state) {
  for (auto _ : state) {
    auto rings = collectives::disjoint_hamiltonian_rings(64, 64);
    benchmark::DoNotOptimize(rings.red.size());
  }
}
BENCHMARK(BM_HamiltonianRings);

static void BM_HarnessGrid(benchmark::State& state) {
  // A small 2-topology x 2-pattern grid over the thread-count under test.
  for (auto _ : state) {
    engine::ExperimentHarness harness(static_cast<int>(state.range(0)));
    engine::SweepConfig sweep;
    sweep.topologies = {"hx2mesh:4x4", "torus:8x8"};
    flow::TrafficSpec shift;
    shift.kind = flow::PatternKind::kShift;
    shift.shift = 3;
    flow::TrafficSpec perm;
    perm.kind = flow::PatternKind::kPermutation;
    sweep.patterns = {shift, perm};
    auto rows = harness.run_grid(sweep);
    benchmark::DoNotOptimize(rows.size());
  }
}
BENCHMARK(BM_HarnessGrid)->Arg(1)->Arg(4);

static void BM_HarnessBatchedSetup(benchmark::State& state) {
  // Three grids whose topology axes repeat two specs: batched execution
  // builds each spec once per sweep instead of once per (grid, topology)
  // slot, so this measures the amortized setup path end to end (topology
  // builds, oracle fills, measured rings, then the cells themselves).
  engine::SweepConfig a;
  a.topologies = {"hx2mesh:8x8", "torus:16x16"};
  a.patterns = {flow::parse_traffic("perm:msg=256KiB")};
  engine::SweepConfig b;
  b.topologies = {"hx2mesh:8x8"};
  b.patterns = {flow::parse_traffic("shift:3:msg=256KiB")};
  engine::SweepConfig c;
  c.topologies = {"torus:16x16", "hx2mesh:8x8"};
  c.patterns = {flow::parse_traffic("shift:7:msg=256KiB")};
  for (auto _ : state) {
    engine::ExperimentHarness harness(2);
    auto rows = harness.run_grids({{a, {}}, {b, {}}, {c, {}}});
    benchmark::DoNotOptimize(rows.size());
  }
}
BENCHMARK(BM_HarnessBatchedSetup);

BENCHMARK_MAIN();
