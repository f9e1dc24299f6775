// sweep_trace: the benchmark's in-process tracer over libhxmesh.
//
// Three modes, all driven by run.py:
//
//   sweep_trace info
//       Prints the build facts recorded with every result (compiler,
//       build type, assertions on/off, hardware concurrency).
//
//   sweep_trace setup --config GRID [--warm]
//       Times the sweep's set-up three times: parse the grid file, plan it,
//       derive every cell key, then build every topology and engine the
//       sweep must execute (none with --warm: a warm replay executes no
//       cell). Prints {"setup_s": [...]}.
//
//   sweep_trace trace --config GRID --work DIR --hxmesh EXE --out FILE
//       The traced run. It records spans (name, start, end, parent) in
//       memory around calls into each layer's public API and writes them,
//       with exact work counts, to FILE at the end. Phases:
//         cold    one cell at a time, in the harness's batch order: build
//                 each topology (topo.build), fill its distance fields
//                 when packet cells use it (topo.dist_fill), make each
//                 engine (engine.make), then per cell the cache probe
//                 (result_cache.load), SimEngine::run (engine.run.<name>)
//                 and the store (result_cache.store). After each cell the
//                 layer probes repeat the engine's work through the layer
//                 APIs: FlowSolver::solve (flow.solve), a replay of the
//                 solver's path sampling (topo.sample), measure_ring
//                 (collectives.ring), PacketSim route tables
//                 (sim.route_build) and event loop (sim.run). Packet
//                 cells also run on the flow engine and its probes, so
//                 every layer has work on every workload.
//         pool    ExperimentHarness::run_cells over the whole grid with 4
//                 pool threads into a fresh cache (engine.run_cells).
//         replay  3 times: the real CLI's sharded warm replay as a child
//                 process (cli.sweep_sharded), a serial pass of cache
//                 loads (result_cache.load), the same shards run in
//                 process (shard.run) and their merge (shard.merge).
//       Rows of every phase are written to DIR/rows_<phase>.json in the
//       CLI's row format so run.py can compare them byte for byte.
//
// The flow solver runs with the FlowEngine's path count (16 paths above
// 4,096 endpoints). Run with HXMESH_THREADS=1 so every span is one
// thread's work; the pool phase sets its width explicitly.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "collectives/models.hpp"
#include "collectives/runtime.hpp"
#include "core/fsio.hpp"
#include "core/json.hpp"
#include "core/json_parse.hpp"
#include "core/rng.hpp"
#include "core/subprocess.hpp"
#include "engine/factory.hpp"
#include "engine/grid_plan.hpp"
#include "engine/harness.hpp"
#include "engine/result_cache.hpp"
#include "engine/shard.hpp"
#include "flow/flow_sim.hpp"
#include "flow/patterns.hpp"
#include "sim/minimpi.hpp"
#include "sim/packet_sim.hpp"

#ifndef SWEEPBENCH_BUILD_TYPE
#define SWEEPBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hxmesh;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- tracing --

struct Span {
  std::string name;
  double start = 0.0, end = 0.0;  // seconds since the tracer started
  int parent = -1;
};

class Tracer {
 public:
  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[id].end = now();
    stack_.pop_back();
  }
  double duration(int id) const { return spans_[id].end - spans_[id].start; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// Runs `fn` inside a span and returns the span's duration.
template <typename Fn>
double timed(Tracer& tracer, std::string name, Fn&& fn) {
  int id = -1;
  {
    Scope s(tracer, std::move(name));
    id = s.id();
    fn();
  }
  return tracer.duration(id);
}

// ------------------------------------------------------------- the grid --

std::vector<std::string> string_array(const JsonValue& doc, const char* key) {
  std::vector<std::string> out;
  if (const JsonValue* v = doc.get(key))
    for (const JsonValue& item : v->array) out.push_back(item.str);
  return out;
}

// The CLI's config-file format: one grid object, or {"grids": [...]}.
std::vector<engine::GridSpec> read_grids(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw std::runtime_error("cannot read grid file " + path);
  const JsonValue doc = parse_json(*text);
  std::vector<const JsonValue*> objects;
  if (const JsonValue* grids = doc.get("grids"))
    for (const JsonValue& g : grids->array) objects.push_back(&g);
  else
    objects.push_back(&doc);
  std::vector<engine::GridSpec> out;
  for (const JsonValue* g : objects) {
    engine::GridSpec spec;
    spec.config.topologies = string_array(*g, "topologies");
    spec.labels = string_array(*g, "labels");
    spec.config.engines = string_array(*g, "engines");
    if (spec.config.engines.empty()) spec.config.engines = {"flow"};
    for (const std::string& p : string_array(*g, "patterns"))
      spec.config.patterns.push_back(flow::parse_traffic(p));
    spec.config.seeds.clear();
    if (const JsonValue* seeds = g->get("seeds"))
      for (const JsonValue& s : seeds->array)
        spec.config.seeds.push_back(s.as_u64());
    out.push_back(std::move(spec));
  }
  return out;
}

// Jobs of each topology batch, grouped by engine in first-seen order —
// the (topology, engine) groups ExperimentHarness::run_cells executes.
struct EngineGroup {
  std::string engine;
  std::vector<std::size_t> jobs;
};
std::vector<std::vector<EngineGroup>> batch_groups(
    const engine::GridPlan& plan) {
  std::vector<std::vector<EngineGroup>> out(plan.num_topo_batches());
  for (std::size_t j = 0; j < plan.num_jobs(); ++j) {
    auto& groups = out[plan.job_topo_batch(j)];
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.engine == plan.job_engine(j);
    });
    if (it == groups.end())
      it = groups.insert(groups.end(), {plan.job_engine(j), {}});
    it->jobs.push_back(j);
  }
  return out;
}

// Exact work counts by metric name, written out next to the spans.
using Counts = std::map<std::string, double>;

// ---------------------------------------------------------- layer probes --

void probe_flow_solve(Tracer& tracer, Counts& counts,
                      const flow::FlowSolver& solver,
                      std::vector<flow::Flow>& flows, topo::RouteMode route) {
  {
    Scope s(tracer, "flow.solve");
    solver.solve(flows, route);
  }
  counts["flow.solves"] += 1;
  // Replays the solver's path sampling: one counter-seeded substream per
  // flow, paths_per_flow stratified draws each.
  const topo::Topology& topology = solver.topology();
  const int ppf = solver.config().paths_per_flow;
  std::vector<topo::LinkId> path;
  std::uint64_t links = 0, subflows = 0;
  {
    Scope s(tracer, "topo.sample");
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (flows[f].src == flows[f].dst) continue;
      Rng rng = Rng::substream(solver.config().seed, f);
      for (int k = 0; k < ppf; ++k) {
        topology.sample_path_stratified(flows[f].src, flows[f].dst, k, ppf,
                                        rng, path, route);
        links += path.size();
        ++subflows;
      }
    }
  }
  counts["topo.path_links"] += static_cast<double>(links);
  counts["flow.subflows"] += static_cast<double>(subflows);
}

struct FlowProbe {
  flow::FlowSolver solver;
  std::set<topo::RouteMode> rings_measured;
};

void probe_flow_cell(Tracer& tracer, Counts& counts, FlowProbe& probe,
                     const topo::Topology& topology,
                     const flow::TrafficSpec& spec) {
  const int n = topology.num_endpoints();
  switch (spec.kind) {
    case flow::PatternKind::kShift:
    case flow::PatternKind::kPermutation:
    case flow::PatternKind::kRing: {
      auto flows = flow::make_flows(spec, n);
      probe_flow_solve(tracer, counts, probe.solver, flows, spec.route);
      break;
    }
    case flow::PatternKind::kAlltoall: {
      // The flow engine's sampled-shift ensemble.
      const int stride = std::max(1, (n - 1) / std::max(1, spec.samples));
      for (int shift = 1; shift < n; shift += stride) {
        auto flows = flow::shift_pattern(n, shift);
        probe_flow_solve(tracer, counts, probe.solver, flows, spec.route);
      }
      break;
    }
    case flow::PatternKind::kAllreduce: {
      // The flow engine measures one ring per routing mode per topology.
      if (!probe.rings_measured.insert(spec.route).second) break;
      flow::FlowSolverConfig config = probe.solver.config();
      config.route = spec.route;
      Scope s(tracer, "collectives.ring");
      collectives::measure_ring(topology, config);
      counts["collectives.rings"] += 1;
      break;
    }
  }
}

void count_packets(Counts& counts, const sim::PacketSim& sim) {
  counts["sim.packets"] += static_cast<double>(sim.stats().packets_delivered);
  counts["sim.packet_hops"] += static_cast<double>(sim.stats().packet_hops);
}

std::vector<int> all_ranks(int n) {
  std::vector<int> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 0);
  return ranks;
}

void probe_packet_cell(Tracer& tracer, Counts& counts,
                       const topo::Topology& topology,
                       const flow::TrafficSpec& spec) {
  sim::PacketSimConfig config;
  config.route_mode = spec.route;
  config.route_seed = spec.seed;
  const int n = topology.num_endpoints();
  // The packet engine already ran this cell, so its float count fits.
  const int elems = static_cast<int>(
      std::max<std::uint64_t>(1, spec.message_bytes / sizeof(float)));
  switch (spec.kind) {
    case flow::PatternKind::kShift:
    case flow::PatternKind::kPermutation:
    case flow::PatternKind::kRing: {
      const auto flows = flow::make_flows(spec, n);
      sim::PacketSim sim(topology, config);
      std::vector<int> dsts;
      for (const flow::Flow& f : flows)
        if (f.src != f.dst) dsts.push_back(f.dst);
      {
        Scope s(tracer, "sim.route_build");
        sim.prebuild_routes(dsts);
      }
      for (const flow::Flow& f : flows)
        if (f.src != f.dst)
          sim.send_message(f.src, f.dst, spec.message_bytes, [] {});
      {
        Scope s(tracer, "sim.run");
        sim.run();
      }
      count_packets(counts, sim);
      break;
    }
    case flow::PatternKind::kAlltoall: {
      sim::MiniMpi mpi(topology, config);
      const std::vector<int> ranks = all_ranks(n);
      {
        Scope s(tracer, "sim.route_build");
        mpi.sim().prebuild_routes(ranks);
      }
      {
        Scope s(tracer, "sim.run");
        collectives::run_alltoall(mpi, ranks, elems);
      }
      count_packets(counts, mpi.sim());
      break;
    }
    case flow::PatternKind::kAllreduce: {
      if (spec.torus_algorithm) break;  // not in any benchmark grid
      std::vector<std::vector<float>> data(n, std::vector<float>(elems, 1.0f));
      const collectives::RingMapping mapping =
          collectives::build_ring_mapping(topology);
      sim::MiniMpi mpi(topology, config);
      {
        Scope s(tracer, "sim.route_build");
        mpi.sim().prebuild_routes(all_ranks(n));
      }
      {
        Scope s(tracer, "sim.run");
        if (mapping.rings.size() >= 2)
          collectives::run_allreduce_two_rings(mpi, mapping.rings[0],
                                               mapping.rings[1], data);
        else
          collectives::run_allreduce_bidir(mpi, mapping.rings[0], data);
      }
      count_packets(counts, mpi.sim());
      break;
    }
  }
}

// --------------------------------------------------------------- phases --

std::vector<engine::SweepRow> identity_rows(const engine::GridPlan& plan) {
  std::vector<engine::SweepRow> rows(plan.total_cells());
  for (std::size_t c = 0; c < rows.size(); ++c) rows[c] = plan.cell_row(c);
  return rows;
}

std::uint64_t blob_bytes(const engine::ResultCache& cache,
                         const std::string& key) {
  const std::optional<std::string> blob = cache.read_blob(key);
  return blob ? blob->size() : 0;
}

void phase_cold(Tracer& tracer, Counts& counts, const engine::GridPlan& plan,
                engine::ResultCache& cache, const std::string& rows_path) {
  Scope phase(tracer, "bench.cold");
  std::vector<engine::SweepRow> rows = identity_rows(plan);
  const auto groups = batch_groups(plan);
  for (std::size_t b = 0; b < plan.num_topo_batches(); ++b) {
    if (groups[b].empty()) continue;
    std::unique_ptr<topo::Topology> topology;
    {
      Scope s(tracer, "topo.build");
      topology = engine::make_topology(plan.topo_batch_spec(b));
    }
    counts["topo.builds"] += 1;
    const bool packet = std::any_of(groups[b].begin(), groups[b].end(),
                                    [](const EngineGroup& g) {
                                      return g.engine == "packet";
                                    });
    if (packet) {
      // Every endpoint is a packet destination in some cell; filling the
      // fields here leaves the route tables below pure table builds.
      Scope s(tracer, "topo.dist_fill");
      for (int r = 0; r < topology->num_endpoints(); ++r)
        topology->dist_field(topology->endpoint_node(r));
      counts["topo.dist_fills"] += topology->num_endpoints();
    }
    for (const EngineGroup& group : groups[b]) {
      std::unique_ptr<engine::SimEngine> eng;
      {
        Scope s(tracer, "engine.make");
        eng = engine::make_engine(group.engine, *topology);
      }
      // Packet cells also run on the flow engine, the paper's
      // cross-validation pairing, so every layer has work on every
      // workload; the twin's rows are not part of the sweep.
      std::unique_ptr<engine::SimEngine> flow_twin;
      if (group.engine != "flow") {
        Scope s(tracer, "engine.make");
        flow_twin = engine::make_engine("flow", *topology);
      }
      // The FlowEngine's path count: 16 paths above 4,096 endpoints.
      flow::FlowSolverConfig config;
      if (topology->num_endpoints() > 4096) config.paths_per_flow = 16;
      FlowProbe flow_probe{flow::FlowSolver(*topology, config), {}};
      const std::string run_span = "engine.run." + group.engine;
      for (std::size_t j : group.jobs) {
        const auto [lo, hi] = plan.job_range(j);
        for (std::size_t c = lo; c < hi; ++c) {
          engine::SweepRow& row = rows[c];
          const std::string key = plan.cell_key(c);
          bool stored = false;
          try {
            Scope cell(tracer, "engine.cell");
            std::optional<engine::RunResult> hit;
            timed(tracer, "result_cache.load", [&] { hit = cache.load(key); });
            if (hit) {
              row.result = std::move(*hit);
            } else {
              const double s = timed(tracer, run_span, [&] {
                row.result = eng->run(row.pattern);
              });
              counts["engine.cell_max_s"] =
                  std::max(counts["engine.cell_max_s"], s);
              timed(tracer, "result_cache.store",
                    [&] { cache.store(key, row.result); });
              stored = true;
            }
          } catch (const std::exception& e) {
            std::cerr << "sweep_trace: cell " << c << " failed: " << e.what()
                      << "\n";
            counts["cells_errored"] += 1;
            continue;
          }
          counts["engine.cells"] += 1;
          if (stored) {
            const double bytes = static_cast<double>(blob_bytes(cache, key));
            counts["result_cache.stores"] += 1;
            counts["result_cache.bytes_written"] += bytes;
            counts["result_cache.entry_max_bytes"] =
                std::max(counts["result_cache.entry_max_bytes"], bytes);
          }
          if (flow_twin)
            timed(tracer, "engine.run.flow",
                  [&] { flow_twin->run(row.pattern); });
          probe_flow_cell(tracer, counts, flow_probe, *topology, row.pattern);
          if (group.engine == "packet")
            probe_packet_cell(tracer, counts, *topology, row.pattern);
        }
      }
    }
  }
  engine::write_json(rows_path, rows);
}

void phase_pool(Tracer& tracer, Counts& counts, const engine::GridPlan& plan,
                int threads, engine::ResultCache& cache,
                const std::string& rows_path) {
  Scope phase(tracer, "bench.pool");
  engine::ExperimentHarness harness(threads);
  std::vector<engine::SweepRow> rows;
  counts["engine.run_cells_wall_s"] = timed(tracer, "engine.run_cells", [&] {
    rows = harness.run_cells(plan, 0, plan.total_cells(), &cache);
  });
  counts["engine.pool_threads"] = threads;
  counts["result_cache.quarantined"] += cache.quarantined();
  engine::write_json(rows_path, rows);
}

void phase_replay(Tracer& tracer, Counts& counts, const engine::GridPlan& plan,
                  const std::string& grid_path, const std::string& exe,
                  const std::string& cache_dir, const std::string& rows_prefix,
                  int rep) {
  constexpr unsigned kShards = 4;
  Scope phase(tracer, "bench.replay");
  const std::string tag = std::to_string(rep);
  CommandResult cli;
  const double cli_s = timed(tracer, "cli.sweep_sharded", [&] {
    CommandOptions options;
    options.timeout_s = 120.0;
    cli = run_command_watched(
        {exe, "sweep", "--config", grid_path, "--shards",
         std::to_string(kShards), "--workers", std::to_string(kShards),
         "--cache-dir", cache_dir, "--json",
         rows_prefix + "cli" + tag + ".json"},
        options);
  });
  if (!cli.ok())
    throw std::runtime_error("sharded replay failed: " + cli.error +
                             " (exit " + std::to_string(cli.shell_code()) +
                             ")");

  engine::ResultCache cache(cache_dir);
  std::uint64_t bytes = 0;
  for (std::size_t c = 0; c < plan.total_cells(); ++c) {
    const std::string key = plan.cell_key(c);
    timed(tracer, "result_cache.load", [&] { cache.load(key); });
    bytes += blob_bytes(cache, key);
  }
  counts["replay.loads"] += static_cast<double>(plan.total_cells());
  counts["replay.hits"] += static_cast<double>(cache.hits());
  counts["replay.bytes_read"] += static_cast<double>(bytes);

  // The orchestrator's work without the processes: every shard in turn,
  // then the merge through the cache.
  engine::ExperimentHarness harness(kShards);
  std::vector<engine::ShardManifest> manifests;
  double inproc_s = 0.0;
  for (unsigned i = 0; i < kShards; ++i)
    inproc_s += timed(tracer, "shard.run", [&] {
      manifests.push_back(engine::run_shard(harness, plan, i, kShards, cache));
    });
  std::vector<engine::SweepRow> rows;
  inproc_s += timed(tracer, "shard.merge", [&] {
    const std::string problem = engine::merge_error(plan, manifests);
    if (!problem.empty()) throw std::runtime_error("merge: " + problem);
    rows = harness.run_cells(plan, 0, plan.total_cells(), &cache);
  });
  counts["result_cache.quarantined"] += cache.quarantined();
  counts["cli.orchestration_s." + tag] = cli_s - inproc_s;
  engine::write_json(rows_prefix + "merge" + tag + ".json", rows);
}

// ------------------------------------------------------------------ main --

struct Args {
  std::map<std::string, std::string> values;
  bool warm = false;
  std::string get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) throw std::invalid_argument("missing " + key);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--warm")
      args.warm = true;
    else if (i + 1 < argc)
      args.values[flag] = argv[++i];
    else
      throw std::invalid_argument("flag " + flag + " needs a value");
  }
  return args;
}

int do_info() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  JsonObject obj;
  obj.add("compiler", compiler)
      .add("build_type", std::string(SWEEPBENCH_BUILD_TYPE))
#ifdef NDEBUG
      .add("assertions", false)
#else
      .add("assertions", true)
#endif
      .add("nproc", static_cast<std::uint64_t>(
                        std::thread::hardware_concurrency()));
  std::cout << obj.wrapped() << "\n";
  return 0;
}

// One set-up of the sweep; returns how many objects it made.
std::size_t set_up_once(const std::string& grid_path, bool warm) {
  const engine::GridPlan plan(read_grids(grid_path));
  std::vector<std::string> keys;
  for (std::size_t c = 0; c < plan.total_cells(); ++c)
    keys.push_back(plan.cell_key(c));
  std::vector<std::unique_ptr<topo::Topology>> topologies;
  std::vector<std::unique_ptr<engine::SimEngine>> engines;
  if (!warm) {
    const auto groups = batch_groups(plan);
    for (std::size_t b = 0; b < plan.num_topo_batches(); ++b) {
      if (groups[b].empty()) continue;
      topologies.push_back(engine::make_topology(plan.topo_batch_spec(b)));
      for (const EngineGroup& g : groups[b])
        engines.push_back(engine::make_engine(g.engine, *topologies.back()));
    }
  }
  return topologies.size() + engines.size() + keys.size();
}

int do_setup(const Args& args) {
  constexpr int kReps = 3;
  const std::string grid_path = args.get("--config");
  const bool warm = args.warm;
  // A set-up shorter than this is repeated within one sample so that
  // timer resolution and first-touch effects do not dominate it.
  constexpr double kMinSampleS = 0.05;
  int batch = 1;
  std::string out = "{\"setup_s\": [";
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < batch; ++i)
      if (set_up_once(grid_path, warm) == 0)
        throw std::runtime_error("setup: empty grid");
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count() / batch;
    if (r == 0 && s < kMinSampleS)
      batch = static_cast<int>(
                  std::min(1e5, kMinSampleS / std::max(s, 1e-7))) + 1;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%.9g", r ? ", " : "", s);
    out += buf;
  }
  std::cout << out << "]}\n";
  return 0;
}

int do_trace(const Args& args) {
  const std::string grid_path = args.get("--config");
  const std::string work = args.get("--work");
  const std::string exe = args.get("--hxmesh");
  // The machine's core count: pool threads, shards and shard workers.
  constexpr int kThreads = 4;
  constexpr int kReplays = 3;
  const engine::GridPlan plan(read_grids(grid_path));

  Tracer tracer;
  Counts counts;
  counts["cells_errored"] = 0;
  counts["result_cache.quarantined"] = 0;
  const std::string cold_dir = work + "/cache-cold";
  const std::string pool_dir = work + "/cache-pool";
  {
    Scope root(tracer, "bench");
    engine::ResultCache cold_cache(cold_dir);
    phase_cold(tracer, counts, plan, cold_cache, work + "/rows_cold.json");
    counts["result_cache.quarantined"] += cold_cache.quarantined();
    engine::ResultCache pool_cache(pool_dir);
    phase_pool(tracer, counts, plan, kThreads, pool_cache,
               work + "/rows_pool.json");
    for (int r = 0; r < kReplays; ++r)
      phase_replay(tracer, counts, plan, grid_path, exe, pool_dir,
                   work + "/rows_", r);
  }
  counts["replays"] = kReplays;

  std::string out = "{\"spans\": [\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s[\"%s\", %.9f, %.9f, %d]",
                  i ? ",\n" : "", spans[i].name.c_str(), spans[i].start,
                  spans[i].end, spans[i].parent);
    out += buf;
  }
  out += "\n], \"counts\": {";
  bool first = true;
  for (const auto& [key, value] : counts) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", first ? "" : ", ",
                  key.c_str(), value);
    out += buf;
    first = false;
  }
  out += "}}\n";
  write_file_atomic(args.get("--out"), out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "info") return do_info();
    if (mode == "setup") return do_setup(parse_args(argc, argv));
    if (mode == "trace") return do_trace(parse_args(argc, argv));
    std::cerr << "usage: sweep_trace info | setup --config GRID [--warm] | "
                 "trace --config GRID --work DIR --hxmesh EXE --out FILE\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "sweep_trace: " << e.what() << "\n";
    return 1;
  }
}
