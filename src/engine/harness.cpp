#include "engine/harness.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>

#include "core/counters.hpp"
#include "core/json.hpp"

namespace hxmesh::engine {

namespace {
// Setup the batched groups amortized, and the cells actually simulated.
Counter g_topo_groups("batch.topo_groups");
Counter g_topo_builds_saved("batch.topo_builds_saved");
Counter g_engine_groups("batch.engine_groups");
Counter g_engines_saved("batch.engines_saved");
Counter g_cells_executed("batch.cells_executed");
}  // namespace

std::vector<SweepRow> ExperimentHarness::run_grid(
    const SweepConfig& config, const std::vector<std::string>& labels,
    ResultCache* cache) {
  return run_grids({GridSpec{config, labels}}, cache);
}

std::vector<SweepRow> ExperimentHarness::run_grids(
    const std::vector<GridSpec>& grids, ResultCache* cache) {
  const GridPlan plan(grids);
  return run_cells(plan, 0, plan.total_cells(), cache);
}

std::vector<SweepRow> ExperimentHarness::run_cells(const GridPlan& plan,
                                                   std::size_t lo,
                                                   std::size_t hi,
                                                   ResultCache* cache) {
  if (lo > hi || hi > plan.total_cells())
    throw std::invalid_argument("run_cells: bad range [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + ") of " +
                                std::to_string(plan.total_cells()) + " cells");
  const std::size_t n = hi - lo;
  std::vector<SweepRow> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = plan.cell_row(lo + i);

  // Probe the cache for every cell in parallel. Cells never share an entry
  // file, so the loads are independent.
  std::vector<std::string> keys(cache ? n : 0);
  std::vector<char> cached(n, 0);
  if (cache) {
    pool_.parallel_for(n, [&](std::size_t i) {
      const SweepRow& row = rows[i];
      keys[i] =
          ResultCache::cell_key(row.topology, row.engine, row.pattern, row.seed);
      if (std::optional<RunResult> hit = cache->load(keys[i])) {
        rows[i].result = std::move(*hit);
        cached[i] = 1;
      }
    });
  }

  // One job per (topology, engine): the engine instance is reused across
  // its patterns and seeds so per-topology caches (e.g. the flow engine's
  // measured ring) amortize, while jobs stay independent across threads.
  // Only the jobs intersecting [lo, hi) exist here, clamped to the range —
  // this is what lets a shard execute a slice of a grid.
  std::vector<std::size_t> jobs;
  for (std::size_t j = 0; j < plan.num_jobs(); ++j) {
    const auto [jl, jh] = plan.job_range(j);
    if (jh > lo && jl < hi) jobs.push_back(j);
  }

  auto job_has_miss = [&](std::size_t j) {
    const auto [jl, jh] = plan.job_range(j);
    for (std::size_t c = std::max(jl, lo); c < std::min(jh, hi); ++c)
      if (!cached[c - lo]) return true;
    return false;
  };

  // The jobs that still have work after the probe. Jobs — and their
  // topology builds — are skipped entirely when every cell came out of
  // the cache.
  std::vector<std::size_t> exec_jobs;
  for (std::size_t j : jobs)
    if (job_has_miss(j)) exec_jobs.push_back(j);

  // Batched setup: build one topology per distinct spec (the plan's
  // topology batches), in parallel; every (grid, topology) slot of that
  // spec shares the build — and with it the oracle fills, dist fields,
  // and route-table caches (all thread-safe). Construction errors (bad
  // specs) are configuration errors and propagate as-is.
  std::vector<std::unique_ptr<topo::Topology>> topologies(
      plan.num_topo_batches());
  std::vector<std::size_t> batches;
  std::size_t slots_needed = 0;
  {
    std::vector<char> needed_batch(plan.num_topo_batches(), 0);
    std::vector<char> needed_slot(plan.num_topo_slots(), 0);
    for (std::size_t j : exec_jobs) {
      needed_slot[plan.job_topo_slot(j)] = 1;
      needed_batch[plan.job_topo_batch(j)] = 1;
    }
    for (std::size_t s = 0; s < needed_slot.size(); ++s)
      if (needed_slot[s]) ++slots_needed;
    for (std::size_t b = 0; b < needed_batch.size(); ++b)
      if (needed_batch[b]) batches.push_back(b);
  }
  pool_.parallel_for(batches.size(), [&](std::size_t k) {
    topologies[batches[k]] = make_topology(plan.topo_batch_spec(batches[k]));
  });

  // Group the executable jobs by (topology batch, engine name), in job
  // order: each group runs its cells in plan order against one shared
  // topology and ONE engine instance, so per-engine setup (the flow
  // engine's measured ring, packet route-table warmup) amortizes across
  // every co-scheduled cell of the group. Groups — not jobs — are the
  // parallel unit.
  struct Group {
    std::size_t batch = 0;
    const std::string* engine = nullptr;
    std::vector<std::size_t> jobs;
  };
  std::vector<Group> groups;
  for (std::size_t j : exec_jobs) {
    const std::size_t b = plan.job_topo_batch(j);
    const std::string& eng = plan.job_engine(j);
    Group* group = nullptr;
    for (Group& cand : groups)
      if (cand.batch == b && *cand.engine == eng) {
        group = &cand;
        break;
      }
    if (!group) {
      groups.push_back(Group{b, &eng, {}});
      group = &groups.back();
    }
    group->jobs.push_back(j);
  }

  // A failing cell must not abort the sibling cells of its topology
  // group (or any other group): record the error, keep draining, and
  // rethrow the first failure in plan order — with the cell id — once
  // everything else ran and was stored. Engine construction errors
  // (unknown engine names) still propagate immediately: no cell of the
  // group could run.
  struct CellError {
    std::size_t cell = 0;
    std::string what;
    bool invalid_argument = false;  // preserve the exit-2 error category
  };
  std::vector<CellError> errors;
  std::mutex error_mutex;

  pool_.parallel_for(groups.size(), [&](std::size_t k) {
    const Group& group = groups[k];
    auto engine = make_engine(*group.engine, *topologies[group.batch]);
    for (std::size_t j : group.jobs) {
      const auto [jl, jh] = plan.job_range(j);
      for (std::size_t c = std::max(jl, lo); c < std::min(jh, hi); ++c) {
        if (cached[c - lo]) continue;
        SweepRow& row = rows[c - lo];
        try {
          row.result = engine->run(row.pattern);
          if (cache) cache->store(keys[c - lo], row.result);
        } catch (const std::invalid_argument& e) {
          std::lock_guard lock(error_mutex);
          errors.push_back({c, e.what(), true});
          continue;
        } catch (const std::exception& e) {
          std::lock_guard lock(error_mutex);
          errors.push_back({c, e.what(), false});
          continue;
        }
        g_cells_executed.add();
      }
    }
  });

  g_topo_groups.add(batches.size());
  g_topo_builds_saved.add(slots_needed - batches.size());
  g_engine_groups.add(groups.size());
  g_engines_saved.add(exec_jobs.size() - groups.size());

  if (!errors.empty()) {
    std::sort(errors.begin(), errors.end(),
              [](const CellError& a, const CellError& b) {
                return a.cell < b.cell;
              });
    const SweepRow row = plan.cell_row(errors.front().cell);
    std::string msg = "run_cells: cell " + std::to_string(errors.front().cell) +
                      " (" + row.topology + ", " + row.engine + ", " +
                      flow::pattern_spec(row.pattern) +
                      ") failed: " + errors.front().what;
    if (errors.size() > 1)
      msg += " (+" + std::to_string(errors.size() - 1) +
             " more failed cells; sibling cells of the group were still "
             "executed and stored)";
    // Keep the category of the first failure: an invalid pattern for the
    // topology (bad ranks, bad spec) is a configuration error and must
    // exit 2 from the CLI even though siblings were drained first.
    if (errors.front().invalid_argument) throw std::invalid_argument(msg);
    throw std::runtime_error(msg);
  }
  return rows;
}

std::string row_json(const SweepRow& row) {
  // The pattern key is the canonical spec minus the seed (which has its
  // own column): "alltoall:samples=4" and "alltoall:samples=8" must stay
  // distinct rows for any JSON consumer keying on identity fields.
  flow::TrafficSpec named = row.pattern;
  named.seed = flow::TrafficSpec{}.seed;
  JsonObject obj;
  obj.add("topology", row.topology)
      .add("label", row.label)
      .add("engine", row.engine)
      .add("pattern", flow::pattern_spec(named))
      .add("message_bytes", row.pattern.message_bytes)
      .add("seed", row.seed)
      .add("flows", row.result.flow_count)
      .add("mean_bps", row.result.rate_summary.mean)
      .add("min_bps", row.result.rate_summary.min)
      .add("p50_bps", row.result.rate_summary.median)
      .add("max_bps", row.result.rate_summary.max)
      .add("aggregate_fraction", row.result.aggregate_fraction)
      .add("completion_s", row.result.completion_s)
      .add("alpha_s", row.result.alpha_s)
      .add("fraction_of_peak", row.result.fraction_of_peak)
      .add("numerics_ok", row.result.numerics_ok);
  return obj.wrapped();
}

void write_json(const std::string& path, const std::vector<SweepRow>& rows) {
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const SweepRow& row : rows) rendered.push_back(row_json(row));
  write_json_rendered(path, rendered);
}

void write_json(std::ostream& out, const std::vector<SweepRow>& rows) {
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const SweepRow& row : rows) rendered.push_back(row_json(row));
  write_json_rendered(out, rendered);
}

void write_json_rendered(std::ostream& out,
                         const std::vector<std::string>& objects) {
  out << "[\n";
  for (std::size_t i = 0; i < objects.size(); ++i)
    out << objects[i] << (i + 1 < objects.size() ? ",\n" : "\n");
  out << "]\n";
}

void write_json_rendered(const std::string& path,
                         const std::vector<std::string>& objects) {
  if (path == "-") {
    write_json_rendered(std::cout, objects);
    std::cout.flush();
    return;
  }
  std::ofstream f(path);
  if (!f) throw std::runtime_error("write_json: cannot open " + path);
  write_json_rendered(f, objects);
}

}  // namespace hxmesh::engine
