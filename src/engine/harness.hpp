// ExperimentHarness: declarative sweeps over topology x engine x pattern
// x seed, fanned across a thread pool.
//
// Every bench used to hand-roll the same three nested loops and printf
// plumbing; the harness replaces them with one grid description. Results
// are deterministic by construction — each grid cell is an independent job
// whose output lands at a precomputed index (see GridPlan), so a 4-thread
// run produces exactly the rows of a 1-thread run (only wall-clock
// changes). This is what makes the lazily-filled Topology::dist_field
// cache's thread safety load-bearing: all jobs of one topology share a
// single instance.
#pragma once

/// \file
/// \brief ExperimentHarness — deterministic parallel execution of sweep
/// grids, with content-addressed caching and sharded-range execution.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "engine/factory.hpp"
#include "engine/grid_plan.hpp"
#include "engine/result_cache.hpp"

namespace hxmesh::engine {

/// \brief Runs sweep grids over a fixed-width thread pool.
///
/// One harness owns one ThreadPool; construct it once and reuse it for
/// every grid of a program. All run methods are deterministic: row order
/// and row content are independent of the thread count.
class ExperimentHarness {
 public:
  /// \brief `threads <= 0` uses `$HXMESH_THREADS`, else the hardware
  /// concurrency.
  explicit ExperimentHarness(int threads = 0) : pool_(threads) {}

  /// \brief Runs one full grid; rows are ordered topology-major, then
  /// engine, pattern, seed — identical for any thread count.
  ///
  /// Topologies are built once and shared by all their jobs; every job
  /// gets a fresh engine. `labels`, when non-empty, must parallel
  /// `topologies` and sets the display label of each row (e.g. Table II
  /// row names); a size mismatch throws std::invalid_argument naming both
  /// sizes.
  ///
  /// With a `cache`, every cell's key is probed first and only misses are
  /// simulated (then stored); a topology whose cells all hit is never even
  /// built. Rows are byte-identical to an uncached run regardless of which
  /// cells hit — only wall-clock changes. Hit/miss counts land on `cache`.
  std::vector<SweepRow> run_grid(const SweepConfig& config,
                                 const std::vector<std::string>& labels = {},
                                 ResultCache* cache = nullptr);

  /// \brief Runs several grids as one sweep; rows are the concatenation of
  /// each grid's rows in order (the multi-grid CLI config format). All
  /// grids' cells share the pool — and the cache — at once.
  std::vector<SweepRow> run_grids(const std::vector<GridSpec>& grids,
                                  ResultCache* cache = nullptr);

  /// \brief Executes the contiguous cell range `[lo, hi)` of `plan` and
  /// returns its rows in plan order.
  ///
  /// This is the primitive under run_grid, run_grids, and the sharded
  /// backend's run_shard: probe the cache for every cell in the range,
  /// build only the topologies that still have misses, simulate the
  /// misses, and store them back. Rows depend only on the plan and the
  /// range, never on the thread count or on which cells hit.
  ///
  /// Execution is batched: cells are grouped by (topology spec, engine)
  /// — across grids — and each group runs against one shared built
  /// topology and one engine instance, so graph builds, oracle fills,
  /// dist fields, route tables, and per-engine setup (measured rings)
  /// happen once per group instead of once per cell. The cache probe
  /// stays per-cell, and rows are byte-identical to unbatched execution.
  ///
  /// A failing cell (engine->run or cache store throwing) does not abort
  /// the sibling cells of its topology group: every other cell of the
  /// range still executes (and is stored), then the first failure in plan
  /// order is rethrown naming the cell — as std::invalid_argument when
  /// that failure was one (a pattern invalid for the topology is a
  /// configuration error and keeps CLI exit code 2), else as
  /// std::runtime_error. Topology and engine construction errors (bad
  /// specs, unknown engines) propagate immediately with their original
  /// type.
  std::vector<SweepRow> run_cells(const GridPlan& plan, std::size_t lo,
                                  std::size_t hi, ResultCache* cache);

  /// \brief Deterministic parallel map for experiments that are not
  /// topology sweeps (allocator studies, custom jobs): runs fn(0..n-1)
  /// across the pool and returns results in index order.
  template <typename R>
  std::vector<R> map(std::size_t n, const std::function<R(std::size_t)>& fn) {
    std::vector<R> out(n);
    pool_.parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// \brief The underlying pool (benches reuse it for custom phases).
  ThreadPool& pool() { return pool_; }

  /// \brief engine::make_engine at this harness's width: a flow engine's
  /// solver pool gets pool().size() threads, so `--threads N` bounds
  /// every pool of a sweep. run_cells builds its engines here.
  std::unique_ptr<SimEngine> make_engine(const std::string& name,
                                         const topo::Topology& topology) {
    return engine::make_engine(name, topology, pool_.size());
  }

 private:
  ThreadPool pool_;
};

/// \brief One flat JSON object per row (stable key order, fixed float
/// format). The "pattern" key is the canonical pattern spec with the seed
/// omitted (the row's "seed" key carries it), so distinct cells never
/// collide.
std::string row_json(const SweepRow& row);

/// \brief Writes rows as a JSON array to `path` ("-" for stdout). The
/// bench convention is `BENCH_*.json` next to the binary's working
/// directory.
void write_json(const std::string& path, const std::vector<SweepRow>& rows);

/// \brief Same array layout onto a stream (the CLI's stdout path) — one
/// source of truth for the framing, so file and stream output stay
/// identical.
void write_json(std::ostream& out, const std::vector<SweepRow>& rows);

/// \brief Same, for pre-rendered JSON objects (benches with custom
/// metrics).
void write_json_rendered(const std::string& path,
                         const std::vector<std::string>& objects);
void write_json_rendered(std::ostream& out,
                         const std::vector<std::string>& objects);

}  // namespace hxmesh::engine
