// Sharded sweep runner: one grid, N shard processes, one merged table.
//
// run_sharded_sweep is the whole `hxmesh sweep --shards N` pipeline except
// argument parsing and row output. It writes the canonical grid handoff
// file into the cache's shard metadata directory, runs every non-empty
// cost-balanced block (GridPlan::shard_cells) heaviest-first as a watched
// `hxmesh shard` child, reports each shard as it resolves, verifies the
// coverage manifests, and merges through the cache. A failed shard fails
// the sweep; every cell the other shards finished is already stored, so
// re-running the sweep recomputes only what is missing.
#pragma once

/// \file
/// \brief Sharded sweep runner: the orchestrator behind
/// `hxmesh sweep --shards`.

#include <iosfwd>
#include <vector>

#include "engine/grid_plan.hpp"
#include "engine/result_cache.hpp"

namespace hxmesh::engine {

/// \brief Knobs of a sharded sweep (the `hxmesh sweep --shards` flags).
struct ShardedSweepOptions {
  unsigned shards = 0;   ///< cost-balanced blocks (>= 1 to run)
  /// Child process slots; 0 = hardware threads. Never more than shards.
  unsigned workers = 0;
  /// Each child's --threads and the merge's pool width; 0 = the hardware
  /// split across the workers for children, hardware for the merge.
  int threads = 0;
  double shard_timeout_s = 0.0;  ///< per-child watchdog (0 = off)
};

/// \brief Runs `grids` as a sharded sweep over `cache` and returns the
/// merged rows, byte-identical to a single-process run of `grids`.
///
/// Writes one "shard I: ok" (or "shard I: <status>: <error>") line per
/// launched shard as it resolves, and the closing "shards: N ok" summary,
/// to `err`.
/// \throws std::runtime_error when any shard fails or the manifests do
///         not cover the plan exactly.
std::vector<SweepRow> run_sharded_sweep(const std::vector<GridSpec>& grids,
                                        const ShardedSweepOptions& opt,
                                        ResultCache& cache, std::ostream& err);

}  // namespace hxmesh::engine
