// Sharded sweep runner: one grid, N shard processes, one merged table.
//
// run_sharded_sweep is the whole `hxmesh sweep --shards N` pipeline except
// argument parsing and row output. It writes the canonical grid handoff
// file into the cache's shard metadata directory, dispatches the N
// cost-balanced shards (GridPlan::shard_cells) heaviest-first over local
// `hxmesh shard` children and optional `hxmesh serve` hosts through
// run_shard_jobs_distributed, reports every shard and host outcome,
// verifies the coverage manifests, and merges through the cache.
//
// run_shard_child is the one place that spawns a shard child: the local
// worker slots of a sweep and the fabric daemon's leased jobs both run
// through it, so the child's argv, its file layout, and the mapping of
// its fate onto ShardOutcome exist once.
#pragma once

/// \file
/// \brief Sharded sweep runner: the shard-child launcher and the
/// orchestrator behind `hxmesh sweep --shards`.

#include <iosfwd>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "engine/grid_plan.hpp"
#include "engine/result_cache.hpp"
#include "engine/shard.hpp"

namespace hxmesh::engine {

/// \brief One attempt of one shard, run as a child process.
struct ShardChildJob {
  std::string cache_dir;    ///< shared store; holds the grid handoff file
  std::string fingerprint;  ///< GridPlan fingerprint naming that file
  unsigned shards = 1;      ///< partition size
  unsigned shard = 0;       ///< which block of the partition
  int attempt = 1;          ///< forwarded so chaos schedules line up
  int threads = 0;          ///< the child's --threads (0 = its default)
  double timeout_s = 0.0;   ///< watchdog deadline (0 = none)
};

/// \brief Runs `job` as a watched `hxmesh shard` child of this executable.
///
/// The child reads the grid from ResultCache::shard_grid_path, which the
/// caller has written, and writes its manifest to
/// ResultCache::shard_manifest_path (a stale manifest is removed first,
/// so it can never stand in for this attempt). The child's fate maps one
/// to one onto ShardOutcome; a failure's error text ends with the child's
/// last stderr line, where its "hxmesh: <what>" message lands.
ShardAttempt run_shard_child(const ShardChildJob& job);

/// \brief Knobs of a sharded sweep (the `hxmesh sweep --shards` flags).
struct ShardedSweepOptions {
  unsigned shards = 0;   ///< cost-balanced blocks (>= 1 to run)
  /// Local process slots; 0 = hardware threads. Never more than shards.
  unsigned workers = 0;
  /// Each child's --threads and the merge's pool width; 0 = the hardware
  /// split across the local workers for children, hardware for the merge.
  int threads = 0;
  unsigned retries = 1;           ///< extra attempts per failed shard
  double retry_backoff_s = 0.25;  ///< base of the seeded retry backoff
  double shard_timeout_s = 0.0;   ///< per-attempt watchdog (0 = off)
  bool progress = false;          ///< report each attempt as it resolves
  std::vector<HostSpec> hosts;    ///< `hxmesh serve` daemons (extra slots)
  /// Bound on one remote exchange; 0 = shard_timeout_s + 6 s, else 30 s.
  double lease_timeout_s = 0.0;
  unsigned blacklist_after = 0;  ///< 0 = HostPolicy's default
  ChaosSpec net_chaos;           ///< drop/delay faults in the dispatcher
};

/// \brief Runs `grids` as a sharded sweep over `cache` and returns the
/// merged rows, byte-identical to a single-process run of `grids`.
///
/// Writes the per-shard retry and failure reports, the per-host and wire
/// reports (with hosts), optional progress lines, and the closing
/// "shards: N ok" summary to `err`.
/// \throws std::runtime_error when a shard fails after its retries or the
///         manifests do not cover the plan exactly.
std::vector<SweepRow> run_sharded_sweep(const std::vector<GridSpec>& grids,
                                        const ShardedSweepOptions& opt,
                                        ResultCache& cache, std::ostream& err);

}  // namespace hxmesh::engine
