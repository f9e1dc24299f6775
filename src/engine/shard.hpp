// Sharded grid execution: split one GridPlan across N worker processes.
//
// A shard is a contiguous, cost-balanced block of the plan's cell index
// space (GridPlan::shard_cells). Each worker executes its block with
// ExperimentHarness::run_cells, which stores every computed cell into the
// shared content-addressed ResultCache, and then writes a small JSON
// manifest naming the cells it covered. The cache is the handoff:
// merging is just re-reading the full plan through the cache (every cell
// hits), so a merged sharded run renders byte-identical rows to a
// single-process run. The manifest layer
// exists to make coverage checkable — a merge refuses to proceed unless
// the manifests prove that every cell of this exact grid (by fingerprint)
// was covered exactly once.
//
// The sweep runner (engine/sharded_sweep.hpp) runs each block as a
// watched `hxmesh shard` child of this executable; a failed child fails
// the sweep, and re-running it recomputes only what the cache lacks.
#pragma once

/// \file
/// \brief Sharded grid execution: shard manifests, single-shard
/// execution and merge verification.

#include <cstdint>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "engine/grid_plan.hpp"
#include "engine/harness.hpp"

namespace hxmesh::engine {

/// \brief What one shard covered: the cell range, its cache keys, the
/// session hit/computed split, and the counters its run bumped.
/// Serialized as one JSON file per shard.
struct ShardManifest {
  /// Manifest format version; bump when fields change meaning.
  /// v2: carries `counters`.
  static constexpr int kSchemaVersion = 2;

  std::string fingerprint;        ///< GridPlan::fingerprint of the grid
  unsigned shard = 0;             ///< this shard's index, in [0, shards)
  unsigned shards = 1;            ///< total shard count of the partition
  std::uint64_t cell_lo = 0;      ///< first covered cell (inclusive)
  std::uint64_t cell_hi = 0;      ///< one past the last covered cell
  std::uint64_t hits = 0;         ///< cells served from the cache
  std::uint64_t computed = 0;     ///< cells simulated and stored
  std::vector<std::string> keys;  ///< cache key of every covered cell
  /// Registry delta (core/counters.hpp) across the shard's run; the
  /// orchestrator folds it into its own registry.
  counters::Map counters;
};

/// \brief Renders a manifest as its canonical JSON document.
std::string render_manifest(const ShardManifest& manifest);

/// \brief Parses a manifest document.
/// \throws std::invalid_argument on malformed input or a schema mismatch.
ShardManifest parse_manifest(const std::string& text);

/// \brief Executes shard `shard` of `shards` of `plan`: makes sure every
/// cell of the shard's block (GridPlan::shard_cells) has a sound entry in
/// `cache` — running the block through `harness`, which loads every
/// stored cell and computes and stores the rest — and returns the manifest
/// describing the coverage, with hits and computed cells taken from the
/// cache's counters and `counters` from the registry delta across the
/// run (other threads of this process bumping meanwhile land in it too).
ShardManifest run_shard(ExperimentHarness& harness, const GridPlan& plan,
                        unsigned shard, unsigned shards, ResultCache& cache);

/// \brief Checks that `manifests` together cover `plan` exactly.
///
/// Verifies shard count consistency, the presence of every shard index
/// exactly once, matching fingerprints, that the manifests' cell ranges —
/// ordered by shard index — form one exact contiguous cover of
/// `[0, total_cells())`, and that each manifest's keys equal the plan's
/// keys for its range. Any partition with those properties merges, not
/// only GridPlan::shard_cells. Returns an empty string when the merge is
/// sound, else a human-readable reason.
std::string merge_error(const GridPlan& plan,
                        const std::vector<ShardManifest>& manifests);

}  // namespace hxmesh::engine
