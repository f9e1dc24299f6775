// Content-addressed cache of harness RunResults.
//
// A grid cell's identity is the FNV-1a hash of (topology spec, engine name,
// canonical TrafficSpec string, seed, schema version); its RunResult — the
// flow count, the ten-field rate summary and the scalar metrics, a few
// hundred bytes whatever the cell's size — is stored as one JSON file
// `.hxmesh-cache/<hex>.json`. Re-running a sweep only simulates cells
// whose key is new — a code change that alters result semantics must bump
// kSchemaVersion, which moves every cell to a new key at once. Entries
// store doubles with %.17g so a reloaded result re-renders the
// byte-identical harness JSON row of the original run.
//
// The cache is a pure memo: a hit never writes to the store, and nothing
// evicts entries. `hxmesh cache clear` is the one way to reclaim space.
//
// Concurrency: load()/store() are called from harness worker threads, one
// cell per call. Distinct cells never share a file and writes are atomic
// (temp + rename), so no file-level locking is needed; the hit/miss
// counters are atomics.
#pragma once

/// \file
/// \brief ResultCache — content-addressed, on-disk memoization of
/// RunResults. The shared store doubles as the handoff between a sharded
/// sweep's children and its merge.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "engine/engine.hpp"

namespace hxmesh::engine {

class ResultCache {
 public:
  /// Bump when RunResult semantics or the entry format change.
  /// v2: FlowSolver path sampling switched to per-flow RNG substreams
  /// (PR 5), changing every flow-engine result.
  /// v3: entries carry an FNV-1a content checksum; load() verifies it and
  /// quarantines corrupt blobs instead of silently recomputing over them.
  /// v4: FlowSolver fills to convergence (no 400-round cap), raising the
  /// flow rates of solves the cap used to truncate.
  /// v5: entries store `flow_count` in place of the per-flow rate array.
  /// v6: HammingMesh Valiant legs keep stratum bit 1.
  /// v7: one path sampler for every family: Dragonfly `minimal` strata
  /// stay minimal, fat-tree and HyperX Valiant legs take strata s and
  /// s ^ 1, and a three-level fat tree's core digit moves with the stratum.
  static constexpr int kSchemaVersion = 7;

  static constexpr const char* kDefaultDir = ".hxmesh-cache";

  /// Subdirectory of `dir()` holding sharded-sweep metadata (canonical
  /// grid handoff files and per-shard coverage manifests). Lives inside
  /// the cache so clear() reclaims it alongside the entries.
  static constexpr const char* kShardMetaSubdir = "shards";

  /// Subdirectory of `dir()` where corrupt entries are moved. Corruption
  /// is evidence of a storage or concurrency bug, so the blob is kept for
  /// inspection (and counted) rather than deleted or overwritten in
  /// place; the recompute heals the live entry as usual.
  static constexpr const char* kQuarantineSubdir = "quarantine";

  explicit ResultCache(std::string dir = kDefaultDir) : dir_(std::move(dir)) {}

  /// The bench-wide convention: a cache in $HXMESH_CACHE_DIR when that
  /// names a directory, nullptr (run uncached) otherwise. Benches and
  /// examples share this so the convention lives in one place.
  static std::unique_ptr<ResultCache> from_env();

  const std::string& dir() const { return dir_; }

  /// Where sharded sweeps park their metadata for this store.
  std::string shard_meta_dir() const {
    return dir_ + "/" + kShardMetaSubdir;
  }
  /// The canonical grid handoff file of the grid named `fingerprint`.
  std::string shard_grid_path(const std::string& fingerprint) const {
    return shard_meta_dir() + "/" + fingerprint + ".grid.json";
  }
  /// The coverage manifest of shard `shard` of `shards` of that grid.
  std::string shard_manifest_path(const std::string& fingerprint,
                                  unsigned shard, unsigned shards) const {
    return shard_meta_dir() + "/" + fingerprint + "." +
           std::to_string(shard) + "-of-" + std::to_string(shards) + ".json";
  }

  /// Where corrupt entries are moved for inspection.
  std::string quarantine_dir() const {
    return dir_ + "/" + kQuarantineSubdir;
  }

  /// Hex content hash identifying one grid cell. The pattern is
  /// canonicalized via flow::pattern_spec with `seed` applied, so two
  /// TrafficSpecs that parse equal always share a key.
  static std::string cell_key(const std::string& topology_spec,
                              const std::string& engine_name,
                              const flow::TrafficSpec& pattern,
                              std::uint64_t seed);

  /// Cached result for `key`, or nullopt on miss. A hit is an entry that
  /// is present, checksum-valid and parseable. The key carries the schema
  /// version, so any other file present under it is *corrupt*: it is
  /// moved to quarantine_dir() before the miss is reported, so the
  /// evidence survives the recompute. A hit writes nothing. Counts into
  /// hits(), misses() and quarantined().
  std::optional<RunResult> load(const std::string& key);

  /// Writes `result` under `key` (atomic; overwrites), including the
  /// entry's FNV-1a content checksum.
  void store(const std::string& key, const RunResult& result) const;

  /// Raw entry text for `key` (exactly the bytes store() wrote), or
  /// nullopt when absent. No counters move.
  std::optional<std::string> read_blob(const std::string& key) const;

  // -- session counters (since construction) ------------------------------
  std::size_t hits() const { return hits_.load(); }
  std::size_t misses() const { return misses_.load(); }
  /// Corrupt entries this instance moved to quarantine (the process-wide
  /// `cache.quarantined` counter sums every instance).
  std::size_t quarantined() const { return quarantined_.load(); }

  // -- maintenance (the CLI's `cache` subcommand) -------------------------
  struct Stats {
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
    std::size_t quarantined = 0;  ///< blobs sitting in quarantine_dir()
  };
  /// Counts entry files and their total size on disk.
  Stats stats() const;

  /// Deletes all entries (plus the sharded-sweep metadata under
  /// shard_meta_dir() and the quarantined blobs under quarantine_dir());
  /// returns how many entries were removed.
  std::size_t clear() const;

 private:
  std::string entry_path(const std::string& key) const {
    return dir_ + "/" + key + ".json";
  }

  /// Moves a corrupt entry into quarantine_dir() and counts it.
  void quarantine_entry(const std::string& key);

  std::string dir_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> quarantined_{0};
};

}  // namespace hxmesh::engine
