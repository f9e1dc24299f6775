// GridPlan: the deterministic cell enumeration behind every sweep.
//
// A sweep is one or more grids (each the cross product of topology x
// engine x pattern x seed); the plan flattens them into a single global
// cell index space with a fixed order — grid-major, then topology, engine,
// pattern, seed. Everything downstream keys off this order: the harness
// lands each result at its precomputed index, the result cache addresses
// cells by identity, and the sharded backend partitions the index space
// into contiguous cost-balanced blocks so N shard processes cover every
// cell exactly once and a merge re-reads them in the original order.
#pragma once

/// \file
/// \brief GridPlan — the canonical cell numbering of a (multi-)grid
/// sweep: identity rows, cache keys, job ranges, shard partition, and the
/// grid fingerprint.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "flow/patterns.hpp"

namespace hxmesh::engine {

/// \brief One sweep grid: the cross product of all four axes.
///
/// Patterns carry their own message sizes; put one TrafficSpec per
/// (pattern, size) point.
struct SweepConfig {
  std::vector<std::string> topologies;          ///< factory spec strings
  std::vector<std::string> engines = {"flow"};  ///< engine names
  std::vector<flow::TrafficSpec> patterns;      ///< scenario descriptors
  /// Non-empty: a seed axis that overrides every pattern's own seed (one
  /// row per seed). Empty: no seed axis — each pattern runs once with the
  /// seed embedded in it (`perm:seed=9`), which is how the CLI honors
  /// `seed=` in spec strings when no `--seed` flag is given.
  std::vector<std::uint64_t> seeds = {1};
};

/// \brief One grid plus its optional display labels.
///
/// `labels`, when non-empty, must parallel `config.topologies` and sets
/// the display label of each row (e.g. Table II row names); empty falls
/// back to the topology spec string.
struct GridSpec {
  SweepConfig config;              ///< the four axes
  std::vector<std::string> labels; ///< per-topology display labels
};

/// \brief One grid cell's outcome (identity axes plus the RunResult).
struct SweepRow {
  std::string topology;      ///< factory spec string
  std::string label;         ///< display label (defaults to the spec)
  std::string engine;        ///< engine name
  flow::TrafficSpec pattern; ///< with the row's seed applied
  std::uint64_t seed = 1;    ///< effective seed of this cell
  RunResult result;          ///< filled by the executing engine (or cache)
};

/// \brief Deterministic enumeration of every cell of a multi-grid sweep.
///
/// The plan is pure bookkeeping — it never builds a topology or engine.
/// Cells are numbered `0..total_cells()-1` in the canonical order
/// (grid-major; within a grid `((ti*ne+ei)*np+pi)*ns+si`), and cells of
/// one (topology, engine) pair form one contiguous *job* — the unit that
/// shares an engine instance during execution. Identity rows, cache keys,
/// shard ranges, and the grid fingerprint are all derived from this one
/// numbering, which is what makes a sharded run mergeable byte-for-byte
/// into the single-process row order.
class GridPlan {
 public:
  /// \brief Builds the plan for `grids`, validating label counts.
  /// \throws std::invalid_argument when a grid's labels are non-empty and
  ///         do not parallel its topologies (message names both sizes).
  explicit GridPlan(std::vector<GridSpec> grids);

  /// \brief The grids this plan enumerates, in order.
  const std::vector<GridSpec>& grids() const { return grids_; }

  /// \brief Total number of cells across all grids.
  std::size_t total_cells() const { return total_cells_; }

  /// \brief Identity row of one cell (result left default-initialized).
  SweepRow cell_row(std::size_t cell) const;

  /// \brief Result-cache key of one cell (ResultCache::cell_key).
  std::string cell_key(std::size_t cell) const;

  /// \brief Stable hex hash of the whole grid description (axes, labels,
  /// cache schema version). Shard manifests embed it so a merge can reject
  /// manifests produced from a different grid.
  std::string fingerprint() const { return fingerprint_; }

  // -- jobs: contiguous cell ranges sharing one (topology, engine) -------

  /// \brief Number of (topology, engine) jobs across all grids.
  std::size_t num_jobs() const { return jobs_.size(); }
  /// \brief Half-open cell range `[first, last)` of job `j`.
  std::pair<std::size_t, std::size_t> job_range(std::size_t j) const {
    return {jobs_[j].first_cell, jobs_[j].last_cell};
  }
  /// \brief Topology spec string of job `j`.
  const std::string& job_topology(std::size_t j) const {
    return topo_specs_[jobs_[j].topo_slot];
  }
  /// \brief Engine name of job `j`.
  const std::string& job_engine(std::size_t j) const {
    return jobs_[j].engine;
  }
  /// \brief Topology slot of job `j`: jobs of one (grid, topology) share a
  /// slot, so execution builds each topology at most once.
  std::size_t job_topo_slot(std::size_t j) const {
    return jobs_[j].topo_slot;
  }
  /// \brief Number of distinct (grid, topology) slots.
  std::size_t num_topo_slots() const { return topo_specs_.size(); }
  /// \brief Spec string of topology slot `slot`.
  const std::string& topo_slot_spec(std::size_t slot) const {
    return topo_specs_[slot];
  }

  // -- topology batches: slots sharing one spec string -------------------

  /// \brief Number of distinct topology spec strings across all grids.
  /// Slots of one spec share a batch, so batched execution builds each
  /// topology — and amortizes its oracle fills, dist fields, and route
  /// tables — once per batch instead of once per (grid, topology) slot.
  std::size_t num_topo_batches() const { return batch_specs_.size(); }
  /// \brief Spec string of topology batch `batch`.
  const std::string& topo_batch_spec(std::size_t batch) const {
    return batch_specs_[batch];
  }
  /// \brief Batch of topology slot `slot` (batches are numbered in first-
  /// appearance order of their spec, so the mapping is deterministic).
  std::size_t slot_batch(std::size_t slot) const {
    return slot_batch_[slot];
  }
  /// \brief Topology batch of job `j`.
  std::size_t job_topo_batch(std::size_t j) const {
    return slot_batch_[jobs_[j].topo_slot];
  }

  // -- sharding: the cost-balanced partition ----------------------------

  /// \brief Estimated relative cost of one cell, in abstract units.
  ///
  /// Engine-aware: packet cells simulate every packet and cost orders of
  /// magnitude more than flow cells of the same size, so the model scales
  /// an endpoint-count estimate (parsed from the topology spec string
  /// without building anything) by a per-engine factor and a per-pattern
  /// factor. The estimate only drives partitioning and dispatch order —
  /// results never depend on it — so a rough model is fine; what matters
  /// is that a packet cell never looks as cheap as a flow cell.
  std::uint64_t cell_cost(std::size_t cell) const { return cell_costs_[cell]; }

  /// \brief Sum of cell_cost over all cells.
  std::uint64_t total_cost() const { return total_cost_; }

  /// \brief Half-open cell range `[lo, hi)` of shard `shard` of `shards`.
  ///
  /// Contiguous blocks of near-equal *cost*: each cell joins the block
  /// its cost midpoint falls in, so every block is within one cell of
  /// its fair share. Concatenating the ranges of shards `0..shards-1`
  /// reproduces
  /// `[0, total_cells())` exactly for any `shards >= 1` — including
  /// counts larger than the cell count (surplus shards are empty) — so a
  /// merged result is a plain concatenation. A block of packet cells
  /// holds fewer cells than a block of flow cells, which keeps one slow
  /// block from serializing a sweep's tail. Contiguity keeps
  /// topology-major locality inside each shard.
  /// \throws std::invalid_argument unless `shard < shards`.
  std::pair<std::size_t, std::size_t> shard_cells(unsigned shard,
                                                  unsigned shards) const;

  /// \brief Endpoint-count estimate parsed from a topology spec string
  /// (never builds the topology; unknown families fall back to a flat
  /// guess). Exposed for tests.
  static std::uint64_t estimate_endpoints(const std::string& spec);

 private:
  struct Grid {
    std::size_t first_cell = 0;  // global index of the grid's cell 0
    std::size_t nt = 0, ne = 0, np = 0, ns = 0;
    bool inherit_seeds = false;
  };
  struct Job {
    std::size_t first_cell = 0, last_cell = 0;
    std::size_t topo_slot = 0;
    std::string engine;
  };

  std::vector<GridSpec> grids_;
  std::vector<Grid> dims_;
  std::vector<Job> jobs_;
  std::vector<std::string> topo_specs_;
  std::vector<std::string> batch_specs_;   // distinct specs, first-seen order
  std::vector<std::size_t> slot_batch_;    // slot -> batch
  std::vector<std::uint64_t> cell_costs_;  // scheduling weights, per cell
  std::vector<std::uint64_t> cost_prefix_; // cost_prefix_[c] = sum of [0, c)
  std::uint64_t total_cost_ = 0;
  std::size_t total_cells_ = 0;
  std::string fingerprint_;
};

/// \brief Canonical "grids" config document for `grids` — what a sharded
/// sweep hands its shard workers as a file, so that parent and children
/// agree on the plan byte for byte.
std::string render_grids_json(const std::vector<GridSpec>& grids);

}  // namespace hxmesh::engine
