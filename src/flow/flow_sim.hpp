// Flow-level steady-state network simulator.
//
// Computes max-min fair bandwidth shares for a set of flows with infinite
// demand. Each flow is spread over `paths_per_flow` randomly sampled paths
// (strata; approximating the packet-level adaptive routing the paper
// assumes); water-filling then raises all subflow rates together,
// freezing subflows as links saturate.
//
// Subflow runs. Consecutive strata of one flow that draw the same path —
// most strata of a ring flow between neighbouring accelerators, which has
// one minimal path — are stored as one subflow with a multiplicity w.
// The w strata would always freeze together at the same level, so the
// run stands in for them exactly: every link count is weighted, a
// crossing takes the level off a residual w times by repeated
// subtraction (never w * level), and a flow adds its run's rate w times
// in stratum order. Only consecutive strata merge, so every
// floating-point operation, and with it every rate bit, is the one the
// unmerged strata would have made. A flow whose pair has one path
// (Topology::one_path: minimal routing on a healthy fabric, and the family
// says the pair has exactly one minimal path) draws stratum 0 alone and
// stores the run of weight paths_per_flow that its strata would have
// collapsed into.
//
// The filling is event-driven: links wait in a queue keyed by the fill
// level at which they saturate, re-keyed lazily as their crossers freeze,
// and a batch of saturating links freezes exactly their crossers through a
// link->subflows index, in two passes — collect and rate the newly frozen
// subflows, then settle their paths with the paths prefetched ahead. The
// solve runs until every subflow froze — there is no round cap — so the
// rates are the converged max-min fair allocation; solve() returns false
// if any subflow is left unfrozen (tests/test_determinism.cpp
// cross-checks the rates against the classic full-rescan filling and pins
// them bit for bit, tests/test_flow.cpp certifies them).
//
// Path sampling draws each flow's paths from its own counter-seeded RNG
// substream (Rng::substream(seed, flow index)), which makes flows
// independent. For large flow sets the whole index build runs in parallel
// over one thread pool per solve: sampling, the flat path layout, the
// link->subflows index (a counting sort over contiguous subflow blocks),
// the first level's batch (a collective ring freezes everything there)
// and the sort of the initial queue keys (sort_level_keys, a stable radix
// sort per link range, then a pairwise merge). Each of these phases
// computes the same bits for any block count, so the rates are
// bit-identical for every worker count, including one. The event loop
// after them is serial, with a deterministic event order: its batches are
// a few dozen links.
//
// Each solve adds to the `flow.solves`, `flow.strata` (the strata its
// flows stand for), `flow.draws` (the strata actually sampled) and
// `flow.subflows` (stored runs) counters, and a solve that did not
// converge to `flow.unconverged`.
//
// This reproduces the steady-state bandwidth numbers of Table II and
// Figures 11-13/17 for large messages; the packet-level simulator
// (src/sim) cross-validates it at small scale.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "topo/topology.hpp"

namespace hxmesh::flow {

/// One flow between two accelerators. `rate` is filled in by solve().
struct Flow {
  int src = 0;
  int dst = 0;
  double rate = 0.0;  // bytes/s, output of the solver
};

struct FlowSolverConfig {
  int paths_per_flow = 8;
  std::uint64_t seed = 0x5eed;
  // Worker threads for every phase of solve() before the event loop
  // (sampling and the index build): 0 uses $HXMESH_THREADS (else the
  // hardware concurrency), 1 forces a serial solve. Never changes the
  // computed rates — only wall-clock. The harness passes its own width.
  int threads = 0;
  // Path selection mode handed to sample_path_stratified: minimal
  // (shortest paths only, on every family), Valiant (every subflow detours
  // through a random intermediate endpoint), or UGAL's flow-level stand-in
  // (odd strata detour, even strata stay minimal).
  topo::RouteMode route = topo::RouteMode::kMinimal;
};

/// The path rule every flow-level measurement solves under: a config that
/// keeps the default paths_per_flow gets 16 paths beyond 4,096 endpoints,
/// where the stratified subflows must cover wider rail-tree diversity.
/// An explicit path count is kept.
FlowSolverConfig scaled_config(const topo::Topology& topology,
                               FlowSolverConfig config);

/// One queued link of the solver: the fill level at which it saturates.
/// Keys order by (level, link), so the pop order is total. The operators
/// are written out: with a defaulted <=> (a partial ordering, over a
/// double) the solver's event loop ran about 15% slower.
struct LevelKey {
  double level;
  std::uint32_t link;
  friend bool operator<(const LevelKey& a, const LevelKey& b) {
    return a.level < b.level || (a.level == b.level && a.link < b.link);
  }
  friend bool operator>(const LevelKey& a, const LevelKey& b) { return b < a; }
};

/// Sorts `keys` into (level, link) order. The solver builds its initial
/// keys in non-decreasing link order with positive levels (asserted), so a
/// stable LSD radix sort on the level's bit pattern (positive doubles
/// order like their bits) gives exactly that order.
void sort_level_keys(std::vector<LevelKey>& keys);

class FlowSolver {
 public:
  explicit FlowSolver(const topo::Topology& topology,
                      FlowSolverConfig config = {});

  /// Computes max-min fair rates for all flows (bytes/s, written into
  /// flows[i].rate). Flows with src == dst get rate 0 and are ignored.
  /// Returns whether the filling converged: false if some subflow was
  /// still unfrozen when the event loop ended (such a subflow's rate is
  /// the fill level reached, a lower bound).
  bool solve(std::vector<Flow>& flows) const {
    return solve(flows, config_.route);
  }
  /// Same, with the routing mode overridden per call (engines route one
  /// solver instance under every TrafficSpec of a sweep).
  bool solve(std::vector<Flow>& flows, topo::RouteMode route) const;

  const topo::Topology& topology() const { return topology_; }
  const FlowSolverConfig& config() const { return config_; }

 private:
  const topo::Topology& topology_;
  FlowSolverConfig config_;
};

}  // namespace hxmesh::flow
