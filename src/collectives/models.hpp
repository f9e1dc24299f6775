// Flow-level collective measurements and the alpha-beta time models of
// Section V-A2 they parameterize. Everything here sits on src/flow: the
// FlowEngine, CommEnv and the benches read their collective rates from
// these functions, never from their own solve loops.
//
// The workflow mirrors the paper: map the algorithm's rings onto the
// topology, measure (a) the per-step latency alpha from the hop distances
// of the mapping and (b) the sustained per-flow link rate under the
// concurrent steady-state traffic, then evaluate the closed forms
//   rings:     T = 2*p*alpha + 2*S / (directions * rate)
//   2D torus:  T = 4*sqrt(p)*alpha + S*beta*(1 + 2*sqrt(p)) / (4*sqrt(p))
// where `directions` counts ring directions across all simulated planes
// (fat tree / Dragonfly: one bidirectional ring on each of 4 planes = 8;
// HammingMesh / torus: two bidirectional rings on one plane = 4).
#pragma once

#include <vector>

#include "core/stats.hpp"
#include "flow/flow_sim.hpp"
#include "topo/topology.hpp"

namespace hxmesh::collectives {

/// Per-hop pipeline latency: cable + buffer + one packet serialization.
double per_hop_seconds();

/// Ranks of a 2D accelerator array, grid[gy][gx] (HammingMesh and torus);
/// empty for machines without one.
std::vector<std::vector<int>> rank_grid(const topo::Topology& topology);

/// How the ring algorithm is laid onto a machine.
struct RingMapping {
  std::vector<std::vector<int>> rings;  // cyclic rank orders (each used
                                        // bidirectionally)
  int planes_simulated = 1;  // identical planes sharing the data
};

/// Ring layout used by the paper: two edge-disjoint Hamiltonian cycles on
/// HammingMesh/torus accelerator grids (snake fallback when the Bae
/// construction does not apply), a leaf-packed rank-order ring on fat tree
/// and Dragonfly (over 4 planes).
RingMapping build_ring_mapping(const topo::Topology& topology);

/// Max-min rates of rings running concurrently, each in both directions.
struct RingRates {
  double min_rate_bps = 0.0;  // slowest flow [bytes/s]; 0 for no flows
  bool converged = true;      // the max-min filling converged
};

RingRates solve_rings(const flow::FlowSolver& solver,
                      const std::vector<std::vector<int>>& rings);

/// Flow-solver-measured parameters of a ring mapping.
struct MeasuredRing {
  int p = 0;                  // ranks
  double alpha_s = 0.0;       // per-step pipeline latency [s]
  double rate_bps = 0.0;      // min sustained per-flow rate [bytes/s]
  int directions_total = 0;   // ring directions x planes
  double injection_bps = 0.0; // per-accelerator injection over simulated
                              // planes [bytes/s]
  bool converged = true;      // the ring's max-min filling converged
};

/// Solves the mapping under `config` and the path rule (scaled_config).
MeasuredRing measure_ring(const topo::Topology& topology,
                          flow::FlowSolverConfig config = {});

/// The balanced alltoall among ranks [0, n): n-1 shift rounds, measured
/// over `samples` of them.
struct MeasuredAlltoall {
  Summary rates;         // per-flow rates over the sampled shifts [bytes/s]
  double alpha_s = 0.0;  // per-round latency from far-peer hops [s]
  bool converged = true; // every sampled shift's filling converged
};

/// Solves the shifts 1, 1 + stride, ... below n at stride (n-1)/samples,
/// each on its own, and takes alpha from about 64 far-peer hop distances
/// (rank i to rank i + n/2 + 1).
MeasuredAlltoall measure_alltoall(const flow::FlowSolver& solver, int n,
                                  int samples, topo::RouteMode route);

/// Completion time of the rings allreduce for S total bytes per rank.
double t_allreduce_rings(const MeasuredRing& ring, double s_bytes);

/// Completion time of the 2D-torus allreduce algorithm for S bytes.
double t_allreduce_torus2d(const MeasuredRing& ring, double s_bytes);

/// Achieved allreduce bandwidth S/T as a fraction of the theoretical
/// optimum (injection bandwidth / 2), as reported in Table II and
/// Figures 13/17.
double allreduce_fraction_of_peak(const MeasuredRing& ring, double s_bytes,
                                  bool torus_algorithm = false);

}  // namespace hxmesh::collectives
