// Alpha-beta time models for the allreduce algorithms of Section V-A2,
// parameterized by measurements from the flow-level solver.
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

#include "flow/flow_sim.hpp"
#include "topo/topology.hpp"

namespace hxmesh::collectives {

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

MeasuredRing measure_ring(const topo::Topology& topology,
                          flow::FlowSolverConfig config = {});

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
