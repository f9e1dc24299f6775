// Communication environment for DNN jobs mapped onto a topology (§V-B).
//
// A (D, P, O) job occupies ranks [0, D*P*O) in O-innermost order. The
// communication of each parallelism dimension is a set of rings:
//   O: consecutive groups of O ranks (one ring per group),
//   P: stride-O rings, one per O-offset (pipelines reuse ring links),
//   D: stride-(P*O) rings.
// For each dimension we measure the sustained per-flow rate of ALL its
// rings running concurrently with the flow solver — this captures rail
// and NIC contention exactly (e.g. pipeline traffic of all stage
// boundaries sharing one HammingMesh row tree).
//
// All topologies are simulated as in the paper with 4 planes' worth of
// injection (4 x 400 Gb/s): HammingMesh/torus expose 4 ports in the one
// simulated plane; fat tree / Dragonfly get a x4 plane factor.
#pragma once

#include <vector>

#include "collectives/models.hpp"
#include "flow/flow_sim.hpp"
#include "topo/topology.hpp"

namespace hxmesh::workload {

/// Measured parameters of one dimension's mapped rings.
struct MappedRing {
  int p = 0;            // ranks per ring
  double alpha_s = 0;   // per-step latency (hops x per-hop + packet ser.)
  double rate_bps = 0;  // min sustained per-flow rate, one plane
};

class CommEnv {
 public:
  /// Solves under `config` and the path rule (flow::scaled_config).
  explicit CommEnv(const topo::Topology& topology,
                   flow::FlowSolverConfig config = {});

  const topo::Topology& topology() const { return solver_.topology(); }

  /// Rings over consecutive groups: {0..g-1}, {g..2g-1}, ... within [0, n).
  MappedRing rings_consecutive(int n, int group_size) const;

  /// Stride rings: for each offset o in [0, stride): {o, o+stride, ...}.
  MappedRing rings_strided(int n, int stride) const;

  /// Alltoall among ranks [0, n): per-flow rates over 8 sampled shifts
  /// (one plane) and the per-round latency.
  collectives::MeasuredAlltoall alltoall(int n) const;

  /// Identical planes carrying the collective (4 for one-port topologies).
  int plane_factor() const { return plane_factor_; }

  /// Bidirectional-ring allreduce time: S bytes reduced over the ring,
  /// split over both directions and all planes.
  double t_allreduce(const MappedRing& ring, double s_bytes) const;

  /// Neighbor (pipeline) transfer of S bytes at the measured ring rate.
  double t_p2p(const MappedRing& ring, double s_bytes) const;

  /// Alltoall of `per_pair_bytes` to each of p-1 peers.
  double t_alltoall(int p, double per_pair_bytes) const;

 private:
  MappedRing measure(const std::vector<std::vector<int>>& rings) const;

  flow::FlowSolver solver_;
  int plane_factor_ = 1;
};

}  // namespace hxmesh::workload
