// Fat tree topology (nonblocking and tapered), Section III-D / Appendix C.
//
// Built from `radix`-port switches. Tapering applies at the first level:
// with taper ratio f (up:down bandwidth), each leaf has
// d = floor(radix/(1+f)) down ports and u = radix - d up ports, matching
// the paper's 32/32 (nonblocking), 42/22 (50% tapered) and 51/13 (75%
// tapered) splits for radix 64. Two levels are used while they suffice
// (N <= d * radix); larger machines use the canonical three-level pod
// construction (pods of radix/2 leaves).
#pragma once

#include <vector>

#include "topo/topology.hpp"

namespace hxmesh::topo {

struct FatTreeParams {
  int num_endpoints = 1024;
  int radix = 64;
  double taper = 1.0;  // up:down ratio at the leaves; 1.0 = nonblocking
  int planes = 16;     // accelerator has 16 ports; one NIC port per plane
};

class FatTree : public RoutedTopology<FatTree> {
 public:
  explicit FatTree(FatTreeParams params);

  std::string name() const override;
  int planes() const override { return params_.planes; }
  int ports_per_endpoint() const override { return 1; }
  int diameter_formula() const override { return levels_ == 2 ? 4 : 6; }

  // -- structure accessors (used by tests and the cost model) -------------
  const FatTreeParams& params() const { return params_; }
  int levels() const { return levels_; }
  int down_ports() const { return down_; }  // per leaf
  int up_ports() const { return up_; }      // per leaf
  int num_leaves() const { return static_cast<int>(leaves_.size()); }
  int num_spines() const { return static_cast<int>(spines_.size()); }
  /// Aggregation (level-2) switches; 0 for two-level trees.
  int num_aggregation() const { return static_cast<int>(l2_.size()); }
  int num_pods() const { return pods_; }
  int num_switches() const;
  /// Leaf switch index serving endpoint `rank`.
  int leaf_of(int rank) const { return rank / down_; }
  /// Pod of a leaf (3-level only; 0 otherwise).
  int pod_of_leaf(int leaf) const { return levels_ == 3 ? leaf / leaves_per_pod_ : 0; }

 private:
  friend class Topology;  // the sampler calls route() and stratum()
  class Oracle;  // closed-form routing oracle (defined in fattree.cpp)

  void build_two_level();
  void build_three_level();
  // Appends the minimal path src -> dst through spine `stratum mod
  // spines` (2 levels), or through pod L2 `u = stratum mod l2_per_pod` and
  // core `stratum / l2_per_pod mod l3_group_size` of group u (3 levels).
  void route(int src, int dst, int stratum, Rng& rng,
             std::vector<LinkId>& out) const;
  // Strided up-link choice: subflow k of a flow from `src` lands on a
  // distinct spine (pod L2), and across sources the strides cover them
  // uniformly, approximating packet spraying. A three-level tree offsets
  // its core digit by k once more, so the core does not repeat the L2's
  // residue once the stride is 1.
  int stratum(int src, int dst, int k, int num_strata) const;
  LinkId random_link_between(NodeId a, NodeId b, Rng& rng) const;

  FatTreeParams params_;
  int levels_ = 2;
  int down_ = 0, up_ = 0;
  int pods_ = 1;
  int leaves_per_pod_ = 0;
  int l2_per_pod_ = 0;       // 3-level: aggregation switches per pod
  int l3_group_size_ = 0;    // 3-level: core switches per aggregation index
  std::vector<NodeId> leaves_;
  std::vector<NodeId> l2_;      // 3-level aggregation, [pod * l2_per_pod + j]
  std::vector<NodeId> spines_;  // 2-level spine / 3-level core
};

}  // namespace hxmesh::topo
