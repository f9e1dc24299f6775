// 2D HyperX (Ahn et al. 2009): an x*y grid of switches, each dimension
// fully connected switch-to-switch, endpoints attached to switches.
//
// Reproduction note (see EXPERIMENTS.md): the paper equates "2D HyperX"
// with an Hx1Mesh and prices/diameters it via the rail construction of
// Appendix C, but its simulated HyperX bandwidth (91.6% / 95.8% alltoall)
// is only achievable when switch-to-switch links relay traffic without
// consuming accelerator ports — i.e. the genuine switch-based HyperX
// modeled here. A rail-based Hx1Mesh caps alltoall at 50% of injection
// because every relay crosses an accelerator's 4 ports. We therefore use
// this class for bandwidth simulations and the Hx1Mesh formulas for cost
// and diameter, which together reproduce all of Table II's HyperX row.
#pragma once

#include "topo/topology.hpp"

namespace hxmesh::topo {

struct HyperXParams {
  int x = 32;
  int y = 32;
  int endpoints_per_switch = 1;
  int radix = 64;  // for the Hx1Mesh-equivalent diameter formula
  int planes = 4;
};

class HyperX : public RoutedTopology<HyperX> {
 public:
  explicit HyperX(HyperXParams params);

  std::string name() const override { return "2D HyperX"; }
  int planes() const override { return params_.planes; }
  int ports_per_endpoint() const override { return 1; }
  /// Hx1Mesh-equivalent diameter (Table II counts it that way): 2 cables
  /// per dimension through a single rail switch, 4 through a rail tree.
  int diameter_formula() const override {
    auto rail = [&](int n) { return 2 * n <= params_.radix ? 2 : 4; };
    return rail(params_.x) + rail(params_.y);
  }
  int hop_distance(int src, int dst) const override {
    if (faulted()) return Topology::hop_distance(src, dst);
    int s1 = src / params_.endpoints_per_switch;
    int s2 = dst / params_.endpoints_per_switch;
    if (s1 == s2) return src == dst ? 0 : 2;
    return 2 + (s1 % params_.x != s2 % params_.x) +
           (s1 / params_.x != s2 / params_.x);
  }

  const HyperXParams& params() const { return params_; }
  int switch_at(int col, int row) const { return row * params_.x + col; }

 private:
  friend class Topology;  // the sampler calls route()
  class Oracle;  // closed-form routing oracle (defined in hyperx.cpp)

  // Appends a minimal path, dimension order from the stratum's low bit.
  void route(int src, int dst, int stratum, Rng& rng,
             std::vector<LinkId>& out) const;

  HyperXParams params_;
  std::vector<NodeId> switches_;
};

}  // namespace hxmesh::topo
