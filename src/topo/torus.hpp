// 2D torus of accelerators, the switchless baseline (Section III-D).
//
// X x Y accelerators with +/-x and +/-y neighbor links and wrap-around.
// Links inside an a x b board are PCB traces (1 ns, free in the cost
// model); links between boards are cables. Following the Table II cost
// figures we price inter-board torus cables as AoC (see DESIGN.md §3.4).
#pragma once

#include <algorithm>
#include <cstdlib>

#include "topo/topology.hpp"

namespace hxmesh::topo {

struct TorusParams {
  int width = 32;   // X, accelerators
  int height = 32;  // Y, accelerators
  int board_a = 2;  // board width in accelerators
  int board_b = 2;  // board height
  int planes = 4;
};

class Torus : public RoutedTopology<Torus> {
 public:
  explicit Torus(TorusParams params);

  std::string name() const override;
  int planes() const override { return params_.planes; }
  int ports_per_endpoint() const override { return 4; }
  int diameter_formula() const override {
    return params_.width / 2 + params_.height / 2;
  }

  int hop_distance(int src, int dst) const override {
    if (faulted()) return Topology::hop_distance(src, dst);
    return ring_distance(src, dst);
  }

  /// Closed-form ring metric of the healthy torus (fault-blind; the
  /// oracle's node_dist on the fabric as built).
  int ring_distance(int src, int dst) const {
    int dx = std::abs(x_of(src) - x_of(dst));
    int dy = std::abs(y_of(src) - y_of(dst));
    return std::min(dx, params_.width - dx) +
           std::min(dy, params_.height - dy);
  }

  const TorusParams& params() const { return params_; }
  int rank_at(int gx, int gy) const { return gy * params_.width + gx; }
  int x_of(int rank) const { return rank % params_.width; }
  int y_of(int rank) const { return rank / params_.width; }

 private:
  friend class Topology;  // the sampler calls route()
  // Appends a uniformly random minimal staircase; the stratum is unused.
  void route(int src, int dst, int stratum, Rng& rng,
             std::vector<LinkId>& out) const;

  TorusParams params_;
};

}  // namespace hxmesh::topo
