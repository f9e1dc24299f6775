// Dragonfly topology (Kim et al. 2008), used as a global-bandwidth baseline.
//
// Canonical configuration a = 2p = 2h: `a` routers per group, `p` endpoints
// per router, `h` global links per router. Groups are internally fully
// connected with DAC; group pairs are connected by floor(a*h/(g-1)) AoC
// cables each, attached round-robin over the routers' global ports.
// The paper's two design points: small a=16,p=8,h=8,g=8 (1,024 endpoints);
// large a=32,p=17,h=16,g=30 (16,320 endpoints).
#pragma once

#include <cstdint>
#include <vector>

#include "topo/topology.hpp"

namespace hxmesh::topo {

struct DragonflyParams {
  int routers_per_group = 16;  // a
  int endpoints_per_router = 8;  // p
  int global_per_router = 8;  // h
  int groups = 8;  // g  (must be <= a*h + 1)
  int planes = 16;
};

class Dragonfly : public RoutedTopology<Dragonfly> {
 public:
  explicit Dragonfly(DragonflyParams params);

  std::string name() const override { return "Dragonfly"; }
  int planes() const override { return params_.planes; }
  int ports_per_endpoint() const override { return 1; }
  int diameter_formula() const override { return 2 + router_diameter_; }

  // -- structure accessors -------------------------------------------------
  const DragonflyParams& params() const { return params_; }
  int num_routers() const { return static_cast<int>(routers_.size()); }
  NodeId router_node(int router) const { return routers_[router]; }
  int router_of(int rank) const { return rank / params_.endpoints_per_router; }

  /// Minimal router-to-router hop distance (precomputed all-pairs).
  int router_dist(int r1, int r2) const {
    return rdist_[r1][static_cast<std::size_t>(r2)];
  }

 private:
  friend class Topology;  // the sampler calls route()
  // Appends a uniformly random minimal walk over the router graph; the
  // stratum is unused. Non-minimal paths come from route=valiant|ugal.
  void route(int src, int dst, int stratum, Rng& rng,
             std::vector<LinkId>& out) const;

  DragonflyParams params_;
  std::vector<NodeId> routers_;
  // Router-level adjacency: (peer router, link id), locals + globals.
  std::vector<std::vector<std::pair<int, LinkId>>> radj_;
  std::vector<std::vector<std::uint8_t>> rdist_;
  int router_diameter_ = 0;
};

}  // namespace hxmesh::topo
