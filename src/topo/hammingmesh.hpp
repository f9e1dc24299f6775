// HammingMesh (HxMesh) — the paper's core contribution (Section III).
//
// An x*y grid of a*b accelerator boards. Accelerators on a board form a 2D
// mesh over PCB traces. Boards are connected dimension-wise: the W/E edge
// ports of every board along a row attach to a per-row "rail" network, the
// S/N ports along a column to a per-column rail. A rail is
//   - a single 64-port switch when it fits (possibly serving all b
//     accelerator rows of a board-row, as in the paper's small Hx2Mesh), or
//   - a two-level fat tree per accelerator line (as in the large Hx2Mesh),
//     optionally tapered (Section III-F's "second dial").
// Every accelerator has 4 ports per plane (N/S/E/W) and can forward packets
// within a plane like a 4x4 switch; the machine has 4 planes.
//
// A 2D HyperX is the degenerate Hx1Mesh (a = b = 1).
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace hxmesh::topo {

struct HxMeshParams {
  int a = 2;  // board width (accelerators, x direction)
  int b = 2;  // board height (accelerators, y direction)
  int x = 16; // boards per row
  int y = 16; // boards per column
  int radix = 64;         // switch port count
  double rail_taper = 1.0;  // up:down bandwidth ratio in rail fat trees
  int planes = 4;
};

class HammingMesh : public Topology {
 public:
  explicit HammingMesh(HxMeshParams params);

  /// Closed-form node and link counts of the graph `params` builds; the
  /// constructor reserves from them before adding anything.
  struct Size {
    std::size_t nodes = 0, links = 0;
  };
  static Size size_of(const HxMeshParams& params);

  std::string name() const override;
  int planes() const override { return params_.planes; }
  int ports_per_endpoint() const override { return 4; }
  int diameter_formula() const override;

  void sample_path(int src, int dst, Rng& rng, std::vector<LinkId>& out,
                   RouteMode mode = RouteMode::kMinimal) const override;
  void sample_path_stratified(int src, int dst, int k, int num_strata,
                              Rng& rng, std::vector<LinkId>& out,
                              RouteMode mode = RouteMode::kMinimal)
      const override;

  // -- coordinates ---------------------------------------------------------
  const HxMeshParams& params() const { return params_; }
  int accel_x() const { return params_.a * params_.x; }  // global width
  int accel_y() const { return params_.b * params_.y; }  // global height
  int rank_at(int gx, int gy) const { return gy * accel_x() + gx; }
  // Table-backed: the router resolves coordinates per hop, and integer
  // division by runtime board sizes would dominate its per-path cost.
  int gx_of(int rank) const { return gx_of_[rank]; }
  int gy_of(int rank) const { return gy_of_[rank]; }
  int board_x_of(int rank) const { return bx_of_gx_[gx_of_[rank]]; }
  int board_y_of(int rank) const { return by_of_gy_[gy_of_[rank]]; }

  // -- structure (tests, cost model, simulator) -----------------------------
  /// Number of rail switches in this plane (all levels, both dimensions).
  int num_switches() const { return num_switches_; }
  /// 1 if the given dimension's rails are single switches, 2 for fat trees.
  int rail_levels_x() const { return rail_levels_x_; }
  int rail_levels_y() const { return rail_levels_y_; }
  /// Closed-form minimal distance in cables between two accelerators
  /// (validated against BFS in tests).
  int dist(int src_rank, int dst_rank) const;
  int hop_distance(int src, int dst) const override {
    if (faulted()) return Topology::hop_distance(src, dst);
    return dist(src, dst);
  }

 private:
  class Oracle;  // closed-form routing oracle (defined in hammingmesh.cpp)

  // One rail network: a single switch (leaves = {switch}, no spines) or a
  // two-level fat tree over the 2*x (or 2*y) board edge ports of a line.
  struct Rail {
    std::vector<NodeId> leaves;
    std::vector<NodeId> spines;
    int ports_per_leaf = 0;  // port index / ports_per_leaf -> leaf index
    std::vector<NodeId> leaf_of_board;  // precomputed leaf per board index
    std::vector<int> leaf_idx_of_board;
    // Parallel-cable bundles between tree levels, precomputed so a rail
    // crossing picks cables without searching the adjacency:
    // [leaf_idx * spines.size() + spine_idx] and the reverse direction.
    std::vector<std::span<const LinkId>> leaf_to_spine, spine_to_leaf;
  };

  // Per-dimension rail plumbing. dim 0 = x (W/E ports), dim 1 = y (S/N).
  struct DimRails {
    std::vector<Rail> rails;   // indexed by rail id
    std::vector<int> rail_of_line;  // line index (gy for x-dim) -> rail id
    int levels = 1;
  };

  void build_rails(int dim);
  const Rail& rail_for(int dim, int line) const {
    const DimRails& dr = dim == 0 ? x_rails_ : y_rails_;
    return dr.rails[dr.rail_of_line[line]];
  }
  NodeId leaf_for(int dim, int line, int board) const {
    return rail_for(dim, line).leaf_of_board[board];
  }
  // Cost in cables of crossing one dimension's rail between two boards
  // (2 via a shared switch/leaf, 4 via a spine).
  int rail_hops(int dim, int line, int b1, int b2) const;
  // Emits the rail traversal links from the edge accelerator on
  // `from_side` of `from_board` to the one on `to_side` of `to_board` over
  // the rail of `line`; `stratum` deterministically spreads subflows over
  // rail spines and parallel cables.
  void emit_rail(int dim, int line, int from_board, int to_board,
                 int from_side, int to_side, int stratum,
                 std::vector<LinkId>& out) const;
  // Builds the span tables below (constructor tail, after finalize()).
  void build_route_tables();
  // Installs the closed-form Oracle (constructor tail; lives in the .cpp
  // because it needs the complete Oracle type).
  void install_oracle();
  void route(int src, int dst, int stratum, Rng& rng,
             std::vector<LinkId>& out) const;
  // Valiant detour: two minimal route() legs joined at a random
  // intermediate endpoint (the second leg flips the dimension-order bit so
  // the join does not double back deterministically).
  void route_valiant(int src, int dst, int stratum, Rng& rng,
                     std::vector<LinkId>& out) const;
  LinkId random_link_between(NodeId u, NodeId v, Rng& rng) const;

  HxMeshParams params_;
  DimRails x_rails_, y_rails_;
  int rail_levels_x_ = 1, rail_levels_y_ = 1;
  int num_switches_ = 0;
  // Division-free coordinate lookups (see gx_of etc. above).
  std::vector<std::int32_t> gx_of_, gy_of_;          // by rank
  std::vector<std::int32_t> bx_of_gx_, ox_of_gx_;    // by global x coord
  std::vector<std::int32_t> by_of_gy_, oy_of_gy_;    // by global y coord

  // Per-hop routing tables: spans point into the graph's bundle rows
  // (immutable after finalize()), so the router picks among parallel
  // cables with a table load instead of an adjacency search per decision.
  struct RailPortSpans {
    std::span<const LinkId> to_leaf, from_leaf;
  };
  // mesh_links_[rank][d]: on-board links in direction d (0:+x, 1:-x,
  // 2:+y, 3:-y); empty at a board edge.
  std::vector<std::array<std::span<const LinkId>, 4>> mesh_links_;
  // rail_ports_[dim][line][board * 2 + side]: edge-accelerator <-> leaf.
  std::array<std::vector<std::vector<RailPortSpans>>, 2> rail_ports_;
};

}  // namespace hxmesh::topo
