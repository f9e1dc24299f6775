// HammingMesh (HxMesh) — the paper's core contribution (Section III).
//
// An x*y grid of a*b accelerator boards. Accelerators on a board form a 2D
// mesh over PCB traces. Boards are connected dimension-wise: the W/E edge
// ports of every board along an accelerator row attach to that row's
// "rail", the S/N ports along a column to the column's rail. A rail is a
// single switch when the line's 2 * boards edge ports fit the radix, else a
// two-level fat tree, optionally tapered (Section III-F's "second dial").
// Every accelerator has 4 ports per plane (N/S/E/W) and can forward packets
// within a plane like a 4x4 switch; the machine has 4 planes. A 2D HyperX
// is the degenerate Hx1Mesh (a = b = 1).
//
// Id layout. Every rail of a dimension has the same shape, so every node
// and link id is a closed-form function of coordinates: the router and the
// oracle compute ids and read no per-line table. The constructor adds
// nodes and links in exactly this order (Debug builds assert each id):
//   nodes: the accelerators (node = rank = gy * a*x + gx); then per
//     dimension (x, then y), per line, the rail's leaves, then its spines.
//   links: duplex cable d is two links, forward 2d and reverse 2d + 1.
//     1. On-board mesh, per board by * x + bx: the b rows of a - 1 cables
//        (forward +x), then the a columns of b - 1 cables (forward +y).
//     2. Per dimension (x, then y):
//        a. every line's leaf-spine cables, by (line, leaf i, cable k);
//           cable k of leaf i goes to spine (i * up + k) mod spines,
//           forward leaf -> spine;
//        b. every line's edge-port cables, by (line, board, side), side 0
//           the W (S) edge; forward accelerator -> leaf.
#pragma once

#include <array>
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

class HammingMesh : public RoutedTopology<HammingMesh> {
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
  /// Physical rail switches in this plane (all levels, both dimensions).
  int num_switches() const;
  /// 1 if the given dimension's rails are single switches, 2 for fat trees.
  int rail_levels_x() const { return rails_[0].levels; }
  int rail_levels_y() const { return rails_[1].levels; }
  /// Closed-form minimal distance in cables between two accelerators
  /// (validated against BFS in tests).
  int dist(int src_rank, int dst_rank) const;
  int hop_distance(int src, int dst) const override {
    if (faulted()) return Topology::hop_distance(src, dst);
    return dist(src, dst);
  }

 private:
  friend class Topology;  // the sampler calls route()
  class Oracle;  // closed-form routing oracle (defined in hammingmesh.cpp)

  // The rails of one dimension (dim 0 = x, W/E ports; dim 1 = y, S/N),
  // shared by all its lines, and where their ids start (see the layout).
  struct RailShape {
    int boards = 0;          // boards per line
    int lines = 0;           // accelerator lines, one rail each
    int n = 1;               // board width along the dimension (a or b)
    int levels = 1;
    int leaves = 1, spines = 0;
    int up = 0;              // leaf -> spine cables per leaf
    NodeId first_switch = 0;  // line 0's leaf 0
    LinkId trunk_base = 0;    // first leaf-spine duplex
    LinkId port_base = 0;     // first edge-port duplex
    std::vector<std::int32_t> leaf_of_board;
    // The cables k of bundle (leaf i, spine s) are first + j * spines for
    // j < count, in ascending k (= out-link order); indexed i * spines + s.
    struct Bundle { std::int32_t first = 0, count = 0; };
    std::vector<Bundle> bundles;
    NodeId leaf(int line, int i) const {
      return first_switch + static_cast<NodeId>(line * (leaves + spines) + i);
    }
    NodeId spine(int line, int s) const { return leaf(line, leaves + s); }
    LinkId trunk(int line, int i, int k) const {  // duplex id
      return trunk_base + static_cast<LinkId>((line * leaves + i) * up + k);
    }
    LinkId port(int line, int board, int side) const {  // duplex id
      return port_base +
             static_cast<LinkId>((line * boards + board) * 2 + side);
    }
  };
  static std::array<RailShape, 2> rail_shapes(const HxMeshParams& params);

  void add_rails(int dim);
  // Duplex id of the on-board cable between offsets 0 and 1 of the board
  // line through (gx, gy) along `dim`; offsets o and o + 1 use base + o.
  LinkId mesh_base(int dim, int gx, int gy) const;
  // Cost in cables of crossing one dimension's rail between two boards
  // (2 via a shared switch/leaf, 4 via a spine).
  int rail_hops(int dim, int b1, int b2) const;
  // Appends the rail traversal links from the edge accelerator on
  // `from_side` of `from_board` to the one on `to_side` of `to_board` over
  // the rail of `line`; `stratum` deterministically spreads subflows over
  // rail spines and parallel cables.
  void emit_rail(int dim, int line, int from_board, int to_board,
                 int from_side, int to_side, int stratum,
                 std::vector<LinkId>& out) const;
  // Appends a minimal path: dimension order from the stratum's low bit,
  // rail spines and parallel cables from the rest (see emit_rail).
  void route(int src, int dst, int stratum, Rng& rng,
             std::vector<LinkId>& out) const;
  // One coordinate differs, and route() has no choice to make: on one
  // board one of the direct mesh line and the two wraps is strictly
  // shortest; across boards one rail leaf joins them and neither edge pick
  // is a tie. Every other pair has more than one minimal path, save on a
  // rail whose leaves reach one spine over one cable each (answered false:
  // the solver then draws every stratum).
  bool one_minimal_path(int src, int dst) const override;

  HxMeshParams params_;
  std::array<RailShape, 2> rails_;
  LinkId mesh_per_board_ = 0;  // on-board duplexes per board
  // Division-free coordinate lookups (see gx_of etc. above).
  std::vector<std::int32_t> gx_of_, gy_of_;          // by rank
  std::vector<std::int32_t> bx_of_gx_, ox_of_gx_;    // by global x coord
  std::vector<std::int32_t> by_of_gy_, oy_of_gy_;    // by global y coord
};

}  // namespace hxmesh::topo
