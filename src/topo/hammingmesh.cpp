#include "topo/hammingmesh.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace hxmesh::topo {

namespace {
int ceil_div(int a, int b) { return (a + b - 1) / b; }

// The rails of one dimension (dim 0 = x, W/E ports; dim 1 = y, S/N), which
// all share one shape: a single switch when a line's 2 * boards edge ports
// fit the radix, else a two-level fat tree, optionally tapered.
struct RailShape {
  int boards = 0;          // boards per line
  int lines = 0;           // accelerator lines, one rail each
  int levels = 1;
  int leaves = 1, spines = 0;
  int ports_per_leaf = 0;  // board edge ports per leaf
  int up_per_leaf = 0;     // leaf -> spine cables
};

RailShape rail_shape(const HxMeshParams& p, int dim) {
  RailShape r;
  r.boards = dim == 0 ? p.x : p.y;
  r.lines = dim == 0 ? p.b * p.y : p.a * p.x;
  const int ports = 2 * r.boards;
  if (ports <= p.radix) {
    r.ports_per_leaf = ports;  // single leaf: every port maps to it
    return r;
  }
  r.levels = 2;
  r.ports_per_leaf = p.radix / 2;
  r.leaves = ceil_div(ports, r.ports_per_leaf);
  r.up_per_leaf =
      std::max(1, static_cast<int>(r.ports_per_leaf * p.rail_taper));
  r.spines = ceil_div(r.leaves * r.up_per_leaf, p.radix);
  assert(r.spines <= r.up_per_leaf &&
         "rail fat tree: leaves must reach every spine");
  return r;
}
}  // namespace

HammingMesh::Size HammingMesh::size_of(const HxMeshParams& p) {
  const std::size_t boards = static_cast<std::size_t>(p.x) * p.y;
  Size s;
  s.nodes = boards * p.a * p.b;
  // On-board mesh: b rows of a - 1 cables and a columns of b - 1 cables.
  s.links = 2 * boards *
            (static_cast<std::size_t>(p.b) * (p.a - 1) +
             static_cast<std::size_t>(p.a) * (p.b - 1));
  for (int dim = 0; dim < 2; ++dim) {
    const RailShape r = rail_shape(p, dim);
    s.nodes += static_cast<std::size_t>(r.lines) * (r.leaves + r.spines);
    // Per line: the leaf-spine cables and two edge-port cables per board.
    s.links += 2 * static_cast<std::size_t>(r.lines) *
               (static_cast<std::size_t>(r.leaves) * r.up_per_leaf +
                2 * static_cast<std::size_t>(r.boards));
  }
  return s;
}

HammingMesh::HammingMesh(HxMeshParams params) : params_(params) {
  const int a = params_.a, b = params_.b, x = params_.x, y = params_.y;
  if (a < 1 || b < 1 || x < 1 || y < 1 || params_.radix < 4)
    throw std::invalid_argument("HammingMesh: bad parameters");

  // Size first, then build: the node and link arrays never regrow.
  const Size size = size_of(params_);
  graph_.reserve(size.nodes, size.links);
  for (int i = 0; i < accel_x() * accel_y(); ++i) add_endpoint();

  // Division-free coordinate tables; the per-hop router math indexes these
  // instead of dividing by runtime board dimensions.
  gx_of_.resize(num_endpoints());
  gy_of_.resize(num_endpoints());
  for (int r = 0; r < num_endpoints(); ++r) {
    gx_of_[r] = r % accel_x();
    gy_of_[r] = r / accel_x();
  }
  bx_of_gx_.resize(accel_x());
  ox_of_gx_.resize(accel_x());
  for (int gx = 0; gx < accel_x(); ++gx) {
    bx_of_gx_[gx] = gx / a;
    ox_of_gx_[gx] = gx % a;
  }
  by_of_gy_.resize(accel_y());
  oy_of_gy_.resize(accel_y());
  for (int gy = 0; gy < accel_y(); ++gy) {
    by_of_gy_[gy] = gy / b;
    oy_of_gy_[gy] = gy % b;
  }

  // On-board 2D mesh over PCB traces.
  for (int by = 0; by < y; ++by)
    for (int bx = 0; bx < x; ++bx) {
      for (int j = 0; j < b; ++j)
        for (int i = 0; i + 1 < a; ++i)
          graph_.add_duplex(endpoint_node(rank_at(bx * a + i, by * b + j)),
                            endpoint_node(rank_at(bx * a + i + 1, by * b + j)),
                            kLinkBandwidthBps, kBoardLatencyPs, CableKind::kPcb);
      for (int i = 0; i < a; ++i)
        for (int j = 0; j + 1 < b; ++j)
          graph_.add_duplex(endpoint_node(rank_at(bx * a + i, by * b + j)),
                            endpoint_node(rank_at(bx * a + i, by * b + j + 1)),
                            kLinkBandwidthBps, kBoardLatencyPs, CableKind::kPcb);
    }

  build_rails(0);
  build_rails(1);
  rail_levels_x_ = x_rails_.levels;
  rail_levels_y_ = y_rails_.levels;
  // Physical switch count per plane: single-switch rails are merged so one
  // physical switch serves floor(radix / (2*boards)) neighboring lines of a
  // board row/column (Appendix C); fat-tree rails are one tree per line.
  auto physical = [&](const DimRails& dr, int boards, int per_board,
                      int strips) {
    if (dr.levels == 1) {
      int lines_per_switch = std::max(1, std::min(params_.radix / (2 * boards),
                                                  per_board));
      return strips * ceil_div(per_board, lines_per_switch);
    }
    int total = 0;
    for (const Rail& r : dr.rails)
      total += static_cast<int>(r.leaves.size() + r.spines.size());
    return total;
  };
  num_switches_ = physical(x_rails_, x, b, y) + physical(y_rails_, y, a, x);
  finalize();
  build_route_tables();
  install_oracle();
}

void HammingMesh::build_route_tables() {
  const int a = params_.a, b = params_.b;
  // On-board mesh steps: the parallel links toward each neighbor.
  mesh_links_.resize(num_endpoints());
  for (int r = 0; r < num_endpoints(); ++r) {
    const int gx = gx_of_[r], gy = gy_of_[r];
    const NodeId u = endpoint_node(r);
    auto span_to = [&](int nx, int ny) {
      return graph_.bundle(u, endpoint_node(rank_at(nx, ny)));
    };
    if (ox_of_gx_[gx] + 1 < a) mesh_links_[r][0] = span_to(gx + 1, gy);
    if (ox_of_gx_[gx] > 0) mesh_links_[r][1] = span_to(gx - 1, gy);
    if (oy_of_gy_[gy] + 1 < b) mesh_links_[r][2] = span_to(gx, gy + 1);
    if (oy_of_gy_[gy] > 0) mesh_links_[r][3] = span_to(gx, gy - 1);
  }
  // Rail crossings: edge accelerator <-> leaf and leaf <-> spine bundles.
  for (int dim = 0; dim < 2; ++dim) {
    const int boards = dim == 0 ? params_.x : params_.y;
    const int num_lines = dim == 0 ? accel_y() : accel_x();
    const int n = dim == 0 ? a : b;
    auto& rp = rail_ports_[dim];
    rp.resize(num_lines);
    for (int line = 0; line < num_lines; ++line) {
      rp[line].resize(static_cast<std::size_t>(boards) * 2);
      for (int board = 0; board < boards; ++board)
        for (int side = 0; side < 2; ++side) {
          int coord = board * n + (side == 0 ? 0 : n - 1);
          NodeId acc = dim == 0 ? endpoint_node(rank_at(coord, line))
                                : endpoint_node(rank_at(line, coord));
          NodeId leaf = leaf_for(dim, line, board);
          rp[line][static_cast<std::size_t>(board) * 2 + side] = {
              graph_.bundle(acc, leaf), graph_.bundle(leaf, acc)};
        }
    }
    DimRails& dr = dim == 0 ? x_rails_ : y_rails_;
    for (Rail& r : dr.rails) {
      // leaf_idx_of_board was filled alongside leaf_of_board in
      // build_rails; only the level-crossing cable bundles remain.
      const std::size_t nl = r.leaves.size(), ns = r.spines.size();
      r.leaf_to_spine.resize(nl * ns);
      r.spine_to_leaf.resize(ns * nl);
      for (std::size_t i = 0; i < nl; ++i)
        for (std::size_t s = 0; s < ns; ++s) {
          r.leaf_to_spine[i * ns + s] = graph_.bundle(r.leaves[i], r.spines[s]);
          r.spine_to_leaf[s * nl + i] = graph_.bundle(r.spines[s], r.leaves[i]);
        }
    }
  }
}

void HammingMesh::build_rails(int dim) {
  // dim 0: lines are accelerator rows (gy), boards indexed by bx, 2*x ports.
  // dim 1: lines are accelerator columns (gx), boards indexed by by.
  const RailShape shape = rail_shape(params_, dim);
  const int boards = shape.boards, num_lines = shape.lines;
  const CableKind port_cable = dim == 0 ? CableKind::kDac : CableKind::kAoc;
  DimRails& dr = dim == 0 ? x_rails_ : y_rails_;
  dr.levels = shape.levels;
  dr.rails.resize(num_lines);
  dr.rail_of_line.resize(num_lines);
  // Single-switch rails are one logical switch per accelerator line. The
  // physical machine may merge several lines of a board row into one
  // 64-port switch (the paper's small Hx2Mesh does); the cost model
  // accounts for that merging, but routing stays within a line, matching
  // the paper's routing description and diameter formula (a packet never
  // changes its row by crossing an x-rail). Large machines get a two-level
  // fat-tree rail per line.
  for (int line = 0; line < num_lines; ++line) {
    Rail& r = dr.rails[line];
    r.ports_per_leaf = shape.ports_per_leaf;
    for (int i = 0; i < shape.leaves; ++i) r.leaves.push_back(add_switch());
    for (int s = 0; s < shape.spines; ++s) r.spines.push_back(add_switch());
    for (int i = 0; i < shape.leaves; ++i)
      for (int k = 0; k < shape.up_per_leaf; ++k)
        graph_.add_duplex(r.leaves[i],
                          r.spines[(i * shape.up_per_leaf + k) % shape.spines],
                          kLinkBandwidthBps, kCableLatencyPs, CableKind::kAoc);
    dr.rail_of_line[line] = line;
  }

  // Precompute the leaf of each board index (used per rail crossing);
  // leaf_of_board is derived from leaf_idx_of_board so the port-to-leaf
  // mapping lives in exactly one expression.
  for (Rail& r : dr.rails) {
    r.leaf_idx_of_board.resize(boards);
    r.leaf_of_board.resize(boards);
    for (int board = 0; board < boards; ++board) {
      r.leaf_idx_of_board[board] = (2 * board) / r.ports_per_leaf;
      r.leaf_of_board[board] = r.leaves[r.leaf_idx_of_board[board]];
    }
  }

  // Attach the board edge ports.
  for (int line = 0; line < num_lines; ++line)
    for (int board = 0; board < boards; ++board) {
      NodeId leaf = leaf_for(dim, line, board);
      NodeId lo, hi;  // W/E for dim 0, S/N for dim 1
      if (dim == 0) {
        lo = endpoint_node(rank_at(board * params_.a, line));
        hi = endpoint_node(rank_at(board * params_.a + params_.a - 1, line));
      } else {
        lo = endpoint_node(rank_at(line, board * params_.b));
        hi = endpoint_node(rank_at(line, board * params_.b + params_.b - 1));
      }
      graph_.add_duplex(lo, leaf, kLinkBandwidthBps, kCableLatencyPs,
                        port_cable);
      graph_.add_duplex(hi, leaf, kLinkBandwidthBps, kCableLatencyPs,
                        port_cable);
    }
}

int HammingMesh::rail_hops(int dim, int line, int b1, int b2) const {
  return leaf_for(dim, line, b1) == leaf_for(dim, line, b2) ? 2 : 4;
}

namespace {
// Minimal per-dimension cost between intra-board coordinates i (source) and
// j (destination) on boards bi/bj of width n; `rail` is the cable cost of
// one rail crossing.
int dim_cost(int i, int j, int bi, int bj, int n, int rail) {
  if (bi == bj) {
    int direct = std::abs(i - j);
    int wrap1 = i + rail + (n - 1 - j);
    int wrap2 = (n - 1 - i) + rail + j;
    return std::min({direct, wrap1, wrap2});
  }
  return std::min(i, n - 1 - i) + rail + std::min(j, n - 1 - j);
}
}  // namespace

// Closed-form routing oracle.
//
// HammingMesh distances are dimension-separable: every rail of a dimension
// has the same leaf layout on every line, so the cost of moving global
// coordinate gx to dgx (mesh steps plus at most one rail crossing) does not
// depend on which row the crossing happens in. Endpoint distances are
// therefore costx(gx) + costy(gy), and a rail switch's distance is the
// cross-dimension cost of its line plus the cheapest way back to a board
// edge it (or, via a spine detour, any leaf of its rail) serves:
//   leaf L:  min(1 + min_{ports of L} cost, 3 + min_{all rail ports} cost)
//   spine:   2 + min_{all rail ports} cost
// fill() precomputes the per-destination cost tables and port minima once
// (O(accel_x + accel_y)), making the whole field an O(V) table render.
class HammingMesh::Oracle final : public RoutingOracle {
 public:
  explicit Oracle(const HammingMesh& hx) : RoutingOracle(hx.graph()), hx_(hx) {
    info_.assign(hx.graph().num_nodes(), SwitchInfo{});
    for (int dim = 0; dim < 2; ++dim) {
      const DimRails& dr = dim == 0 ? hx.x_rails_ : hx.y_rails_;
      const int num_lines = dim == 0 ? hx.accel_y() : hx.accel_x();
      for (int line = 0; line < num_lines; ++line) {
        const Rail& r = dr.rails[dr.rail_of_line[line]];
        for (std::size_t i = 0; i < r.leaves.size(); ++i) {
          info_[r.leaves[i]] = {static_cast<std::int8_t>(dim), 0,
                                static_cast<std::int32_t>(line),
                                static_cast<std::int32_t>(i)};
          switch_nodes_.push_back(r.leaves[i]);
        }
        for (NodeId s : r.spines) {
          info_[s] = {static_cast<std::int8_t>(dim), 1,
                      static_cast<std::int32_t>(line), 0};
          switch_nodes_.push_back(s);
        }
      }
    }
  }

  std::int32_t node_dist(NodeId from, NodeId dst_node) const override {
    const int dd = hx_.rank_of(dst_node);
    const int s = hx_.rank_of(from);
    if (s >= 0) return hx_.dist(s, dd);
    const SwitchInfo& si = info_[from];
    const int dgx = hx_.gx_of(dd), dgy = hx_.gy_of(dd);
    const int cross = si.dim == 0 ? dim_cost_of(1, si.line, dgy)
                                  : dim_cost_of(0, si.line, dgx);
    const int dcoord = si.dim == 0 ? dgx : dgy;
    const Rail& rail = hx_.rail_for(si.dim, si.line);
    const int boards = si.dim == 0 ? hx_.params_.x : hx_.params_.y;
    int leaf_min = kFar, all_min = kFar;
    for (int b = 0; b < boards; ++b) {
      const int c = std::min(port_cost(si.dim, b, 0, dcoord),
                             port_cost(si.dim, b, 1, dcoord));
      all_min = std::min(all_min, c);
      if (rail.leaf_idx_of_board[b] == si.leaf)
        leaf_min = std::min(leaf_min, c);
    }
    if (si.spine) return cross + 2 + all_min;
    int best = leaf_min == kFar ? kFar : 1 + leaf_min;
    if (!rail.spines.empty()) best = std::min(best, 3 + all_min);
    return cross + best;
  }

  void fill(NodeId dst_node, std::vector<std::int32_t>& out) const override {
    const int dd = hx_.rank_of(dst_node);
    const int dgx = hx_.gx_of(dd), dgy = hx_.gy_of(dd);
    const int ax = hx_.accel_x(), ay = hx_.accel_y();
    out.resize(hx_.graph().num_nodes());

    // Per-destination cost tables, line-independent (see class comment).
    std::vector<std::int32_t> costx(ax), costy(ay);
    for (int gx = 0; gx < ax; ++gx) costx[gx] = dim_cost_of(0, gx, dgx);
    for (int gy = 0; gy < ay; ++gy) costy[gy] = dim_cost_of(1, gy, dgy);

    // Port minima per rail leaf (and overall) in each dimension.
    std::vector<std::int32_t> leaf_min[2];
    std::int32_t all_min[2];
    bool has_spines[2];
    for (int dim = 0; dim < 2; ++dim) {
      // Rail structure (leaf layout, spine presence) is identical on every
      // line, so line 0 stands in for all of them.
      const Rail& r0 = hx_.rail_for(dim, 0);
      const int boards = dim == 0 ? hx_.params_.x : hx_.params_.y;
      const std::vector<std::int32_t>& cost = dim == 0 ? costx : costy;
      const int n = dim == 0 ? hx_.params_.a : hx_.params_.b;
      has_spines[dim] = !r0.spines.empty();
      leaf_min[dim].assign(r0.leaves.size(), kFar);
      all_min[dim] = kFar;
      for (int b = 0; b < boards; ++b) {
        const std::int32_t c =
            std::min(cost[b * n], cost[b * n + n - 1]);
        std::int32_t& lm = leaf_min[dim][r0.leaf_idx_of_board[b]];
        lm = std::min(lm, c);
        all_min[dim] = std::min(all_min[dim], c);
      }
    }

    for (int r = 0; r < hx_.num_endpoints(); ++r)
      out[hx_.endpoint_node(r)] = costx[hx_.gx_of(r)] + costy[hx_.gy_of(r)];
    for (NodeId sw : switch_nodes_) {
      const SwitchInfo& si = info_[sw];
      const std::int32_t cross =
          si.dim == 0 ? costy[si.line] : costx[si.line];
      if (si.spine) {
        out[sw] = cross + 2 + all_min[si.dim];
        continue;
      }
      const std::int32_t lm = leaf_min[si.dim][si.leaf];
      std::int32_t best = lm == kFar ? kFar : 1 + lm;
      if (has_spines[si.dim]) best = std::min(best, 3 + all_min[si.dim]);
      out[sw] = cross + best;
    }
  }

 private:
  // Far sentinel for leaves that serve no board edge (possible with odd
  // ports-per-leaf splits); large but overflow-safe under the +3 above.
  static constexpr std::int32_t kFar = 1 << 28;

  struct SwitchInfo {
    std::int8_t dim = -1;
    std::int8_t spine = 0;
    std::int32_t line = 0;
    std::int32_t leaf = 0;  // leaf index within the rail (leaves only)
  };

  // Minimal per-dimension cost from global coordinate g to dg (dim 0: x).
  std::int32_t dim_cost_of(int dim, int g, int dg) const {
    if (dim == 0)
      return dim_cost(hx_.ox_of_gx_[g], hx_.ox_of_gx_[dg], hx_.bx_of_gx_[g],
                      hx_.bx_of_gx_[dg], hx_.params_.a,
                      hx_.rail_hops(0, 0, hx_.bx_of_gx_[g], hx_.bx_of_gx_[dg]));
    return dim_cost(hx_.oy_of_gy_[g], hx_.oy_of_gy_[dg], hx_.by_of_gy_[g],
                    hx_.by_of_gy_[dg], hx_.params_.b,
                    hx_.rail_hops(1, 0, hx_.by_of_gy_[g], hx_.by_of_gy_[dg]));
  }

  // Cost from the edge accelerator of `board`, side 0 (low) or 1 (high),
  // to destination coordinate dg along `dim`.
  std::int32_t port_cost(int dim, int board, int side, int dg) const {
    const int n = dim == 0 ? hx_.params_.a : hx_.params_.b;
    return dim_cost_of(dim, board * n + (side ? n - 1 : 0), dg);
  }

  const HammingMesh& hx_;
  std::vector<SwitchInfo> info_;
  std::vector<NodeId> switch_nodes_;
};

void HammingMesh::install_oracle() {
  set_routing_oracle(std::make_unique<Oracle>(*this));
}

int HammingMesh::dist(int src_rank, int dst_rank) const {
  const int a = params_.a, b = params_.b;
  int is = ox_of_gx_[gx_of_[src_rank]], id = ox_of_gx_[gx_of_[dst_rank]];
  int js = oy_of_gy_[gy_of_[src_rank]], jd = oy_of_gy_[gy_of_[dst_rank]];
  int bxs = board_x_of(src_rank), bxd = board_x_of(dst_rank);
  int bys = board_y_of(src_rank), byd = board_y_of(dst_rank);
  int rail_x = rail_hops(0, gy_of(src_rank), bxs, bxd);
  int rail_y = rail_hops(1, gx_of(dst_rank), bys, byd);
  return dim_cost(is, id, bxs, bxd, a, rail_x) +
         dim_cost(js, jd, bys, byd, b, rail_y);
}

int HammingMesh::diameter_formula() const {
  const int a = params_.a, b = params_.b;
  auto worst = [&](int n, int nboards, int levels, int leaves) {
    int rail_far = (levels == 2 && leaves > 1) ? 4 : 2;
    int w = 0;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        // Same-board worst case always applies; different boards only if
        // the dimension has more than one board.
        w = std::max(w, dim_cost(i, j, 0, 0, n, 2));
        if (nboards > 1) w = std::max(w, dim_cost(i, j, 0, 1, n, rail_far));
      }
    return w;
  };
  int leaves_x = static_cast<int>(x_rails_.rails[0].leaves.size());
  int leaves_y = static_cast<int>(y_rails_.rails[0].leaves.size());
  return worst(a, params_.x, x_rails_.levels, leaves_x) +
         worst(b, params_.y, y_rails_.levels, leaves_y);
}

std::string HammingMesh::name() const {
  const auto& p = params_;
  if (p.a == 1 && p.b == 1) return "2D HyperX";
  if (p.a == p.b)
    return std::to_string(p.x) + "x" + std::to_string(p.y) + " Hx" +
           std::to_string(p.a) + "Mesh";
  return "H" + std::to_string(p.a) + "x" + std::to_string(p.b) + "Mesh " +
         std::to_string(p.x) + "x" + std::to_string(p.y);
}

LinkId HammingMesh::random_link_between(NodeId u, NodeId v, Rng& rng) const {
  auto ls = graph_.bundle(u, v);
  assert(!ls.empty());
  return ls[rng.uniform(ls.size())];
}

void HammingMesh::emit_rail(int dim, int line, int from_board, int to_board,
                            int from_side, int to_side, int stratum,
                            std::vector<LinkId>& out) const {
  // Parallel cables (a board edge can attach several links to one switch)
  // are chosen by stratum so a flow's subflows spread over them evenly,
  // like per-packet adaptive spraying would.
  auto pick = [&](std::span<const LinkId> ls) {
    assert(!ls.empty());
    if (ls.size() == 1) return ls[0];  // skip the modulo on single cables
    // Weyl-hash the stratum: a plain modulo would tie the parallel-cable
    // parity to the spine parity (both derive from stratum), idling half
    // of every leaf-spine bundle.
    auto h = static_cast<std::uint64_t>(static_cast<std::uint32_t>(stratum)) *
             0x9e3779b97f4a7c15ull;
    return ls[(h >> 33) % ls.size()];
  };
  const auto& ports = rail_ports_[dim][line];
  const RailPortSpans& from =
      ports[static_cast<std::size_t>(from_board) * 2 + from_side];
  const RailPortSpans& to =
      ports[static_cast<std::size_t>(to_board) * 2 + to_side];
  const Rail& r = rail_for(dim, line);
  const int lf = r.leaf_idx_of_board[from_board];
  const int lt = r.leaf_idx_of_board[to_board];
  out.push_back(pick(from.to_leaf));
  if (lf != lt) {
    const std::size_t spine =
        static_cast<std::size_t>(stratum) % r.spines.size();
    out.push_back(pick(r.leaf_to_spine[lf * r.spines.size() + spine]));
    out.push_back(pick(r.spine_to_leaf[spine * r.leaves.size() + lt]));
  }
  out.push_back(pick(to.from_leaf));
}

void HammingMesh::sample_path(int src, int dst, Rng& rng,
                              std::vector<LinkId>& out,
                              RouteMode mode) const {
  // The closed forms below describe the healthy fabric only.
  if (faulted()) return Topology::sample_path(src, dst, rng, out, mode);
  const int stratum = static_cast<int>(rng.uniform(1 << 20));
  switch (mode) {
    case RouteMode::kMinimal:
      // Clear bit 1 (historically the Valiant flag): minimal mode promises
      // minimal paths, and route() itself never reads the bit — strata
      // from the per-flow hash carry arbitrary bits.
      route(src, dst, stratum & ~2, rng, out);
      return;
    case RouteMode::kValiant:
      route_valiant(src, dst, stratum, rng, out);
      return;
    case RouteMode::kUgal:
      if (rng.uniform(2) != 0)
        route_valiant(src, dst, stratum, rng, out);
      else
        route(src, dst, stratum & ~2, rng, out);
      return;
  }
}

void HammingMesh::sample_path_stratified(int src, int dst, int k,
                                         int num_strata, Rng& rng,
                                         std::vector<LinkId>& out,
                                         RouteMode mode) const {
  if (faulted())
    return Topology::sample_path_stratified(src, dst, k, num_strata, rng,
                                            out, mode);
  // A per-flow hash decorrelates the strata of different flows: without it
  // every flow's k-th subflow would pick the k-th parallel rail cable and
  // k-th spine, overloading a fixed subset of tree links. Adding k keeps
  // the direction bit alternating within a flow.
  std::uint32_t h = static_cast<std::uint32_t>(src) * 2654435761u ^
                    static_cast<std::uint32_t>(dst) * 0x9e3779b9u;
  const int stratum = static_cast<int>((h >> 8) & 0xffff) + k;
  if (mode == RouteMode::kValiant ||
      (mode == RouteMode::kUgal && (k & 1) != 0))
    route_valiant(src, dst, stratum, rng, out);
  else
    route(src, dst, stratum, rng, out);
}

void HammingMesh::route_valiant(int src, int dst, int stratum, Rng& rng,
                                std::vector<LinkId>& out) const {
  out.clear();
  if (src == dst) return;
  const int n = num_endpoints();
  if (n <= 2) return route(src, dst, stratum & ~2, rng, out);
  int mid = src;
  while (mid == src || mid == dst) mid = static_cast<int>(rng.uniform(n));
  route(src, mid, stratum & ~2, rng, out);
  std::vector<LinkId> tail;
  route(mid, dst, (stratum & ~2) ^ 1, rng, tail);
  out.insert(out.end(), tail.begin(), tail.end());
}

void HammingMesh::route(int src, int dst, int stratum, Rng& rng,
                        std::vector<LinkId>& out) const {
  out.clear();
  if (src == dst) return;
  int gx = gx_of(src), gy = gy_of(src);
  const int dgx = gx_of(dst), dgy = gy_of(dst);

  // Emits on-board mesh steps moving coordinate `dim` from cur to target.
  auto emit_mesh = [&](int dim, int target) {
    int& c = dim == 0 ? gx : gy;
    while (c != target) {
      int step = target > c ? 1 : -1;
      int d = dim == 0 ? (step > 0 ? 0 : 1) : (step > 0 ? 2 : 3);
      auto ls = mesh_links_[rank_at(gx, gy)][d];
      assert(!ls.empty());
      out.push_back(ls[rng.uniform(ls.size())]);
      c += step;
    }
  };

  // Moves one dimension to `target` (mesh steps and rail crossing).
  auto apply_dim = [&](int dim, int target) {
    const int n = dim == 0 ? params_.a : params_.b;
    int& c = dim == 0 ? gx : gy;
    if (c == target) return;
    const int line = dim == 0 ? gy : gx;
    const std::vector<std::int32_t>& boards = dim == 0 ? bx_of_gx_ : by_of_gy_;
    const std::vector<std::int32_t>& offs = dim == 0 ? ox_of_gx_ : oy_of_gy_;
    int bi = boards[c], bj = boards[target];
    int i = offs[c], j = offs[target];
    int rail = rail_hops(dim, line, bi, bj);
    if (bi == bj) {
      int direct = std::abs(i - j);
      int wrap1 = i + rail + (n - 1 - j);
      int wrap2 = (n - 1 - i) + rail + j;
      int best = std::min({direct, wrap1, wrap2});
      int options[3];
      std::size_t num_options = 0;
      if (direct == best) options[num_options++] = 0;
      if (wrap1 == best) options[num_options++] = 1;
      if (wrap2 == best) options[num_options++] = 2;
      int pick = options[rng.uniform(num_options)];
      if (pick == 0) {
        emit_mesh(dim, target);
      } else {
        int exit_side = pick == 1 ? 0 : 1;
        emit_mesh(dim, bi * n + (exit_side == 0 ? 0 : n - 1));
        emit_rail(dim, line, bi, bj, exit_side, 1 - exit_side, stratum, out);
        c = bj * n + (exit_side == 0 ? n - 1 : 0);
        emit_mesh(dim, target);
      }
      return;
    }
    // Different boards: exit/enter through the nearer edge (ties random).
    auto pick_side = [&](int coord) {
      int lo = coord, hi = n - 1 - coord;
      if (lo < hi) return 0;
      if (hi < lo) return 1;
      return static_cast<int>(rng.uniform(2));
    };
    int exit_side = pick_side(i), enter_side = pick_side(j);
    emit_mesh(dim, bi * n + (exit_side == 0 ? 0 : n - 1));
    emit_rail(dim, line, bi, bj, exit_side, enter_side, stratum, out);
    c = bj * n + (enter_side == 0 ? 0 : n - 1);
    emit_mesh(dim, target);
  };

  bool x_first = (stratum % 2) != 0;
  apply_dim(x_first ? 0 : 1, x_first ? dgx : dgy);
  apply_dim(x_first ? 1 : 0, x_first ? dgy : dgx);
}

}  // namespace hxmesh::topo
