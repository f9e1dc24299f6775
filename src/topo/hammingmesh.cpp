#include "topo/hammingmesh.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace hxmesh::topo {

namespace {
int ceil_div(int a, int b) { return (a + b - 1) / b; }

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

// Adds the duplex cable u <-> v, which the id layout numbers `duplex`.
void add_cable(Graph& g, NodeId u, NodeId v, CableKind kind,
               [[maybe_unused]] LinkId duplex) {
  [[maybe_unused]] const LinkId id = g.add_duplex(u, v, kind);
  assert(id == 2 * duplex && "HammingMesh: link id off its closed form");
}
}  // namespace

std::array<HammingMesh::RailShape, 2> HammingMesh::rail_shapes(
    const HxMeshParams& p) {
  // A line's rail is a single switch when its 2 * boards edge ports fit
  // the radix, else a two-level fat tree, optionally tapered.
  std::array<RailShape, 2> rails;
  LinkId next_link = static_cast<LinkId>(p.x * p.y) *
                     (p.b * (p.a - 1) + p.a * (p.b - 1));
  NodeId next_node = static_cast<NodeId>(p.a * p.x * p.b * p.y);
  for (int dim = 0; dim < 2; ++dim) {
    RailShape& r = rails[dim];
    r.boards = dim == 0 ? p.x : p.y;
    r.lines = dim == 0 ? p.b * p.y : p.a * p.x;
    r.n = dim == 0 ? p.a : p.b;
    const int ports = 2 * r.boards;
    int ports_per_leaf = ports;  // single leaf: every port maps to it
    if (ports > p.radix) {
      r.levels = 2;
      ports_per_leaf = p.radix / 2;
      r.leaves = ceil_div(ports, ports_per_leaf);
      r.up = std::max(1, static_cast<int>(ports_per_leaf * p.rail_taper));
      r.spines = ceil_div(r.leaves * r.up, p.radix);
      assert(r.spines <= r.up &&
             "rail fat tree: leaves must reach every spine");
    }
    r.first_switch = next_node;
    next_node += static_cast<NodeId>(r.lines * (r.leaves + r.spines));
    r.trunk_base = next_link;
    r.port_base = r.trunk_base + static_cast<LinkId>(r.lines * r.leaves * r.up);
    next_link = r.port_base + static_cast<LinkId>(r.lines * r.boards * 2);
    r.leaf_of_board.resize(r.boards);
    for (int board = 0; board < r.boards; ++board)
      r.leaf_of_board[board] = (2 * board) / ports_per_leaf;
    r.bundles.resize(static_cast<std::size_t>(r.leaves) * r.spines);
    for (int i = 0; i < r.leaves; ++i)
      for (int k = 0; k < r.up; ++k) {
        RailShape::Bundle& cables =
            r.bundles[i * r.spines + (i * r.up + k) % r.spines];
        if (cables.count++ == 0) cables.first = k;
      }
  }
  return rails;
}

HammingMesh::Size HammingMesh::size_of(const HxMeshParams& p) {
  // Both counts are where the id layout ends: after the y rails' switches
  // and after their edge-port cables.
  const auto rails = rail_shapes(p);
  const RailShape& y = rails[1];
  return {y.leaf(y.lines, 0),
          2 * static_cast<std::size_t>(y.port(y.lines, 0, 0))};
}

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
  explicit Oracle(const HammingMesh& hx) : RoutingOracle(hx.graph()), hx_(hx) {}

  std::int32_t node_dist(NodeId from, NodeId dst_node) const override {
    const int dd = hx_.rank_of(dst_node);
    const int s = hx_.rank_of(from);
    if (s >= 0) return hx_.dist(s, dd);
    // A switch: decode (dim, line, leaf or spine) from the id layout.
    const int dim = from >= hx_.rails_[1].first_switch ? 1 : 0;
    const RailShape& r = hx_.rails_[dim];
    const int per_line = r.leaves + r.spines;
    const int line = static_cast<int>(from - r.first_switch) / per_line;
    const int idx = static_cast<int>(from - r.first_switch) % per_line;
    const int dgx = hx_.gx_of(dd), dgy = hx_.gy_of(dd);
    const int cross =
        dim == 0 ? dim_cost_of(1, line, dgy) : dim_cost_of(0, line, dgx);
    const int dcoord = dim == 0 ? dgx : dgy;
    int leaf_min = kFar, all_min = kFar;
    for (int b = 0; b < r.boards; ++b) {
      const int c = std::min(port_cost(dim, b, 0, dcoord),
                             port_cost(dim, b, 1, dcoord));
      all_min = std::min(all_min, c);
      if (r.leaf_of_board[b] == idx) leaf_min = std::min(leaf_min, c);
    }
    if (idx >= r.leaves) return cross + 2 + all_min;  // a spine
    int best = leaf_min == kFar ? kFar : 1 + leaf_min;
    if (r.spines > 0) best = std::min(best, 3 + all_min);
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
    for (int r = 0; r < hx_.num_endpoints(); ++r)
      out[hx_.endpoint_node(r)] = costx[hx_.gx_of(r)] + costy[hx_.gy_of(r)];

    // Every line's rail has one shape, so each leaf index (and the spines)
    // has one distance past the line's cross-dimension cost.
    std::vector<std::int32_t> leaf_best;
    for (int dim = 0; dim < 2; ++dim) {
      const RailShape& r = hx_.rails_[dim];
      const std::vector<std::int32_t>& cost = dim == 0 ? costx : costy;
      leaf_best.assign(r.leaves, kFar);  // port minima per leaf first
      std::int32_t all_min = kFar;
      for (int b = 0; b < r.boards; ++b) {
        const std::int32_t c =
            std::min(cost[b * r.n], cost[b * r.n + r.n - 1]);
        std::int32_t& lm = leaf_best[r.leaf_of_board[b]];
        lm = std::min(lm, c);
        all_min = std::min(all_min, c);
      }
      for (std::int32_t& best : leaf_best) {
        if (best != kFar) best += 1;
        if (r.spines > 0) best = std::min(best, 3 + all_min);
      }
      const std::vector<std::int32_t>& cross = dim == 0 ? costy : costx;
      NodeId node = r.first_switch;
      for (int line = 0; line < r.lines; ++line) {
        for (std::int32_t best : leaf_best) out[node++] = cross[line] + best;
        for (int s = 0; s < r.spines; ++s)
          out[node++] = cross[line] + 2 + all_min;
      }
    }
  }

 private:
  // Far sentinel for leaves that serve no board edge (possible with odd
  // ports-per-leaf splits); large but overflow-safe under the +3 above.
  static constexpr std::int32_t kFar = 1 << 28;

  // Minimal per-dimension cost from global coordinate g to dg (dim 0: x).
  std::int32_t dim_cost_of(int dim, int g, int dg) const {
    if (dim == 0)
      return dim_cost(hx_.ox_of_gx_[g], hx_.ox_of_gx_[dg], hx_.bx_of_gx_[g],
                      hx_.bx_of_gx_[dg], hx_.params_.a,
                      hx_.rail_hops(0, hx_.bx_of_gx_[g], hx_.bx_of_gx_[dg]));
    return dim_cost(hx_.oy_of_gy_[g], hx_.oy_of_gy_[dg], hx_.by_of_gy_[g],
                    hx_.by_of_gy_[dg], hx_.params_.b,
                    hx_.rail_hops(1, hx_.by_of_gy_[g], hx_.by_of_gy_[dg]));
  }

  // Cost from the edge accelerator of `board`, side 0 (low) or 1 (high),
  // to destination coordinate dg along `dim`.
  std::int32_t port_cost(int dim, int board, int side, int dg) const {
    const int n = hx_.rails_[dim].n;
    return dim_cost_of(dim, board * n + (side ? n - 1 : 0), dg);
  }

  const HammingMesh& hx_;
};

HammingMesh::HammingMesh(HxMeshParams params) : params_(params) {
  const int a = params_.a, b = params_.b, x = params_.x, y = params_.y;
  if (a < 1 || b < 1 || x < 1 || y < 1 || params_.radix < 4)
    throw std::invalid_argument("HammingMesh: bad parameters");

  // Size first, then build: the node and link arrays never regrow.
  rails_ = rail_shapes(params_);
  mesh_per_board_ = static_cast<LinkId>(b * (a - 1) + a * (b - 1));
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
  for (int gy = 0; gy < accel_y(); gy += b)
    for (int gx = 0; gx < accel_x(); gx += a) {
      for (int j = 0; j < b; ++j)
        for (int i = 0; i + 1 < a; ++i)
          add_cable(graph_, endpoint_node(rank_at(gx + i, gy + j)),
                    endpoint_node(rank_at(gx + i + 1, gy + j)),
                    CableKind::kPcb, mesh_base(0, gx, gy + j) + i);
      for (int i = 0; i < a; ++i)
        for (int j = 0; j + 1 < b; ++j)
          add_cable(graph_, endpoint_node(rank_at(gx + i, gy + j)),
                    endpoint_node(rank_at(gx + i, gy + j + 1)),
                    CableKind::kPcb, mesh_base(1, gx + i, gy) + j);
    }

  add_rails(0);
  add_rails(1);
  finalize();
  set_routing_oracle(std::make_unique<Oracle>(*this));
}

void HammingMesh::add_rails(int dim) {
  // dim 0: lines are accelerator rows (gy), boards indexed by bx.
  // dim 1: lines are accelerator columns (gx), boards indexed by by.
  // Single-switch rails are one logical switch per accelerator line. The
  // physical machine may merge several lines of a board row into one
  // 64-port switch (the paper's small Hx2Mesh does); num_switches()
  // accounts for that merging, but routing stays within a line, matching
  // the paper's routing description and diameter formula (a packet never
  // changes its row by crossing an x-rail).
  const RailShape& r = rails_[dim];
  assert(graph_.num_nodes() == r.first_switch);
  for (int i = 0; i < r.lines * (r.leaves + r.spines); ++i) add_switch();
  for (int line = 0; line < r.lines; ++line)
    for (int i = 0; i < r.leaves; ++i)
      for (int k = 0; k < r.up; ++k)
        add_cable(graph_, r.leaf(line, i),
                  r.spine(line, (i * r.up + k) % r.spines), CableKind::kAoc,
                  r.trunk(line, i, k));

  // Attach the board edge ports: side 0 is W (S), side 1 is E (N).
  const CableKind port_cable = dim == 0 ? CableKind::kDac : CableKind::kAoc;
  for (int line = 0; line < r.lines; ++line)
    for (int board = 0; board < r.boards; ++board)
      for (int side = 0; side < 2; ++side) {
        const int coord = board * r.n + side * (r.n - 1);
        const int rank = dim == 0 ? rank_at(coord, line) : rank_at(line, coord);
        add_cable(graph_, endpoint_node(rank),
                  r.leaf(line, r.leaf_of_board[board]), port_cable,
                  r.port(line, board, side));
      }
}

int HammingMesh::rail_hops(int dim, int b1, int b2) const {
  const auto& leaf = rails_[dim].leaf_of_board;
  return leaf[b1] == leaf[b2] ? 2 : 4;
}

LinkId HammingMesh::mesh_base(int dim, int gx, int gy) const {
  const int a = params_.a, b = params_.b;
  const LinkId board =
      static_cast<LinkId>(by_of_gy_[gy] * params_.x + bx_of_gx_[gx]) *
      mesh_per_board_;
  if (dim == 0) return board + static_cast<LinkId>(oy_of_gy_[gy] * (a - 1));
  return board + static_cast<LinkId>(b * (a - 1) + ox_of_gx_[gx] * (b - 1));
}

int HammingMesh::dist(int src_rank, int dst_rank) const {
  const int a = params_.a, b = params_.b;
  int is = ox_of_gx_[gx_of_[src_rank]], id = ox_of_gx_[gx_of_[dst_rank]];
  int js = oy_of_gy_[gy_of_[src_rank]], jd = oy_of_gy_[gy_of_[dst_rank]];
  int bxs = board_x_of(src_rank), bxd = board_x_of(dst_rank);
  int bys = board_y_of(src_rank), byd = board_y_of(dst_rank);
  return dim_cost(is, id, bxs, bxd, a, rail_hops(0, bxs, bxd)) +
         dim_cost(js, jd, bys, byd, b, rail_hops(1, bys, byd));
}

int HammingMesh::diameter_formula() const {
  auto worst = [&](const RailShape& r) {
    int rail_far = (r.levels == 2 && r.leaves > 1) ? 4 : 2;
    int w = 0;
    for (int i = 0; i < r.n; ++i)
      for (int j = 0; j < r.n; ++j) {
        // Same-board worst case always applies; different boards only if
        // the dimension has more than one board.
        w = std::max(w, dim_cost(i, j, 0, 0, r.n, 2));
        if (r.boards > 1) w = std::max(w, dim_cost(i, j, 0, 1, r.n, rail_far));
      }
    return w;
  };
  return worst(rails_[0]) + worst(rails_[1]);
}

int HammingMesh::num_switches() const {
  // Single-switch rails are merged so one physical switch serves
  // floor(radix / (2*boards)) neighboring lines of a board row/column
  // (Appendix C); fat-tree rails are one tree per line.
  auto physical = [&](const RailShape& r, int per_board) {
    if (r.levels == 2) return r.lines * (r.leaves + r.spines);
    const int lines_per_switch =
        std::max(1, std::min(params_.radix / (2 * r.boards), per_board));
    return r.lines / per_board * ceil_div(per_board, lines_per_switch);
  };
  return physical(rails_[0], params_.b) + physical(rails_[1], params_.a);
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

void HammingMesh::emit_rail(int dim, int line, int from_board, int to_board,
                            int from_side, int to_side, int stratum,
                            std::vector<LinkId>& out) const {
  const RailShape& r = rails_[dim];
  // Parallel cables are chosen by stratum so a flow's subflows spread over
  // them evenly, like per-packet adaptive spraying would. The stratum is
  // Weyl-hashed: a plain modulo would tie the parallel-cable parity to the
  // spine parity (both derive from stratum), idling half of every
  // leaf-spine bundle.
  const auto spread = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(stratum)) *
      0x9e3779b97f4a7c15ull >> 33);
  // On 1-wide boards both sides are one accelerator, whose two cables to
  // the leaf form one bundle: the hash picks the cable.
  if (r.n == 1) from_side = to_side = static_cast<int>(spread % 2);
  out.push_back(2 * r.port(line, from_board, from_side));
  const int lf = r.leaf_of_board[from_board];
  const int lt = r.leaf_of_board[to_board];
  if (lf != lt) {
    const int spine = stratum % r.spines;
    auto trunk = [&](int leaf) {
      const RailShape::Bundle& cables = r.bundles[leaf * r.spines + spine];
      int k = cables.first;  // no modulo on single cables
      if (cables.count > 1)
        k += static_cast<int>(spread % cables.count) * r.spines;
      return r.trunk(line, leaf, k);
    };
    out.push_back(2 * trunk(lf));
    out.push_back(2 * trunk(lt) + 1);
  }
  out.push_back(2 * r.port(line, to_board, to_side) + 1);
}

void HammingMesh::route(int src, int dst, int stratum, Rng& rng,
                        std::vector<LinkId>& out) const {
  int gx = gx_of(src), gy = gy_of(src);
  const int dgx = gx_of(dst), dgy = gy_of(dst);

  // Emits on-board mesh steps moving coordinate `dim` from cur to target,
  // all on the current board.
  auto emit_mesh = [&](int dim, int target) {
    int& c = dim == 0 ? gx : gy;
    if (c == target) return;
    const LinkId base = mesh_base(dim, gx, gy);
    const int step = target > c ? 1 : -1;
    for (int o = (dim == 0 ? ox_of_gx_ : oy_of_gy_)[c]; c != target;
         o += step, c += step) {
      out.push_back(step > 0 ? 2 * (base + o) : 2 * (base + o - 1) + 1);
      // One cable, but still one draw per step, as a bundle pick makes:
      // dropping it would shift every later choice of the flow.
      rng.next();
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
    int rail = rail_hops(dim, bi, bj);
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

bool HammingMesh::one_minimal_path(int src, int dst) const {
  // Both coordinates differing leaves two dimension orders.
  const bool moves_x = gx_of(src) != gx_of(dst);
  if (moves_x == (gy_of(src) != gy_of(dst))) return false;
  const int dim = moves_x ? 0 : 1;
  const int c = moves_x ? gx_of(src) : gy_of(src);
  const int target = moves_x ? gx_of(dst) : gy_of(dst);
  const std::vector<std::int32_t>& boards = moves_x ? bx_of_gx_ : by_of_gy_;
  const std::vector<std::int32_t>& offs = moves_x ? ox_of_gx_ : oy_of_gy_;
  const RailShape& r = rails_[dim];
  const int n = r.n, bi = boards[c], bj = boards[target];
  const int i = offs[c], j = offs[target];
  if (bi == bj) {  // route()'s options on one board: exactly one is best
    const int rail = rail_hops(dim, bi, bj);
    const int direct = std::abs(i - j), wrap1 = i + rail + (n - 1 - j),
              wrap2 = (n - 1 - i) + rail + j;
    const int best = std::min({direct, wrap1, wrap2});
    return (direct == best) + (wrap1 == best) + (wrap2 == best) == 1;
  }
  // Across boards: one leaf joins them, and neither edge pick is a tie (on
  // a 1-wide board it always is: its two side cables are parallel).
  return r.leaf_of_board[bi] == r.leaf_of_board[bj] && 2 * i != n - 1 &&
         2 * j != n - 1;
}

}  // namespace hxmesh::topo
