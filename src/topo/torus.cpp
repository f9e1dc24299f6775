#include "topo/torus.hpp"

#include <cassert>
#include <stdexcept>

namespace hxmesh::topo {

namespace {

// Closed-form oracle: a torus has no switches, so node_dist is the ring
// metric between the two endpoints' coordinates.
class TorusOracle final : public RoutingOracle {
 public:
  explicit TorusOracle(const Torus& t) : RoutingOracle(t.graph()), t_(t) {}
  std::int32_t node_dist(NodeId from, NodeId dst_node) const override {
    return t_.ring_distance(t_.rank_of(from), t_.rank_of(dst_node));
  }

 private:
  const Torus& t_;
};

}  // namespace

Torus::Torus(TorusParams params) : params_(params) {
  const int X = params_.width, Y = params_.height;
  if (X < 1 || Y < 1) throw std::invalid_argument("Torus: bad dimensions");
  for (int i = 0; i < X * Y; ++i) add_endpoint();

  auto board_of_x = [&](int gx) { return gx / params_.board_a; };
  auto board_of_y = [&](int gy) { return gy / params_.board_b; };
  auto connect = [&](int r1, int r2, bool same_board) {
    if (same_board)
      graph_.add_duplex(endpoint_node(r1), endpoint_node(r2),
                        kLinkBandwidthBps, kBoardLatencyPs, CableKind::kPcb);
    else
      graph_.add_duplex(endpoint_node(r1), endpoint_node(r2),
                        kLinkBandwidthBps, kCableLatencyPs, CableKind::kAoc);
  };

  for (int gy = 0; gy < Y; ++gy)
    for (int gx = 0; gx + 1 < X; ++gx)
      connect(rank_at(gx, gy), rank_at(gx + 1, gy),
              board_of_x(gx) == board_of_x(gx + 1));
  if (X > 2)
    for (int gy = 0; gy < Y; ++gy)
      connect(rank_at(X - 1, gy), rank_at(0, gy), false);

  for (int gx = 0; gx < X; ++gx)
    for (int gy = 0; gy + 1 < Y; ++gy)
      connect(rank_at(gx, gy), rank_at(gx, gy + 1),
              board_of_y(gy) == board_of_y(gy + 1));
  if (Y > 2)
    for (int gx = 0; gx < X; ++gx)
      connect(rank_at(gx, Y - 1), rank_at(gx, 0), false);

  finalize();
  set_routing_oracle(std::make_unique<TorusOracle>(*this));
}

std::string Torus::name() const {
  return std::to_string(params_.width) + "x" + std::to_string(params_.height) +
         " 2D torus";
}

void Torus::route(int src, int dst, int stratum, Rng& rng,
                  std::vector<LinkId>& out) const {
  (void)stratum;
  const int X = params_.width, Y = params_.height;
  auto steps_of = [&](int from, int to, int size) {
    int fwd = (to - from + size) % size;
    int bwd = size - fwd;
    if (fwd == 0) return 0;
    if (fwd < bwd) return fwd;          // +1 direction, fwd steps
    if (bwd < fwd) return -bwd;         // -1 direction, bwd steps
    return rng.uniform(2) ? fwd : -bwd; // tie: random side
  };
  int sx = steps_of(x_of(src), x_of(dst), X);
  int sy = steps_of(y_of(src), y_of(dst), Y);
  // Random minimal staircase: shuffle the multiset of unit moves.
  std::vector<int> moves;  // 0 = x step, 1 = y step
  for (int i = 0; i < std::abs(sx); ++i) moves.push_back(0);
  for (int i = 0; i < std::abs(sy); ++i) moves.push_back(1);
  rng.shuffle(moves);
  int cx = x_of(src), cy = y_of(src);
  for (int m : moves) {
    int nx = cx, ny = cy;
    if (m == 0)
      nx = (cx + (sx > 0 ? 1 : -1) + X) % X;
    else
      ny = (cy + (sy > 0 ? 1 : -1) + Y) % Y;
    LinkId l = graph_.find_link(endpoint_node(rank_at(cx, cy)),
                                endpoint_node(rank_at(nx, ny)));
    assert(l != kInvalidLink);
    out.push_back(l);
    cx = nx;
    cy = ny;
  }
}

bool Torus::one_minimal_path(int src, int dst) const {
  const int dx = x_of(dst) - x_of(src), dy = y_of(dst) - y_of(src);
  if ((dx != 0) == (dy != 0)) return false;  // two dimensions: many orders
  const int size = dx != 0 ? params_.width : params_.height;
  const int d = std::abs(dx != 0 ? dx : dy);
  return 2 * d != size;
}

}  // namespace hxmesh::topo
