#include "collectives/models.hpp"

#include <algorithm>
#include <cmath>

#include "collectives/hamiltonian.hpp"
#include "flow/patterns.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/torus.hpp"

namespace hxmesh::collectives {

namespace {

using Grid = std::vector<std::vector<int>>;

std::vector<int> coords_to_ranks(const std::vector<Coord>& coords,
                                 const Grid& grid) {
  std::vector<int> ring;
  ring.reserve(coords.size());
  for (auto [row, col] : coords) ring.push_back(grid[row][col]);
  return ring;
}

RingMapping grid_mapping(const Grid& grid) {
  const int rows = static_cast<int>(grid.size());
  const int cols = static_cast<int>(grid[0].size());
  RingMapping m;
  m.planes_simulated = 1;
  if (disjoint_rings_supported(rows, cols)) {
    DisjointRings rings = disjoint_hamiltonian_rings(rows, cols);
    m.rings.push_back(coords_to_ranks(rings.red, grid));
    m.rings.push_back(coords_to_ranks(rings.green, grid));
  } else {
    m.rings.push_back(coords_to_ranks(ring_order_grid(rows, cols), grid));
  }
  return m;
}

// Port-disjoint Hamiltonian cycle pair for a square n x n HyperX. Unlike a
// torus, a HyperX accelerator has two row ports and two column ports (not
// dedicated +/- neighbor links), so the Bae torus rings collide on the
// column ports wherever the "horizontal" ring crosses rows. This pair
// co-locates the two rings' dimension changes on the diagonal so every
// node spends exactly 2 row-port and 2 column-port transmissions:
//   red:   row k visits columns (k-1, k-2, ..., k) descending mod n, then
//          steps down to row k+1 at column k;
//   green: the transpose, column j visits rows (j, j-1, ..., j+1), then
//          steps right to column j+1 at row j+1.
RingMapping hyperx_mapping(const Grid& grid) {
  const int n = static_cast<int>(grid.size());
  RingMapping m;
  m.planes_simulated = 1;
  std::vector<int> red, green;
  for (int k = 0; k < n; ++k)
    for (int i = 0; i < n; ++i) red.push_back(grid[k][(k - 1 - i + 2 * n) % n]);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) green.push_back(grid[(j - i + n) % n][j]);
  m.rings.push_back(std::move(red));
  m.rings.push_back(std::move(green));
  return m;
}

}  // namespace

double per_hop_seconds() {
  return ps_to_s(kCableLatencyPs + kBufferLatencyPs) +
         static_cast<double>(kPacketBytes) / kLinkBandwidthBps;
}

Grid rank_grid(const topo::Topology& topology) {
  auto* hx = dynamic_cast<const topo::HammingMesh*>(&topology);
  auto* t = dynamic_cast<const topo::Torus*>(&topology);
  if (!hx && !t) return {};
  const int width = hx ? hx->accel_x() : t->params().width;
  const int height = hx ? hx->accel_y() : t->params().height;
  Grid grid(height, std::vector<int>(width));
  for (int gy = 0; gy < height; ++gy)
    for (int gx = 0; gx < width; ++gx)
      grid[gy][gx] = hx ? hx->rank_at(gx, gy) : t->rank_at(gx, gy);
  return grid;
}

RingMapping build_ring_mapping(const topo::Topology& topology) {
  const Grid grid = rank_grid(topology);
  if (grid.empty()) {
    // Fat tree / Dragonfly: one bidirectional ring in rank order
    // (consecutive ranks share leaves/routers) on each of the four
    // simulated planes.
    RingMapping m;
    m.planes_simulated = 4;
    std::vector<int> ring(topology.num_endpoints());
    for (int i = 0; i < topology.num_endpoints(); ++i) ring[i] = i;
    m.rings.push_back(std::move(ring));
    return m;
  }
  auto* hx = dynamic_cast<const topo::HammingMesh*>(&topology);
  if (hx && hx->params().a == 1 && hx->params().b == 1 &&
      hx->params().x == hx->params().y)
    return hyperx_mapping(grid);
  return grid_mapping(grid);
}

RingRates solve_rings(const flow::FlowSolver& solver,
                      const std::vector<std::vector<int>>& rings) {
  std::vector<flow::Flow> flows;
  for (const auto& ring : rings) {
    auto f = flow::ring_flows(ring, /*bidirectional=*/true);
    flows.insert(flows.end(), f.begin(), f.end());
  }
  RingRates result;
  result.converged = solver.solve(flows);
  result.min_rate_bps = flows.empty() ? 0.0 : flows.front().rate;
  for (const flow::Flow& f : flows)
    result.min_rate_bps = std::min(result.min_rate_bps, f.rate);
  return result;
}

MeasuredRing measure_ring(const topo::Topology& topology,
                          flow::FlowSolverConfig config) {
  RingMapping mapping = build_ring_mapping(topology);
  MeasuredRing result;
  result.p = topology.num_endpoints();
  result.directions_total =
      static_cast<int>(mapping.rings.size()) * 2 * mapping.planes_simulated;
  result.injection_bps =
      topology.injection_bandwidth() * mapping.planes_simulated;

  // Concurrent steady-state traffic of all rings in both directions.
  const RingRates rates = solve_rings(
      flow::FlowSolver(topology, flow::scaled_config(topology, config)),
      mapping.rings);
  result.rate_bps = rates.min_rate_bps;
  result.converged = rates.converged;

  // Per-step latency from sampled hop distances of the mapping.
  const picoseconds per_hop = kCableLatencyPs + kBufferLatencyPs;
  double dist_sum = 0.0;
  int samples = 0;
  for (const auto& ring : mapping.rings) {
    int n = static_cast<int>(ring.size());
    int stride = std::max(1, n / 128);
    for (int i = 0; i < n; i += stride) {
      dist_sum += topology.hop_distance(ring[i], ring[(i + 1) % n]);
      ++samples;
    }
  }
  double avg_dist = samples ? dist_sum / samples : 1.0;
  result.alpha_s = avg_dist * ps_to_s(per_hop);
  return result;
}

MeasuredAlltoall measure_alltoall(const flow::FlowSolver& solver, int n,
                                  int samples, topo::RouteMode route) {
  MeasuredAlltoall result;
  const int stride = std::max(1, (n - 1) / std::max(1, samples));
  std::vector<double> rates;
  // One rate per rank per sampled shift; at hx2mesh:64x64 scale the
  // reserve keeps the ensemble loop from re-growing a multi-MB vector.
  rates.reserve(static_cast<std::size_t>((n - 2) / stride + 1) * n);
  for (int shift = 1; shift < n; shift += stride) {
    auto flows = flow::shift_pattern(n, shift);
    result.converged &= solver.solve(flows, route);
    for (const flow::Flow& f : flows) rates.push_back(f.rate);
  }
  result.rates = summarize(std::move(rates));

  // Average per-round latency from sampled hop distances (far peers).
  const topo::Topology& topology = solver.topology();
  double dist = 0.0;
  int hops = 0;
  const int hop_stride = std::max(1, n / 64);
  for (int i = 0; i < n; i += hop_stride) {
    dist += topology.hop_distance(i, (i + n / 2 + 1) % n);
    ++hops;
  }
  result.alpha_s = (hops ? dist / hops : 1.0) * per_hop_seconds();
  return result;
}

double t_allreduce_rings(const MeasuredRing& ring, double s_bytes) {
  return 2.0 * ring.p * ring.alpha_s +
         2.0 * s_bytes / (ring.directions_total * ring.rate_bps);
}

double t_allreduce_torus2d(const MeasuredRing& ring, double s_bytes) {
  double sqrt_p = std::sqrt(static_cast<double>(ring.p));
  // The paper describes this algorithm as "2x less bandwidth-efficient"
  // than the rings (its row phases keep half the interfaces idle), so the
  // effective per-byte time doubles relative to the ring mapping.
  double beta = 8.0 / (ring.directions_total * ring.rate_bps);
  return 4.0 * sqrt_p * ring.alpha_s +
         s_bytes * beta * (1.0 + 2.0 * sqrt_p) / (4.0 * sqrt_p);
}

double allreduce_fraction_of_peak(const MeasuredRing& ring, double s_bytes,
                                  bool torus_algorithm) {
  double t = torus_algorithm ? t_allreduce_torus2d(ring, s_bytes)
                             : t_allreduce_rings(ring, s_bytes);
  double achieved = s_bytes / t;
  double optimum = ring.injection_bps / 2.0;
  return achieved / optimum;
}

}  // namespace hxmesh::collectives
