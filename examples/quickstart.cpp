// Quickstart: build a small HammingMesh from a spec string, look at its
// structure and price, then run a real allreduce over two edge-disjoint
// Hamiltonian rings on the packet-level engine — completion time comes
// from the simulator, and every rank is verified to end with every rank's
// contribution.
//
//   $ ./quickstart
#include <cstdio>

#include "cost/cost_model.hpp"
#include "engine/factory.hpp"
#include "topo/hammingmesh.hpp"

using namespace hxmesh;

int main() {
  // A 4x4 grid of 2x2 boards = 64 accelerators, one plane modeled.
  auto t = engine::make_topology("hx2mesh:4x4");
  auto& hx = dynamic_cast<const topo::HammingMesh&>(*t);
  std::printf("topology : %s (%d accelerators, %d rail switches/plane)\n",
              hx.name().c_str(), hx.num_endpoints(), hx.num_switches());
  std::printf("diameter : %d cables\n", hx.diameter());

  cost::Bom bom = cost::hxmesh_bom(hx);
  std::printf("price    : $%.0f (%lld switches, %lld DAC, %lld AoC)\n",
              bom.total_usd(), bom.switches, bom.dac_cables, bom.aoc_cables);

  // The packet engine maps the allreduce onto the two edge-disjoint
  // Hamiltonian cycles of the accelerator grid (Appendix D) and verifies
  // the contribution witnesses of the reduced buffers.
  auto eng = engine::make_engine("packet", *t);
  flow::TrafficSpec spec;
  spec.kind = flow::PatternKind::kAllreduce;
  spec.message_bytes = 256 * KiB;  // per rank
  engine::RunResult result = eng->run(spec);

  double algo_bw = static_cast<double>(spec.message_bytes) /
                   result.completion_s;
  std::printf("allreduce: %d ranks x %llu KiB in %.2f us -> %.1f GB/s "
              "(peak %.1f GB/s, %.0f%% of peak), result %s\n",
              hx.num_endpoints(),
              static_cast<unsigned long long>(spec.message_bytes / KiB),
              result.completion_s * 1e6, algo_bw / 1e9,
              hx.injection_bandwidth() / 2 / 1e9,
              result.fraction_of_peak * 100,
              result.numerics_ok ? "correct" : "WRONG");
  return result.numerics_ok ? 0 : 1;
}
