// Regenerates Figure 11: alltoall bandwidth per accelerator vs message
// size on the small topologies (flow-engine steady rates composed with the
// alpha-beta round model). The per-topology measurements fan across the
// harness pool; the size columns are closed-form on top of them.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "workload/comm_env.hpp"

using namespace hxmesh;

int main() {
  std::printf("Figure 11: alltoall bandwidth vs message size, small "
              "cluster [GB/s per accelerator, all planes]\n\n");
  const std::vector<std::uint64_t> sizes = {4 * KiB,  16 * KiB, 64 * KiB,
                                            256 * KiB, 1 * MiB,  4 * MiB};
  engine::ExperimentHarness harness(benchutil::threads());
  auto specs = benchutil::paper_specs(topo::ClusterSize::kSmall);
  auto labels = benchutil::paper_labels();

  struct Measured {
    double rate = 0;   // steady per-rank alltoall rate, all planes [B/s]
    double alpha = 0;  // per-round latency [s]
  };
  auto measured = harness.map<Measured>(specs.size(), [&](std::size_t i) {
    auto t = engine::make_topology(specs[i]);
    workload::CommEnv env(*t);
    const collectives::MeasuredAlltoall a2a = env.alltoall(t->num_endpoints());
    return Measured{a2a.rates.mean * env.plane_factor(), a2a.alpha_s};
  });

  std::vector<std::string> headers = {"Topology"};
  for (auto s : sizes)
    headers.push_back(s >= MiB ? std::to_string(s / MiB) + "MiB"
                               : std::to_string(s / KiB) + "KiB");
  Table table(headers);
  std::vector<JsonObject> json;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::vector<std::string> row = {labels[i]};
    for (auto s : sizes) {
      // Per-peer message of s bytes, p-1 rounds; bandwidth saturates at the
      // steady alltoall rate for large messages.
      double per_round = measured[i].alpha +
                         static_cast<double>(s) / measured[i].rate;
      double bw = static_cast<double>(s) / per_round;
      row.push_back(fmt(bw / 1e9, 1));
      JsonObject obj;
      obj.add("topology", specs[i])
          .add("label", labels[i])
          .add("message_bytes", s)
          .add("bandwidth_bps", bw)
          .add("steady_rate_bps", measured[i].rate)
          .add("alpha_s", measured[i].alpha);
      json.push_back(std::move(obj));
    }
    table.add_row(row);
  }
  table.print();
  std::printf("\n(Table II reports the large-message plateau of these "
              "curves as %% of injection.)\n");
  benchutil::write_json_objects("BENCH_fig11.json", json);
  return 0;
}
