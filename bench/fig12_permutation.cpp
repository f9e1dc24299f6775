// Regenerates Figure 12: distribution of per-accelerator receive bandwidth
// under random permutation traffic on the small topologies, plus the
// average bandwidth and the cost per average bandwidth relative to the
// nonblocking fat tree. One harness grid: 8 topologies x 4 permutation
// seeds on the flow engine, solved in parallel.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "cost/cost_model.hpp"

using namespace hxmesh;

int main() {
  std::printf("Figure 12: receive bandwidth distribution, random "
              "permutations, small cluster [GB/s per accelerator/plane "
              "set]\n\n");
  engine::ExperimentHarness harness(benchutil::threads());

  engine::SweepConfig sweep;
  sweep.topologies = benchutil::paper_specs(topo::ClusterSize::kSmall);
  sweep.engines = {"flow"};
  flow::TrafficSpec perm;
  perm.kind = flow::PatternKind::kPermutation;
  sweep.patterns = {perm};
  sweep.seeds = {31, 32, 33, 34};
  auto rows = benchutil::run_grid(harness, sweep, benchutil::paper_labels());

  // Network cost per topology, computed alongside.
  auto costs = harness.map<double>(sweep.topologies.size(), [&](std::size_t i) {
    auto t = engine::make_topology(sweep.topologies[i]);
    return cost::bom_for(*t).total_musd();
  });

  Table table({"Topology", "min", "p25", "median", "p75", "max", "mean",
               "cost/avgBW vs FT"});
  const std::size_t trials = sweep.seeds.size();
  double ft_ratio = 0.0;
  for (std::size_t ti = 0; ti < sweep.topologies.size(); ++ti) {
    // Combine the seeds' receive-rate summaries [GB/s]. Every seed has the
    // same flow count, so min, max and mean are those of the pooled rates;
    // the quartiles are the mean over seeds of each seed's quartile.
    Summary s;
    s.min = s.max = rows[ti * trials].result.rate_summary.min;
    for (std::size_t si = 0; si < trials; ++si) {
      const Summary& seed = rows[ti * trials + si].result.rate_summary;
      s.min = std::min(s.min, seed.min);
      s.max = std::max(s.max, seed.max);
      s.mean += seed.mean / trials;
      s.p25 += seed.p25 / trials;
      s.median += seed.median / trials;
      s.p75 += seed.p75 / trials;
    }
    for (double* v : {&s.min, &s.p25, &s.median, &s.p75, &s.max, &s.mean})
      *v /= 1e9;
    double ratio = costs[ti] / s.mean;
    if (ti == 0) ft_ratio = ratio;  // row 0 is the nonblocking fat tree
    table.add_row({rows[ti * trials].label, fmt(s.min, 1), fmt(s.p25, 1),
                   fmt(s.median, 1), fmt(s.p75, 1), fmt(s.max, 1),
                   fmt(s.mean, 1), fmt(ratio / ft_ratio, 2) + "x"});
  }
  table.print();
  engine::write_json("BENCH_fig12.json", rows);
  return 0;
}
