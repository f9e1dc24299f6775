// Flow-level SimEngine: adapter over flow::FlowSolver.
//
// Cheap steady-state bandwidth at any scale — the backend behind Table II
// and Figures 11-13/17. Also the library's single entry point for max-min
// rate solving: layers that need raw rates for their own models (CommEnv,
// measure_ring) call solve() here instead of constructing a FlowSolver,
// so swapping the solver implementation touches one file.
#pragma once

#include <array>

#include "collectives/models.hpp"
#include "engine/engine.hpp"
#include "flow/flow_sim.hpp"

namespace hxmesh::engine {

class FlowEngine : public SimEngine {
 public:
  /// The default config bumps paths_per_flow to 16 beyond 4,096 endpoints,
  /// where the stratified subflows must cover wider rail-tree diversity.
  explicit FlowEngine(const topo::Topology& topology,
                      flow::FlowSolverConfig config = {});

  std::string name() const override { return "flow"; }
  RunResult run(const flow::TrafficSpec& spec) override;

  /// Max-min fair rates for an explicit flow list (rates written in place).
  /// Returns whether the filling converged.
  bool solve(std::vector<flow::Flow>& flows) const {
    return solver_.solve(flows);
  }

  const flow::FlowSolverConfig& config() const { return solver_.config(); }

 private:
  RunResult run_point_to_point(const flow::TrafficSpec& spec);
  RunResult run_alltoall(const flow::TrafficSpec& spec);
  RunResult run_allreduce(const flow::TrafficSpec& spec);

  flow::FlowSolver solver_;
  // Lazily measured ring mapping, reused across allreduce specs (message
  // size changes per sweep point, the mapping and its rates do not —
  // but the routing mode does, so the cache is per mode).
  std::array<bool, topo::kNumRouteModes> ring_measured_{};
  std::array<collectives::MeasuredRing, topo::kNumRouteModes> ring_;
};

}  // namespace hxmesh::engine
