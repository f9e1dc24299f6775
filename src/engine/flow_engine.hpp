// Flow-level SimEngine: adapter over flow::FlowSolver.
//
// Cheap steady-state bandwidth at any scale — the backend behind Table II
// and Figures 11-13/17. Point-to-point patterns solve here; alltoall and
// allreduce read the measurements of src/collectives (measure_alltoall,
// measure_ring), which CommEnv and the benches share.
#pragma once

#include <array>

#include "collectives/models.hpp"
#include "engine/engine.hpp"
#include "flow/flow_sim.hpp"

namespace hxmesh::engine {

class FlowEngine : public SimEngine {
 public:
  /// Solves under `config` and the path rule (flow::scaled_config).
  explicit FlowEngine(const topo::Topology& topology,
                      flow::FlowSolverConfig config = {});

  std::string name() const override { return "flow"; }
  RunResult run(const flow::TrafficSpec& spec) override;

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
