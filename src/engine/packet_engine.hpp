// Packet-level SimEngine: adapter over sim::PacketSim / sim::MiniMpi.
//
// Exact virtual-cut-through timing at small scale — the Appendix F
// evaluation path. Point-to-point specs inject one message per flow and
// measure per-flow goodput; collective specs run the real MiniMPI
// collective implementations (two edge-disjoint Hamiltonian rings where
// the topology supports them) and verify their contribution witnesses:
// every allreduce segment of every rank holds every rank's contribution,
// and every alltoall block arrived from its sender. So a RunResult from
// this engine carries both timing and a verified payload.
#pragma once

#include "engine/engine.hpp"
#include "sim/packet_sim.hpp"

namespace hxmesh::engine {

class PacketEngine : public SimEngine {
 public:
  explicit PacketEngine(const topo::Topology& topology,
                        sim::PacketSimConfig config = {});

  std::string name() const override { return "packet"; }
  RunResult run(const flow::TrafficSpec& spec) override;

  const sim::PacketSimConfig& config() const { return config_; }

 private:
  RunResult run_point_to_point(const flow::TrafficSpec& spec);
  RunResult run_alltoall(const flow::TrafficSpec& spec);
  RunResult run_allreduce(const flow::TrafficSpec& spec);

  sim::PacketSimConfig config_;
};

}  // namespace hxmesh::engine
