// MiniMPI: a tiny message-passing runtime on top of the packet simulator.
//
// Rank programs are message-driven state machines: send() injects a tagged
// payload, recv() registers a one-shot handler for a (src, tag) match.
// Payloads are real float vectors, so collective implementations can be
// verified for numerical correctness, not just timing (the paper runs
// "slightly modified full MPI applications" inside SST; this is our
// equivalent). Message timing is simulated by PacketSim; payloads hop onto
// the destination when the last packet arrives.
//
// A payload is immutable and shared: the sender hands over a
// shared_ptr<const vector>, each message in flight holds one reference,
// and a receive handler reads it by const reference for the duration of
// the call (copy what must outlive it). One buffer can therefore go to
// many ranks — an alltoall block to every peer — while the simulator
// still charges every message its full byte count.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "sim/packet_sim.hpp"

namespace hxmesh::sim {

class MiniMpi {
 public:
  using Payload = std::vector<float>;
  using SharedPayload = std::shared_ptr<const Payload>;
  using RecvHandler = std::function<void(const Payload&)>;

  explicit MiniMpi(const topo::Topology& topology, PacketSimConfig config = {})
      : sim_(topology, config) {}

  int num_ranks() const { return sim_.topology().num_endpoints(); }

  /// Sends `data` from `src` to `dst` with a tag. Transfer time models
  /// sizeof(float) * data->size() bytes. The same payload may be sent to
  /// any number of destinations.
  void send(int src, int dst, int tag, SharedPayload data);

  /// Registers a one-shot receive at `rank` matching (src, tag); fires at
  /// message arrival time (or immediately-next-event if already arrived).
  void recv(int rank, int src, int tag, RecvHandler handler);

  /// Schedules a callback after a simulated compute delay at a rank.
  void compute(picoseconds delay, std::function<void()> fn) {
    sim_.schedule_in(delay, std::move(fn));
  }

  /// Runs to completion; returns the finish time.
  picoseconds run() { return sim_.run(); }

  picoseconds now() const { return sim_.now(); }
  PacketSim& sim() { return sim_; }

 private:
  using Key = std::tuple<int, int, int>;  // (rank, src, tag)
  void deliver(int rank, int src, int tag, SharedPayload data);

  PacketSim sim_;
  // Unmatched messages and receives. A multimap keeps equal keys in
  // insertion order, so lower_bound finds the oldest (MPI's FIFO match).
  std::multimap<Key, SharedPayload> unexpected_;
  std::multimap<Key, RecvHandler> pending_;
};

}  // namespace hxmesh::sim
