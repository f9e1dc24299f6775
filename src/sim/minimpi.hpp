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
// Lifetimes:
//   - A payload is immutable and shared: the sender hands over a
//     shared_ptr<const vector>, each message in flight or waiting
//     unmatched holds one reference, and a receive handler reads it by
//     const reference for the duration of the call (copy what must
//     outlive it). MiniMPI drops its reference as soon as the handler
//     returns, so a sender that pools its buffers can tell a free one by
//     its use count. One buffer can therefore go to many ranks — an
//     alltoall block to every peer — while the simulator still charges
//     every message its full byte count.
//   - A handler is moved into MiniMPI by recv() and destroyed right after
//     it runs; one that never matches lives until the MiniMpi does.
//     Whatever a handler points to must outlive its run (the collectives
//     in collectives/runtime.hpp own their state for the length of their
//     run_* call).
//   - Each send and each posted receive occupies an envelope slot until
//     its match runs; slots are recycled, and the packet simulator's
//     delivery callback carries only the slot index. Handlers and
//     callbacks of up to 16 trivially copyable bytes (a pointer and two
//     ints) sit in std::function's inline storage, so in steady state the
//     message path allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/packet_sim.hpp"

namespace hxmesh::sim {

class MiniMpi {
 public:
  using Payload = std::vector<float>;
  using SharedPayload = std::shared_ptr<const Payload>;
  using RecvHandler = std::function<void(const Payload&)>;

  explicit MiniMpi(const topo::Topology& topology, PacketSimConfig config = {})
      : sim_(topology, config), table_(16) {}

  int num_ranks() const { return sim_.topology().num_endpoints(); }

  /// Sends `data` from `src` to `dst` with a tag. Transfer time models
  /// sizeof(float) * data->size() bytes. The same payload may be sent to
  /// any number of destinations.
  void send(int src, int dst, int tag, SharedPayload data);

  /// Registers a one-shot receive at `rank` matching (src, tag); fires at
  /// message arrival time (or immediately-next-event if already arrived).
  /// Receives and messages of one (rank, src, tag) match in FIFO order.
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
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // A message (data set) or a posted receive (handler set); a message
  // matched by a later receive carries both until its zero-delay fire.
  struct Envelope {
    int rank = 0, src = 0, tag = 0;  // rank: the receiving side
    SharedPayload data;
    RecvHandler handler;
    std::uint32_t next = kNone;  // FIFO link within its match queue
  };
  // The unmatched envelopes of one (rank, src, tag), oldest first: all
  // messages or all receives, since either kind consumes the other.
  // head == kNone marks an empty bucket of the open-addressing table.
  struct MatchQueue {
    int rank = 0, src = 0, tag = 0;
    std::uint32_t head = kNone, tail = kNone;
    bool receives = false;
  };

  std::uint32_t new_envelope();
  void free_envelope(std::uint32_t slot);
  // Runs the handler of envelope `slot` on its payload, then frees it.
  void fire(std::uint32_t slot);
  void deliver(std::uint32_t slot);

  // Match table: linear probing over a power-of-two bucket array, kept
  // at most half full; erase shifts later entries back, so no tombstones.
  std::size_t home(int rank, int src, int tag) const;
  std::size_t probe(int rank, int src, int tag) const;
  // Removes and returns the oldest envelope of the queue in bucket `b`
  // (dropping the queue when it empties).
  std::uint32_t pop_oldest(std::size_t b);
  // Appends envelope `slot` to its (rank, src, tag) queue of `receives`.
  void append(std::uint32_t slot, bool receives);
  void erase_bucket(std::size_t b);

  PacketSim sim_;
  std::vector<Envelope> envelopes_;
  std::vector<std::uint32_t> free_envelopes_;
  std::vector<MatchQueue> table_;
  std::size_t table_used_ = 0;
};

}  // namespace hxmesh::sim
