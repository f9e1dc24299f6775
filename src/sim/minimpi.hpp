// MiniMPI: a tiny message-passing runtime on top of the packet simulator.
//
// Rank programs are message-driven state machines: send() injects a tagged
// message, recv() registers a one-shot handler for a (src, tag) match.
// A message is a byte count, which PacketSim charges in full, plus a
// 16-byte Witness of whose contributions the data it stands for holds.
// Collectives reduce and copy witnesses the way they would reduce and copy
// floats, so a lost, duplicated or stale contribution shows at any scale
// without carrying the data (the paper runs "slightly modified full MPI
// applications" inside SST; this is our equivalent). The witness hops onto
// the destination when the last packet arrives.
//
// Lifetimes:
//   - A message's byte count and witness sit inline in its envelope, and a
//     receive handler gets them by value.
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
#include <vector>

#include "sim/packet_sim.hpp"

namespace hxmesh::sim {

/// Who contributed to a message's data: a contributor count and a wrapping
/// 64-bit sum of the contributors' keys, where a rank's key is a hash of
/// the rank. Adding witnesses models reducing their data, so two equal
/// witnesses name the same contributions (up to a key-sum collision).
struct Witness {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  /// The contribution of `rank` alone.
  static Witness of(int rank);
  /// Data mixed from pieces with different witnesses: its count is no
  /// rank count, so it equals no sum of contributions. Collectives only
  /// copy it: the segments a reduce-scatter message spans are all equal.
  static Witness poisoned() { return {~std::uint64_t{0}, 0}; }

  Witness& operator+=(const Witness& other) {
    count += other.count;
    sum += other.sum;
    return *this;
  }
  friend bool operator==(const Witness&, const Witness&) = default;
};

class MiniMpi {
 public:
  using RecvHandler = std::function<void(std::uint64_t bytes, Witness witness)>;

  explicit MiniMpi(const topo::Topology& topology, PacketSimConfig config = {})
      : sim_(topology, config), table_(16) {}

  int num_ranks() const { return sim_.topology().num_endpoints(); }

  /// Sends a message of `bytes` bytes carrying `witness` from `src` to
  /// `dst` with a tag.
  void send(int src, int dst, int tag, std::uint64_t bytes, Witness witness);

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

  // A message (bytes and witness set) or a posted receive (handler set); a
  // message matched by a later receive carries both until its zero-delay
  // fire.
  struct Envelope {
    int rank = 0, src = 0, tag = 0;  // rank: the receiving side
    std::uint64_t bytes = 0;
    Witness witness;
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
  // Runs the handler of envelope `slot` on its message, then frees it.
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
