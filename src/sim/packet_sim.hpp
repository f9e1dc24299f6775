// Packet-level network simulator (the SST substitute, Appendix F).
//
// Model: virtual cut-through at packet granularity. Every directed link is
// a serialization server (one packet at a time, bytes/bandwidth); switches
// are input-buffered with per-(input link, VC) FIFO queues, credit-based
// flow control toward the upstream sender, and round-robin arbitration.
// Routing is adaptive minimal: at every node the candidate next hops are
// the links that strictly decrease the BFS hop distance to the
// destination, and the least-loaded candidate with credit wins. Packets
// move to a higher virtual channel whenever they are injected from an
// accelerator into a switch (board -> rail in HammingMesh), which caps at
// three VCs exactly as Section IV-C3 prescribes.
//
// Hot-path design: the event queue carries typed tagged-union events
// (nothing heap-allocates per packet), routing decisions walk precomputed
// per-destination next-hop candidate tables instead of filtering all
// out-links through a distance field, the per-link VC escalation rule
// is a flat bool array, and arbitration visits only the input buffers a
// per-node occupancy bitmask marks non-empty.
//
// Only heads that can move are examined. A head whose every candidate
// link is busy or lacks credit goes to sleep: it records the earliest
// time one of its busy candidates frees and whether a free candidate
// lacked credit. Its node wakes it once `now` reaches that time (the
// link's own free event calls back at exactly that time, so no later
// examination is ever missed) or when credit returns over one of the
// node's out-links, and arbitration skips it until then. Nothing else
// can unblock a head: a busy link's free time only moves once it is free,
// and credit only rises on a credit return. In minimal mode a blocked
// injection sleeps the same way; Valiant and UGAL retry every attempt,
// because each attempt draws an intermediate from the routing RNG. Debug
// builds re-scan every skipped head and injection and assert it blocked.
// Message slots are recycled, so a long run's message table stays as
// large as its peak of messages in flight. All of it is observationally
// identical to the straightforward implementation — same event order,
// same tie-breaks, same delivered-byte sequence — only faster.
//
// Messages are sequences of packets; the caller gets a callback when the
// last byte of a message arrives. Payload bytes are not simulated — timing
// is bandwidth/latency-accurate, and the completion callback reaches
// whatever the message carries (MiniMpi's captures the index of the
// envelope that holds the payload, so it fits std::function's inline
// storage).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "sim/event_queue.hpp"
#include "topo/topology.hpp"

namespace hxmesh::sim {

struct PacketSimConfig {
  std::uint64_t packet_bytes = kPacketBytes;      // 8 KiB (Appendix F)
  std::uint64_t buffer_bytes_per_vc = 32 * MiB;   // per input port (App. F)
  int num_vcs = 3;
  picoseconds switch_latency_ps = kBufferLatencyPs;  // in/out buffer, 40 ns
  // Non-minimal routing: Valiant detours every packet through a random
  // intermediate endpoint; UGAL-L compares queue-depth x distance of the
  // minimal and detour injection ports per packet. Both run the two legs
  // in disjoint VC halves (2 * num_vcs channels per link; the leg-2 range
  // is what keeps the scheme deadlock-free, see tests/deadlock.hpp).
  topo::RouteMode route_mode = topo::RouteMode::kMinimal;
  std::uint64_t route_seed = 1;  // intermediate-endpoint draws
};

/// Statistics exposed after (or during) a run.
struct PacketSimStats {
  std::uint64_t packets_delivered = 0;
  std::uint64_t packet_hops = 0;
  std::uint64_t messages_delivered = 0;
  // Arbitration head examinations (served or found blocked); sleeping
  // heads are not examined.
  std::uint64_t head_checks = 0;
  // Packets UGAL-L injected toward an intermediate endpoint.
  std::uint64_t ugal_detours = 0;
  double sum_packet_latency_s = 0.0;

  double avg_packet_latency_s() const {
    return packets_delivered ? sum_packet_latency_s / packets_delivered : 0.0;
  }
  double avg_hops() const {
    return packets_delivered
               ? static_cast<double>(packet_hops) / packets_delivered
               : 0.0;
  }
};

class PacketSim {
 public:
  explicit PacketSim(const topo::Topology& topology,
                     PacketSimConfig config = {});

  /// Queues a message of `bytes` from accelerator `src` to `dst`;
  /// `on_delivered` fires (at simulated delivery time) when the last packet
  /// arrives. Messages from a src are injected in FIFO order.
  void send_message(int src, int dst, std::uint64_t bytes,
                    std::function<void()> on_delivered);

  /// Builds the per-destination route tables of `dst_ranks` up front,
  /// fanned over a thread pool when there are enough of them to matter.
  /// Purely a warm-up: each table is a deterministic function of the
  /// topology, so prebuilding (with any worker count) leaves the
  /// simulation bit-identical to lazy construction. Call it before the
  /// first send_message to the listed destinations — injection builds a
  /// destination's table on first use otherwise.
  void prebuild_routes(const std::vector<int>& dst_ranks);

  /// Schedules `fn` at simulated time `now + delay` (for compute phases).
  /// User callbacks live in a side table; the event itself carries only the
  /// slot index, so the typed event core stays allocation-free.
  void schedule_in(picoseconds delay, std::function<void()> fn);

  /// Runs until the event queue drains, dispatching typed events. Returns
  /// the finish time. If messages remain undelivered afterwards the
  /// network is deadlocked (query unfinished_messages()).
  picoseconds run();

  picoseconds now() const { return events_.now(); }
  const PacketSimStats& stats() const { return stats_; }
  int unfinished_messages() const { return unfinished_; }
  const topo::Topology& topology() const { return topology_; }

  /// Total bytes that crossed each link (for utilization studies).
  const std::vector<std::uint64_t>& link_bytes() const { return link_bytes_; }

 private:
  // Messages live in recycled slots: a slot is freed when its message is
  // delivered, and it has left its injection queue by then (the queue
  // entry is popped as the last packet leaves).
  struct Message {
    int src, dst;
    std::uint64_t bytes;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t packets_total = 0, packets_injected = 0;
    std::function<void()> on_delivered;
  };
  std::uint32_t next_packet_bytes(const Message& m) const {
    const std::uint64_t sent = m.packets_injected * config_.packet_bytes;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config_.packet_bytes, m.bytes - sent));
  }
  struct Packet {
    std::uint32_t message;
    std::uint32_t bytes;
    topo::NodeId dst_node;
    // Valiant intermediate endpoint: the packet routes toward via_node in
    // leg-1 VCs until it arrives there, then toward dst_node in leg-2 VCs.
    topo::NodeId via_node = topo::kInvalidNode;
    std::uint8_t vc;
    std::uint8_t phase = 0;  // 0 = leg 1 (or minimal), 1 = leg 2
    std::uint8_t hops = 0;
    picoseconds injected_at = 0;
  };
  // One per-(input link, VC) FIFO at the downstream node of each link.
  struct InputBuffer {
    std::deque<std::uint32_t> queue;  // packet ids
    picoseconds wake_at = 0;  // while the head sleeps: see PacketSim::Hop
  };
  // Per endpoint: messages waiting to emit packets, head first, and the
  // sleep state of the head's next injection (minimal mode only).
  struct Injector {
    std::deque<std::uint32_t> queue;  // message slots
    bool asleep = false;
    bool credit_wait = false;
    picoseconds wake_at = 0;
  };
  // Routing table toward one destination: the minimal next-hop links of
  // every node, flattened CSR-style. Candidate order matches the graph's
  // out-link order, so adaptive tie-breaks are identical to filtering the
  // out-links through the BFS field on every decision.
  struct RouteTable {
    topo::Topology::DistField dist;  // pinned: keeps the field alive
    std::vector<std::uint32_t> offset;  // per node, into links
    std::vector<topo::LinkId> links;
  };
  // The adaptive choice among a packet's minimal next hops: the free
  // candidate with credit and the most of it, or none. When there is
  // none, wake_at is the earliest free time of a busy candidate (kNever
  // if none is busy) and credit_wait says whether a free candidate lacked
  // credit: until one of the two happens the packet cannot move.
  struct Hop {
    topo::LinkId link = topo::kInvalidLink;
    int vc = 0;
    picoseconds wake_at = kNever;
    bool credit_wait = false;
  };
  static constexpr picoseconds kNever = ~picoseconds{0};

  void try_inject(int src);
  void try_forward(topo::NodeId node);
  // Typed-event handlers (dispatched from run()).
  void on_link_free(topo::NodeId src_node);
  void on_packet_arrive(std::uint32_t packet_id, topo::LinkId link);
  void on_credit_return(topo::LinkId link, int vc, std::uint32_t bytes);
  void on_user_callback(std::uint32_t slot);

  // Topology::dist_field is shared across engine threads and pays for a
  // lock per call; this sim is single-threaded, so it pins each handed-out
  // field in a flat vector indexed by destination node and derives the
  // per-node candidate-link table from it once, lock-free thereafter.
  const RouteTable& route_to(topo::NodeId dst_node);
  std::unique_ptr<RouteTable> build_route_table(topo::NodeId dst_node) const;
  // The adaptive next hop at `node` of a packet of `bytes` that holds VC
  // `vc` in leg `phase`, routing toward `target`.
  Hop pick_hop(topo::NodeId node, topo::NodeId target, std::uint32_t bytes,
               int vc, int phase);
  void start_transmission(std::uint32_t packet_id, topo::LinkId link);
  // Phase-aware VC escalation: each leg escalates within its own
  // num_vcs-wide range; the leg-1 -> leg-2 hand-off at the intermediate
  // endpoint re-enters at the leg-2 injection VC. Minimal mode has a
  // single range (total_vcs_ == num_vcs) and reduces to the original rule.
  // A packet being injected holds VC 0 in leg 1.
  int vc_after(int vc, int phase, topo::LinkId link) const {
    const int base = phase ? config_.num_vcs : 0;
    if (vc < base)
      return base + (vc_bump_[link] ? std::min(1, config_.num_vcs - 1) : 0);
    return vc_bump_[link] ? std::min<int>(vc + 1, base + config_.num_vcs - 1)
                          : vc;
  }
  std::uint64_t& credits(topo::LinkId link, int vc) {
    return credits_[static_cast<std::size_t>(link) * total_vcs_ + vc];
  }
  // Valiant draw: a uniform intermediate endpoint distinct from both ends.
  topo::NodeId draw_via(int src, int dst);
  // UGAL-L: via_node to detour through, kInvalidNode to go minimal.
  topo::NodeId ugal_choice(topo::NodeId node, topo::NodeId dst_node,
                           topo::NodeId via_node, std::uint32_t pkt_bytes);

  const topo::Topology& topology_;
  PacketSimConfig config_;
  // Channel count per link: num_vcs for minimal routing, 2 * num_vcs for
  // the two-phase non-minimal modes. All per-(link, vc) state below is
  // strided by this.
  int total_vcs_;
  Rng route_rng_;  // intermediate-endpoint draws (Valiant/UGAL)
  EventQueue events_;
  PacketSimStats stats_;
  // Per-destination routing tables, indexed by destination node (lazy).
  std::vector<std::unique_ptr<RouteTable>> routes_;
  // Per-link: does traversing this link escalate the VC (endpoint ->
  // switch injection, Section IV-C3)?
  std::vector<std::uint8_t> vc_bump_;

  std::vector<Message> messages_;
  std::vector<std::uint32_t> free_messages_;
  std::vector<Packet> packets_;
  std::vector<std::uint32_t> free_packets_;

  // User callbacks (send_message completion is per message, not per
  // event): slot-indexed side table with free-list reuse.
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_callbacks_;

  std::vector<picoseconds> link_busy_until_;
  std::vector<std::uint64_t> credits_;  // [link][vc], bytes available
  std::vector<std::uint64_t> link_bytes_;
  // Input buffers indexed by link (the buffer sits at link.dst), per VC.
  std::vector<InputBuffer> input_;
  // Per-node round-robin cursor over (in-link, vc) pairs.
  std::vector<std::uint32_t> rr_;
  // Per link: arbitration slot of its VC 0 at the link's downstream node.
  // A node's slot of (in-link i, vc) is i * total_vcs_ + vc, where i is the
  // link's position in the graph's in-row of the node.
  std::vector<std::uint32_t> in_slot_;
  // Per-node slot bitmasks. A node's words start at ready_offset_[node];
  // a switch can have more than 64 slots. ready_: the slot's buffer holds
  // a packet, so arbitration visits occupied buffers only. asleep_: its
  // head is blocked (a subset of ready_), and credit_wait_: a credit
  // return at the node wakes it (a subset of asleep_).
  std::vector<std::uint64_t> ready_;
  std::vector<std::uint64_t> asleep_;
  std::vector<std::uint64_t> credit_wait_;
  std::vector<std::uint32_t> ready_offset_;
  // Per node: no sleeping head's wake time is earlier than this.
  std::vector<picoseconds> node_wake_;
  std::vector<Injector> injectors_;  // per endpoint
  int unfinished_ = 0;
};

}  // namespace hxmesh::sim
