#include "sim/packet_sim.hpp"

#include <bit>
#include <cassert>

#include "core/counters.hpp"
#include "core/thread_pool.hpp"
#include "topo/routing_oracle.hpp"

namespace hxmesh::sim {

using topo::LinkId;
using topo::NodeId;

namespace {
// Fixed substream of the intermediate-endpoint draws, disjoint from the
// per-flow path-sampling substreams that share the sweep seed.
constexpr std::uint64_t kViaStream = 0x71a0'57ed;

// Packet work, bumped once per run() rather than per event.
Counter g_events("sim.events");
Counter g_packet_hops("sim.packet_hops");
Counter g_head_checks("sim.head_checks");
Counter g_ugal_detours("sim.ugal_detours");
}  // namespace

PacketSim::PacketSim(const topo::Topology& topology, PacketSimConfig config)
    : topology_(topology),
      config_(config),
      total_vcs_(config.num_vcs *
                 (config.route_mode == topo::RouteMode::kMinimal ? 1 : 2)),
      route_rng_(Rng::substream(config.route_seed, kViaStream)) {
  const topo::Graph& g = topology_.graph();
  routes_.resize(g.num_nodes());
  vc_bump_.resize(g.num_links());
  for (std::size_t l = 0; l < g.num_links(); ++l) {
    // VC escalates when an accelerator injects into a switch network (a
    // board jumping into a rail/fat tree, Section IV-C3). On-board
    // accelerator-to-accelerator hops and switch-to-switch hops keep
    // their VC.
    const topo::Link& lnk = g.link(static_cast<LinkId>(l));
    vc_bump_[l] = g.kind(lnk.src) == topo::NodeKind::kEndpoint &&
                  g.kind(lnk.dst) == topo::NodeKind::kSwitch;
  }
  link_busy_until_.assign(g.num_links(), 0);
  link_bytes_.assign(g.num_links(), 0);
  credits_.assign(g.num_links() * total_vcs_, config_.buffer_bytes_per_vc);
  input_.resize(g.num_links() * total_vcs_);
  rr_.assign(g.num_nodes(), 0);
  in_slot_.resize(g.num_links());
  ready_offset_.resize(g.num_nodes() + 1, 0);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto ins = g.in_links(n);
    for (std::uint32_t i = 0; i < ins.size(); ++i)
      in_slot_[ins[i]] = i * total_vcs_;
    const std::size_t slots = ins.size() * total_vcs_;
    ready_offset_[n + 1] =
        ready_offset_[n] + static_cast<std::uint32_t>((slots + 63) / 64);
  }
  ready_.assign(ready_offset_.back(), 0);
  asleep_.assign(ready_offset_.back(), 0);
  credit_wait_.assign(ready_offset_.back(), 0);
  node_wake_.assign(g.num_nodes(), kNever);
  injectors_.resize(topology_.num_endpoints());
}

std::unique_ptr<PacketSim::RouteTable> PacketSim::build_route_table(
    NodeId dst_node) const {
  // Build the minimal next-hop candidates of every node toward dst once;
  // the per-decision loops then scan a short flat array. The candidate
  // rule (shared with the oracles) appends in the graph's out-link order,
  // exactly what the per-decision dist filter used to yield. The distance
  // field itself comes from the topology's routing oracle — an O(V)
  // closed-form fill on every structured family — through the shared
  // dist_field cache.
  auto table = std::make_unique<RouteTable>();
  table->dist = topology_.dist_field(dst_node);
  const std::vector<std::int32_t>& dist = *table->dist;
  const topo::Graph& g = topology_.graph();
  table->offset.resize(g.num_nodes() + 1, 0);
  table->links.reserve(g.num_links() / 2);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    table->offset[n] = static_cast<std::uint32_t>(table->links.size());
    topo::RoutingOracle::next_hops_from_field(g, dist, n, table->links);
  }
  table->offset[g.num_nodes()] =
      static_cast<std::uint32_t>(table->links.size());
  return table;
}

const PacketSim::RouteTable& PacketSim::route_to(NodeId dst_node) {
  std::unique_ptr<RouteTable>& slot = routes_[dst_node];
  if (!slot) slot = build_route_table(dst_node);
  return *slot;
}

void PacketSim::prebuild_routes(const std::vector<int>& dst_ranks) {
  std::vector<NodeId> todo;
  todo.reserve(dst_ranks.size());
  std::vector<char> seen(topology_.graph().num_nodes(), 0);
  for (int r : dst_ranks) {
    const NodeId n = topology_.endpoint_node(r);
    if (!seen[n] && !routes_[n]) {
      seen[n] = 1;
      todo.push_back(n);
    }
  }
  // Below this, pool spin-up costs more than it saves; the tables are
  // identical either way, so the threshold only shapes wall-clock.
  constexpr std::size_t kParallelMin = 32;
  if (todo.size() >= kParallelMin) {
    ThreadPool pool;
    if (pool.size() > 1) {
      // Each job writes its own routes_ slot; dist_field is thread-safe.
      pool.parallel_for(todo.size(), [&](std::size_t i) {
        routes_[todo[i]] = build_route_table(todo[i]);
      });
      return;
    }
  }
  for (NodeId n : todo) routes_[n] = build_route_table(n);
}

NodeId PacketSim::draw_via(int src, int dst) {
  const int n = topology_.num_endpoints();
  int mid = src;
  while (mid == src || mid == dst)
    mid = static_cast<int>(route_rng_.uniform(static_cast<std::uint64_t>(n)));
  return topology_.endpoint_node(mid);
}

NodeId PacketSim::ugal_choice(NodeId node, NodeId dst_node, NodeId via_node,
                              std::uint32_t pkt_bytes) {
  // UGAL-L (booksim's local variant): compare queue-depth x hop-count of
  // the best minimal injection port against the best port toward the
  // candidate intermediate; detour only when it is strictly cheaper.
  const RouteTable& rt_min = route_to(dst_node);
  const RouteTable& rt_via = route_to(via_node);
  auto best_credit = [&](const RouteTable& rt) {
    std::uint64_t best = 0;
    for (std::uint32_t i = rt.offset[node]; i < rt.offset[node + 1]; ++i) {
      LinkId l = rt.links[i];
      if (link_busy_until_[l] > events_.now()) continue;
      int vc = vc_bump_[l] ? std::min(1, config_.num_vcs - 1) : 0;
      if (credits(l, vc) < pkt_bytes) continue;
      best = std::max(best, credits(l, vc));
    }
    return best;  // 0: no usable port right now
  };
  const std::uint64_t c_min = best_credit(rt_min);
  const std::uint64_t c_val = best_credit(rt_via);
  if (c_val == 0) return topo::kInvalidNode;
  if (c_min == 0) return via_node;
  const std::uint64_t q_min = config_.buffer_bytes_per_vc - c_min;
  const std::uint64_t q_val = config_.buffer_bytes_per_vc - c_val;
  const std::uint64_t d_min =
      static_cast<std::uint64_t>((*rt_min.dist)[node]);
  const std::uint64_t d_val =
      static_cast<std::uint64_t>((*rt_via.dist)[node]) +
      static_cast<std::uint64_t>((*rt_min.dist)[via_node]);
  return q_val * d_val < q_min * d_min ? via_node : topo::kInvalidNode;
}

void PacketSim::send_message(int src, int dst, std::uint64_t bytes,
                             std::function<void()> on_delivered) {
  assert(src != dst && "send_message: src == dst");
  Message m;
  m.src = src;
  m.dst = dst;
  m.bytes = bytes == 0 ? 1 : bytes;  // zero-byte messages still carry a header
  m.packets_total = (m.bytes + config_.packet_bytes - 1) / config_.packet_bytes;
  m.on_delivered = std::move(on_delivered);
  std::uint32_t id;
  if (!free_messages_.empty()) {
    id = free_messages_.back();
    free_messages_.pop_back();
    messages_[id] = std::move(m);
  } else {
    id = static_cast<std::uint32_t>(messages_.size());
    messages_.push_back(std::move(m));
  }
  ++unfinished_;
  injectors_[src].queue.push_back(id);
  try_inject(src);
}

void PacketSim::schedule_in(picoseconds delay, std::function<void()> fn) {
  std::uint32_t slot;
  if (!free_callbacks_.empty()) {
    slot = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
  }
  events_.schedule_in(delay, EventKind::kUserCallback, slot);
}

PacketSim::Hop PacketSim::pick_hop(NodeId node, NodeId target,
                                   std::uint32_t bytes, int vc, int phase) {
  // Among minimal next hops that are free and have credit, the one with
  // the most downstream buffer space; the first such in candidate order
  // on ties.
  const RouteTable& rt = route_to(target);
  const picoseconds now = events_.now();
  Hop hop;
  std::uint64_t best_credit = 0;
  for (std::uint32_t i = rt.offset[node]; i < rt.offset[node + 1]; ++i) {
    const LinkId l = rt.links[i];
    if (link_busy_until_[l] > now) {
      hop.wake_at = std::min(hop.wake_at, link_busy_until_[l]);
      continue;
    }
    const int v = vc_after(vc, phase, l);
    const std::uint64_t credit = credits(l, v);
    if (credit < bytes) {
      hop.credit_wait = true;
      continue;
    }
    if (credit > best_credit) {
      hop.link = l;
      hop.vc = v;
      best_credit = credit;
    }
  }
  return hop;
}

void PacketSim::try_inject(int src) {
  const NodeId node = topology_.endpoint_node(src);
  Injector& inj = injectors_[src];
  if (inj.asleep) {
    if (events_.now() < inj.wake_at) {
#ifndef NDEBUG
      const Message& m = messages_[inj.queue.front()];
      assert(pick_hop(node, topology_.endpoint_node(m.dst),
                      next_packet_bytes(m), 0, 0)
                     .link == topo::kInvalidLink &&
             "try_inject: a sleeping injection could move");
#endif
      return;
    }
    inj.asleep = false;
  }
  auto& queue = inj.queue;
  while (!queue.empty()) {
    const std::uint32_t mid = queue.front();
    Message& m = messages_[mid];
    assert(m.packets_injected < m.packets_total &&
           "try_inject: a fully injected message is still queued");
    // Per-message state, hoisted once the head message is known: its
    // destination and this packet's size.
    const NodeId dst_node = topology_.endpoint_node(m.dst);
    const std::uint32_t pkt_bytes = next_packet_bytes(m);
    // Non-minimal modes pick this packet's intermediate endpoint here; a
    // blocked injection retries with a fresh draw, which is deterministic
    // (single-threaded sim, one RNG) and keeps the port choice adaptive.
    NodeId via = topo::kInvalidNode;
    if (config_.route_mode != topo::RouteMode::kMinimal &&
        topology_.num_endpoints() > 2) {
      const NodeId v = draw_via(src, m.dst);
      via = config_.route_mode == topo::RouteMode::kValiant
                ? v
                : ugal_choice(node, dst_node, v, pkt_bytes);
    }
    // Adaptive injection: the packet enters in VC 0 of leg 1.
    const Hop hop = pick_hop(
        node, via != topo::kInvalidNode ? via : dst_node, pkt_bytes, 0, 0);
    if (hop.link == topo::kInvalidLink) {
      // Retried on link-free / credit return. A minimal retry repeats
      // this exact scan, so the injection sleeps until it can succeed; a
      // non-minimal retry draws again and must run.
      if (config_.route_mode == topo::RouteMode::kMinimal) {
        inj.asleep = true;
        inj.wake_at = hop.wake_at;
        inj.credit_wait = hop.credit_wait;
      }
      return;
    }

    std::uint32_t pid;
    if (!free_packets_.empty()) {
      pid = free_packets_.back();
      free_packets_.pop_back();
    } else {
      packets_.emplace_back();
      pid = static_cast<std::uint32_t>(packets_.size() - 1);
    }
    Packet& p = packets_[pid];
    p.message = mid;
    p.bytes = pkt_bytes;
    p.dst_node = dst_node;
    p.via_node = via;
    p.vc = static_cast<std::uint8_t>(hop.vc);
    p.phase = 0;
    p.hops = 0;
    p.injected_at = events_.now();
    if (via != topo::kInvalidNode &&
        config_.route_mode == topo::RouteMode::kUgal)
      ++stats_.ugal_detours;
    // The last packet takes the message off the queue, so a delivered
    // message's slot is never still queued when it is recycled.
    if (++m.packets_injected == m.packets_total) queue.pop_front();
    start_transmission(pid, hop.link);
  }
}

void PacketSim::start_transmission(std::uint32_t packet_id, LinkId link) {
  const topo::Graph& g = topology_.graph();
  Packet& p = packets_[packet_id];
  const topo::Link& l = g.link(link);
  assert(link_busy_until_[link] <= events_.now());
  assert(credits(link, p.vc) >= p.bytes);
  credits(link, p.vc) -= p.bytes;
  link_bytes_[link] += p.bytes;

  picoseconds ser = serialization_ps(p.bytes, l.bandwidth());
  picoseconds free_at = events_.now() + ser;
  link_busy_until_[link] = free_at;
  events_.schedule(free_at, EventKind::kLinkFree, l.src);

  picoseconds arrive_at = free_at + l.latency() + config_.switch_latency_ps;
  events_.schedule(arrive_at, EventKind::kPacketArrive, packet_id, link);
}

void PacketSim::on_link_free(NodeId src_node) {
  try_forward(src_node);
  int rank = topology_.rank_of(src_node);
  if (rank >= 0) try_inject(rank);
}

void PacketSim::on_credit_return(LinkId link, int vc, std::uint32_t bytes) {
  credits(link, vc) += bytes;
  NodeId n = topology_.graph().link(link).src;
  // Wake the heads waiting for credit at n; most nodes have none.
  for (std::uint32_t w = ready_offset_[n]; w < ready_offset_[n + 1]; ++w) {
    asleep_[w] &= ~credit_wait_[w];
    credit_wait_[w] = 0;
  }
  try_forward(n);
  int rank = topology_.rank_of(n);
  if (rank >= 0) {
    Injector& inj = injectors_[rank];
    if (inj.credit_wait) inj.asleep = false;
    try_inject(rank);
  }
}

void PacketSim::on_packet_arrive(std::uint32_t packet_id, LinkId link) {
  Packet& pkt = packets_[packet_id];
  const topo::Link& lnk = topology_.graph().link(link);
  ++pkt.hops;
  if (lnk.dst == pkt.via_node) {
    // Leg-1 done: from here the packet routes toward its real destination
    // in the leg-2 VC range (vc_after maps it on the next hop).
    pkt.via_node = topo::kInvalidNode;
    pkt.phase = 1;
  }
  // A leg-1 path may pass through the real destination; the packet is only
  // delivered once its detour obligation is cleared.
  if (lnk.dst == pkt.dst_node && pkt.via_node == topo::kInvalidNode) {
    // Delivered: the endpoint consumes instantly; return the credit.
    const std::uint32_t mid = pkt.message;
    Message& m = messages_[mid];
    m.bytes_delivered += pkt.bytes;
    ++stats_.packets_delivered;
    stats_.packet_hops += pkt.hops;
    stats_.sum_packet_latency_s += ps_to_s(events_.now() - pkt.injected_at);
    free_packets_.push_back(packet_id);
    events_.schedule_in(lnk.latency(), EventKind::kCreditReturn, link,
                        static_cast<std::uint32_t>(pkt.vc), pkt.bytes);
    if (m.bytes_delivered >= m.bytes) {
      ++stats_.messages_delivered;
      --unfinished_;
      // Move the callback out and free the slot first: the callback may
      // send_message(), which may reuse the slot or reallocate messages_.
      std::function<void()> done = std::move(m.on_delivered);
      free_messages_.push_back(mid);
      if (done) done();
    }
    return;
  }
  input_[static_cast<std::size_t>(link) * total_vcs_ + pkt.vc]
      .queue.push_back(packet_id);
  const std::uint32_t slot = in_slot_[link] + pkt.vc;
  ready_[ready_offset_[lnk.dst] + slot / 64] |= std::uint64_t{1} << slot % 64;
  try_forward(lnk.dst);
}

void PacketSim::on_user_callback(std::uint32_t slot) {
  std::function<void()> fn = std::move(callbacks_[slot]);
  callbacks_[slot] = nullptr;
  free_callbacks_.push_back(slot);
  fn();
}

void PacketSim::try_forward(NodeId node) {
  const auto ins = topology_.graph().in_links(node);
  if (ins.empty()) return;
  const std::uint32_t slots =
      static_cast<std::uint32_t>(ins.size()) * total_vcs_;
  const std::uint32_t words = (slots + 63) / 64;
  std::uint64_t* ready = ready_.data() + ready_offset_[node];
  std::uint64_t* asleep = asleep_.data() + ready_offset_[node];
  std::uint64_t* credit_wait = credit_wait_.data() + ready_offset_[node];
  auto buffer = [&](std::uint32_t slot) -> InputBuffer& {
    return input_[static_cast<std::size_t>(ins[slot / total_vcs_]) *
                      total_vcs_ +
                  slot % total_vcs_];
  };
  auto target = [](const Packet& p) {
    return p.via_node != topo::kInvalidNode ? p.via_node : p.dst_node;
  };
  const picoseconds now = events_.now();
  if (now >= node_wake_[node]) {
    // Wake the heads whose wake time has come; the rest set the next one.
    picoseconds next = kNever;
    for (std::uint32_t w = 0; w < words; ++w)
      for (std::uint64_t bits = asleep[w]; bits != 0; bits &= bits - 1) {
        const std::uint32_t slot =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        const picoseconds at = buffer(slot).wake_at;
        if (at <= now) {
          asleep[w] &= ~(std::uint64_t{1} << slot % 64);
          credit_wait[w] &= ~(std::uint64_t{1} << slot % 64);
        } else {
          next = std::min(next, at);
        }
      }
    node_wake_[node] = next;
  }
#ifndef NDEBUG
  // Serving a head only makes links busier and credit scarcer, so a head
  // blocked now stays blocked for the whole pass that skips it.
  for (std::uint32_t w = 0; w < words; ++w)
    for (std::uint64_t bits = asleep[w]; bits != 0; bits &= bits - 1) {
      const Packet& p = packets_[buffer(w * 64 + static_cast<std::uint32_t>(
                                                     std::countr_zero(bits)))
                                     .queue.front()];
      assert(pick_hop(node, target(p), p.bytes, p.vc, p.phase).link ==
                 topo::kInvalidLink &&
             "try_forward: a sleeping head could move");
    }
#endif

  // Serves the head of (in-link, VC) slot `slot` if some minimal next hop
  // is free and has credit for it, and puts it to sleep otherwise.
  auto serve = [&](std::uint32_t slot) {
    ++stats_.head_checks;
    InputBuffer& buf = buffer(slot);
    const std::uint32_t pid = buf.queue.front();
    Packet& p = packets_[pid];
    const Hop hop = pick_hop(node, target(p), p.bytes, p.vc, p.phase);
    const std::uint64_t bit = std::uint64_t{1} << slot % 64;
    if (hop.link == topo::kInvalidLink) {
      asleep[slot / 64] |= bit;
      if (hop.credit_wait) credit_wait[slot / 64] |= bit;
      buf.wake_at = hop.wake_at;
      node_wake_[node] = std::min(node_wake_[node], hop.wake_at);
      return;
    }

    buf.queue.pop_front();
    if (buf.queue.empty()) ready[slot / 64] &= ~bit;
    rr_[node] = slot + 1;  // fairness: resume after the serviced buffer
    // Return the input-buffer credit to the upstream sender.
    const LinkId in_link = ins[slot / total_vcs_];
    const topo::Link& in = topology_.graph().link(in_link);
    events_.schedule_in(in.latency(), EventKind::kCreditReturn, in_link,
                        slot % total_vcs_, p.bytes);
    p.vc = static_cast<std::uint8_t>(hop.vc);
    start_transmission(pid, hop.link);
  };
  // Visits the awake non-empty slots of [lo, hi) in ascending order. Only
  // the visited slot changes state, and each is visited once, so
  // iterating over a copy of each mask word sees exactly the slots a full
  // sweep would examine; a sleeping slot would fail without side effects.
  auto serve_range = [&](std::uint32_t lo, std::uint32_t hi) {
    for (std::uint32_t w = lo / 64; w * 64 < hi; ++w) {
      std::uint64_t bits = ready[w] & ~asleep[w];
      if (w == lo / 64) bits &= ~std::uint64_t{0} << (lo % 64);
      if (hi - w * 64 < 64) bits &= (std::uint64_t{1} << (hi - w * 64)) - 1;
      for (; bits != 0; bits &= bits - 1)
        serve(w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
  };
  // Round-robin: one pass over the slots, starting at the cursor.
  const std::uint32_t start = rr_[node] % slots;
  serve_range(start, slots);
  serve_range(0, start);
}

picoseconds PacketSim::run() {
  const std::uint64_t events_before = events_.events_processed();
  const std::uint64_t hops_before = stats_.packet_hops;
  const std::uint64_t checks_before = stats_.head_checks;
  const std::uint64_t detours_before = stats_.ugal_detours;
  while (!events_.empty()) {
    const Event e = events_.pop();
    switch (e.kind) {
      case EventKind::kLinkFree:
        on_link_free(static_cast<NodeId>(e.a));
        break;
      case EventKind::kPacketArrive:
        on_packet_arrive(e.a, static_cast<LinkId>(e.b));
        break;
      case EventKind::kCreditReturn:
        on_credit_return(static_cast<LinkId>(e.a), static_cast<int>(e.b),
                         e.c);
        break;
      case EventKind::kUserCallback:
        on_user_callback(e.a);
        break;
    }
  }
  g_events.add(events_.events_processed() - events_before);
  g_packet_hops.add(stats_.packet_hops - hops_before);
  g_head_checks.add(stats_.head_checks - checks_before);
  g_ugal_detours.add(stats_.ugal_detours - detours_before);
  return events_.now();
}

}  // namespace hxmesh::sim
