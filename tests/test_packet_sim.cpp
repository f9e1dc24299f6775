// Packet-level simulator: analytic latency/bandwidth checks on small
// configurations, fairness under contention, backpressure with small
// buffers, and deadlock-free completion on HammingMesh.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/counters.hpp"
#include "sim/minimpi.hpp"
#include "sim/packet_sim.hpp"
#include "topo/fattree.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/torus.hpp"

namespace hxmesh::sim {
namespace {

TEST(PacketSim, SinglePacketLatencyMatchesAnalytic) {
  topo::FatTree ft({.num_endpoints = 64, .radix = 64, .taper = 1.0});
  PacketSim sim(ft);
  picoseconds done = 0;
  sim.send_message(0, 1, 8192, [&] { done = sim.now(); });
  sim.run();
  // Two hops (endpoint->leaf->endpoint), each: serialization + cable
  // latency + switch buffer latency.
  picoseconds per_hop =
      serialization_ps(8192, kLinkBandwidthBps) + kCableLatencyPs +
      kBufferLatencyPs;
  EXPECT_EQ(done, 2 * per_hop);
  EXPECT_EQ(sim.stats().messages_delivered, 1u);
  EXPECT_EQ(sim.stats().packets_delivered, 1u);
  EXPECT_EQ(sim.unfinished_messages(), 0);
}

TEST(PacketSim, LargeMessageAchievesLinkBandwidth) {
  topo::FatTree ft({.num_endpoints = 64, .radix = 64, .taper = 1.0});
  PacketSim sim(ft);
  const std::uint64_t bytes = 8 * MiB;
  picoseconds done = 0;
  sim.send_message(0, 1, bytes, [&] { done = sim.now(); });
  sim.run();
  double seconds = ps_to_s(done);
  double rate = static_cast<double>(bytes) / seconds;
  EXPECT_GT(rate, 0.97 * kLinkBandwidthBps);
  EXPECT_LE(rate, kLinkBandwidthBps * 1.001);
}

// Route-table prebuilding is a warm-up, not a semantic switch: a run with
// tables built in parallel up front must be bit-identical to a run that
// builds them lazily during injection. 64 destinations keeps the set above
// the prebuild threshold, so the parallel path really executes.
TEST(PacketSim, PrebuiltRoutesLeaveSimulationBitIdentical) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  const int n = hx.num_endpoints();
  auto run = [&](bool prebuild) {
    PacketSim sim(hx);
    if (prebuild) {
      std::vector<int> dsts(n);
      for (int i = 0; i < n; ++i) dsts[i] = i;
      sim.prebuild_routes(dsts);
      sim.prebuild_routes(dsts);  // idempotent: already-built slots skip
    }
    for (int i = 0; i < n; ++i)
      for (int k : {7, 21, 38})
        sim.send_message(i, (i + k) % n, 24 * KiB, nullptr);
    const picoseconds end = sim.run();
    EXPECT_EQ(sim.unfinished_messages(), 0);
    return std::tuple(end, sim.stats().packets_delivered,
                      sim.stats().packet_hops,
                      sim.stats().sum_packet_latency_s, sim.link_bytes());
  };
  const auto lazy = run(false);
  const auto warm = run(true);
  EXPECT_EQ(std::get<0>(lazy), std::get<0>(warm));
  EXPECT_EQ(std::get<1>(lazy), std::get<1>(warm));
  EXPECT_EQ(std::get<2>(lazy), std::get<2>(warm));
  EXPECT_EQ(std::get<3>(lazy), std::get<3>(warm));
  EXPECT_EQ(std::get<4>(lazy), std::get<4>(warm));
}

TEST(PacketSim, TwoSendersShareEjectionLinkFairly) {
  topo::FatTree ft({.num_endpoints = 64, .radix = 64, .taper = 1.0});
  PacketSim sim(ft);
  const std::uint64_t bytes = 4 * MiB;
  picoseconds t1 = 0, t2 = 0;
  // Both destinations sit behind the same leaf as their sources, but share
  // the final endpoint link of rank 2.
  sim.send_message(0, 2, bytes, [&] { t1 = sim.now(); });
  sim.send_message(1, 2, bytes, [&] { t2 = sim.now(); });
  sim.run();
  double total = ps_to_s(std::max(t1, t2));
  double agg_rate = 2.0 * bytes / total;
  EXPECT_NEAR(agg_rate, kLinkBandwidthBps, kLinkBandwidthBps * 0.05);
  // Fairness: both finish within ~10% of each other.
  EXPECT_NEAR(ps_to_s(t1), ps_to_s(t2), ps_to_s(std::max(t1, t2)) * 0.1);
}

TEST(PacketSim, ManyToManyAllDelivered) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  PacketSim sim(hx);
  int delivered = 0;
  const int n = hx.num_endpoints();
  for (int i = 0; i < n; ++i)
    sim.send_message(i, (i + 17) % n, 64 * KiB, [&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, n);
  EXPECT_EQ(sim.unfinished_messages(), 0);
}

TEST(PacketSim, SmallBuffersStillComplete) {
  // Credit backpressure path: buffers hold only two packets per VC.
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  PacketSimConfig cfg;
  cfg.buffer_bytes_per_vc = 2 * kPacketBytes;
  PacketSim sim(hx, cfg);
  int delivered = 0;
  const int n = hx.num_endpoints();
  for (int i = 0; i < n; ++i)
    for (int k = 1; k < n; ++k)
      sim.send_message(i, (i + k) % n, 32 * KiB, [&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, n * (n - 1));
  EXPECT_EQ(sim.unfinished_messages(), 0) << "deadlock with small buffers";
}

TEST(PacketSim, HxMeshUsesAllFourPortsForSpread) {
  topo::HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  PacketSim sim(hx);
  // One big message to a diagonal destination: adaptive injection should
  // finish faster than a single 50 GB/s port would allow.
  const std::uint64_t bytes = 16 * MiB;
  picoseconds done = 0;
  int dst = hx.rank_at(5, 5);
  sim.send_message(0, dst, bytes, [&] { done = sim.now(); });
  sim.run();
  double rate = static_cast<double>(bytes) / ps_to_s(done);
  EXPECT_GT(rate, 1.5 * kLinkBandwidthBps);
}

TEST(PacketSim, LinkByteAccountingConserved) {
  topo::Torus t({.width = 4, .height = 4});
  PacketSim sim(t);
  sim.send_message(0, 5, 128 * KiB, nullptr);
  sim.run();
  std::uint64_t total = 0;
  for (auto b : sim.link_bytes()) total += b;
  // Each byte crosses hop_distance links; 0 -> 5 is 2 hops on the torus.
  EXPECT_EQ(total, 128 * KiB * 2);
}

TEST(PacketSim, ZeroByteMessageStillDelivers) {
  topo::FatTree ft({.num_endpoints = 64});
  PacketSim sim(ft);
  bool got = false;
  sim.send_message(3, 9, 0, [&] { got = true; });
  sim.run();
  EXPECT_TRUE(got);
}

// A run adds its packet work to the process-wide counters: every hop is
// one link-free, one arrival and one credit-return event.
TEST(PacketSim, RunBumpsPacketWorkCounters) {
  topo::FatTree ft({.num_endpoints = 64});
  PacketSim sim(ft);
  for (int i = 0; i < 8; ++i) sim.send_message(i, 63 - i, 64 * KiB, nullptr);
  const counters::Map before = counters::snapshot();
  sim.run();
  const counters::Map moved = counters::delta(before, counters::snapshot());
  EXPECT_GT(sim.stats().packet_hops, 0u);
  EXPECT_EQ(moved.at("sim.packet_hops"), sim.stats().packet_hops);
  EXPECT_EQ(moved.at("sim.events"), 3 * sim.stats().packet_hops);
  EXPECT_EQ(moved.at("sim.head_checks"), sim.stats().head_checks);
  EXPECT_EQ(moved.at("sim.ugal_detours"), 0u);
}

// Incast on one leaf: 31 senders share the leaf's link to rank 0, so the
// leaf holds up to 31 blocked heads. A blocked head sleeps until that
// link frees, so it is examined about once per packet the link carries,
// not once more on every arrival and credit return at the leaf.
TEST(PacketSim, IncastExaminesBlockedHeadsOncePerLinkFree) {
  topo::FatTree ft({.num_endpoints = 64});
  PacketSim sim(ft);
  constexpr int kSenders = 31;
  for (int i = 1; i <= kSenders; ++i)
    sim.send_message(i, 0, 32 * kPacketBytes, nullptr);
  sim.run();
  ASSERT_EQ(sim.unfinished_messages(), 0);
  const std::uint64_t packets = sim.stats().packets_delivered;
  EXPECT_EQ(packets, kSenders * 32u);
  // Per packet the hot link carries: each waiting head once, plus the
  // packet's own examination when it reaches the head of its buffer.
  EXPECT_LE(sim.stats().head_checks, (kSenders + 1) * packets);
}

// --------------------------------------------------------------- MiniMpi --
// A received message: its byte count and witness.
struct Got {
  std::uint64_t bytes = 0;
  Witness witness;
  bool operator==(const Got&) const = default;
};

TEST(MiniMpi, SendRecvMatchesByTagAndSource) {
  topo::FatTree ft({.num_endpoints = 64});
  MiniMpi mpi(ft);
  Got got_a, got_b;
  mpi.recv(5, 1, 7, [&](std::uint64_t b, Witness w) { got_a = {b, w}; });
  mpi.recv(5, 2, 7, [&](std::uint64_t b, Witness w) { got_b = {b, w}; });
  mpi.send(1, 5, 7, 8, Witness::of(1));
  mpi.send(2, 5, 7, 4, Witness::of(2));
  mpi.run();
  EXPECT_EQ(got_a, (Got{8, Witness::of(1)}));
  EXPECT_EQ(got_b, (Got{4, Witness::of(2)}));
}

TEST(MiniMpi, UnexpectedMessageBuffered) {
  topo::FatTree ft({.num_endpoints = 64});
  MiniMpi mpi(ft);
  mpi.send(0, 1, 42, 4, Witness{3, 9});
  mpi.run();  // message arrives with no receiver posted
  Got got;
  mpi.recv(1, 0, 42, [&](std::uint64_t b, Witness w) { got = {b, w}; });
  mpi.run();
  EXPECT_EQ(got, (Got{4, Witness{3, 9}}));
}

// One witness sent to every other rank arrives intact at each of them,
// whether its receive was posted before arrival or after.
TEST(MiniMpi, OnePayloadReachesManyRanksIntact) {
  topo::FatTree ft({.num_endpoints = 64});
  MiniMpi mpi(ft);
  const Got block{12000, Witness::of(0)};
  std::vector<Got> got(64);
  auto post = [&](int r) {
    mpi.recv(r, 0, 3,
             [&got, r](std::uint64_t b, Witness w) { got[r] = {b, w}; });
  };
  for (int r = 1; r < 64; ++r) {
    mpi.send(0, r, 3, block.bytes, block.witness);
    if (r % 2 == 0) post(r);
  }
  mpi.run();  // odd ranks' copies wait as unexpected messages
  for (int r = 1; r < 64; r += 2) post(r);
  mpi.run();
  for (int r = 1; r < 64; ++r) EXPECT_EQ(got[r], block) << "rank " << r;
}

// Two messages and two receives per (src, tag) over 700 keys at one rank,
// receives posted first in one round and messages arriving first in the
// other: each key matches its own messages, oldest first, while the match
// table grows and its entries come and go. All ranks sit on one leaf, so
// messages of one key arrive in send order.
TEST(MiniMpi, EqualKeysMatchInFifoOrderAcrossManyKeys) {
  topo::FatTree ft({.num_endpoints = 64});
  constexpr int kDst = 3, kTags = 100;
  const int srcs[] = {0, 1, 2, 4, 5, 6, 7};
  auto value = [](int src, int tag, int k) {
    return static_cast<std::uint64_t>((src * kTags + tag) * 2 + k);
  };
  for (const bool receives_first : {true, false}) {
    SCOPED_TRACE(receives_first ? "receives first" : "messages first");
    MiniMpi mpi(ft);
    std::vector<std::vector<std::uint64_t>> got(8 * kTags);
    auto post = [&] {
      for (int src : srcs)
        for (int tag = 0; tag < kTags; ++tag)
          for (int k = 0; k < 2; ++k)
            mpi.recv(kDst, src, tag,
                     [&got, key = src * kTags + tag](std::uint64_t,
                                                     Witness w) {
                       got[key].push_back(w.sum);
                     });
    };
    if (receives_first) post();
    for (int k = 0; k < 2; ++k)
      for (int src : srcs)
        for (int tag = 0; tag < kTags; ++tag)
          mpi.send(src, kDst, tag, 4, Witness{1, value(src, tag, k)});
    mpi.run();
    if (!receives_first) {
      post();
      mpi.run();
    }
    for (int src : srcs)
      for (int tag = 0; tag < kTags; ++tag)
        EXPECT_EQ(got[src * kTags + tag],
                  (std::vector<std::uint64_t>{value(src, tag, 0),
                                              value(src, tag, 1)}))
            << src << " -> " << kDst << " tag " << tag;
  }
}

// Witnesses add like the data they stand for: contributions commute, and
// a rank counted twice or left out differs from each rank once. A
// poisoned witness equals no contribution.
TEST(MiniMpi, WitnessesAddLikeContributions) {
  Witness ab = Witness::of(0);
  ab += Witness::of(1);
  Witness ba = Witness::of(1);
  ba += Witness::of(0);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.count, 2u);
  Witness aa = Witness::of(0);
  aa += Witness::of(0);
  EXPECT_NE(aa, ab);
  EXPECT_NE(Witness::of(0), ab);
  EXPECT_NE(Witness::of(0), Witness::of(1));
  EXPECT_NE(Witness::poisoned(), ab);
  EXPECT_NE(Witness::poisoned(), Witness{});
}

TEST(MiniMpi, ComputeDelaysCallback) {
  topo::FatTree ft({.num_endpoints = 64});
  MiniMpi mpi(ft);
  picoseconds fired = 0;
  mpi.compute(5 * kPsPerUs, [&] { fired = mpi.now(); });
  mpi.run();
  EXPECT_EQ(fired, 5 * kPsPerUs);
}

}  // namespace
}  // namespace hxmesh::sim
