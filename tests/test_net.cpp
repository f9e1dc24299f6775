// core/net: length-prefixed TCP framing over loopback — round trips,
// ephemeral port readback, clean-EOF vs torn-frame vs timeout contracts,
// and the oversize length-prefix rejection. Every failure mode here maps
// to a *host fault* in the shard dispatcher, so the typed-NetError
// contract is what the fabric's health state machine is built on. The
// fabric's ping must refuse a daemon that speaks another protocol version.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdint>
#include <string>
#include <thread>

#include "core/net.hpp"
#include "engine/fabric.hpp"

namespace hxmesh {
namespace {

TEST(Net, FrameRoundTripOnEphemeralPort) {
  TcpListener listener("127.0.0.1", 0);
  EXPECT_GT(listener.port(), 0);  // port 0 resolved to a real port

  // Loopback send buffers hold these comfortably, so a single thread can
  // play both ends without deadlocking.
  Socket client = tcp_connect("127.0.0.1", listener.port(), 2.0);
  Socket server = listener.accept(2.0);
  ASSERT_TRUE(client.valid());
  ASSERT_TRUE(server.valid());

  send_frame(client, "{\"op\":\"ping\"}");
  send_frame(client, "");  // empty frames are legal
  auto first = recv_frame(server, 2.0);
  auto second = recv_frame(server, 2.0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, "{\"op\":\"ping\"}");
  EXPECT_EQ(*second, "");

  // Payload bytes pass through untouched, including NUL and high bytes.
  std::string blob(64 * 1024, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i)
    blob[i] = static_cast<char>(i * 31 + 7);
  send_frame(server, blob);
  auto echoed = recv_frame(client, 5.0);
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(*echoed, blob);
}

TEST(Net, CleanEofBetweenFramesIsNullopt) {
  TcpListener listener("127.0.0.1", 0);
  Socket client = tcp_connect("127.0.0.1", listener.port(), 2.0);
  Socket server = listener.accept(2.0);
  client.close();  // peer hangs up between frames
  EXPECT_EQ(recv_frame(server, 2.0), std::nullopt);
}

TEST(Net, TornFrameThrows) {
  TcpListener listener("127.0.0.1", 0);
  Socket client = tcp_connect("127.0.0.1", listener.port(), 2.0);
  Socket server = listener.accept(2.0);
  // A length prefix promising 8 bytes, then EOF after 3: mid-frame EOF is
  // a transport failure, never silently truncated data.
  const unsigned char torn[] = {0, 0, 0, 8, 'a', 'b', 'c'};
  ASSERT_EQ(::send(client.fd(), torn, sizeof(torn), 0),
            static_cast<ssize_t>(sizeof(torn)));
  client.close();
  EXPECT_THROW(recv_frame(server, 2.0), NetError);
}

TEST(Net, RecvDeadlineThrows) {
  TcpListener listener("127.0.0.1", 0);
  Socket client = tcp_connect("127.0.0.1", listener.port(), 2.0);
  Socket server = listener.accept(2.0);
  // Nothing ever arrives: the deadline must fire (this is the dispatcher's
  // lease timeout — a hung daemon becomes a typed fault, not a hung sweep).
  EXPECT_THROW(recv_frame(server, 0.2), NetError);
  (void)client;
}

TEST(Net, OversizeLengthPrefixRejected) {
  TcpListener listener("127.0.0.1", 0);
  Socket client = tcp_connect("127.0.0.1", listener.port(), 2.0);
  Socket server = listener.accept(2.0);
  // A hostile/corrupt prefix claiming ~4 GiB must be rejected up front
  // instead of ballooning the receiver.
  const unsigned char huge[] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(client.fd(), huge, sizeof(huge), 0),
            static_cast<ssize_t>(sizeof(huge)));
  EXPECT_THROW(recv_frame(server, 2.0), NetError);
}

TEST(Net, ConnectToClosedPortThrows) {
  // Bind-then-drop a listener so the port is known to be closed (nothing
  // re-binds an ephemeral port that fast).
  int closed_port = 0;
  {
    TcpListener listener("127.0.0.1", 0);
    closed_port = listener.port();
  }
  EXPECT_THROW(tcp_connect("127.0.0.1", closed_port, 2.0), NetError);
}

TEST(Net, AcceptTimeoutReturnsInvalidSocket) {
  TcpListener listener("127.0.0.1", 0);
  // No client: the poll-style accept returns an invalid socket instead of
  // blocking forever, which is how the serve loop notices stop requests.
  Socket conn = listener.accept(0.1);
  EXPECT_FALSE(conn.valid());
}

// A fake daemon that answers one ping with `reply`; returns what
// fabric_ping made of it.
bool ping_answered_with(const std::string& reply) {
  TcpListener listener("127.0.0.1", 0);
  std::thread daemon([&] {
    Socket conn = listener.accept(2.0);
    if (!conn.valid()) return;
    if (recv_frame(conn, 2.0)) send_frame(conn, reply);
  });
  const bool up = engine::fabric_ping({"127.0.0.1", listener.port()}, 2.0);
  daemon.join();
  return up;
}

TEST(Net, FabricPingRejectsAStaleProtocolVersion) {
  // A daemon from before the last protocol bump must fail its probe, so
  // the dispatcher never leases it a job it would misread.
  EXPECT_FALSE(ping_answered_with("{\"ok\":true,\"proto\":1}"));
  EXPECT_FALSE(ping_answered_with("{\"ok\":true}"));
  EXPECT_TRUE(ping_answered_with("{\"ok\":true,\"proto\":" +
                                 std::to_string(engine::kFabricProto) + "}"));
}

}  // namespace
}  // namespace hxmesh
