// Tests for the real network transport (src/net): wire framing edge cases,
// the SocketBus over loopback TCP, and a hermetic three-daemon mesh
// (PartyService on threads) driven end to end by the RemoteSmcOracle —
// including the fault-retry and quarantine paths over real sockets.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adult/adult.h"
#include "common/random.h"
#include "crypto/material.h"
#include "net/frame.h"
#include "net/party_service.h"
#include "net/remote_oracle.h"
#include "net/socket.h"
#include "net/socket_bus.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "smc/channel.h"
#include "smc/fault.h"
#include "smc/protocol.h"
#include "smc/smc_oracle.h"

namespace hprl {
namespace {

using net::DecodeFrame;
using net::EncodeFrame;
using net::Fd;
using net::FrameSize;
using net::MeshEndpoints;
using net::PartyService;
using net::PartyServiceOptions;
using net::PeerAddress;
using net::ReadFrame;
using net::RemoteOracleOptions;
using net::RemoteSmcOracle;
using net::SocketBus;
using net::SocketBusOptions;
using smc::Message;

// ------------------------------------------------------------------ helpers

/// One connected loopback TCP pair.
struct TcpPair {
  Fd a;  // accepted side
  Fd b;  // connected side
};

TcpPair MakeTcpPair() {
  auto listener = net::TcpListen(0);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  auto port = net::LocalPort(*listener);
  EXPECT_TRUE(port.ok());
  auto client = net::TcpConnect("127.0.0.1", *port, 2000);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  auto served = net::TcpAccept(*listener, 2000);
  EXPECT_TRUE(served.ok()) << served.status().ToString();
  TcpPair pair;
  pair.a = std::move(*served);
  pair.b = std::move(*client);
  return pair;
}

Message MakeMessage() {
  Message msg;
  msg.from = "alice";
  msg.to = "bob";
  msg.tag = "alice_ct";
  msg.payload = {0x00, 0x01, 0xFF, 0x7E, 0x80, 0x00};
  msg.seq = 42;
  msg.checksum = smc::PayloadChecksum(msg.payload);
  return msg;
}

// ------------------------------------------------------------------ framing

TEST(FrameTest, RoundTripsMessageByteExactly) {
  Message msg = MakeMessage();
  std::vector<uint8_t> wire = EncodeFrame(msg);
  EXPECT_EQ(wire.size(), FrameSize(msg));

  // Body = everything after the 4-byte length prefix.
  auto back = DecodeFrame(wire.data() + 4, wire.size() - 4);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->from, msg.from);
  EXPECT_EQ(back->to, msg.to);
  EXPECT_EQ(back->tag, msg.tag);
  EXPECT_EQ(back->payload, msg.payload);
  EXPECT_EQ(back->seq, msg.seq);
  EXPECT_EQ(back->checksum, msg.checksum);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  Message msg;
  msg.from = "qp";
  msg.to = "alice";
  msg.tag = "result";
  msg.seq = 1;
  std::vector<uint8_t> wire = EncodeFrame(msg);
  auto back = DecodeFrame(wire.data() + 4, wire.size() - 4);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->payload.empty());
}

TEST(FrameTest, RejectsBadMagic) {
  Message msg = MakeMessage();
  std::vector<uint8_t> wire = EncodeFrame(msg);
  wire[4] ^= 0xFF;  // first magic byte
  auto back = DecodeFrame(wire.data() + 4, wire.size() - 4);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIOError);
}

TEST(FrameTest, RejectsVersionMismatch) {
  Message msg = MakeMessage();
  std::vector<uint8_t> wire = EncodeFrame(msg);
  // Body layout: magic u32, then version u16 (big-endian).
  wire[4 + 4] = 0xFF;
  wire[4 + 5] = 0xFE;
  auto back = DecodeFrame(wire.data() + 4, wire.size() - 4);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIOError);
  EXPECT_NE(back.status().ToString().find("version"), std::string::npos);
}

// Wire v13 to v15 peers are refused at the frame layer, never half-parsed:
// a v13 alice sends bob her per-slot cross terms, where a v14 bob sends
// alice his columns, a v14 "cfg" body carries a pool depth and a v14
// coordinator a "warmup" verb that v15 dropped, and a v15 "stats" reply
// lacks the generated count a v16 coordinator reads.
TEST(FrameTest, RejectsWireVersionsThirteenToFifteen) {
  ASSERT_EQ(net::kWireVersion, 16);
  for (uint8_t version : {0x0D, 0x0E, 0x0F}) {
    Message msg = MakeMessage();
    std::vector<uint8_t> wire = EncodeFrame(msg);
    wire[4 + 4] = 0x00;
    wire[4 + 5] = version;
    auto back = DecodeFrame(wire.data() + 4, wire.size() - 4);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kIOError);
    EXPECT_NE(back.status().ToString().find("version"), std::string::npos);
    auto view = net::DecodeFrameView(wire.data() + 4, wire.size() - 4);
    EXPECT_FALSE(view.ok());
  }
}

TEST(FrameTest, RejectsTruncationAtEveryLength) {
  Message msg = MakeMessage();
  std::vector<uint8_t> wire = EncodeFrame(msg);
  // A frame cut anywhere inside the body must fail cleanly, never read
  // out of bounds (ASan guards the buffer) and never succeed.
  for (size_t n = 0; n + 4 < wire.size(); ++n) {
    auto back = DecodeFrame(wire.data() + 4, n);
    EXPECT_FALSE(back.ok()) << "truncated at " << n;
  }
}

TEST(FrameTest, ReadFrameRejectsOversizedLengthPrefix) {
  TcpPair pair = MakeTcpPair();
  // A hostile/corrupt length prefix far beyond kMaxFrameBytes must be
  // rejected before any allocation happens.
  const uint32_t huge = net::kMaxFrameBytes + 1;
  uint8_t prefix[4] = {static_cast<uint8_t>(huge >> 24),
                       static_cast<uint8_t>(huge >> 16),
                       static_cast<uint8_t>(huge >> 8),
                       static_cast<uint8_t>(huge)};
  ASSERT_TRUE(net::FullWrite(pair.b.get(), prefix, sizeof prefix).ok());
  auto got = ReadFrame(pair.a.get(), 1000);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST(FrameTest, ReadFrameReassemblesSplitWrites) {
  TcpPair pair = MakeTcpPair();
  Message msg = MakeMessage();
  std::vector<uint8_t> wire = EncodeFrame(msg);

  // Dribble the frame a few bytes at a time: the reader must loop over
  // short reads until the whole frame arrived.
  std::thread writer([&] {
    for (size_t off = 0; off < wire.size(); off += 3) {
      size_t n = std::min<size_t>(3, wire.size() - off);
      ASSERT_TRUE(net::FullWrite(pair.b.get(), wire.data() + off, n).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  size_t wire_bytes = 0;
  auto got = ReadFrame(pair.a.get(), 2000, &wire_bytes);
  writer.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(wire_bytes, wire.size());
  EXPECT_EQ(got->payload, msg.payload);
  EXPECT_EQ(got->seq, msg.seq);
}

TEST(FrameTest, ReadFrameTimesOutNotFoundWhenIdle) {
  TcpPair pair = MakeTcpPair();
  auto got = ReadFrame(pair.a.get(), 50);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(FrameTest, ReadFrameUnavailableOnPeerClose) {
  TcpPair pair = MakeTcpPair();
  pair.b.Close();
  auto got = ReadFrame(pair.a.get(), 1000);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
}

TEST(FrameTest, CtlPayloadHelpersRoundTrip) {
  std::vector<uint8_t> buf;
  net::AppendU8(7, &buf);
  net::AppendU32(123456, &buf);
  net::AppendU64(0xDEADBEEFCAFEBABEull, &buf);
  net::AppendI64(-987654321, &buf);
  net::AppendString("hello mesh", &buf);
  net::AppendSignedBigInt(crypto::BigInt(-31337), &buf);

  size_t off = 0;
  EXPECT_EQ(net::ConsumeU8(buf, &off).value(), 7);
  EXPECT_EQ(net::ConsumeU32(buf, &off).value(), 123456u);
  EXPECT_EQ(net::ConsumeU64(buf, &off).value(), 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(net::ConsumeI64(buf, &off).value(), -987654321);
  EXPECT_EQ(net::ConsumeString(buf, &off).value(), "hello mesh");
  EXPECT_EQ(net::ConsumeSignedBigInt(buf, &off).value(), crypto::BigInt(-31337));
  EXPECT_EQ(off, buf.size());

  // Truncated consumption fails instead of reading past the end.
  buf.resize(buf.size() - 1);
  off = 0;
  (void)net::ConsumeU8(buf, &off);
  (void)net::ConsumeU32(buf, &off);
  (void)net::ConsumeU64(buf, &off);
  (void)net::ConsumeI64(buf, &off);
  (void)net::ConsumeString(buf, &off);
  EXPECT_FALSE(net::ConsumeSignedBigInt(buf, &off).ok());
}

TEST(FrameTest, PairSlotsRoundTrip) {
  std::vector<net::PairSlot> slots(3);
  slots[0] = {7, StatusCode::kOk, 1};
  slots[1] = {8, StatusCode::kIOError, 0};
  slots[2] = {12345678901234ull, StatusCode::kNotFound, 0};
  std::vector<uint8_t> buf;
  net::AppendPairSlots(slots, &buf);

  size_t off = 0;
  auto back = net::ParsePairSlots(buf, &off);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(off, buf.size());
  ASSERT_EQ(back->size(), slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ((*back)[i].pair_index, slots[i].pair_index) << i;
    EXPECT_EQ((*back)[i].code, slots[i].code) << i;
    EXPECT_EQ((*back)[i].label, slots[i].label) << i;
  }
}

TEST(FrameTest, PairSlotsRejectTruncationAtEveryLength) {
  std::vector<net::PairSlot> slots(2);
  slots[0] = {1, StatusCode::kOk, 1};
  slots[1] = {2, StatusCode::kUnavailable, 0};
  std::vector<uint8_t> buf;
  net::AppendPairSlots(slots, &buf);
  for (size_t n = 0; n < buf.size(); ++n) {
    std::vector<uint8_t> cut(buf.begin(), buf.begin() + n);
    size_t off = 0;
    EXPECT_FALSE(net::ParsePairSlots(cut, &off).ok()) << "truncated at " << n;
  }
}

TEST(FrameTest, PairSlotsRejectUnknownStatusCode) {
  std::vector<net::PairSlot> slots(1);
  slots[0] = {1, StatusCode::kOk, 1};
  std::vector<uint8_t> buf;
  net::AppendPairSlots(slots, &buf);
  buf[buf.size() - 2] = 0xEE;  // the slot's status-code byte
  size_t off = 0;
  EXPECT_FALSE(net::ParsePairSlots(buf, &off).ok());
}

// ----------------------------------------------- error attribution (bus)

TEST(ChannelAttributionTest, ChecksumErrorNamesLinkAndTag) {
  smc::MessageBus bus;
  Message msg;
  msg.from = "alice";
  msg.to = "bob";
  msg.tag = "alice_ct";
  msg.payload = {1, 2, 3};
  msg.checksum = 777;  // wrong, and non-zero so Stamp keeps it
  bus.Send(std::move(msg));

  auto got = bus.Expect("bob", "alice_ct");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
  std::string text = got.status().ToString();
  EXPECT_NE(text.find("alice->bob"), std::string::npos) << text;
  EXPECT_NE(text.find("alice_ct"), std::string::npos) << text;
}

TEST(ChannelAttributionTest, TagMismatchNamesLinkAndBothTags) {
  smc::MessageBus bus;
  Message msg;
  msg.from = "bob";
  msg.to = "qp";
  msg.tag = "bob_ct";
  msg.payload = {9};
  bus.Send(std::move(msg));

  auto got = bus.Expect("qp", "result");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
  std::string text = got.status().ToString();
  EXPECT_NE(text.find("bob->qp"), std::string::npos) << text;
  EXPECT_NE(text.find("result"), std::string::npos) << text;
  EXPECT_NE(text.find("bob_ct"), std::string::npos) << text;
}

// -------------------------------------------------------------- SocketBus

/// Starts a two-node mesh: "alice" listens, "bob" dials.
struct BusPair {
  std::unique_ptr<SocketBus> alice;
  std::unique_ptr<SocketBus> bob;
};

BusPair MakeBusPair(int receive_timeout_ms = 2000) {
  SocketBusOptions a;
  a.local_name = "alice";
  a.listen = true;
  a.accept_from = {"bob"};
  a.connect_timeout_ms = 5000;
  a.receive_timeout_ms = receive_timeout_ms;
  a.flush_timeout_ms = 2000;
  BusPair pair;
  pair.alice = std::make_unique<SocketBus>(a);

  // Start the listener first on a thread (it blocks until bob dials in).
  std::atomic<bool> alice_ok{false};
  std::thread alice_start([&] { alice_ok = pair.alice->Start().ok(); });
  // Wait until the listener's port is known.
  for (int i = 0; i < 100 && pair.alice->listen_port() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(pair.alice->listen_port(), 0);

  SocketBusOptions b;
  b.local_name = "bob";
  b.dial = {{"alice", "127.0.0.1", pair.alice->listen_port()}};
  b.connect_timeout_ms = 5000;
  b.receive_timeout_ms = receive_timeout_ms;
  b.flush_timeout_ms = 2000;
  pair.bob = std::make_unique<SocketBus>(b);
  EXPECT_TRUE(pair.bob->Start().ok());
  alice_start.join();
  EXPECT_TRUE(alice_ok);
  return pair;
}

TEST(SocketBusTest, DeliversStampedMessagesBothWays) {
  BusPair mesh = MakeBusPair();

  Message ping;
  ping.from = "bob";
  ping.to = "alice";
  ping.tag = "ping";
  ping.payload = {1, 2, 3, 4};
  mesh.bob->Send(ping);

  auto got = mesh.alice->Expect("alice", "ping");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->payload, ping.payload);
  EXPECT_GT(got->seq, 0u);  // stamped by the sender's bus
  EXPECT_EQ(got->checksum, smc::PayloadChecksum(ping.payload));

  Message pong;
  pong.from = "alice";
  pong.to = "bob";
  pong.tag = "pong";
  pong.payload = {9};
  mesh.alice->Send(pong);
  auto back = mesh.bob->Expect("bob", "pong");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->payload, pong.payload);

  EXPECT_TRUE(mesh.alice->PeerAlive("bob"));
  EXPECT_TRUE(mesh.bob->PeerAlive("alice"));
}

TEST(SocketBusTest, AccountsFramedWireSizeWithinFivePercent) {
  BusPair mesh = MakeBusPair();

  Message msg;
  msg.from = "bob";
  msg.to = "alice";
  msg.tag = "bulk";
  msg.payload.assign(4096, 0xAB);
  for (int i = 0; i < 20; ++i) {
    mesh.bob->Send(msg);
    ASSERT_TRUE(mesh.alice->Expect("alice", "bulk").ok());
  }

  // The bus accounting charges the framed wire size; the socket counters are
  // ground truth. They differ only by the unaccounted hello handshake, which
  // is why the acceptance bound is a percentage, not equality.
  const int64_t accounted = mesh.bob->total_bytes();
  const int64_t wire = mesh.bob->net_stats().bytes_sent;
  ASSERT_GT(accounted, 20 * 4096);
  EXPECT_GE(wire, accounted);
  EXPECT_LT(static_cast<double>(wire - accounted), 0.05 * wire);

  // Receiver-side socket counter sees the same traffic.
  EXPECT_GE(mesh.alice->net_stats().bytes_received, accounted);
}

TEST(SocketBusTest, ReceiveTimesOutAsNotFound) {
  BusPair mesh = MakeBusPair(/*receive_timeout_ms=*/100);
  auto got = mesh.alice->Receive("alice");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

/// Starts a listening "alice" bus and hands back a raw TCP connection that
/// has already completed the hello handshake as "bob" — for tests that need
/// byte-level control over what the epoll read path sees.
struct RawPeer {
  std::unique_ptr<SocketBus> alice;
  Fd sock;
};

RawPeer MakeRawPeer(int receive_timeout_ms = 2000) {
  SocketBusOptions a;
  a.local_name = "alice";
  a.listen = true;
  a.accept_from = {"bob"};
  a.connect_timeout_ms = 5000;
  a.receive_timeout_ms = receive_timeout_ms;
  RawPeer peer;
  peer.alice = std::make_unique<SocketBus>(a);
  std::thread alice_start([&] { EXPECT_TRUE(peer.alice->Start().ok()); });
  for (int i = 0; i < 100 && peer.alice->listen_port() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(peer.alice->listen_port(), 0);

  auto sock = net::TcpConnect("127.0.0.1", peer.alice->listen_port(), 2000);
  EXPECT_TRUE(sock.ok());
  peer.sock = std::move(*sock);

  // Unstamped hello (seq 0, checksum 0), exactly what Dial sends.
  Message hello;
  hello.from = "bob";
  hello.to = "alice";
  hello.tag = "hprl.hello";
  EXPECT_TRUE(net::WriteFrame(peer.sock.get(), hello).ok());
  alice_start.join();
  return peer;
}

Message RawFrame(uint64_t seq, std::vector<uint8_t> payload) {
  Message msg;
  msg.from = "bob";
  msg.to = "alice";
  msg.tag = "chunked";
  msg.payload = std::move(payload);
  msg.seq = seq;
  msg.checksum = smc::PayloadChecksum(msg.payload);
  return msg;
}

// Frames dribbled onto the wire a few bytes per write — every header field
// and the payload straddle read() boundaries. The reassembly buffer must
// deliver each frame intact the moment its last byte arrives, no matter how
// the kernel slices the stream.
TEST(SocketBusTest, ReassemblesFramesDribbledInTinyChunks) {
  RawPeer peer = MakeRawPeer();

  std::vector<uint8_t> stream;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    std::vector<uint8_t> wire =
        EncodeFrame(RawFrame(seq, {uint8_t(seq), 0xBE, uint8_t(0xF0 + seq)}));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  for (size_t off = 0; off < stream.size(); off += 7) {
    const size_t n = std::min<size_t>(7, stream.size() - off);
    ASSERT_TRUE(net::FullWrite(peer.sock.get(), stream.data() + off, n).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (uint64_t seq = 1; seq <= 3; ++seq) {
    auto got = peer.alice->Expect("alice", "chunked");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->seq, seq);
    std::vector<uint8_t> want = {uint8_t(seq), 0xBE, uint8_t(0xF0 + seq)};
    EXPECT_EQ(got->payload, want);
  }
  peer.alice->Stop();
}

// The opposite slicing: many frames coalesced into one write arrive as one
// read burst, and the batched parse must deliver every one of them, in
// order, from that single burst.
TEST(SocketBusTest, DeliversEveryFrameFromOneCoalescedWrite) {
  RawPeer peer = MakeRawPeer();

  constexpr int kFrames = 16;
  std::vector<uint8_t> stream;
  for (uint64_t seq = 1; seq <= kFrames; ++seq) {
    std::vector<uint8_t> payload(64 + seq, static_cast<uint8_t>(seq));
    std::vector<uint8_t> wire = EncodeFrame(RawFrame(seq, std::move(payload)));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  ASSERT_TRUE(
      net::FullWrite(peer.sock.get(), stream.data(), stream.size()).ok());

  for (uint64_t seq = 1; seq <= kFrames; ++seq) {
    auto got = peer.alice->Expect("alice", "chunked");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->seq, seq);
    ASSERT_EQ(got->payload.size(), 64 + seq);
    EXPECT_EQ(got->payload[0], static_cast<uint8_t>(seq));
  }
  peer.alice->Stop();
}

TEST(SocketBusTest, SubInboxRoutesBySuffix) {
  BusPair mesh = MakeBusPair();
  Message ctl;
  ctl.from = "bob";
  ctl.to = "alice:ctl";
  ctl.tag = "cfg";
  ctl.payload = {1};
  mesh.bob->Send(ctl);

  // Nothing lands in the main inbox; the ctl sub-inbox gets it.
  auto main_inbox = mesh.alice->Receive("alice");
  EXPECT_FALSE(main_inbox.ok());
  auto sub = mesh.alice->Expect("alice:ctl", "cfg");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_EQ(sub->payload, std::vector<uint8_t>{1});
}

TEST(SocketBusTest, FlushBarrierDiscardsInFlightTraffic) {
  BusPair mesh = MakeBusPair();

  // Bob leaves two stale protocol messages in flight, then both sides enter
  // the barrier. After it, alice's inbox must be clean.
  Message junk;
  junk.from = "bob";
  junk.to = "alice";
  junk.tag = "alice_ct";
  junk.payload = {7, 7, 7};
  mesh.bob->Send(junk);
  mesh.bob->Send(junk);

  std::atomic<bool> bob_ok{false};
  std::thread bob_flush(
      [&] { bob_ok = mesh.bob->Flush({"alice"}, /*barrier_id=*/5).ok(); });
  Status alice_flush = mesh.alice->Flush({"bob"}, /*barrier_id=*/5);
  bob_flush.join();
  EXPECT_TRUE(alice_flush.ok()) << alice_flush.ToString();
  EXPECT_TRUE(bob_ok);

  auto after = mesh.alice->Receive("alice");
  EXPECT_FALSE(after.ok()) << "stale message survived the barrier";
  EXPECT_GE(mesh.alice->net_stats().stale_dropped, 2);
}

TEST(SocketBusTest, FlushExemptsHeartbeatSubInbox) {
  BusPair mesh = MakeBusPair(/*receive_timeout_ms=*/200);

  // Three messages are in flight when the barrier runs: stale protocol
  // traffic for the main inbox, a stale result for the ":res" sub-inbox,
  // and a liveness probe for ":hb". The barrier must discard the first two
  // but NEVER the heartbeat — a purge that ate probes would read as a
  // missed probe and could tip a healthy replica into suspect during a
  // perfectly normal retry flush.
  Message junk;
  junk.from = "bob";
  junk.to = "alice";
  junk.tag = "alice_ct";
  junk.payload = {7};
  mesh.bob->Send(junk);
  Message res;
  res.from = "bob";
  res.to = "alice:res";
  res.tag = "result";
  res.payload = {3};
  mesh.bob->Send(res);
  Message hb;
  hb.from = "bob";
  hb.to = "alice:hb";
  hb.tag = "hb";
  hb.payload = {9};
  mesh.bob->Send(hb);

  std::atomic<bool> bob_ok{false};
  std::thread bob_flush(
      [&] { bob_ok = mesh.bob->Flush({"alice"}, /*barrier_id=*/6).ok(); });
  Status alice_flush = mesh.alice->Flush({"bob"}, /*barrier_id=*/6);
  bob_flush.join();
  EXPECT_TRUE(alice_flush.ok()) << alice_flush.ToString();
  EXPECT_TRUE(bob_ok);

  EXPECT_FALSE(mesh.alice->Receive("alice").ok())
      << "stale main-inbox message survived the barrier";
  EXPECT_FALSE(mesh.alice->Receive("alice:res").ok())
      << "stale sub-inbox message survived the barrier";
  auto probe = mesh.alice->Expect("alice:hb", "hb");
  ASSERT_TRUE(probe.ok()) << "barrier swallowed a heartbeat: "
                          << probe.status().ToString();
  EXPECT_EQ(probe->payload, std::vector<uint8_t>{9});
}

TEST(SocketBusTest, DeadPeerStopsBeingAliveAndFlushFails) {
  BusPair mesh = MakeBusPair(/*receive_timeout_ms=*/200);
  mesh.bob->Stop();

  // The reader notices the closed link quickly.
  for (int i = 0; i < 100 && mesh.alice->PeerAlive("bob"); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(mesh.alice->PeerAlive("bob"));

  Status flush = mesh.alice->Flush({"bob"}, 9);
  ASSERT_FALSE(flush.ok());
  EXPECT_EQ(flush.code(), StatusCode::kUnavailable);

  // Sends to the dead link are dropped and counted, never crash.
  Message msg;
  msg.from = "alice";
  msg.to = "bob";
  msg.tag = "ping";
  mesh.alice->Send(msg);
  EXPECT_GE(mesh.alice->net_stats().send_errors, 1);
}

// ------------------------------------------------------- three-party mesh

/// One categorical and one numeric attribute, both declaring their
/// domains, so the mesh and fleet fixtures' packed config (below) packs.
MatchRule MixedRule() {
  MatchRule rule;
  AttrRule cat;
  cat.attr_index = 0;
  cat.type = AttrType::kCategorical;
  cat.theta = 0.5;
  cat.domain_hi = 8;  // categories [0, 8)
  AttrRule num;
  num.attr_index = 1;
  num.type = AttrType::kNumeric;
  num.theta = 0.1;
  num.norm = 100;  // |x-y| <= 10 matches
  num.domain_hi = 100;  // [0, 100)
  rule.attrs = {cat, num};
  return rule;
}

/// The mesh and fleet fixtures' config: a small key for fast tests, with
/// units of up to eight pairs (MixedRule's pair takes 9 + 36 bits, so five
/// pairs fill a 256-bit key; the serve streams' five-attribute §VI rule
/// takes 73 bits, so three).
smc::SmcConfig FixtureConfig() {
  smc::SmcConfig cfg;
  cfg.key_bits = 256;
  cfg.test_seed = 4242;
  cfg.max_retries = 3;
  cfg.pack_pairs = 8;
  cfg.pack_slot_bits = 40;
  return cfg;
}

Record Rec(int32_t cat, double num) {
  return {Value::Category(cat), Value::Numeric(num)};
}

/// Opens a listener on a kernel-assigned port for each of alice, bob and qp
/// and fills `mesh` with their endpoints. The listeners stay open in
/// `holds` until handed to the daemons (PartyServiceOptions::listen_fd).
void ReserveMesh(Fd (&holds)[3], MeshEndpoints* mesh) {
  uint16_t ports[3];
  for (int i = 0; i < 3; ++i) {
    auto listener = net::TcpListen(0);
    ASSERT_TRUE(listener.ok());
    auto port = net::LocalPort(*listener);
    ASSERT_TRUE(port.ok());
    ports[i] = *port;
    holds[i] = std::move(*listener);
  }
  mesh->alice = {"alice", "127.0.0.1", ports[0]};
  mesh->bob = {"bob", "127.0.0.1", ports[1]};
  mesh->qp = {"qp", "127.0.0.1", ports[2]};
}

/// Three PartyService daemons on threads plus a RemoteSmcOracle coordinator
/// in the test thread — the full TCP deployment, hermetically in one
/// process.
class MeshTest : public ::testing::Test {
 protected:
  void StartMesh(int receive_timeout_ms) {
    // Three kernel-assigned ports. Each listener stays open and passes to
    // its daemon, so no other socket can take a port once it is published.
    Fd holds[3];
    ASSERT_NO_FATAL_FAILURE(ReserveMesh(holds, &endpoints_));
    const char* roles[3] = {"alice", "bob", "qp"};
    for (int i = 0; i < 3; ++i) {
      PartyServiceOptions opts;
      opts.role = roles[i];
      opts.endpoints = endpoints_;
      opts.connect_timeout_ms = 10000;
      opts.receive_timeout_ms = receive_timeout_ms;
      opts.listen_fd = holds[i].release();
      services_.push_back(std::make_unique<PartyService>(opts));
    }
    for (size_t i = 0; i < services_.size(); ++i) {
      threads_.emplace_back([this, i, s = services_[i].get()] {
        Status started = s->Start();
        ASSERT_TRUE(started.ok()) << started.ToString();
        Status served = s->Serve();
        // An injected crash makes that one daemon's serve loop exit with the
        // transport error — expected for roles the test crashed on purpose.
        EXPECT_TRUE(served.ok() || may_crash_[i].load()) << served.ToString();
      });
    }
  }

  std::unique_ptr<RemoteSmcOracle> MakeOracle(int receive_timeout_ms,
                                              int rpc_batch = 0,
                                              int rpc_window = 0,
                                              MatchRule rule = MixedRule()) {
    RemoteOracleOptions opts;
    opts.config = FixtureConfig();
    opts.rule = std::move(rule);
    opts.shard_endpoints = {endpoints_};
    opts.connect_timeout_ms = 10000;
    opts.receive_timeout_ms = receive_timeout_ms;
    if (rpc_batch > 0) opts.rpc_batch_pairs = rpc_batch;
    if (rpc_window > 0) opts.rpc_window = rpc_window;
    return std::make_unique<RemoteSmcOracle>(opts);
  }

  /// Tears one daemon down completely: serve loop, then the bus (only the
  /// destructor closes the links, mirroring a killed process).
  void KillService(size_t i) {
    services_[i]->RequestStop();
    threads_[i].join();
    services_[i].reset();
  }

  void TearDown() override {
    for (auto& service : services_) {
      if (service != nullptr) service->RequestStop();
    }
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    services_.clear();
  }

  MeshEndpoints endpoints_;
  std::vector<std::unique_ptr<PartyService>> services_;
  std::vector<std::thread> threads_;
  std::array<std::atomic<bool>, 3> may_crash_{};  // alice, bob, qp
};

/// Six record pairs with known plaintext outcomes, ids 0..5 / 100..105.
std::vector<std::pair<Record, Record>> SixPairs() {
  return {
      {Rec(3, 50), Rec(3, 55)},   // match
      {Rec(3, 50), Rec(4, 55)},   // cat differs
      {Rec(1, 10), Rec(1, 90)},   // numeric too far
      {Rec(2, 70), Rec(2, 70)},   // exact
      {Rec(5, 30), Rec(5, 41)},   // just over
      {Rec(5, 30), Rec(5, 40)},   // at the threshold
  };
}

std::vector<RowPairRequest> PairBatch(
    const std::vector<std::pair<Record, Record>>& pairs) {
  std::vector<RowPairRequest> batch;
  batch.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    RowPairRequest req;
    req.a_id = static_cast<int64_t>(i);
    req.b_id = static_cast<int64_t>(100 + i);
    req.a = &pairs[i].first;
    req.b = &pairs[i].second;
    batch.push_back(req);
  }
  return batch;
}

/// A seeded single-tenant churn stream for the streaming service over the
/// synthetic Adult table: inserts, updates (a live row id with new values)
/// and erases, the mix scripts/serve_smoke.sh drives through the CLI. Rows
/// are drawn from a small pool of source records, so R and S share records
/// and links form; generalizing two VGH levels up leaves most straddling
/// pairs to SMC.
struct ServeStream {
  adult::AdultHierarchies h = adult::BuildAdultHierarchies();
  Table source = adult::GenerateAdult(200, 21, h);
  serve::ServiceOptions opts;
  std::vector<serve::RecordDelta> deltas;
  int updates = 0;
  int erases = 0;
  std::vector<serve::RecordDelta> erase_all;  ///< erases every live row
};

std::unique_ptr<ServeStream> MakeServeStream(int steps, uint64_t seed) {
  auto st = std::make_unique<ServeStream>();
  std::vector<VghPtr> all;
  for (const auto& n : adult::AdultQidNames()) all.push_back(st->h.ByName(n));
  auto rule = MakeUniformRule(st->source.schema(), adult::AdultQidNames(), all,
                              /*num_qids=*/5, /*theta=*/0.05);
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  st->opts.rule = std::move(rule).value();
  st->opts.hierarchies.assign(all.begin(), all.begin() + 5);
  st->opts.gen_level = 2;
  st->opts.smc_batch_pairs = 8;

  constexpr uint64_t kPool = 12;
  const std::string tenant = "t";
  Rng rng(seed);
  std::map<int64_t, bool> live[2];  // row ids per side
  int64_t next_id[2] = {0, 0};
  for (int step = 0; step < steps; ++step) {
    const int side = static_cast<int>(rng.NextBounded(2));
    serve::RecordDelta d;
    d.side = side == 0 ? serve::Side::kR : serve::Side::kS;
    d.tenant = tenant;
    const double roll = rng.NextDouble();
    auto pick_live = [&] {
      auto it = live[side].begin();
      std::advance(it, rng.NextBounded(live[side].size()));
      return it->first;
    };
    if (roll < 0.15 && !live[side].empty()) {
      d.op = serve::DeltaOp::kErase;
      d.row_id = pick_live();
      live[side].erase(d.row_id);
      st->erases += 1;
    } else {
      d.op = serve::DeltaOp::kUpsert;
      if (roll < 0.35 && !live[side].empty()) {
        d.row_id = pick_live();
        st->updates += 1;
      } else {
        d.row_id = next_id[side]++;
      }
      d.record = st->source.row(rng.NextBounded(kPool));
      live[side][d.row_id] = true;
    }
    st->deltas.push_back(std::move(d));
  }
  for (int side = 0; side < 2; ++side) {
    for (const auto& [row_id, unused] : live[side]) {
      serve::RecordDelta d;
      d.op = serve::DeltaOp::kErase;
      d.side = side == 0 ? serve::Side::kR : serve::Side::kS;
      d.tenant = tenant;
      d.row_id = row_id;
      st->erase_all.push_back(std::move(d));
    }
  }
  return st;
}

/// Applies deltas [begin, end) to both services, asserting every delta is
/// applied; returns the pairs the oracle-backed service sent to SMC and adds
/// what it quarantined to `*quarantined`.
int64_t ApplyBoth(const ServeStream& st, size_t begin, size_t end,
                  serve::LinkageService* svc, serve::LinkageService* ref,
                  int64_t* quarantined) {
  int64_t smc_pairs = 0;
  for (size_t i = begin; i < end; ++i) {
    auto got = svc->Apply(st.deltas[i]);
    EXPECT_TRUE(got.ok()) << "delta " << i << ": " << got.status().ToString();
    auto want = ref->Apply(st.deltas[i]);
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    if (!got.ok() || !want.ok()) return smc_pairs;
    EXPECT_EQ(got->status, serve::DeltaStatus::kApplied) << "delta " << i;
    EXPECT_EQ(got->links_added, want->links_added) << "delta " << i;
    EXPECT_EQ(got->links_removed, want->links_removed) << "delta " << i;
    smc_pairs += got->smc_pairs;
    *quarantined += got->quarantined;
  }
  return smc_pairs;
}

void ExpectSameLinks(const serve::LinkageService& svc,
                     const serve::LinkageService& ref) {
  const auto got = svc.Snapshot();
  const auto want = ref.Snapshot();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(want.empty());
  EXPECT_FALSE(want[0].links.empty()) << "vacuous stream: no links formed";
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].links, want[i].links) << "tenant " << got[i].name;
    EXPECT_EQ(got[i].live_rows_r, want[i].live_rows_r);
    EXPECT_EQ(got[i].live_rows_s, want[i].live_rows_s);
  }
}

// The link handshake's few hundred bytes are the wire's only unaccounted
// traffic, so the run moves enough packed units to keep the drift inside
// the 5 % accounting bound: SixPairs eight times over, 48 pairs in units of
// five.
TEST_F(MeshTest, EndToEndLabelsMatchInProcessProtocol) {
  StartMesh(/*receive_timeout_ms=*/2000);
  auto oracle = MakeOracle(2000);
  ASSERT_TRUE(oracle->Init().ok());

  // Reference: the in-process oracle with the same config.
  smc::SmcMatchOracle reference(FixtureConfig(), MixedRule());
  ASSERT_TRUE(reference.Init().ok());

  std::vector<std::pair<Record, Record>> pairs;
  for (int rep = 0; rep < 8; ++rep) {
    for (const auto& p : SixPairs()) pairs.push_back(p);
  }
  const std::vector<RowPairRequest> batch = PairBatch(pairs);

  auto labels = oracle->CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  auto expected = reference.CompareBatch(batch);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(*labels, *expected);
  for (size_t i = 0; i < pairs.size(); ++i) {
    // And both agree with the plaintext rule: SMC is exact.
    EXPECT_EQ((*expected)[i] == kPairMatch,
              RecordsMatch(pairs[i].first, pairs[i].second, MixedRule()))
        << "pair " << i;
  }
  EXPECT_EQ(oracle->invocations(), static_cast<int64_t>(pairs.size()));
  EXPECT_EQ(oracle->pairs_quarantined(), 0);

  auto mesh = oracle->CollectStats();
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  EXPECT_EQ(mesh->costs.invocations, static_cast<int64_t>(pairs.size()));
  EXPECT_GT(mesh->costs.encryptions, 0);
  EXPECT_GT(mesh->costs.decryptions, 0);
  // Acceptance bound: measured wire bytes within 5% of bus accounting.
  ASSERT_GT(mesh->bus_bytes, 0);
  double drift = static_cast<double>(mesh->wire_bytes_sent - mesh->bus_bytes) /
                 static_cast<double>(mesh->wire_bytes_sent);
  EXPECT_GE(drift, 0) << "bus accounted more than the sockets carried";
  EXPECT_LT(drift, 0.05);

  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// The offline phase over TCP: each holder daemon prewarms exactly its own
// role's draws (smc::RandomizerDraws), persists that bank, reports them as
// generated, and serves the run's pairs from it without a single pool miss.
TEST_F(MeshTest, HoldersPrewarmTheirOwnRolesDrawsAndNeverMiss) {
  StartMesh(/*receive_timeout_ms=*/2000);
  std::string tmpl = ::testing::TempDir() + "hprl_mesh_material_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;
  std::vector<std::pair<Record, Record>> pairs = SixPairs();
  for (const auto& p : SixPairs()) pairs.push_back(p);  // units of 5, 5, 2
  RemoteOracleOptions opts;
  opts.config = FixtureConfig();
  opts.config.offline_pairs = static_cast<int>(pairs.size());
  opts.config.material_dir = dir;
  opts.rule = MixedRule();
  opts.shard_endpoints = {endpoints_};
  opts.receive_timeout_ms = 2000;
  const smc::RoleDraws draws = *smc::RandomizerDraws(
      opts.config, smc::RuleOperands(opts.rule, opts.config.fp_scale),
      opts.config.offline_pairs);
  ASSERT_EQ(draws.alice, 3);
  ASSERT_EQ(draws.bob, 12 * 2 + 3);
  auto oracle = std::make_unique<RemoteSmcOracle>(opts);
  ASSERT_TRUE(oracle->Init().ok());

  // Each daemon's persisted bank is exactly its role's count. The daemons'
  // key comes from the pinned seed, as the in-process comparator's does.
  smc::SmcConfig key_cfg;
  key_cfg.key_bits = 256;
  key_cfg.test_seed = 4242;
  smc::SecureRecordComparator keyed(key_cfg, MixedRule());
  ASSERT_TRUE(keyed.Init().ok());
  const crypto::BigInt& n = keyed.public_key().n();
  const std::pair<std::string, int64_t> roles[] = {{"alice", draws.alice},
                                                   {"bob", draws.bob}};
  for (const auto& [role, want] : roles) {
    crypto::MaterialStore store(dir + "/" + role);
    auto bank = store.Load(crypto::KeyFingerprint(n),
                           static_cast<uint32_t>(n.BitLength()));
    ASSERT_TRUE(bank.ok()) << role << ": " << bank.status().ToString();
    EXPECT_EQ(static_cast<int64_t>(bank->randomizers.size()), want) << role;
  }

  auto labels = oracle->CompareBatch(PairBatch(pairs));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*labels)[i],
              RecordsMatch(pairs[i].first, pairs[i].second, MixedRule())
                  ? kPairMatch
                  : kPairNonMatch)
        << "pair " << i;
  }
  auto mesh = oracle->CollectStats();
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  for (const auto& [role, want] : roles) {
    const net::PartyStats& party = mesh->per_party.at(role);
    EXPECT_EQ(party.costs.encryptions, want) << role;
    // Every draw was a pool hit: no miss paid an exponentiation inline.
    EXPECT_EQ(party.costs.offline_randomizers, want) << role;
    // The store was empty: the offline phase generated the whole bank.
    EXPECT_EQ(party.material_generated, want) << role;
  }
  EXPECT_EQ(mesh->per_party.at("qp").material_generated, 0);
  EXPECT_EQ(mesh->material_generated, draws.alice + draws.bob);
  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
  std::filesystem::remove_all(dir);
}

// Pairs that share an R row share alice's operands, so the daemons fold
// each unit's cross terms by row (smc::UnitRows over the frame's a_ids):
// labels equal the in-process oracle's and the plaintext rule's, and each
// unit of pairs over d distinct R rows costs bob d·k + 1 encryptions and
// alice one, as in process.
TEST_F(MeshTest, RepeatedRowIdsFoldByRowLikeInProcess) {
  StartMesh(/*receive_timeout_ms=*/2000);
  auto oracle = MakeOracle(2000);
  ASSERT_TRUE(oracle->Init().ok());
  smc::SmcMatchOracle reference(FixtureConfig(), MixedRule());
  ASSERT_TRUE(reference.Init().ok());
  const int unit = *smc::PackedGroupPairs(
      FixtureConfig(), smc::RuleOperands(MixedRule(), FixtureConfig().fp_scale));
  ASSERT_EQ(unit, 5);

  const std::vector<Record> r = {Rec(3, 50), Rec(5, 30), Rec(2, 70)};
  const std::vector<Record> s = {Rec(3, 55), Rec(3, 61), Rec(5, 38),
                                 Rec(4, 50), Rec(5, 41), Rec(2, 70),
                                 Rec(2, 79), Rec(1, 70), Rec(5, 20),
                                 Rec(3, 45)};
  // Units [0 0 1 0 1] and [2 2 2 1 0]: two and three distinct R rows.
  const int64_t a_ids[] = {0, 0, 1, 0, 1, 2, 2, 2, 1, 0};
  std::vector<RowPairRequest> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back({a_ids[i], 100 + i, &r[static_cast<size_t>(a_ids[i])],
                     &s[static_cast<size_t>(i)]});
  }
  auto labels = oracle->CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  auto expected = reference.CompareBatch(batch);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(*labels, *expected);
  size_t matches = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const bool m = RecordsMatch(*batch[i].a, *batch[i].b, MixedRule());
    matches += m ? 1 : 0;
    EXPECT_EQ((*labels)[i], m ? kPairMatch : kPairNonMatch) << "pair " << i;
  }
  EXPECT_GT(matches, 0u);
  EXPECT_LT(matches, batch.size());
  const int64_t k = 2;
  EXPECT_EQ(reference.costs().encryptions, (2 * k + 2) + (3 * k + 2));
  auto mesh = oracle->CollectStats();
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  EXPECT_EQ(mesh->per_party.at("alice").costs.encryptions, 2);
  EXPECT_EQ(mesh->per_party.at("bob").costs.encryptions,
            (2 * k + 1) + (3 * k + 1));
  EXPECT_EQ(mesh->per_party.at("qp").costs.decryptions, 2);
  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

TEST_F(MeshTest, InjectedFaultIsRetriedAndHeals) {
  StartMesh(/*receive_timeout_ms=*/500);
  auto oracle = MakeOracle(500);
  ASSERT_TRUE(oracle->Init().ok());

  // The next pair command on bob fails before running; the coordinator must
  // flush the mesh and re-dispatch, and the retry must produce the right
  // label — over real sockets, with real in-flight leftovers to discard.
  ASSERT_TRUE(oracle->InjectFailures("bob", 1).ok());

  Record a = Rec(3, 50), b = Rec(3, 55);
  std::vector<RowPairRequest> batch(1);
  batch[0].a_id = 1;
  batch[0].b_id = 2;
  batch[0].a = &a;
  batch[0].b = &b;
  auto labels = oracle->CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ((*labels)[0], kPairMatch);
  EXPECT_GE(oracle->retries(), 1);
  EXPECT_EQ(oracle->pairs_quarantined(), 0);

  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// The same heal with the probe clock far faster than the daemons' receive
// timeout: qp waits a full second for the faulted bob's ciphertext while
// the coordinator would call it suspect after two missed 50 ms probes. A
// daemon blocked in a protocol receive must keep answering probes, so the
// pair heals by retry instead of being quarantined with its shard.
TEST_F(MeshTest, DaemonWaitingOutAFaultKeepsAnsweringProbes) {
  StartMesh(/*receive_timeout_ms=*/1000);
  RemoteOracleOptions opts;
  opts.config = FixtureConfig();
  opts.rule = MixedRule();
  opts.shard_endpoints = {endpoints_};
  opts.receive_timeout_ms = 1000;
  opts.hb_interval_ms = 50;
  RemoteSmcOracle oracle(opts);
  ASSERT_TRUE(oracle.Init().ok());
  ASSERT_TRUE(oracle.InjectFailures("bob", 1).ok());

  const std::vector<std::pair<Record, Record>> one = {SixPairs()[0]};
  auto labels = oracle.CompareBatch(PairBatch(one));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ(labels->front(), kPairMatch);
  EXPECT_GE(oracle.retries(), 1);
  EXPECT_EQ(oracle.pairs_quarantined(), 0);
  for (const auto& t : oracle.membership().transitions()) {
    EXPECT_NE(t.to, net::ReplicaState::kSuspect) << t.replica;
    EXPECT_NE(t.to, net::ReplicaState::kDead) << t.replica;
  }
  EXPECT_TRUE(oracle.Shutdown(/*stop_daemons=*/true).ok());
}

TEST_F(MeshTest, DeadPartyQuarantinesPair) {
  StartMesh(/*receive_timeout_ms=*/300);
  auto oracle = MakeOracle(300);
  ASSERT_TRUE(oracle->Init().ok());

  // Kill bob outright: its serve thread exits and its bus closes. The
  // coordinator must quarantine the pair (never retry a dead party), exactly
  // like the in-process engine does on a crash fault.
  KillService(1);
  // Wait until the coordinator's link to bob actually drops.
  for (int i = 0; i < 200 && oracle->bus().PeerAlive("bob"); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(oracle->bus().PeerAlive("bob"));

  Record a = Rec(3, 50), b = Rec(3, 55);
  std::vector<RowPairRequest> batch(1);
  batch[0].a_id = 1;
  batch[0].b_id = 2;
  batch[0].a = &a;
  batch[0].b = &b;
  auto labels = oracle->CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ((*labels)[0], kPairQuarantined);
  EXPECT_EQ(oracle->pairs_quarantined(), 1);

  // Shutdown is best-effort with a dead party; it must not hang.
  (void)oracle->Shutdown(/*stop_daemons=*/true);
}

// rpc_batch = 1 ships one pair per `pairb` frame: exactly the plaintext-rule
// labels, and exactly one ctl round trip per pair (no retries on a healthy
// mesh), which is the count scripts/bench_smoke.sh gates on.
TEST_F(MeshTest, BatchSizeOneDegeneratesToPerPairRoundTrips) {
  StartMesh(/*receive_timeout_ms=*/2000);
  obs::MetricsRegistry registry;  // outlives the oracle's buses
  auto oracle = MakeOracle(2000, /*rpc_batch=*/1);
  oracle->AttachMetrics(&registry);
  ASSERT_TRUE(oracle->Init().ok());

  const auto pairs = SixPairs();
  const auto batch = PairBatch(pairs);
  auto labels = oracle->CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  std::vector<uint8_t> want;
  for (const auto& [a, b] : pairs) {
    want.push_back(RecordsMatch(a, b, MixedRule()) ? kPairMatch
                                                   : kPairNonMatch);
  }
  EXPECT_EQ(*labels, want);
  EXPECT_EQ(oracle->ctl_round_trips(), static_cast<int64_t>(pairs.size()));
  // Every one-pair frame carries its R row to alice and its S row to bob.
  EXPECT_EQ(registry.counter("net.rows_sent")->value(),
            2 * static_cast<int64_t>(pairs.size()));
  EXPECT_EQ(oracle->retries(), 0);
  EXPECT_EQ(oracle->pairs_quarantined(), 0);
  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// The single-pair entry point labels exactly like the batch path, and a
// pair whose shard lost a party reports Unavailable instead of a label.
TEST_F(MeshTest, CompareRowsLabelsOnePairAndReportsDeadParty) {
  StartMesh(/*receive_timeout_ms=*/300);
  auto oracle = MakeOracle(300);
  ASSERT_TRUE(oracle->Init().ok());

  const auto pairs = SixPairs();
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto m = oracle->CompareRows(static_cast<int64_t>(i),
                                 static_cast<int64_t>(100 + i),
                                 pairs[i].first, pairs[i].second);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_EQ(*m, RecordsMatch(pairs[i].first, pairs[i].second, MixedRule()))
        << "pair " << i;
  }
  EXPECT_EQ(oracle->invocations(), static_cast<int64_t>(pairs.size()));

  KillService(1);  // bob
  for (int i = 0; i < 200 && oracle->bus().PeerAlive("bob"); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(oracle->bus().PeerAlive("bob"));
  auto dead = oracle->CompareRows(0, 100, pairs[0].first, pairs[0].second);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable)
      << dead.status().ToString();
  (void)oracle->Shutdown(/*stop_daemons=*/true);
}

TEST_F(MeshTest, BatchedModeCollapsesCtlRoundTrips) {
  StartMesh(/*receive_timeout_ms=*/2000);
  obs::MetricsRegistry registry;  // outlives the oracle's buses
  auto oracle = MakeOracle(2000, /*rpc_batch=*/32, /*rpc_window=*/4);
  oracle->AttachMetrics(&registry);
  ASSERT_TRUE(oracle->Init().ok());

  const auto pairs = SixPairs();
  auto batch = PairBatch(pairs);
  batch.push_back({0, 101, &pairs[0].first, &pairs[1].second});  // R0 x S101
  auto labels = oracle->CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ(labels->back(),
            RecordsMatch(pairs[0].first, pairs[1].second, MixedRule())
                ? kPairMatch
                : kPairNonMatch);
  // ... while the batched mode ships all seven pairs in ONE frame, which
  // carries each of its six R and six S rows once.
  EXPECT_EQ(oracle->ctl_round_trips(), 1) << "retries=" << oracle->retries();
  EXPECT_EQ(registry.counter("net.rows_sent")->value(), 12);
  EXPECT_EQ(oracle->pairs_quarantined(), 0);
  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// A transient fault inside one batch only retries the slots it touched: the
// injected pair fails, the daemons positionally skip the rest of that batch,
// the other batch of the window completes untouched, and one extra round
// heals everything — no quarantine, exact labels.
TEST_F(MeshTest, MidBatchTransientFaultHealsOnlyAffectedSlots) {
  StartMesh(/*receive_timeout_ms=*/500);
  auto oracle = MakeOracle(500, /*rpc_batch=*/3, /*rpc_window=*/2);
  ASSERT_TRUE(oracle->Init().ok());
  ASSERT_TRUE(oracle->InjectFailures("bob", 1).ok());

  const auto pairs = SixPairs();
  const auto batch = PairBatch(pairs);
  auto labels = oracle->CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*labels)[i],
              RecordsMatch(pairs[i].first, pairs[i].second, MixedRule())
                  ? kPairMatch
                  : kPairNonMatch)
        << "pair " << i;
  }
  EXPECT_GE(oracle->retries(), 1);
  EXPECT_EQ(oracle->pairs_quarantined(), 0);
  // Two first-round batches plus at least one retry batch.
  EXPECT_GE(oracle->ctl_round_trips(), 3);
  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// A party that DIES mid-batch (no reply, bus down — a real process death,
// not a clean error) must quarantine the affected pairs and never fabricate
// a label; the coordinator and the surviving daemons keep running.
TEST_F(MeshTest, MidBatchCrashQuarantinesWithoutFalseLabels) {
  StartMesh(/*receive_timeout_ms=*/300);
  auto oracle = MakeOracle(300, /*rpc_batch=*/2, /*rpc_window=*/2);
  ASSERT_TRUE(oracle->Init().ok());
  may_crash_[1] = true;  // bob's serve loop may exit with the transport error
  ASSERT_TRUE(oracle->InjectFailures("bob", 1, /*crash=*/true).ok());

  const auto pairs = SixPairs();
  const auto batch = PairBatch(pairs);
  auto labels = oracle->CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  ASSERT_EQ(labels->size(), pairs.size());
  int64_t quarantined = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if ((*labels)[i] == kPairQuarantined) {
      ++quarantined;
      continue;
    }
    // Any label the run did commit must be the exact plaintext outcome.
    EXPECT_EQ((*labels)[i],
              RecordsMatch(pairs[i].first, pairs[i].second, MixedRule())
                  ? kPairMatch
                  : kPairNonMatch)
        << "pair " << i;
  }
  EXPECT_GE(quarantined, 1);
  EXPECT_EQ(oracle->pairs_quarantined(), quarantined);

  // Shutdown is best-effort with a dead party; it must not hang.
  (void)oracle->Shutdown(/*stop_daemons=*/true);
}

// The streaming service over a one-shard TCP mesh: a seeded stream of
// inserts, updates (same row id, new values) and erases settles exactly the
// links the in-the-clear service settles, delta by delta, with nothing
// quarantined. Updates are the case that must re-ship a row's operands.
TEST_F(MeshTest, ServeStreamLinksMatchPlaintextService) {
  StartMesh(/*receive_timeout_ms=*/2000);
  auto stream = MakeServeStream(/*steps=*/60, /*seed=*/7);
  ASSERT_GT(stream->updates, 0);
  ASSERT_GT(stream->erases, 0);
  auto oracle = MakeOracle(2000, 0, 0, stream->opts.rule);
  ASSERT_TRUE(oracle->Init().ok());

  CountingPlaintextOracle plain(stream->opts.rule);
  serve::LinkageService svc(stream->opts, oracle.get());
  serve::LinkageService ref(stream->opts, &plain);
  int64_t quarantined = 0;
  const int64_t smc_pairs = ApplyBoth(*stream, 0, stream->deltas.size(), &svc,
                                      &ref, &quarantined);
  EXPECT_GT(smc_pairs, 0);
  EXPECT_EQ(quarantined, 0);
  EXPECT_EQ(oracle->pairs_quarantined(), 0);
  EXPECT_EQ(oracle->retries(), 0);
  EXPECT_EQ(oracle->invocations(), plain.invocations());
  ExpectSameLinks(svc, ref);
  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// Frames are self-contained, so erasing and updating rows mid-stream needs
// no bookkeeping on the coordinator or the daemons: a stream runs, every
// live row is erased, and a second stream reuses the same row ids with new
// values while a holder's fault forces frames to be sent again. Links match
// the in-the-clear service delta by delta, and nothing is quarantined.
TEST_F(MeshTest, ServeRowsErasedAndReusedMidStreamMatchPlaintext) {
  StartMesh(/*receive_timeout_ms=*/500);
  auto first = MakeServeStream(/*steps=*/40, /*seed=*/11);
  auto second = MakeServeStream(/*steps=*/60, /*seed=*/12);
  ASSERT_GT(second->updates, 0);
  ASSERT_GT(second->erases, 0);
  auto oracle = MakeOracle(500, 0, 0, first->opts.rule);
  ASSERT_TRUE(oracle->Init().ok());

  CountingPlaintextOracle plain(first->opts.rule);
  serve::LinkageService svc(first->opts, oracle.get());
  serve::LinkageService ref(first->opts, &plain);
  int64_t quarantined = 0;
  int64_t smc_pairs =
      ApplyBoth(*first, 0, first->deltas.size(), &svc, &ref, &quarantined);
  for (const serve::RecordDelta& d : first->erase_all) {
    ASSERT_TRUE(svc.Apply(d).ok());
    ASSERT_TRUE(ref.Apply(d).ok());
  }
  ASSERT_TRUE(svc.Snapshot()[0].links.empty());
  const size_t half = second->deltas.size() / 2;
  smc_pairs += ApplyBoth(*second, 0, half, &svc, &ref, &quarantined);
  ASSERT_TRUE(oracle->InjectFailures("alice", 2).ok());
  smc_pairs += ApplyBoth(*second, half, second->deltas.size(), &svc, &ref,
                         &quarantined);
  EXPECT_GT(smc_pairs, 0);
  EXPECT_EQ(quarantined, 0);
  EXPECT_EQ(oracle->pairs_quarantined(), 0);
  EXPECT_GE(oracle->retries(), 1);
  EXPECT_EQ(oracle->invocations(), plain.invocations());
  ExpectSameLinks(svc, ref);
  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// A quarantined batch leaves nothing behind: bob faults on every attempt
// until the batch is quarantined, and the next batch, under the same row
// ids with the records swapped, labels by its own records alone. That takes
// no row state on any daemon, and a flush after the quarantine: alice's
// unit from the last failed attempt still waits in bob's inbox, and bob
// would fold it into the next batch's first unit.
TEST_F(MeshTest, QuarantinedBatchLeavesNothingBehind) {
  StartMesh(/*receive_timeout_ms=*/300);
  auto oracle = MakeOracle(300);
  ASSERT_TRUE(oracle->Init().ok());
  // max_retries 3: the first attempt and three retries all fail.
  ASSERT_TRUE(oracle->InjectFailures("bob", 4).ok());

  const auto pairs = SixPairs();
  auto labels = oracle->CompareBatch(PairBatch(pairs));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  ASSERT_EQ(oracle->pairs_quarantined(), static_cast<int64_t>(pairs.size()));

  std::vector<std::pair<Record, Record>> swapped;
  for (const auto& [a, b] : pairs) swapped.push_back({b, a});
  std::swap(swapped[0].second, swapped[2].second);
  auto relabeled = oracle->CompareBatch(PairBatch(swapped));
  ASSERT_TRUE(relabeled.ok()) << relabeled.status().ToString();
  for (size_t i = 0; i < swapped.size(); ++i) {
    EXPECT_EQ((*relabeled)[i],
              RecordsMatch(swapped[i].first, swapped[i].second, MixedRule())
                  ? kPairMatch
                  : kPairNonMatch)
        << "pair " << i;
  }
  EXPECT_EQ(oracle->pairs_quarantined(), static_cast<int64_t>(pairs.size()));
  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// Every operand is a resident row, so one batch cannot name two different
// records under one (side, row id); a later batch may carry new values
// under the same id (a serve update), and the row is shipped again.
TEST_F(MeshTest, OneBatchRejectsTwoRecordsUnderOneRowId) {
  StartMesh(/*receive_timeout_ms=*/2000);
  auto oracle = MakeOracle(2000);
  ASSERT_TRUE(oracle->Init().ok());
  const Record a = Rec(3, 50), b = Rec(3, 55), b_copy = Rec(3, 55);
  const Record b_moved = Rec(3, 70);  // |50 - 70| > 10: no longer a match

  auto same = oracle->CompareBatch({{0, 100, &a, &b}, {1, 100, &a, &b_copy}});
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(*same, (std::vector<uint8_t>{kPairMatch, kPairMatch}));

  auto clash =
      oracle->CompareBatch({{0, 100, &a, &b}, {1, 100, &a, &b_moved}});
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kInvalidArgument)
      << clash.status().ToString();

  auto updated = oracle->CompareBatch({{0, 100, &a, &b_moved}});
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->front(), kPairNonMatch);
  EXPECT_EQ(oracle->pairs_quarantined(), 0);
  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// A frame is self-contained: a pair naming a row its own frame does not
// carry makes the frame malformed, and the holder fails the whole batch
// with InvalidArgument before running a unit — not a transient code, since
// no retry of that frame could heal it. The coordinator turns it into a
// failed compare.
TEST_F(MeshTest, PairOnRowMissingFromItsFrameFailsTheBatch) {
  StartMesh(/*receive_timeout_ms=*/500);
  auto oracle = MakeOracle(500);
  ASSERT_TRUE(oracle->Init().ok());
  ASSERT_TRUE(oracle->Shutdown(/*stop_daemons=*/false).ok());
  oracle.reset();

  // A raw coordinator bus at the adopted epoch: bob's frame carries S2,
  // alice's frame lacks R1.
  SocketBusOptions bopts;
  bopts.local_name = "coord";
  bopts.dial = {endpoints_.alice, endpoints_.bob, endpoints_.qp};
  bopts.connect_timeout_ms = 5000;
  bopts.receive_timeout_ms = 2000;
  SocketBus raw(bopts);
  ASSERT_TRUE(raw.Start().ok());
  net::PairBatchBody body;
  body.batch_id = 77;
  body.pairs.push_back({5, 1, 2});
  for (const char* role : {"alice", "bob", "qp"}) {
    net::PairBatchBody frame = body;
    if (std::string(role) == "bob") {
      frame.rows.push_back({2, {crypto::BigInt(3), crypto::BigInt(55000)}});
    }
    net::CtlRequest req;
    req.verb = net::CtlVerb::kPairBatch;
    req.epoch = 1;
    net::AppendPairBatchBody(frame, &req.body);
    raw.Send(net::EncodeCtlRequest("coord", role, req));
  }
  std::map<std::string, net::CtlResponse> replies;
  while (replies.size() < 3) {
    auto msg = raw.ReceiveTimeout("coord", 5000);
    ASSERT_TRUE(msg.ok()) << msg.status().ToString();
    if (msg->tag != net::kCtlReply) continue;
    auto r = net::ParseCtlResponse(msg->payload);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->verb != net::CtlVerb::kPairBatch) continue;  // e.g. a late stats
    replies[r->role] = *r;
  }
  const net::CtlResponse& alice = replies.at("alice");
  EXPECT_EQ(alice.id, 77u);
  EXPECT_EQ(alice.code, StatusCode::kInvalidArgument) << alice.detail;
  EXPECT_NE(alice.detail.find("row 1"), std::string::npos) << alice.detail;
  EXPECT_FALSE(smc::IsTransientFault(Status(alice.code, alice.detail)));
  // Bob and qp had their rows and ran the unit; alice never sent, so their
  // receives timed out: transient slots, which the coordinator outranks
  // with alice's semantic batch failure.
  for (const char* role : {"bob", "qp"}) {
    const net::CtlResponse& r = replies.at(role);
    EXPECT_EQ(r.code, StatusCode::kOk) << role << ": " << r.detail;
    size_t off = 0;
    auto slots = net::ParsePairSlots(r.extra, &off);
    ASSERT_TRUE(slots.ok()) << slots.status().ToString();
    ASSERT_EQ(slots->size(), 1u) << role;
    EXPECT_EQ(slots->front().pair_index, 5u) << role;
    EXPECT_TRUE(smc::IsTransientFault(Status(slots->front().code, "")))
        << role;
  }
  raw.Stop();
}

// A pairb body the daemon cannot parse passed the frame checksum, so its
// damage is the sender's bug, not transit: the daemon refuses it at once
// with InvalidArgument under the body's own batch id — a non-transient
// code, so the coordinator fails that batch instead of waiting out its
// deadline and re-sending it until the pairs are quarantined. Here a
// coordinator-side body names row 1 twice; a body too short to carry its
// batch id is refused under id 0.
TEST_F(MeshTest, MalformedPairBatchBodyIsRefusedAtOnceUnderItsBatchId) {
  constexpr int kReceiveTimeoutMs = 2000;
  StartMesh(kReceiveTimeoutMs);
  auto oracle = MakeOracle(kReceiveTimeoutMs);
  ASSERT_TRUE(oracle->Init().ok());
  ASSERT_TRUE(oracle->Shutdown(/*stop_daemons=*/false).ok());
  oracle.reset();

  SocketBusOptions bopts;
  bopts.local_name = "coord";
  bopts.dial = {endpoints_.alice, endpoints_.bob, endpoints_.qp};
  bopts.connect_timeout_ms = 5000;
  bopts.receive_timeout_ms = kReceiveTimeoutMs;
  SocketBus raw(bopts);
  ASSERT_TRUE(raw.Start().ok());
  // Sends `body` to alice as a pairb request and returns her reply and how
  // long it took.
  auto ask_alice = [&](const std::vector<uint8_t>& body, double* millis) {
    net::CtlRequest req;
    req.verb = net::CtlVerb::kPairBatch;
    req.epoch = 1;
    req.body = body;
    const auto start = std::chrono::steady_clock::now();
    raw.Send(net::EncodeCtlRequest("coord", "alice", req));
    net::CtlResponse reply;
    while (true) {
      auto msg = raw.ReceiveTimeout("coord", 5000);
      EXPECT_TRUE(msg.ok()) << msg.status().ToString();
      if (!msg.ok()) break;
      if (msg->tag != net::kCtlReply) continue;
      auto r = net::ParseCtlResponse(msg->payload);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok() || r->verb != net::CtlVerb::kPairBatch) continue;
      reply = *r;
      break;
    }
    *millis = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    return reply;
  };

  net::PairBatchBody body;
  body.batch_id = 91;
  const net::RowEntry row = {1, {crypto::BigInt(3), crypto::BigInt(50000)}};
  body.rows = {row, row};  // one row id, twice
  body.pairs.push_back({5, 1, 2});
  std::vector<uint8_t> repeated;
  net::AppendPairBatchBody(body, &repeated);
  ASSERT_FALSE(net::ParsePairBatchBody(repeated).ok());

  double millis = 0;
  const net::CtlResponse refused = ask_alice(repeated, &millis);
  EXPECT_EQ(refused.id, 91u);
  EXPECT_EQ(refused.code, StatusCode::kInvalidArgument) << refused.detail;
  EXPECT_FALSE(smc::IsFaultClass(Status(refused.code, refused.detail)));
  EXPECT_NE(refused.detail.find("pairb body refused"), std::string::npos)
      << refused.detail;
  EXPECT_LT(millis, kReceiveTimeoutMs / 4.0)
      << "a refusal must not wait out a receive";

  const std::vector<uint8_t> stub(repeated.begin(), repeated.begin() + 5);
  const net::CtlResponse no_id = ask_alice(stub, &millis);
  EXPECT_EQ(no_id.id, 0u);
  EXPECT_EQ(no_id.code, StatusCode::kInvalidArgument) << no_id.detail;
  EXPECT_LT(millis, kReceiveTimeoutMs / 4.0);
  raw.Stop();
}

// A relaunched coordinator resumes at a strictly higher session epoch: the
// daemons adopt it on the resume configure, the resumed session's own work
// runs untouched, and a work frame the crashed predecessor left in flight —
// stamped with the superseded epoch — is fenced on every daemon: refused
// with FailedPrecondition, never executed, epoch intact.
TEST_F(MeshTest, RelaunchedCoordinatorFencesPredecessorsFrames) {
  StartMesh(/*receive_timeout_ms=*/2000);
  auto oracle = MakeOracle(2000);
  ASSERT_TRUE(oracle->Init().ok());
  for (auto& s : services_) {
    EXPECT_EQ(s->epoch(), 1u);
    EXPECT_EQ(s->fenced_requests(), 0);
  }

  // Coordinator "crash": the first session goes away, daemons keep serving.
  ASSERT_TRUE(oracle->Shutdown(/*stop_daemons=*/false).ok());
  oracle.reset();

  // The relaunch resumes at epoch 2 (what the CLI derives from a recovered
  // session journal: its epoch + 1).
  RemoteOracleOptions opts;
  opts.config = FixtureConfig();
  opts.rule = MixedRule();
  opts.shard_endpoints = {endpoints_};
  opts.connect_timeout_ms = 10000;
  opts.receive_timeout_ms = 2000;
  opts.session_epoch = 2;
  auto resumed = std::make_unique<RemoteSmcOracle>(opts);
  ASSERT_TRUE(resumed->Init().ok());
  for (auto& s : services_) EXPECT_EQ(s->epoch(), 2u);

  const auto pairs = SixPairs();
  auto labels = resumed->CompareBatch(PairBatch(pairs));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*labels)[i],
              RecordsMatch(pairs[i].first, pairs[i].second, MixedRule())
                  ? kPairMatch
                  : kPairNonMatch)
        << "pair " << i;
  }
  EXPECT_EQ(resumed->pairs_quarantined(), 0);
  ASSERT_TRUE(resumed->Shutdown(/*stop_daemons=*/false).ok());
  resumed.reset();

  // The predecessor's leftover: a work verb at the superseded epoch 1,
  // delivered straight onto the ctl plane by a raw bus posing as the dead
  // coordinator process.
  SocketBusOptions bopts;
  bopts.local_name = "coord";
  bopts.dial = {endpoints_.alice, endpoints_.bob, endpoints_.qp};
  bopts.connect_timeout_ms = 5000;
  bopts.receive_timeout_ms = 2000;
  SocketBus zombie(bopts);
  ASSERT_TRUE(zombie.Start().ok());
  for (const char* role : {"alice", "bob", "qp"}) {
    net::CtlRequest req;
    req.verb = net::CtlVerb::kPurge;
    req.epoch = 1;
    net::AppendU64(7, &req.body);  // barrier id, never honored
    zombie.Send(net::EncodeCtlRequest("coord", role, req));
  }
  std::map<std::string, net::CtlResponse> replies;
  while (replies.size() < 3) {
    auto msg = zombie.ReceiveTimeout("coord", 2000);
    ASSERT_TRUE(msg.ok()) << msg.status().ToString();
    if (msg->tag != net::kCtlReply) continue;
    auto r = net::ParseCtlResponse(msg->payload);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    replies[r->role] = *r;
  }
  for (const auto& [role, r] : replies) {
    EXPECT_EQ(r.verb, net::CtlVerb::kPurge) << role;
    EXPECT_EQ(r.code, StatusCode::kFailedPrecondition) << role;
    EXPECT_EQ(r.epoch, 2u) << role;
    EXPECT_NE(r.detail.find("stale session epoch 1"), std::string::npos)
        << role << ": " << r.detail;
  }
  // Fenced exactly once each, with the adopted epoch intact.
  for (auto& s : services_) {
    EXPECT_EQ(s->fenced_requests(), 1);
    EXPECT_EQ(s->epoch(), 2u);
  }
  zombie.Stop();
}

// The "cfg" and "inject_fail" bodies are exact: a field missing or a
// byte past the last one fails the verb instead of falling back to a
// default, and a failed cfg leaves the daemon unconfigured.
TEST_F(MeshTest, ConfigureAndInjectRejectInexactBodies) {
  StartMesh(/*receive_timeout_ms=*/2000);
  SocketBusOptions bopts;
  bopts.local_name = "coord";
  bopts.dial = {endpoints_.alice, endpoints_.bob, endpoints_.qp};
  bopts.connect_timeout_ms = 5000;
  bopts.receive_timeout_ms = 2000;
  SocketBus coord(bopts);
  ASSERT_TRUE(coord.Start().ok());

  // Sends `body` as `verb` to every party and returns each reply's code.
  auto ask = [&](net::CtlVerb verb, const std::vector<uint8_t>& body) {
    for (const char* role : {"alice", "bob", "qp"}) {
      net::CtlRequest req;
      req.verb = verb;
      req.epoch = 1;
      req.body = body;
      coord.Send(net::EncodeCtlRequest("coord", role, req));
    }
    std::map<std::string, StatusCode> codes;
    while (codes.size() < 3) {
      auto msg = coord.ReceiveTimeout("coord", 2000);
      EXPECT_TRUE(msg.ok()) << msg.status().ToString();
      if (!msg.ok()) break;
      if (msg->tag != net::kCtlReply) continue;
      auto r = net::ParseCtlResponse(msg->payload);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) break;
      EXPECT_EQ(r->verb, verb);
      codes[r->role] = r->code;
    }
    return codes;
  };
  auto all_are = [](const std::map<std::string, StatusCode>& codes,
                    bool ok) {
    if (codes.size() != 3) return false;
    for (const auto& [role, code] : codes) {
      if ((code == StatusCode::kOk) != ok) return false;
    }
    return true;
  };

  net::ConfigBody body;
  body.key_bits = 256;
  body.test_seed = 4242;
  body.pack_pairs = 3;  // 3 pairs of 80 bits in a 256-bit key
  body.slot_widths = {40, 40};
  body.thresholds = {crypto::BigInt(0), crypto::BigInt(100000000)};
  std::vector<uint8_t> exact;
  net::AppendConfigBody(body, &exact);
  const std::vector<uint8_t> cut(exact.begin(), exact.end() - 1);
  std::vector<uint8_t> trailing = exact;
  net::AppendU8(0, &trailing);
  body.pack_pairs = 4;
  std::vector<uint8_t> oversized;
  net::AppendConfigBody(body, &oversized);

  EXPECT_TRUE(all_are(ask(net::CtlVerb::kConfigure, cut), false))
      << "cfg missing its last byte was accepted";
  EXPECT_TRUE(all_are(ask(net::CtlVerb::kConfigure, trailing), false))
      << "cfg with a trailing byte was accepted";
  EXPECT_TRUE(all_are(ask(net::CtlVerb::kConfigure, oversized), false))
      << "cfg with a unit larger than its layout was accepted";
  for (auto& service : services_) EXPECT_EQ(service->epoch(), 0u);
  EXPECT_TRUE(all_are(ask(net::CtlVerb::kConfigure, exact), true));
  for (auto& service : services_) EXPECT_EQ(service->epoch(), 1u);

  std::vector<uint8_t> inject;
  net::AppendU32(0, &inject);  // fail no pairs
  EXPECT_TRUE(all_are(ask(net::CtlVerb::kInjectFail, inject), false))
      << "inject_fail without its crash byte was accepted";
  net::AppendU8(0, &inject);
  EXPECT_TRUE(all_are(ask(net::CtlVerb::kInjectFail, inject), true));
  coord.Stop();
}

// ------------------------------------------------------- comparator fleet

/// Two complete shard meshes (six PartyService daemons on threads) driven by
/// one fleet coordinator — the sharded deployment of docs/CLUSTER.md,
/// hermetically in one process.
class FleetTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 2;

  void StartFleet(int receive_timeout_ms) {
    for (int shard = 0; shard < kShards; ++shard) {
      Fd holds[3];
      MeshEndpoints mesh;
      ASSERT_NO_FATAL_FAILURE(ReserveMesh(holds, &mesh));
      shard_endpoints_.push_back(mesh);

      const char* roles[3] = {"alice", "bob", "qp"};
      for (int i = 0; i < 3; ++i) {
        PartyServiceOptions opts;
        opts.role = roles[i];
        opts.endpoints = mesh;
        opts.connect_timeout_ms = 10000;
        opts.receive_timeout_ms = receive_timeout_ms;
        opts.listen_fd = holds[i].release();
        services_.push_back(std::make_unique<PartyService>(opts));
      }
    }
    for (size_t i = 0; i < services_.size(); ++i) {
      threads_.emplace_back([this, i, s = services_[i].get()] {
        Status started = s->Start();
        ASSERT_TRUE(started.ok()) << started.ToString();
        Status served = s->Serve();
        // A replica the test kills on purpose exits with the transport
        // error; so may its shard siblings, cut off mid-protocol.
        EXPECT_TRUE(served.ok() || may_crash_[i].load()) << served.ToString();
      });
    }
  }

  std::unique_ptr<RemoteSmcOracle> MakeFleetOracle(
      int receive_timeout_ms, int rpc_batch, int rpc_window,
      MatchRule rule = MixedRule()) {
    RemoteOracleOptions opts;
    opts.config = FixtureConfig();
    opts.rule = std::move(rule);
    opts.shard_endpoints = shard_endpoints_;
    opts.connect_timeout_ms = 10000;
    opts.receive_timeout_ms = receive_timeout_ms;
    opts.rpc_batch_pairs = rpc_batch;
    opts.rpc_window = rpc_window;
    opts.hb_interval_ms = 100;  // fast death detection in tests
    return std::make_unique<RemoteSmcOracle>(opts);
  }

  /// Marks every replica of `shard` as allowed to exit with a transport
  /// error (killing one cuts its two siblings off mid-protocol).
  void AllowShardCrash(int shard) {
    for (int i = 0; i < 3; ++i) may_crash_[3 * shard + i] = true;
  }

  /// Kills every replica of `shard`: stops the loops, then destroys the
  /// buses, so the coordinator sees the links drop like a SIGKILLed process.
  void KillShard(int shard) {
    for (int r = 0; r < 3; ++r) {
      const size_t i = 3 * static_cast<size_t>(shard) + r;
      services_[i]->RequestStop();
      threads_[i].join();
      services_[i].reset();
    }
  }

  /// Restarts `shard`'s three replicas on their old addresses, state wiped.
  void RestartShard(int shard, int receive_timeout_ms) {
    const char* roles[3] = {"alice", "bob", "qp"};
    for (int r = 0; r < 3; ++r) {
      const size_t i = 3 * static_cast<size_t>(shard) + r;
      PartyServiceOptions popts;
      popts.role = roles[r];
      popts.endpoints = shard_endpoints_[shard];
      popts.connect_timeout_ms = 10000;
      popts.receive_timeout_ms = receive_timeout_ms;
      services_[i] = std::make_unique<PartyService>(popts);
      threads_.emplace_back([this, i, s = services_[i].get()] {
        Status started = s->Start();
        ASSERT_TRUE(started.ok()) << started.ToString();
        Status served = s->Serve();
        EXPECT_TRUE(served.ok() || may_crash_[i].load()) << served.ToString();
      });
    }
  }

  /// Rejoin offers ride the heartbeat cadence inside batch rounds, so feed
  /// `oracle` the one-pair batch (a, b) under ids outside every test
  /// stream's range until every replica of `shard` is alive again.
  void PollUntilRejoined(RemoteSmcOracle* oracle, int shard, const Record& a,
                         const Record& b, const MatchRule& rule) {
    const std::string suffix = "#" + std::to_string(shard);
    auto alive = [&] {
      return oracle->membership().alive("alice" + suffix) &&
             oracle->membership().alive("bob" + suffix) &&
             oracle->membership().alive("qp" + suffix);
    };
    std::vector<RowPairRequest> poll(1);
    poll[0].a_id = 7;
    poll[0].b_id = 107;
    poll[0].a = &a;
    poll[0].b = &b;
    const bool want = RecordsMatch(a, b, rule);
    for (int round = 0; round < 200 && !alive(); ++round) {
      auto one = oracle->CompareBatch(poll);
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      EXPECT_EQ((*one)[0], want ? kPairMatch : kPairNonMatch);
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ASSERT_TRUE(alive()) << "shard " << shard << " never rejoined";
  }

  void TearDown() override {
    for (auto& service : services_) {
      if (service != nullptr) service->RequestStop();
    }
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    services_.clear();
  }

  std::vector<MeshEndpoints> shard_endpoints_;
  std::vector<std::unique_ptr<PartyService>> services_;
  std::vector<std::thread> threads_;
  std::array<std::atomic<bool>, 3 * kShards> may_crash_{};
};

// The fleet is an implementation detail of throughput: at a pinned
// config.test_seed, a 2-shard run produces exactly the labels the
// single-shard mesh and the in-process comparator produce, pair for pair.
TEST_F(FleetTest, TwoShardLabelsMatchInProcessProtocol) {
  StartFleet(/*receive_timeout_ms=*/2000);
  auto oracle = MakeFleetOracle(2000, /*rpc_batch=*/2, /*rpc_window=*/2);
  ASSERT_TRUE(oracle->Init().ok());
  ASSERT_EQ(oracle->num_shards(), 2);

  smc::SmcConfig cfg;
  cfg.key_bits = 256;
  cfg.test_seed = 4242;
  smc::SecureRecordComparator reference(cfg, MixedRule());
  ASSERT_TRUE(reference.Init().ok());

  const auto pairs = SixPairs();
  const auto batch = PairBatch(pairs);
  auto labels = oracle->CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  ASSERT_EQ(labels->size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto expected = reference.Compare(pairs[i].first, pairs[i].second);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*labels)[i], *expected ? kPairMatch : kPairNonMatch)
        << "pair " << i;
  }
  EXPECT_EQ(oracle->pairs_quarantined(), 0);
  EXPECT_EQ(oracle->rebalanced_pairs(), 0);

  // With batch 2 over six pairs, least-loaded scheduling must actually use
  // both shards — the parity above is not vacuous.
  auto mesh = oracle->CollectStats();
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  EXPECT_GT(mesh->per_party.count("bob#0"), 0u);
  EXPECT_GT(mesh->per_party.count("bob#1"), 0u);
  EXPECT_GT(mesh->per_party.at("bob#0").costs.invocations, 0);
  EXPECT_GT(mesh->per_party.at("bob#1").costs.invocations, 0);

  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// A replica that dies mid-drain retires its whole shard: the in-flight
// batch is drained off it and re-dispatched on the surviving shard WITHOUT
// burning retry budget, membership records the death, and every label is
// still the exact protocol outcome — no quarantine while a usable shard
// remains.
TEST_F(FleetTest, KilledReplicaRebalancesOntoSurvivingShard) {
  StartFleet(/*receive_timeout_ms=*/300);
  auto oracle = MakeFleetOracle(300, /*rpc_batch=*/2, /*rpc_window=*/2);
  ASSERT_TRUE(oracle->Init().ok());
  AllowShardCrash(1);
  ASSERT_TRUE(oracle->InjectFailures("bob#1", 1, /*crash=*/true).ok());

  const auto pairs = SixPairs();
  const auto batch = PairBatch(pairs);
  auto labels = oracle->CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  ASSERT_EQ(labels->size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*labels)[i],
              RecordsMatch(pairs[i].first, pairs[i].second, MixedRule())
                  ? kPairMatch
                  : kPairNonMatch)
        << "pair " << i;
  }
  EXPECT_EQ(oracle->pairs_quarantined(), 0);
  EXPECT_GT(oracle->rebalanced_pairs(), 0);
  EXPECT_EQ(oracle->membership().state("bob#1"), net::ReplicaState::kDead);

  // Shutdown is best-effort with a dead shard; it must not hang.
  (void)oracle->Shutdown(/*stop_daemons=*/true);
}

// The full crash-recovery arc: a shard dies mid-run, its replicas restart
// on their old addresses with empty state, the rejoin handshake re-admits
// them with a strictly-higher incarnation through the membership table's
// only dead -> alive edge, the coordinator replays the setup handshake, and
// the recovered shard receives scheduled work again — with every label
// still the exact protocol outcome and nothing quarantined.
TEST_F(FleetTest, RestartedShardRejoinsAndReceivesWork) {
  StartFleet(/*receive_timeout_ms=*/300);
  auto oracle = MakeFleetOracle(300, /*rpc_batch=*/2, /*rpc_window=*/2);
  ASSERT_TRUE(oracle->Init().ok());

  KillShard(1);
  const uint64_t inc_before = oracle->membership().incarnation("bob#1");

  // The next batch runs entirely on the survivor; shard 1 is declared dead.
  const auto pairs = SixPairs();
  const auto batch = PairBatch(pairs);
  auto labels = oracle->CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*labels)[i],
              RecordsMatch(pairs[i].first, pairs[i].second, MixedRule())
                  ? kPairMatch
                  : kPairNonMatch)
        << "pair " << i;
  }
  EXPECT_EQ(oracle->pairs_quarantined(), 0);
  ASSERT_EQ(oracle->membership().state("bob#1"), net::ReplicaState::kDead);

  RestartShard(1, /*receive_timeout_ms=*/300);
  ASSERT_NO_FATAL_FAILURE(
      PollUntilRejoined(oracle.get(), 1, Rec(3, 50), Rec(3, 55), MixedRule()));

  // The resurrection went through the gated handshake: strictly higher
  // incarnation, and the transition log shows the dead -> alive edge.
  EXPECT_GE(oracle->membership().rejoins(), 3);
  EXPECT_GT(oracle->membership().incarnation("bob#1"), inc_before);
  bool resurrection_logged = false;
  for (const auto& t : oracle->membership().transitions()) {
    if (t.replica == "bob#1" && t.from == net::ReplicaState::kDead &&
        t.to == net::ReplicaState::kAlive) {
      resurrection_logged = true;
    }
  }
  EXPECT_TRUE(resurrection_logged);

  // And the recovered shard is really back in rotation: a fresh run spreads
  // over both shards, the restarted daemons (counters wiped) do real work,
  // and the labels are still bit-exact.
  auto again = oracle->CompareBatch(batch);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*again)[i],
              RecordsMatch(pairs[i].first, pairs[i].second, MixedRule())
                  ? kPairMatch
                  : kPairNonMatch)
        << "pair " << i;
  }
  EXPECT_EQ(oracle->pairs_quarantined(), 0);
  auto mesh = oracle->CollectStats();
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  ASSERT_GT(mesh->per_party.count("bob#1"), 0u);
  EXPECT_GT(mesh->per_party.at("bob#1").costs.invocations, 0);

  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// The streaming service over a 2-shard fleet through a whole-shard death:
// shard 1 is killed mid-stream, the stream keeps running on shard 0, the
// restarted shard rejoins with empty tables and then takes work again —
// rows updated or erased while it was down included. Every link equals the
// in-the-clear service's, and nothing is quarantined.
TEST_F(FleetTest, ServeStreamSurvivesShardRestartAndRejoin) {
  StartFleet(/*receive_timeout_ms=*/300);
  auto stream = MakeServeStream(/*steps=*/90, /*seed=*/7);
  auto oracle = MakeFleetOracle(300, /*rpc_batch=*/2, /*rpc_window=*/2,
                                stream->opts.rule);
  ASSERT_TRUE(oracle->Init().ok());

  CountingPlaintextOracle plain(stream->opts.rule);
  serve::LinkageService svc(stream->opts, oracle.get());
  serve::LinkageService ref(stream->opts, &plain);
  const size_t n = stream->deltas.size();
  int64_t quarantined = 0;
  ApplyBoth(*stream, 0, n / 3, &svc, &ref, &quarantined);

  KillShard(1);
  ApplyBoth(*stream, n / 3, 2 * n / 3, &svc, &ref, &quarantined);
  ASSERT_EQ(oracle->membership().state("bob#1"), net::ReplicaState::kDead);

  RestartShard(1, /*receive_timeout_ms=*/300);
  ASSERT_NO_FATAL_FAILURE(PollUntilRejoined(oracle.get(), 1,
                                            stream->source.row(0),
                                            stream->source.row(1),
                                            stream->opts.rule));
  const int64_t shard1_before = oracle->ShardDispositions()[1].pairs_done;
  const int64_t smc_pairs =
      ApplyBoth(*stream, 2 * n / 3, n, &svc, &ref, &quarantined);
  EXPECT_GT(smc_pairs, 0);
  EXPECT_GT(oracle->ShardDispositions()[1].pairs_done, shard1_before)
      << "the rejoined shard took no work";

  EXPECT_EQ(quarantined, 0);
  EXPECT_EQ(oracle->pairs_quarantined(), 0);
  EXPECT_EQ(oracle->retries(), 0);  // the rejoined shard missed no row
  ExpectSameLinks(svc, ref);
  EXPECT_TRUE(oracle->Shutdown(/*stop_daemons=*/true).ok());
}

// ------------------------------------------------ cross-transport conformance

/// Declares `a`'s value domain [lo, hi).
void SetDomain(AttrRule* a, double lo, double hi) {
  a->domain_lo = lo;
  a->domain_hi = hi;
}

/// One random world: a rule whose every attribute declares its domain, and
/// record pairs drawn from those domains. Numeric domains may start below
/// zero; zero, category 0 and both domain edges (lo, and the last encoding
/// step below hi) are over-represented, and half the S records sit near
/// their R record so matches form.
struct ConformanceWorld {
  MatchRule rule;
  std::vector<std::pair<Record, Record>> pairs;
};

ConformanceWorld RandomWorld(uint64_t seed, int num_pairs) {
  Rng rng(seed);
  ConformanceWorld w;
  const int attrs = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < attrs; ++i) {
    AttrRule a;
    a.attr_index = i;
    a.name = std::to_string(i);
    if (rng.NextBounded(2) == 0) {
      a.type = AttrType::kCategorical;
      a.theta = 0.5;
      SetDomain(&a, 0, static_cast<double>(2 + rng.NextBounded(14)));
    } else {
      a.type = AttrType::kNumeric;
      const double lo = -static_cast<double>(rng.NextBounded(120));
      const double width = static_cast<double>(20 + rng.NextBounded(180));
      a.norm = width;
      a.theta = 0.05 * static_cast<double>(1 + rng.NextBounded(4));
      SetDomain(&a, lo, lo + width);
    }
    w.rule.attrs.push_back(a);
  }
  std::vector<std::pair<double, double>> dom;
  for (const AttrRule& a : w.rule.attrs) {
    dom.push_back({a.domain_lo, a.domain_hi});
  }
  auto draw = [&](size_t i) -> Value {
    const auto [lo, hi] = dom[i];
    const uint64_t pick = rng.NextBounded(6);
    if (w.rule.attrs[i].type == AttrType::kCategorical) {
      if (pick == 0) return Value::Category(0);
      if (pick == 1) return Value::Category(static_cast<int32_t>(hi) - 1);
      return Value::Category(static_cast<int32_t>(rng.NextBounded(
          static_cast<uint64_t>(hi))));
    }
    if (pick == 0) return Value::Numeric(lo);
    if (pick == 1) return Value::Numeric(hi - 0.001);  // last step below hi
    if (pick == 2 && lo <= 0 && hi > 0) return Value::Numeric(0);
    // An eighth-unit grid keeps every value exact in binary.
    return Value::Numeric(
        lo + static_cast<double>(rng.NextBounded(
                 static_cast<uint64_t>((hi - lo) * 8))) / 8);
  };
  auto near = [&](size_t i, const Value& v) -> Value {
    const auto [lo, hi] = dom[i];
    if (w.rule.attrs[i].type == AttrType::kCategorical) return v;
    const double step =
        static_cast<double>(rng.NextBounded(
            static_cast<uint64_t>(w.rule.attrs[i].theta * (hi - lo) * 16))) /
        8;
    double x = rng.NextBounded(2) == 0 ? v.num() - step : v.num() + step;
    if (x < lo) x = lo;
    if (x > hi - 0.001) x = hi - 0.001;
    return Value::Numeric(x);
  };
  for (int p = 0; p < num_pairs; ++p) {
    Record a(attrs), b(attrs);
    const bool close = rng.NextBounded(2) == 0;
    for (int i = 0; i < attrs; ++i) {
      a[i] = draw(static_cast<size_t>(i));
      b[i] = close ? near(static_cast<size_t>(i), a[i])
                   : draw(static_cast<size_t>(i));
    }
    w.pairs.push_back({std::move(a), std::move(b)});
  }
  return w;
}

/// The configuration of the conformance worlds: every drawn domain's slot
/// fits the 40-bit cap, and a 256-bit key holds at least two pairs of them,
/// so a unit carries two to eight pairs.
smc::SmcConfig ConformanceConfig() {
  smc::SmcConfig cfg;
  cfg.key_bits = 256;
  cfg.test_seed = 4242;
  cfg.pack_pairs = 8;
  cfg.pack_slot_bits = 40;
  return cfg;
}

/// Labels the same random worlds through the plaintext oracle, the
/// in-process oracle at 1 and 4 threads, a one-shard TCP mesh and the
/// 2-shard fleet: every label must agree. Over TCP the daemons run the same
/// packed units: qp decrypts once per unit its frames split into, and every
/// compared pair rides a unit. A value one encoding step outside its domain
/// is refused on both transports.
TEST_F(FleetTest, LabelsAgreeAcrossBackendsAndTransports) {
  StartFleet(/*receive_timeout_ms=*/2000);
  constexpr int kPairs = 23;
  constexpr int kRpcBatch = 7;  // frames cut at whole units below 7 pairs
  uint64_t epoch = 0;
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(testing::Message() << "world " << seed);
    const ConformanceWorld w = RandomWorld(seed, kPairs);
    const auto batch = PairBatch(w.pairs);
    std::vector<uint8_t> want;
    size_t matches = 0;
    for (const auto& [a, b] : w.pairs) {
      const bool m = RecordsMatch(a, b, w.rule);
      matches += m ? 1 : 0;
      want.push_back(m ? kPairMatch : kPairNonMatch);
    }
    CountingPlaintextOracle plain(w.rule);
    auto plain_labels = plain.CompareBatch(batch);
    ASSERT_TRUE(plain_labels.ok());
    EXPECT_EQ(*plain_labels, want);

    // Pair 0's S record, one encoding step outside its first attribute's
    // domain: above it for a category, below it for a numeric.
    Record outside = w.pairs[0].second;
    const AttrRule& first = w.rule.attrs[0];
    outside[0] = first.type == AttrType::kCategorical
                     ? Value::Category(static_cast<int32_t>(first.domain_hi))
                     : Value::Numeric(first.domain_lo - 0.001);
    const std::vector<RowPairRequest> bad = {
        {0, 900, &w.pairs[0].first, &outside}};

    const smc::SmcConfig cfg = ConformanceConfig();
    const int unit =
        *smc::PackedGroupPairs(cfg, smc::RuleOperands(w.rule, cfg.fp_scale));
    EXPECT_GE(unit, 2) << "a unit must carry more than one pair";
    for (int threads : {1, 4}) {
      smc::SmcMatchOracle inproc(cfg, w.rule, threads);
      ASSERT_TRUE(inproc.Init().ok());
      auto labels = inproc.CompareBatch(batch);
      ASSERT_TRUE(labels.ok()) << labels.status().ToString();
      EXPECT_EQ(*labels, want) << threads << " threads";
      EXPECT_EQ(inproc.costs().packed_pairs, kPairs);
      auto refused = inproc.CompareBatch(bad);
      EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
          << refused.status().ToString();
    }
    for (int shards : {1, 2}) {
      RemoteOracleOptions opts;
      opts.config = cfg;
      opts.rule = w.rule;
      opts.shard_endpoints.assign(shard_endpoints_.begin(),
                                  shard_endpoints_.begin() + shards);
      opts.receive_timeout_ms = 2000;
      opts.rpc_batch_pairs = kRpcBatch;
      opts.session_epoch = ++epoch;
      RemoteSmcOracle remote(opts);
      ASSERT_TRUE(remote.Init().ok());
      auto labels = remote.CompareBatch(batch);
      ASSERT_TRUE(labels.ok()) << labels.status().ToString();
      EXPECT_EQ(*labels, want) << shards << " shards";
      EXPECT_EQ(remote.pairs_quarantined(), 0);
      EXPECT_EQ(remote.retries(), 0);
      auto refused = remote.CompareBatch(bad);
      EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
          << refused.status().ToString();
      auto mesh = remote.CollectStats();
      ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
      // Frames hold whole units, so only the last can end in a partial one.
      const int frame_pairs =
          unit <= kRpcBatch ? kRpcBatch / unit * unit : kRpcBatch;
      int64_t units = 0;
      for (int left = kPairs; left > 0; left -= frame_pairs) {
        const int frame = std::min(left, frame_pairs);
        units += (frame + unit - 1) / unit;
      }
      int64_t qp_decryptions = 0;
      for (const auto& [label, stats] : mesh->per_party) {
        if (label.rfind("qp", 0) == 0) {
          qp_decryptions += stats.costs.decryptions;
        }
      }
      EXPECT_EQ(qp_decryptions, units) << shards << " shards";
      EXPECT_EQ(mesh->costs.packed_pairs, kPairs) << shards << " shards";
      ASSERT_TRUE(remote.Shutdown(/*stop_daemons=*/false).ok());
    }
    EXPECT_GT(matches, 0u) << "vacuous world: no pair matches";
  }
}

}  // namespace
}  // namespace hprl
