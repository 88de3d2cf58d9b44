// Loopback bulk-transfer throughput of the epoll SocketBus vs a raw-TCP
// baseline moving the IDENTICAL traffic: the same wire frames, FNV-1a
// stamped on send and verified on receive, pushed through blocking
// FullWrite/FullRead on a bare socket pair. Framing and checksum integrity
// are part of the Message contract on every transport, so the baseline pays
// for them too; the measured ratio isolates what the async datapath
// machinery itself adds — event loop, buffer pool, frame reassembly, inbox
// routing and cross-thread handoff. The accepted overhead budget is 2x:
// BENCH_hotpath.json's async_datapath block records raw_over_bus_ratio and
// bench_smoke.sh --check fails above it.
//
//   net_throughput [--msgs N] [--msg_bytes N] [--reps N] [--out file.json]
//
// Each side runs best-of-reps so a scheduler hiccup cannot fail the check.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "net/socket_bus.h"
#include "smc/channel.h"

namespace hprl {
namespace {

struct Config {
  int msgs = 256;
  size_t msg_bytes = 64 * 1024;
  int reps = 3;
  std::string out;
};

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

[[noreturn]] void Die(const char* what, const Status& st) {
  std::fprintf(stderr, "net_throughput: %s: %s\n", what,
               st.ToString().c_str());
  std::exit(1);
}

smc::Message BulkMessage(const Config& cfg, uint64_t seq) {
  smc::Message m;
  m.from = "bob";
  m.to = "alice";
  m.tag = "bulk";
  m.payload.assign(cfg.msg_bytes, 0xAB);
  m.seq = seq;
  return m;
}

/// One rep of the baseline: a hand-rolled blocking loop carrying the same
/// checksummed wire frames the bus would. The sender stamps each payload
/// and FullWrites header + payload; the sink FullReads, decodes, verifies
/// the checksum, and acks one byte so the measured window covers full
/// delivery, not just a filled socket buffer.
double RawTcpMbps(const Config& cfg) {
  auto listener = net::TcpListen(0);
  if (!listener.ok()) Die("listen", listener.status());
  auto port = net::LocalPort(*listener);
  if (!port.ok()) Die("port", port.status());

  std::thread sink([&] {
    auto conn = net::TcpAccept(*listener, 5000);
    if (!conn.ok()) Die("accept", conn.status());
    std::vector<uint8_t> body;
    for (int i = 0; i < cfg.msgs; ++i) {
      uint8_t hdr[4];
      Status st = net::FullRead(conn->get(), hdr, 4, 10000);
      if (!st.ok()) Die("sink frame len", st);
      const uint32_t len = (static_cast<uint32_t>(hdr[0]) << 24) |
                           (static_cast<uint32_t>(hdr[1]) << 16) |
                           (static_cast<uint32_t>(hdr[2]) << 8) |
                           static_cast<uint32_t>(hdr[3]);
      body.resize(len);
      st = net::FullRead(conn->get(), body.data(), len, 10000);
      if (!st.ok()) Die("sink frame body", st);
      auto view = net::DecodeFrameView(body.data(), body.size());
      if (!view.ok()) Die("sink decode", view.status());
      if (view->checksum !=
          smc::PayloadChecksum(view->payload, view->payload_size)) {
        Die("sink checksum", Status::IOError("corrupted payload"));
      }
    }
    uint8_t ack = 1;
    Status st = net::FullWrite(conn->get(), &ack, 1);
    if (!st.ok()) Die("sink ack", st);
  });

  auto client = net::TcpConnect("127.0.0.1", *port, 5000);
  if (!client.ok()) Die("connect", client.status());
  smc::Message msg = BulkMessage(cfg, 0);

  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < cfg.msgs; ++i) {
    msg.seq = static_cast<uint64_t>(i) + 1;
    msg.checksum = smc::PayloadChecksum(msg.payload);
    std::vector<uint8_t> header = net::EncodeFrameHeader(msg);
    if (header.empty()) Die("encode", Status::Internal("unframeable"));
    Status st = net::FullWrite(client->get(), header.data(), header.size());
    if (st.ok()) {
      st = net::FullWrite(client->get(), msg.payload.data(),
                          msg.payload.size());
    }
    if (!st.ok()) Die("send", st);
  }
  uint8_t ack = 0;
  Status st = net::FullRead(client->get(), &ack, 1, 10000);
  if (!st.ok()) Die("ack", st);
  double elapsed = Seconds(t0);
  sink.join();
  return static_cast<double>(cfg.msgs) * static_cast<double>(cfg.msg_bytes) /
         elapsed / 1e6;
}

/// One rep over a live SocketBus pair: bob pushes the same payload volume to
/// alice, alice consumes (and checksum-verifies, via Expect) every message
/// and sends a one-byte done marker back.
double BusMbps(const Config& cfg) {
  net::SocketBusOptions a;
  a.local_name = "alice";
  a.listen = true;
  a.accept_from = {"bob"};
  a.connect_timeout_ms = 5000;
  a.receive_timeout_ms = 10000;
  net::SocketBus alice(a);
  std::thread alice_start([&] {
    Status st = alice.Start();
    if (!st.ok()) Die("alice start", st);
  });
  for (int i = 0; i < 500 && alice.listen_port() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  net::SocketBusOptions b;
  b.local_name = "bob";
  b.dial = {{"alice", "127.0.0.1", alice.listen_port()}};
  b.connect_timeout_ms = 5000;
  b.receive_timeout_ms = 10000;
  net::SocketBus bob(b);
  Status st = bob.Start();
  if (!st.ok()) Die("bob start", st);
  alice_start.join();

  std::thread sink([&] {
    for (int i = 0; i < cfg.msgs; ++i) {
      auto msg = alice.Expect("alice", "bulk");
      if (!msg.ok()) Die("bus receive", msg.status());
    }
    alice.Send({"alice", "bob", "done", {1}});
  });

  std::vector<uint8_t> payload(cfg.msg_bytes, 0xAB);
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < cfg.msgs; ++i) {
    smc::Message m;
    m.from = "bob";
    m.to = "alice";
    m.tag = "bulk";
    m.payload = payload;
    bob.Send(std::move(m));
  }
  auto done = bob.Expect("bob", "done");
  if (!done.ok()) Die("bus ack", done.status());
  double elapsed = Seconds(t0);
  sink.join();
  bob.Stop();
  alice.Stop();
  return static_cast<double>(cfg.msgs) * static_cast<double>(cfg.msg_bytes) /
         elapsed / 1e6;
}

template <typename F>
double BestOf(int reps, F&& f) {
  double best = 0;
  for (int i = 0; i < reps; ++i) best = std::max(best, f());
  return best;
}

}  // namespace
}  // namespace hprl

int main(int argc, char** argv) {
  hprl::Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--msgs") {
      cfg.msgs = std::atoi(next());
    } else if (arg == "--msg_bytes") {
      cfg.msg_bytes = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--reps") {
      cfg.reps = std::atoi(next());
    } else if (arg == "--out") {
      cfg.out = next();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  double raw = hprl::BestOf(cfg.reps, [&] { return hprl::RawTcpMbps(cfg); });
  double bus = hprl::BestOf(cfg.reps, [&] { return hprl::BusMbps(cfg); });

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"msgs\": %d,\n"
                "  \"msg_bytes\": %zu,\n"
                "  \"raw_mbps\": %.3f,\n"
                "  \"bus_mbps\": %.3f,\n"
                "  \"raw_over_bus_ratio\": %.4f\n"
                "}\n",
                cfg.msgs, cfg.msg_bytes, raw, bus, raw / bus);
  if (!cfg.out.empty()) {
    FILE* f = std::fopen(cfg.out.c_str(), "w");
    if (f == nullptr) {
      std::perror("fopen --out");
      return 1;
    }
    std::fputs(json, f);
    std::fclose(f);
  }
  std::fputs(json, stdout);
  return 0;
}
