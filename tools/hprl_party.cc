// hprl_party — one party daemon of the networked three-party SMC protocol.
//
//   hprl_party --role alice --alice 127.0.0.1:7101 --bob 127.0.0.1:7102
//              --qp 127.0.0.1:7103 [--shard N] [--connect_timeout_ms N]
//              [--receive_timeout_ms N] [--metrics_out party.json]
//              [--listen_fd N]
//
// The daemon hosts the real party object (the querying party's private key
// never leaves its process), joins the TCP mesh with the other two parties,
// and serves pair commands dispatched by an hprl_link coordinator running
// with --transport=tcp (see docs/PROTOCOL.md, "Wire format", and the
// deployment walkthrough in README.md). It exits on the coordinator's
// shutdown command.
//
// Each party's address flag names where THAT party listens; every daemon
// gets all three so it can dial its lower-ranked peers (bob dials alice,
// qp dials alice and bob). A supervisor that reserved the daemon's port
// passes the still-open listener with --listen_fd instead of letting the
// daemon bind it, so no other socket can take the port in between
// (hprl_link's spawned fleets do this).
//
// SIGTERM/SIGINT request a graceful drain: the serve loop exits at its next
// poll and the final metrics report is still written, so `kill <pid>` loses
// no counters. Offline material needs no drain: the holder daemons save it
// once, at the end of recvkey's offline phase.
//
// Exit codes (common/exit_codes.h): 0 success, 2 configuration/usage error,
// 3 transport failure (mesh never came up, socket I/O died), 4 corrupt or
// mismatched crypto material, 1 anything else.

#include <csignal>
#include <cstdio>
#include <limits>

#include "common/exit_codes.h"
#include "common/flags.h"
#include "net/party_service.h"
#include "obs/report.h"

using namespace hprl;

namespace {

/// "host:port" -> PeerAddress named `name`.
Result<net::PeerAddress> ParseEndpoint(const std::string& name,
                                       const std::string& spec) {
  net::PeerAddress addr;
  addr.name = name;
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    return Status::InvalidArgument("endpoint must be host:port, got '" +
                                   spec + "'");
  }
  addr.host = spec.substr(0, colon);
  int port = 0;
  for (size_t i = colon + 1; i < spec.size(); ++i) {
    if (spec[i] < '0' || spec[i] > '9') {
      return Status::InvalidArgument("bad port in endpoint '" + spec + "'");
    }
    port = port * 10 + (spec[i] - '0');
    if (port > 65535) {
      return Status::InvalidArgument("port out of range in '" + spec + "'");
    }
  }
  addr.port = static_cast<uint16_t>(port);
  return addr;
}

/// Signal-handler target: RequestStop is a lone atomic store, so flipping
/// it from the handler is async-signal-safe.
net::PartyService* g_service = nullptr;

void OnTerm(int /*sig*/) {
  if (g_service != nullptr) g_service->RequestStop();
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  std::string* role =
      flags.AddString("role", "", "which party to serve: alice, bob or qp");
  std::string* alice = flags.AddString(
      "alice", "127.0.0.1:7101", "alice's listen endpoint (host:port)");
  std::string* bob = flags.AddString("bob", "127.0.0.1:7102",
                                     "bob's listen endpoint (host:port)");
  std::string* qp = flags.AddString(
      "qp", "127.0.0.1:7103", "querying party's listen endpoint (host:port)");
  int64_t* shard = flags.AddInt(
      "shard", -1,
      "shard index of this replica within a comparator fleet (labeling "
      "only: the wire protocol is identical; -1 = standalone mesh)");
  int64_t* connect_timeout_ms = flags.AddInt(
      "connect_timeout_ms", 10000, "deadline for establishing the mesh");
  int64_t* receive_timeout_ms = flags.AddInt(
      "receive_timeout_ms", 4000,
      "blocking-receive bound; expiry surfaces as a retryable NotFound");
  std::string* metrics_out = flags.AddString(
      "metrics_out", "", "write this party's JSON run report here on exit");
  int64_t* listen_fd = flags.AddInt(
      "listen_fd", -1,
      "an inherited socket already listening on this role's port, used "
      "instead of binding it (-1 = bind the endpoint's port)");

  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kNotFound) return 0;  // --help
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (*role != "alice" && *role != "bob" && *role != "qp") {
    std::fprintf(stderr, "--role must be alice, bob or qp\n%s",
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (*connect_timeout_ms <= 0 || *receive_timeout_ms <= 0) {
    std::fprintf(stderr, "timeouts must be positive\n");
    return 2;
  }
  if (*listen_fd < -1 || *listen_fd > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "--listen_fd must be a descriptor or -1\n");
    return 2;
  }

  net::PartyServiceOptions opts;
  opts.role = *role;
  for (auto [name, spec] : {std::pair<const char*, std::string*>{"alice", alice},
                            {"bob", bob},
                            {"qp", qp}}) {
    auto addr = ParseEndpoint(name, *spec);
    if (!addr.ok()) {
      std::fprintf(stderr, "--%s: %s\n", name,
                   addr.status().ToString().c_str());
      return 2;
    }
    if (opts.role == name && addr->host != "0.0.0.0" &&
        addr->host != "127.0.0.1" && addr->host != "localhost") {
      // The daemon binds INADDR_ANY; the host part of its own endpoint is
      // what the peers dial. Nothing to validate here.
    }
    if (std::string(name) == "alice") opts.endpoints.alice = *addr;
    if (std::string(name) == "bob") opts.endpoints.bob = *addr;
    if (std::string(name) == "qp") opts.endpoints.qp = *addr;
  }
  opts.connect_timeout_ms = static_cast<int>(*connect_timeout_ms);
  opts.receive_timeout_ms = static_cast<int>(*receive_timeout_ms);
  opts.listen_fd = static_cast<int>(*listen_fd);

  obs::MetricsRegistry registry;
  if (!metrics_out->empty()) opts.metrics = &registry;

  net::PartyService service(opts);
  Status started = service.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "hprl_party %s: %s\n", role->c_str(),
                 started.ToString().c_str());
    return ExitCodeForStatus(started);
  }
  if (*shard >= 0) {
    std::printf("hprl_party %s#%lld: mesh up, listening on port %u\n",
                role->c_str(), static_cast<long long>(*shard),
                unsigned{service.bus().listen_port()});
  } else {
    std::printf("hprl_party %s: mesh up, listening on port %u\n",
                role->c_str(), unsigned{service.bus().listen_port()});
  }
  // Machine-parsable port announcement: with `--<role> host:0` the kernel
  // assigns the port, and a supervisor scripting the fleet scrapes this line
  // (grep ^HPRL_PARTY_PORT=) instead of parsing the human text above.
  std::printf("HPRL_PARTY_PORT=%u\n", unsigned{service.bus().listen_port()});
  std::fflush(stdout);

  g_service = &service;
  std::signal(SIGTERM, OnTerm);
  std::signal(SIGINT, OnTerm);

  Status served = service.Serve();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_service = nullptr;

  net::SocketBus::NetStats net = service.bus().net_stats();
  std::printf(
      "hprl_party %s: served %lld pairs, sent %lld bytes / received %lld "
      "bytes on %lld connections (%lld reconnects)\n",
      role->c_str(), static_cast<long long>(service.costs().invocations),
      static_cast<long long>(net.bytes_sent),
      static_cast<long long>(net.bytes_received),
      static_cast<long long>(net.connects),
      static_cast<long long>(net.reconnects));

  if (!metrics_out->empty()) {
    obs::RunReport run;
    run.tool = "hprl_party";
    run.AddConfig("role", *role);
    if (*shard >= 0) {
      run.AddConfig("shard", std::to_string(*shard));
    }
    run.registry = &registry;
    Status wrote = obs::WriteRunReport(run, *metrics_out);
    if (!wrote.ok()) {
      std::fprintf(stderr, "hprl_party %s: %s\n", role->c_str(),
                   wrote.ToString().c_str());
    }
  }
  if (!served.ok()) {
    std::fprintf(stderr, "hprl_party %s: %s\n", role->c_str(),
                 served.ToString().c_str());
    return ExitCodeForStatus(served);
  }
  return 0;
}
