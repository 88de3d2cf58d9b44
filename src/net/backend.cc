#include "net/backend.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "net/socket.h"
#include "smc/smc_oracle.h"

namespace hprl::net {

namespace {

Result<PeerAddress> ParseEndpoint(const std::string& text,
                                  const std::string& name) {
  size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    return Status::InvalidArgument(
        StrFormat("%s endpoint must be host:port, got '%s'", name.c_str(),
                  text.c_str()));
  }
  int port = 0;
  for (size_t j = colon + 1; j < text.size(); ++j) {
    if (text[j] < '0' || text[j] > '9' || port > 65535) {
      return Status::InvalidArgument(StrFormat(
          "bad port in %s endpoint '%s'", name.c_str(), text.c_str()));
    }
    port = port * 10 + (text[j] - '0');
  }
  if (port == 0 || port > 65535) {
    return Status::InvalidArgument(
        StrFormat("bad port in %s endpoint '%s'", name.c_str(), text.c_str()));
  }
  PeerAddress addr;
  addr.name = name;
  addr.host = text.substr(0, colon);
  addr.port = static_cast<uint16_t>(port);
  return addr;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t at = text.find(sep, start);
    parts.push_back(text.substr(
        start, at == std::string::npos ? std::string::npos : at - start));
    if (at == std::string::npos) break;
    start = at + 1;
  }
  return parts;
}

/// `count` listeners on kernel-assigned ports. Each stays open until its
/// daemon inherits it (hprl_party --listen_fd), so no other socket can take
/// a port between the probe and the daemon's start. Close-on-exec, so a
/// child inherits only the one listener it is handed.
Result<std::vector<Fd>> ListenOnFreePorts(int count) {
  std::vector<Fd> listeners;
  listeners.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto listener = TcpListen(0);
    if (!listener.ok()) return listener.status();
    if (::fcntl(listener->get(), F_SETFD, FD_CLOEXEC) != 0) {
      return Status::IOError(std::string("fcntl(FD_CLOEXEC): ") +
                             std::strerror(errno));
    }
    listeners.push_back(std::move(*listener));
  }
  return listeners;
}

}  // namespace

Result<std::vector<MeshEndpoints>> ParseShardEndpoints(
    const std::string& text) {
  static const char* kNames[3] = {"alice", "bob", "qp"};
  std::vector<MeshEndpoints> meshes;
  for (const std::string& group : Split(text, ';')) {
    std::vector<std::string> parts = Split(group, ',');
    if (parts.size() != 3) {
      return Status::InvalidArgument(
          "--parties wants three host:port endpoints per shard in "
          "alice,bob,qp order (shards separated by ';'), got '" + group +
          "'");
    }
    MeshEndpoints mesh;
    PeerAddress* slots[3] = {&mesh.alice, &mesh.bob, &mesh.qp};
    for (int i = 0; i < 3; ++i) {
      auto addr = ParseEndpoint(parts[i], kNames[i]);
      if (!addr.ok()) return addr.status();
      *slots[i] = std::move(addr).value();
    }
    meshes.push_back(std::move(mesh));
  }
  return meshes;
}

/// fork/execs the fleet's hprl_party daemons and reaps them on destruction.
/// The coordinator's shutdown command is what actually asks them to exit;
/// Terminate() only waits, escalating to SIGKILL for a wedged daemon.
struct SmcBackend::Daemons {
  std::vector<pid_t> pids;

  ~Daemons() { Terminate(); }

  /// `listeners` holds each daemon's listening socket in shard-major
  /// alice, bob, qp order; each child keeps its own open across exec.
  Status Spawn(const BackendOptions& opts,
               const std::vector<MeshEndpoints>& shards,
               const std::vector<Fd>& listeners) {
    static const char* kRoles[3] = {"alice", "bob", "qp"};
    for (size_t shard = 0; shard < shards.size(); ++shard) {
      const MeshEndpoints& mesh = shards[shard];
      const PeerAddress* addrs[3] = {&mesh.alice, &mesh.bob, &mesh.qp};
      std::string eps[3];
      for (int i = 0; i < 3; ++i) {
        eps[i] = StrFormat("%s:%u", addrs[i]->host.c_str(),
                           unsigned{addrs[i]->port});
      }
      for (int i = 0; i < 3; ++i) {
        const int listen_fd = listeners[3 * shard + i].get();
        std::vector<std::string> args = {
            opts.party_binary, "--role",
            kRoles[i],         "--alice",
            eps[0],            "--bob",
            eps[1],            "--qp",
            eps[2],            "--connect_timeout_ms",
            StrFormat("%d", opts.connect_timeout_ms),
            "--receive_timeout_ms",
            StrFormat("%d", opts.receive_timeout_ms),
            "--listen_fd",     StrFormat("%d", listen_fd)};
        if (shards.size() > 1) {
          args.push_back("--shard");
          args.push_back(StrFormat("%zu", shard));
        }
        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_t pid = ::fork();
        if (pid < 0) {
          return Status::IOError(
              std::string("fork failed spawning hprl_party: ") +
              std::strerror(errno));
        }
        if (pid == 0) {
          // Keep the coordinator's stdout clean; daemon chatter goes to
          // stderr only (its own prints are informational).
          int devnull = ::open("/dev/null", O_WRONLY);
          if (devnull >= 0) {
            ::dup2(devnull, STDOUT_FILENO);
            ::close(devnull);
          }
          ::fcntl(listen_fd, F_SETFD, 0);  // this daemon's listener only
          ::execvp(argv[0], argv.data());
          std::fprintf(stderr, "hprl: cannot exec %s: %s\n",
                       opts.party_binary.c_str(), std::strerror(errno));
          ::_exit(127);
        }
        pids.push_back(pid);
      }
    }
    return Status::OK();
  }

  void Terminate() {
    for (pid_t pid : pids) {
      bool reaped = false;
      for (int tick = 0; tick < 100 && !reaped; ++tick) {  // ~5 s grace
        int status = 0;
        pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid || (r < 0 && errno == ECHILD)) {
          reaped = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (!reaped) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
      }
    }
    pids.clear();
  }
};

Result<std::unique_ptr<SmcBackend>> SmcBackend::Create(BackendOptions opts) {
  const bool use_tcp = opts.transport == "tcp";
  if (!opts.transport.empty() && opts.transport != "inproc" && !use_tcp) {
    return Status::InvalidArgument("unknown transport '" + opts.transport +
                                   "' (expected inproc or tcp)");
  }
  if (opts.config.fault_plan.enabled() && opts.config.key_bits == 0) {
    return Status::InvalidArgument(
        "fault injection targets the SMC transport; it requires keybits > 0 "
        "(the plaintext oracle has no transport to fault)");
  }
  if (use_tcp) {
    if (opts.config.key_bits == 0) {
      return Status::InvalidArgument(
          "--transport=tcp runs the SMC protocol across hprl_party daemons; "
          "it requires keybits > 0");
    }
    if (opts.config.fault_plan.enabled()) {
      return Status::InvalidArgument(
          "fault injection simulates transport faults and only applies "
          "in-process; on --transport=tcp faults are real (stop a daemon "
          "instead)");
    }
  }
  if (opts.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (opts.config.key_bits > 0) {
    // The SMC plan, checked before any daemon spawns or key is generated.
    auto unit = smc::PackedGroupPairs(
        opts.config, smc::RuleOperands(opts.rule, opts.config.fp_scale));
    if (!unit.ok()) return unit.status();
  }
  if (opts.shards > 1 && !use_tcp) {
    return Status::InvalidArgument(
        "shards > 1 is a property of the TCP comparator fleet; it "
        "requires --transport=tcp");
  }

  std::unique_ptr<SmcBackend> backend(new SmcBackend());
  if (use_tcp && !opts.tcp_endpoints.empty()) {
    auto parsed = ParseShardEndpoints(opts.tcp_endpoints);
    if (!parsed.ok()) return parsed.status();
    if (opts.shards > 1 &&
        parsed->size() != static_cast<size_t>(opts.shards)) {
      return Status::InvalidArgument(StrFormat(
          "shards %d disagrees with --parties, which lists %zu shard "
          "mesh(es)",
          opts.shards, parsed->size()));
    }
    backend->shard_endpoints_ = std::move(parsed).value();
    backend->parties_desc_ = opts.tcp_endpoints;
  }
  if (use_tcp) {
    backend->description_ =
        StrFormat("paillier-%d/tcp", opts.config.key_bits);
  } else if (opts.config.key_bits > 0) {
    backend->description_ = StrFormat("paillier-%d", opts.config.key_bits);
  } else {
    backend->description_ = "plaintext";
  }
  backend->opts_ = std::move(opts);
  return backend;
}

SmcBackend::~SmcBackend() { Shutdown(/*stop_daemons=*/true); }

Status SmcBackend::Init() {
  if (initialized_) return Status::FailedPrecondition("Init() called twice");
  const bool use_tcp = opts_.transport == "tcp";

  if (!use_tcp) {
    if (opts_.config.key_bits > 0) {
      auto oracle = std::make_unique<smc::SmcMatchOracle>(
          opts_.config, opts_.rule, opts_.smc_threads);
      HPRL_RETURN_IF_ERROR(oracle->Init());
      oracle_ = std::move(oracle);
    } else {
      oracle_ = std::make_unique<CountingPlaintextOracle>(opts_.rule);
    }
    if (metrics_ != nullptr) oracle_->AttachMetrics(metrics_);
    initialized_ = true;
    return Status::OK();
  }

  if (shard_endpoints_.empty()) {
    // Spawn mode: one complete loopback mesh per shard.
    auto listeners = ListenOnFreePorts(3 * opts_.shards);
    if (!listeners.ok()) return listeners.status();
    static const char* kNames[3] = {"alice", "bob", "qp"};
    parties_desc_.clear();
    for (int s = 0; s < opts_.shards; ++s) {
      MeshEndpoints mesh;
      PeerAddress* slots[3] = {&mesh.alice, &mesh.bob, &mesh.qp};
      for (int i = 0; i < 3; ++i) {
        auto port = LocalPort((*listeners)[static_cast<size_t>(3 * s + i)]);
        if (!port.ok()) return port.status();
        *slots[i] = {kNames[i], "127.0.0.1", *port};
        parties_desc_ += StrFormat("%s127.0.0.1:%u", i == 0 ? "" : ",",
                                   unsigned{*port});
      }
      if (s + 1 < opts_.shards) parties_desc_ += ";";
      shard_endpoints_.push_back(std::move(mesh));
    }
    parties_desc_ += " (spawned)";
    daemons_ = std::make_unique<Daemons>();
    // The coordinator's copies of the listeners close as `listeners` goes
    // out of scope; each daemon holds its own.
    HPRL_RETURN_IF_ERROR(
        daemons_->Spawn(opts_, shard_endpoints_, *listeners));
  }

  RemoteOracleOptions ropts;
  ropts.config = opts_.config;
  ropts.rule = opts_.rule;
  ropts.shard_endpoints = shard_endpoints_;
  ropts.connect_timeout_ms = opts_.connect_timeout_ms;
  ropts.receive_timeout_ms = opts_.receive_timeout_ms;
  ropts.rpc_batch_pairs = opts_.rpc_batch_pairs;
  ropts.rpc_window = opts_.rpc_window;
  ropts.hb_interval_ms = opts_.hb_interval_ms;
  ropts.membership = opts_.membership;
  ropts.session_epoch = opts_.session_epoch;
  ropts.emulated_latency_micros = opts_.emulated_latency_micros;
  auto oracle = std::make_unique<RemoteSmcOracle>(std::move(ropts));
  if (metrics_ != nullptr) oracle->AttachMetrics(metrics_);
  HPRL_RETURN_IF_ERROR(oracle->Init());
  remote_ = oracle.get();
  oracle_ = std::move(oracle);
  initialized_ = true;
  return Status::OK();
}

void SmcBackend::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (oracle_ != nullptr) oracle_->AttachMetrics(registry);
}

Status SmcBackend::Shutdown(bool stop_daemons) {
  if (shut_down_) return Status::OK();
  shut_down_ = true;
  Status st = Status::OK();
  if (remote_ != nullptr) st = remote_->Shutdown(stop_daemons);
  daemons_.reset();  // reap (the shutdown command above asked them to exit)
  return st;
}

const MeshStats& SmcBackend::mesh_stats() const {
  return remote_ != nullptr ? remote_->mesh_stats() : empty_stats_;
}

}  // namespace hprl::net
