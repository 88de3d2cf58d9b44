#ifndef HPRL_NET_BACKEND_H_
#define HPRL_NET_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "linkage/oracle.h"
#include "net/remote_oracle.h"
#include "smc/protocol.h"

namespace hprl::smc {
class SmcMatchOracle;
}  // namespace hprl::smc

namespace hprl::net {

/// Everything that picks and parameterizes a match oracle: the spec file's
/// settings (cli::BackendFromSpec) plus where this deployment runs. The backend owns the decision tree the callers
/// used to hand-roll: plaintext vs in-process SMC vs TCP fleet, spawn vs
/// join, one shard vs many.
struct BackendOptions {
  /// key_bits == 0 selects the exact plaintext oracle; > 0 the Paillier
  /// protocol. fault_plan applies only in-process (TCP faults are real).
  smc::SmcConfig config;
  MatchRule rule;

  /// In-process SmcMatchOracle: worker comparator threads.
  int smc_threads = 1;

  /// "" or "inproc": the SMC step runs in-process. "tcp": hprl_party
  /// daemons over real sockets (requires key_bits > 0).
  std::string transport;

  /// TCP only. Endpoints of already-running daemons: per shard a
  /// comma-separated "host:port,host:port,host:port" triple in alice,bob,qp
  /// order; shards separated by ';'. Empty = spawn 3 x shards local daemons
  /// on kernel-assigned loopback ports and tear them down after the run.
  std::string tcp_endpoints;

  /// Comparator shards per party fleet (docs/CLUSTER.md). Spawn mode starts
  /// 3 x shards daemons; endpoint mode takes the count from tcp_endpoints
  /// (which must agree when both are given). Requires tcp.
  int shards = 1;

  /// hprl_party binary for spawn mode (PATH-resolved when not absolute).
  std::string party_binary = "hprl_party";

  int rpc_batch_pairs = 32;
  int rpc_window = 4;
  int hb_interval_ms = 250;
  MembershipOptions membership;
  int connect_timeout_ms = 10000;
  int receive_timeout_ms = 4000;

  /// Session-epoch fencing token stamped on every ctl request (TCP; wire
  /// v5). A resumed coordinator passes the journaled epoch + 1, fencing
  /// whatever frames the crashed run left in flight. Must be >= 1.
  uint64_t session_epoch = 1;

  /// Per-pair daemon-side sleep, for latency-bound benches (docs/CLUSTER.md).
  uint32_t emulated_latency_micros = 0;
};

/// Splits a `tcp_endpoints` string into per-shard meshes: ';' between
/// shards, each shard "host:port,host:port,host:port" in alice,bob,qp
/// order. Exposed for tests.
Result<std::vector<MeshEndpoints>> ParseShardEndpoints(
    const std::string& text);

/// The one way to obtain a match oracle. Create() validates the requested
/// deployment and picks the implementation; Init() stands it up (spawning
/// daemons when asked); oracle() is what the linkage session runs against;
/// Shutdown() tears everything down and, on TCP, sweeps the fleet's final
/// stats into mesh_stats().
///
/// This replaces three hand-rolled acquisition paths (constructing
/// smc::SmcMatchOracle, spawn-mode net::RemoteSmcOracle, and --parties
/// endpoint mode) that every caller had to branch across. Constructing
/// those directly still works but is deprecated for tools — new callers go
/// through here so transport validation and daemon lifecycle live in one
/// place.
class SmcBackend {
 public:
  /// Validates `opts` (transport name, key_bits/transport/fault/shard
  /// compatibility, endpoint syntax, and with keys the SMC plan:
  /// smc::PackedGroupPairs) and builds the backend unstarted.
  static Result<std::unique_ptr<SmcBackend>> Create(BackendOptions opts);

  ~SmcBackend();
  SmcBackend(const SmcBackend&) = delete;
  SmcBackend& operator=(const SmcBackend&) = delete;

  /// Stands the oracle up: spawns/connects daemons and runs the key
  /// handshake (TCP), or initializes the in-process oracle.
  Status Init();

  /// Tears the deployment down. On TCP this collects final daemon stats
  /// (best-effort) into mesh_stats() and, when `stop_daemons`, asks every
  /// replica to exit before reaping spawned processes. Safe to call more
  /// than once; the destructor calls it with stop_daemons = true.
  Status Shutdown(bool stop_daemons = true);

  /// The oracle to run the linkage against. Valid between Init and Shutdown.
  MatchOracle& oracle() { return *oracle_; }

  /// Forwards to the oracle (TCP also re-attaches the coordinator buses).
  /// May be called before Init: the registry is then wired in during Init,
  /// so the handshake's traffic is already counted.
  void AttachMetrics(obs::MetricsRegistry* registry);

  bool is_tcp() const { return remote_ != nullptr; }
  /// The TCP coordinator, for fleet introspection; null off-TCP.
  RemoteSmcOracle* remote() { return remote_; }

  /// "plaintext", "paillier-<bits>" or "paillier-<bits>/tcp" — the report's
  /// oracle line.
  const std::string& description() const { return description_; }
  /// TCP: the resolved endpoints, ';' between shards, "(spawned)" suffix in
  /// spawn mode. Empty off-TCP.
  const std::string& parties_description() const { return parties_desc_; }

  /// Fleet-wide totals swept by Shutdown (TCP; empty otherwise).
  const MeshStats& mesh_stats() const;

 private:
  struct Daemons;  // fork/exec lifecycle of spawned hprl_party processes

  SmcBackend() = default;

  BackendOptions opts_;
  std::vector<MeshEndpoints> shard_endpoints_;  // resolved, TCP only
  std::string description_;
  std::string parties_desc_;

  std::unique_ptr<MatchOracle> oracle_;
  RemoteSmcOracle* remote_ = nullptr;  // owned by oracle_; cached downcast
  std::unique_ptr<Daemons> daemons_;
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
  bool initialized_ = false;
  bool shut_down_ = false;
  MeshStats empty_stats_;
};

}  // namespace hprl::net

#endif  // HPRL_NET_BACKEND_H_
