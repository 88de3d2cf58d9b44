#ifndef HPRL_CLI_RUNNER_H_
#define HPRL_CLI_RUNNER_H_

#include <cstdint>
#include <string>

#include "cli/spec.h"
#include "common/result.h"
#include "core/hybrid.h"
#include "net/backend.h"

namespace hprl::obs {
class MetricsRegistry;
}  // namespace hprl::obs

namespace hprl::cli {

/// Where the SMC step runs. Everything else about a run — protocol, datapath,
/// membership and fault settings — comes from the spec; these fields belong
/// to one deployment of it and are shared by the batch and serve runners.
struct DeploymentOptions {
  /// "" or "inproc": the SMC step runs in-process (the default). "tcp": the
  /// three parties run as hprl_party daemons and the SMC step goes over real
  /// sockets (requires keybits > 0 and no fault directives: injected faults
  /// are simulated, TCP faults are real).
  std::string transport;

  /// tcp only. Listen endpoints of already-running daemons, per shard a
  /// "host:port,host:port,host:port" triple in alice,bob,qp order, ';'
  /// between shards; empty = spawn local hprl_party processes on
  /// kernel-assigned loopback ports and tear them down after the run.
  std::string tcp_endpoints;

  /// Path of the hprl_party binary for spawn mode (resolved via PATH when
  /// not absolute).
  std::string party_binary = "hprl_party";

  /// tcp bench knob: per-pair daemon-side sleep in microseconds, making the
  /// SMC stage latency-bound so shard scaling measures overlap
  /// (docs/CLUSTER.md). 0 (the default) in production.
  uint32_t net_emu_latency_micros = 0;

  /// tcp: deadline for establishing the mesh, and the blocking-receive
  /// bound on every protocol link (a daemon that stays silent longer
  /// surfaces as a retryable timeout to the coordinator).
  int net_connect_timeout_ms = 10000;
  int net_receive_timeout_ms = 4000;
};

/// The one mapping from a spec to the SMC backend's settings: the protocol
/// config (key size, retries, packing, seed, material store, fault plan),
/// the worker comparators (`smc_threads`, `auto` resolved against the
/// machine's hardware concurrency), the TCP datapath and membership knobs,
/// and `deployment`. The caller sets only the session epoch.
net::BackendOptions BackendFromSpec(const LinkageSpec& spec,
                                    const MatchRule& rule,
                                    const DeploymentOptions& deployment = {});

/// What the tool should do besides printing the report.
struct RunnerOptions {
  std::string links_out;      ///< CSV of matched row pairs ("" = skip)
  std::string release_r_out;  ///< anonymized release of R ("" = skip)
  std::string release_s_out;  ///< anonymized release of S ("" = skip)
  std::string metrics_out;    ///< JSON run report ("" = skip)
  bool publish_releases = true;  ///< strip row ids from written releases
  bool evaluate = false;      ///< compute ground-truth recall (needs cleartext)

  /// Run only the offline phase — key setup, material generation, persist —
  /// then exit without touching the input records' pairs. Requires a
  /// material_dir; the linkage numbers in the report stay zero.
  bool offline_only = false;

  /// Non-empty: resumable allowance drain through the crash-consistent
  /// session journal (core/journal.h). The session records its progress and
  /// per-shard batch dispositions after every SMC batch; a relaunched
  /// coordinator given the same path runs at the journaled session epoch
  /// + 1, fencing whatever ctl frames the crashed run left in flight, and
  /// drains only the unfinished remainder.
  std::string journal;
  /// Strict resume from `journal`: a missing journal is a usage error and a
  /// corrupt or fingerprint-mismatched one an integrity error — the run
  /// never silently starts over. Requires `journal`.
  bool resume = false;

  DeploymentOptions deployment;

  /// Optional external registry (not owned; may be null). When null and
  /// metrics_out is set, the runner uses a private registry for the report.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Outcome of a file-driven run. All pipeline numbers (input sizes, stage
/// timings, blocking tallies, SMC counts, recall) live in `result`'s shared
/// LinkageMetrics base — see src/obs/linkage_metrics.h.
struct RunnerReport {
  HybridResult result;
  std::string oracle;  // "plaintext", "paillier-<bits>" or "paillier-<bits>/tcp"

  /// True when the run stopped after the offline phase (offline_only).
  bool offline_only = false;

  /// True for a completed --transport=tcp run; the byte totals below are
  /// then the mesh's deployment ground truth.
  bool tcp = false;
  int64_t wire_bytes_sent = 0;          ///< socket-measured, all four processes
  int64_t bus_accounted_bytes = 0;      ///< MessageBus accounting, same scope

  /// Human-readable multi-line summary.
  std::string ToString() const;
};

/// Runs the full hybrid private record linkage described by `spec` over two
/// CSV files (columns located by header name; extra columns ignored), and
/// performs the side outputs requested in `options`.
Result<RunnerReport> RunLinkageFromFiles(const LinkageSpec& spec,
                                         const std::string& csv_r,
                                         const std::string& csv_s,
                                         const RunnerOptions& options);

}  // namespace hprl::cli

#endif  // HPRL_CLI_RUNNER_H_
