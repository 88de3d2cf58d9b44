#ifndef HPRL_CLI_RUNNER_H_
#define HPRL_CLI_RUNNER_H_

#include <string>

#include "cli/spec.h"
#include "common/result.h"
#include "core/hybrid.h"

namespace hprl::obs {
class MetricsRegistry;
}  // namespace hprl::obs

namespace hprl::cli {

/// What the tool should do besides printing the report.
struct RunnerOptions {
  std::string links_out;      ///< CSV of matched row pairs ("" = skip)
  std::string release_r_out;  ///< anonymized release of R ("" = skip)
  std::string release_s_out;  ///< anonymized release of S ("" = skip)
  std::string metrics_out;    ///< JSON run report ("" = skip)
  bool publish_releases = true;  ///< strip row ids from written releases
  bool evaluate = false;      ///< compute ground-truth recall (needs cleartext)

  /// > 0: overrides the spec's `threads` directive for the blocking step.
  int threads_override = 0;

  /// > 0: overrides the spec's `smc_threads` directive (worker comparators
  /// of the batched SMC oracle).
  int smc_threads_override = 0;

  /// >= 0: overrides the spec's `smc_pack` directive (pairs per packed SMC
  /// exchange; 0 forces the scalar exchange). < 0 keeps the spec's value.
  int smc_pack_override = -1;
  /// >= 8: overrides the spec's packed slot width. < 0 keeps the spec's.
  int smc_pack_slot_bits_override = -1;

  /// >= 1: overrides the spec's `rpc_batch` directive (pairs per TCP ctl
  /// batch frame; 1 ships one pair per frame). < 1 keeps the spec's value.
  int rpc_batch_override = 0;
  /// >= 1: overrides the spec's `rpc_window` directive. < 1 keeps the spec's.
  int rpc_window_override = 0;

  /// >= 0: overrides the spec's `smc_seed` directive (pinned keypair seed;
  /// 0 = OS entropy). < 0 keeps the spec's value.
  int64_t smc_seed_override = -1;
  /// Non-empty: overrides the spec's `material_dir` directive (persistent
  /// offline crypto material store).
  std::string material_dir_override;
  /// >= 0: overrides the spec's `offline_pairs` directive. < 0 keeps the
  /// spec's value.
  int offline_pairs_override = -1;
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

  /// > 0: overrides the spec's `hb_interval` directive (TCP membership
  /// heartbeat cadence, milliseconds).
  int hb_interval_override = 0;
  /// > 0: override the spec's `suspect_misses` / `dead_misses` directives
  /// (consecutive missed heartbeats before suspect / dead; dead must stay
  /// above suspect after both overrides apply).
  int suspect_misses_override = 0;
  int dead_misses_override = 0;

  /// >= 0: override the spec's fault-injection rates (< 0 keeps the spec's
  /// value). > 0 for the seed / delay overrides.
  double fault_drop_override = -1;
  double fault_corrupt_override = -1;
  double fault_delay_override = -1;
  double fault_crash_override = -1;
  int64_t fault_seed_override = 0;
  int64_t fault_delay_micros_override = -1;

  /// "" or "inproc": the SMC step runs in-process (the default). "tcp": the
  /// three parties run as hprl_party daemons and the SMC step goes over real
  /// sockets (requires keybits > 0; incompatible with fault injection, whose
  /// faults are simulated — TCP faults are real).
  std::string transport;

  /// --transport=tcp only. Comma-separated listen endpoints of the three
  /// daemons in alice,bob,qp order ("host:port,host:port,host:port") when
  /// joining an already-running mesh; empty = spawn three local hprl_party
  /// processes on kernel-assigned loopback ports and tear them down after
  /// the run.
  std::string tcp_endpoints;

  /// Path of the hprl_party binary for spawn mode (resolved via PATH when
  /// not absolute).
  std::string party_binary = "hprl_party";

  /// > 0: overrides the spec's `shards` directive — comparator shard meshes
  /// per fleet (docs/CLUSTER.md). Requires --transport=tcp when > 1.
  int shards_override = 0;

  /// --transport=tcp bench knob: per-pair daemon-side sleep in microseconds,
  /// making the SMC stage latency-bound so shard scaling measures overlap
  /// (docs/CLUSTER.md). 0 (the default) in production.
  uint32_t net_emu_latency_micros = 0;

  /// --transport=tcp: deadline for establishing the mesh, and the blocking-
  /// receive bound on every protocol link (a daemon that stays silent longer
  /// surfaces as a retryable timeout to the coordinator).
  int net_connect_timeout_ms = 10000;
  int net_receive_timeout_ms = 4000;

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
