#ifndef HPRL_CLI_SERVE_RUNNER_H_
#define HPRL_CLI_SERVE_RUNNER_H_

#include <cstdint>
#include <string>

#include "cli/runner.h"
#include "cli/spec.h"
#include "common/result.h"

namespace hprl::obs {
class MetricsRegistry;
}  // namespace hprl::obs

namespace hprl::cli {

/// What `hprl_link --serve` should do besides applying the delta stream.
struct ServeRunnerOptions {
  std::string links_out;    ///< CSV "tenant,row_r,row_s" ("" = skip)
  std::string metrics_out;  ///< JSON run report ("" = skip)

  /// Non-empty: crash-consistent serve journal (core/journal.h ServeJournal),
  /// saved after every settled delta. A relaunch given the same path replays
  /// the settled prefix against the journaled link sets (no SMC spend) and
  /// continues live at the journaled epoch + 1.
  std::string journal;
  /// Strict resume: the journal must exist and verify, like the batch
  /// runner's --resume.
  bool resume = false;

  /// Crash-injection test hook: after this many newly settled (non-replayed)
  /// deltas the process raises SIGKILL — after the journal write, so the
  /// resumed run must reproduce the pre-crash state exactly. 0 = off.
  int64_t crash_after = 0;

  /// Where the SMC step runs, as for the batch runner: a tcp fleet stays up
  /// for the whole stream (requires keybits > 0 in the spec).
  DeploymentOptions deployment;

  /// Optional external registry (not owned; may be null). When null and
  /// metrics_out is set, a private registry backs the report.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Outcome of one serve run over a delta file.
struct ServeReport {
  int64_t deltas = 0;           ///< deltas in the input stream
  int64_t replayed_deltas = 0;  ///< settled prefix re-derived from journal
  int64_t applied = 0;          ///< live deltas committed
  int64_t queued = 0;           ///< live deltas parked behind an allowance
  int64_t rejected = 0;         ///< live deltas refused (allowance/queue)
  int64_t links = 0;            ///< settled links across all tenants
  int64_t smc_pairs = 0;        ///< live SMC spend (this incarnation)
  int64_t replayed_smc = 0;     ///< U pairs resolved from the journal
  int64_t quarantined = 0;
  uint64_t epoch = 1;           ///< session epoch this run executed under
  double seconds = 0;           ///< wall time over the live deltas
  double pairs_per_sec = 0;     ///< sustained blocked-pair throughput
  double p99_delta_seconds = 0; ///< p99 delta-to-verdict latency
  std::string oracle;

  /// Single machine-parsable summary line (stable "HPRL_SERVE summary:"
  /// prefix, key=value fields) followed by a human-readable breakdown.
  std::string ToString() const;
};

/// Runs the streaming incremental linkage service over a delta file: every
/// line is one record mutation, applied in order through serve::LinkageService
/// with the spec's rule, hierarchies, serve_* admission settings and SMC
/// backend (BackendFromSpec), deployed where the options say.
/// Format (header locates columns by name, like the batch CSVs):
///
///   op,tenant,side,row_id,<qid attr columns in any order>
///   insert,acme,r,0,39,State-gov,Bachelors,...
///   update,acme,s,17,40,Private,HS-grad,...
///   delete,acme,r,0,,,,...          # attr fields ignored
///
/// Determinism contract (docs/SERVICE.md): the same delta file against the
/// same spec yields bit-identical links whether applied in one uninterrupted
/// run or across any number of crash/resume incarnations.
Result<ServeReport> RunServeFromFiles(const LinkageSpec& spec,
                                      const std::string& deltas_path,
                                      const ServeRunnerOptions& options);

}  // namespace hprl::cli

#endif  // HPRL_CLI_SERVE_RUNNER_H_
