#ifndef HPRL_CORE_JOURNAL_H_
#define HPRL_CORE_JOURNAL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "linkage/oracle.h"

namespace hprl {

/// Coordinator-side write-ahead session journal, the one resume path of
/// the allowance drain. Written atomically after every flushed SMC batch,
/// it records the drain's durable progress plus two facts a relaunched
/// coordinator needs:
///
///   - `epoch`: the session epoch the run executed under. A resume runs at
///     `epoch + 1`, which the daemons adopt on kConfigure and use to fence
///     any work frames the crashed coordinator left in flight (wire v5,
///     docs/PROTOCOL.md) — they are refused, never executed.
///   - `shards`: per-shard batch dispositions (settled batches and labeled
///     pairs per comparator shard), so a crash leaves a record of where the
///     work actually ran.
///
/// The file is a durable-file envelope (common/durable_file.h, magic
/// `HPRLJNL1`, version 2): any truncation or bit flip fails the load
/// (reject-and-restart-clean — a wrong resume is never possible), and a
/// journal whose fingerprint does not match the current run shape is
/// refused rather than silently mixing two drains.
struct SessionJournal {
  uint64_t fingerprint = 0;  ///< binds to one run shape (session.cc)
  uint64_t epoch = 1;        ///< session epoch the journaled run ran under
  int64_t pairs_done = 0;    ///< pairs labeled in completed batches
  int64_t smc_matched = 0;   ///< matches among them
  int64_t quarantined = 0;   ///< quarantined among them
  std::vector<ShardDisposition> shards;  ///< where the batches settled
  /// SMC-matched (row_r, row_s) pairs in drain order; populated only when
  /// the session collects matches.
  std::vector<std::pair<int64_t, int64_t>> matched_row_pairs;
};

/// Atomically persists `j` as an `HPRLJNL1` durable file.
Status SaveSessionJournal(const std::string& path, const SessionJournal& j);

/// Loads and verifies a journal. NotFound when no file exists (a fresh
/// run); FailedPrecondition on any magic/version/length/checksum damage —
/// a corrupt journal is rejected whole, never partially resumed.
Result<SessionJournal> LoadSessionJournal(const std::string& path);

/// Per-tenant durable state of one streaming service tenant (serve
/// subsystem). `links` holds the settled (row_r, row_s) pairs in sorted
/// order — the replay oracle for crash recovery (docs/SERVICE.md).
struct ServeTenantState {
  std::string name;
  int64_t allowance_remaining = 0;
  int64_t smc_pairs_spent = 0;
  std::vector<std::pair<int64_t, int64_t>> links;
};

/// Streaming-service journal — the serve counterpart of SessionJournal,
/// written atomically after every settled delta. `settled_deltas` is the
/// resume position in the delta stream: a relaunched service replays deltas
/// [0, settled_deltas) with straddling pairs resolved against the journaled
/// link sets (no SMC spend), re-deriving queue contents and allowance
/// remainders deterministically, then continues live at `epoch + 1`.
///
/// Same durability contract as SessionJournal: an `HPRLSRV1` durable file
/// (version 2), fingerprint-bound (the fingerprint folds the run config and
/// the delta stream bytes, so a journal can never be replayed against a
/// different stream).
struct ServeJournal {
  uint64_t fingerprint = 0;
  uint64_t epoch = 1;
  int64_t settled_deltas = 0;  ///< deltas whose admission outcome settled
  int64_t quarantined = 0;     ///< U pairs the oracle could not label
  std::vector<ServeTenantState> tenants;  ///< name-sorted
};

/// Atomically persists `j` as an `HPRLSRV1` durable file.
Status SaveServeJournal(const std::string& path, const ServeJournal& j);

/// Loads and verifies a serve journal. NotFound when no file exists;
/// FailedPrecondition on any damage (rejected whole, like SessionJournal).
Result<ServeJournal> LoadServeJournal(const std::string& path);

}  // namespace hprl

#endif  // HPRL_CORE_JOURNAL_H_
