#ifndef HPRL_LINKAGE_ORACLE_H_
#define HPRL_LINKAGE_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "linkage/match_rule.h"

namespace hprl::obs {
class MetricsRegistry;
}  // namespace hprl::obs

namespace hprl {

/// Labels written by MatchOracle::CompareBatch into the position-addressed
/// result vector.
inline constexpr uint8_t kPairNonMatch = 0;
inline constexpr uint8_t kPairMatch = 1;
/// The pair could not be labeled because of a persistent transport fault
/// (crash, or a transient fault that survived every retry). Quarantined
/// pairs are conservatively treated as non-matches — precision is never
/// spent on a pair the protocol could not finish — but reported separately
/// from both match counts and budget starvation so degradation is visible.
inline constexpr uint8_t kPairQuarantined = 2;

/// One unit of batched oracle work: a row pair to label. The records are
/// borrowed — the caller keeps them alive across the CompareBatch call.
struct RowPairRequest {
  int64_t a_id = -1;
  int64_t b_id = -1;
  const Record* a = nullptr;
  const Record* b = nullptr;
};

/// How much completed work one comparator shard has settled so far.
/// Distributed oracles report these for the session journal, so a crash
/// leaves a record of where the drain's batches actually ran.
struct ShardDisposition {
  int shard = 0;
  int64_t batches_done = 0;  ///< settled kPairBatch rounds
  int64_t pairs_done = 0;    ///< pairs definitively labeled on this shard
};

/// Labels one record pair exactly. In production this is the SMC protocol
/// (smc::SmcMatchOracle); the figure harnesses use CountingPlaintextOracle,
/// which produces identical labels (SMC is exact) while counting invocations
/// — the paper's §VI cost model.
class MatchOracle {
 public:
  virtual ~MatchOracle() = default;

  /// True when the pair satisfies the decision rule.
  virtual Result<bool> Compare(const Record& a, const Record& b) = 0;

  /// Row-aware variant: `a_id`/`b_id` are stable row identities, which the
  /// SMC oracles carry into their exchanges (the in-process comparator
  /// seeds its fault schedule from them); the default ignores them.
  virtual Result<bool> CompareRows(int64_t a_id, int64_t b_id,
                                   const Record& a, const Record& b) {
    return Compare(a, b);
  }

  /// Labels a batch of row pairs. Slot i of the returned vector is the label
  /// of batch[i] (1 = match), so results are position-addressed and the
  /// outcome is independent of any internal evaluation order — parallel
  /// oracles (smc::SmcMatchOracle with smc_threads > 1) produce the same
  /// vector as this serial default. On error the whole batch fails; partial
  /// work is discarded but still accounted in invocations().
  virtual Result<std::vector<uint8_t>> CompareBatch(
      const std::vector<RowPairRequest>& batch) {
    std::vector<uint8_t> labels(batch.size(), 0);
    for (size_t i = 0; i < batch.size(); ++i) {
      auto m = CompareRows(batch[i].a_id, batch[i].b_id, *batch[i].a,
                           *batch[i].b);
      if (!m.ok()) return m.status();
      labels[i] = *m ? 1 : 0;
    }
    return labels;
  }

  /// Number of Compare calls so far (the paper's SMC cost unit).
  virtual int64_t invocations() const = 0;

  /// Per-shard completed-work dispositions (session journal bookkeeping).
  /// Only distributed oracles have shards; the default reports nothing.
  virtual std::vector<ShardDisposition> ShardDispositions() const {
    return {};
  }

  /// Attaches an observability sink (nullptr detaches). Oracles with
  /// internal cost accounting (smc::SmcMatchOracle) stream their per-compare
  /// counters and latencies into it; the default ignores it.
  virtual void AttachMetrics(obs::MetricsRegistry* registry) {
    (void)registry;
  }

  // -------------------------------------------------------------------------
  // Resident rows (streaming service). Distributed oracles keep the rows
  // CompareBatch hands them resident at the comparator parties and reference
  // pairs by (side, row_id) alone (docs/SERVICE.md); a caller only reports
  // erased rows so those tables stay bounded. side 0 is R, 1 is S. No oracle
  // needs announcements or a drain any more: PushResidentRow and
  // DrainResidentRows are no-ops everywhere.

  /// Announces (or replaces) a resident row.
  virtual Status PushResidentRow(int side, int64_t row_id,
                                 const Record& record) {
    (void)side, (void)row_id, (void)record;
    return Status::OK();
  }

  /// Forgets a resident row (absent is not an error).
  virtual Status EraseResidentRow(int side, int64_t row_id) {
    (void)side, (void)row_id;
    return Status::OK();
  }

  /// Drops every resident row on every party.
  virtual Status DrainResidentRows() { return Status::OK(); }
};

/// Exact in-the-clear oracle with invocation accounting.
class CountingPlaintextOracle : public MatchOracle {
 public:
  explicit CountingPlaintextOracle(MatchRule rule) : rule_(std::move(rule)) {}

  Result<bool> Compare(const Record& a, const Record& b) override {
    ++invocations_;
    return RecordsMatch(a, b, rule_);
  }

  int64_t invocations() const override { return invocations_; }

 private:
  MatchRule rule_;
  int64_t invocations_ = 0;
};

}  // namespace hprl

#endif  // HPRL_LINKAGE_ORACLE_H_
