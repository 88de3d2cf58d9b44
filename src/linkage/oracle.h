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

/// Labels record pairs exactly. In production this is the SMC protocol
/// (smc::SmcMatchOracle in process, net::RemoteSmcOracle over TCP); the
/// figure harnesses use CountingPlaintextOracle, which produces identical
/// labels (SMC is exact) while counting invocations — the paper's §VI cost
/// model.
///
/// CompareBatch is the one entry point an oracle implements. Compare and
/// CompareRows are one-pair batches; they stay virtual only so a forwarding
/// wrapper (perfbench's tracing oracle) can pass them through.
class MatchOracle {
 public:
  virtual ~MatchOracle() = default;

  /// Labels a batch of row pairs. Slot i of the returned vector is the label
  /// of batch[i] (kPairMatch / kPairNonMatch / kPairQuarantined), so results
  /// are position-addressed and the outcome is independent of any internal
  /// evaluation order — parallel oracles (smc::SmcMatchOracle with
  /// smc_threads > 1) produce the same vector as a serial one. `a_id`/`b_id`
  /// are stable row identities, which the SMC oracles carry into their
  /// exchanges (fault schedules, the rows of a TCP frame). On error the
  /// whole batch fails; partial work is discarded but still accounted in
  /// invocations().
  virtual Result<std::vector<uint8_t>> CompareBatch(
      const std::vector<RowPairRequest>& batch) = 0;

  /// A one-pair CompareBatch: true when the pair satisfies the decision
  /// rule. A pair the batch quarantines (a persistent transport fault)
  /// returns Unavailable instead of a label.
  virtual Result<bool> CompareRows(int64_t a_id, int64_t b_id,
                                   const Record& a, const Record& b) {
    auto labels = CompareBatch({{a_id, b_id, &a, &b}});
    if (!labels.ok()) return labels.status();
    if (labels->front() == kPairQuarantined) {
      return Status::Unavailable(
          "pair quarantined: a party died with no other to take the pair, "
          "or its retries ran out");
    }
    return labels->front() == kPairMatch;
  }

  /// CompareRows without row identities.
  virtual Result<bool> Compare(const Record& a, const Record& b) {
    return CompareRows(-1, -1, a, b);
  }

  /// Pairs labeled so far (the paper's SMC cost unit).
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
  // Resident rows. No oracle keeps rows between CompareBatch calls: the TCP
  // oracle ships each call's rows inside its own frames (docs/PROTOCOL.md),
  // so these three hooks are no-ops for every oracle under src/ and nothing
  // there calls them. They stay only for benchmark wrappers that forward
  // them. side 0 is R, 1 is S.

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

  Result<std::vector<uint8_t>> CompareBatch(
      const std::vector<RowPairRequest>& batch) override {
    std::vector<uint8_t> labels(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      labels[i] = RecordsMatch(*batch[i].a, *batch[i].b, rule_) ? kPairMatch
                                                                : kPairNonMatch;
    }
    invocations_ += static_cast<int64_t>(batch.size());
    return labels;
  }

  int64_t invocations() const override { return invocations_; }

 private:
  MatchRule rule_;
  int64_t invocations_ = 0;
};

}  // namespace hprl

#endif  // HPRL_LINKAGE_ORACLE_H_
