#ifndef HPRL_SERVE_SERVICE_H_
#define HPRL_SERVE_SERVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "linkage/oracle.h"
#include "obs/metrics.h"
#include "serve/incremental_blocker.h"

namespace hprl::serve {

/// A settled link between R row `first` and S row `second` (tenant-local
/// row ids).
using Link = std::pair<int64_t, int64_t>;

enum class DeltaOp { kUpsert, kErase };

/// One streamed record mutation. For kErase the record may be empty.
struct RecordDelta {
  DeltaOp op = DeltaOp::kUpsert;
  Side side = Side::kR;
  std::string tenant;
  int64_t row_id = -1;
  Record record;
};

/// Admission outcome of one delta. Every delta gets exactly one of these —
/// exhaustion queues or rejects with a distinct status, never a silent drop.
enum class DeltaStatus {
  kApplied,            ///< committed; links settled
  kQueued,             ///< admitted but parked behind the tenant's allowance
  kRejectedAllowance,  ///< allowance exhausted and queueing disabled
  kRejectedQueue,      ///< allowance exhausted and the queue is full
};

std::string DeltaStatusName(DeltaStatus status);

/// What one Apply (or queue-drain step) did.
struct ApplyResult {
  DeltaStatus status = DeltaStatus::kApplied;
  int64_t smc_pairs = 0;      ///< straddling pairs spent (live or replayed)
  int64_t links_added = 0;
  int64_t links_removed = 0;
  int64_t quarantined = 0;    ///< U pairs the oracle could not label
  double seconds = 0;         ///< delta-to-verdict wall time
};

/// Point-in-time view of one tenant for journaling and reports.
struct TenantSnapshot {
  std::string name;
  int64_t allowance_remaining = 0;
  int64_t smc_pairs_spent = 0;
  int64_t queued = 0;
  int64_t live_rows_r = 0;
  int64_t live_rows_s = 0;
  std::vector<Link> links;  ///< sorted (std::set iteration order)
};

struct ServiceOptions {
  MatchRule rule;
  std::vector<VghPtr> hierarchies;  ///< indexed like rule.attrs
  /// VGH levels each attribute is lifted above its leaf (the streaming
  /// stand-in for the batch anonymizer's release schema).
  int gen_level = 1;
  /// Per-tenant SMC allowance in pairs: admission control. A delta whose
  /// straddling-pair preview exceeds the remainder queues (or is rejected).
  int64_t tenant_allowance = 1'000'000;
  /// Queue capacity per tenant; 0 disables queueing (reject instead).
  int64_t max_queued = 1024;
  /// U pairs per CompareBatch call (the windowed RPC path batches further).
  int smc_batch_pairs = 32;
};

/// Long-lived multi-tenant streaming linkage service — the paper's hybrid
/// pipeline turned inside out. Each tenant owns an IncrementalBlocker; a
/// record delta is generalized, previewed against the live other side, and
/// admitted against the tenant's SMC allowance; admitted straddling pairs
/// drain through the shared MatchOracle (batched); M pairs link directly
/// (precision 100% by construction). Deltas for a tenant whose allowance is
/// exhausted queue FIFO and drain on TopUp. See docs/SERVICE.md.
///
/// Crash replay: after BeginReplay(journaled links), Apply resolves U pairs
/// by looking them up in the journaled link set instead of invoking the
/// oracle — allowance spend is recomputed identically (it depends only on
/// the deterministic U count), so replaying the settled prefix of the delta
/// stream reproduces the pre-crash state exactly. Replayed rows need no
/// announcement to the oracle: every CompareBatch after EndReplay hands it
/// the records it pairs.
///
/// Not thread-safe; callers serialize Apply (the CLI driver is a single
/// reader loop).
class LinkageService {
 public:
  LinkageService(ServiceOptions opts, MatchOracle* oracle,
                 obs::MetricsRegistry* metrics = nullptr);

  /// Applies one delta. Errors are malformed input (bad attribute values,
  /// arity) or oracle transport failures — admission outcomes are statuses
  /// inside ApplyResult, not errors.
  Result<ApplyResult> Apply(const RecordDelta& delta);

  /// Adds `extra` allowance to the tenant and drains its queue FIFO until
  /// the head is inadmissible again. Returns the aggregate of the drained
  /// deltas' results.
  Result<ApplyResult> TopUp(const std::string& tenant, int64_t extra);

  /// Enters replay mode: subsequent Apply calls resolve U pairs against
  /// `links` (keyed by tenant) instead of the oracle.
  void BeginReplay(std::map<std::string, std::set<Link>> links);
  void EndReplay();
  bool replaying() const { return replaying_; }

  /// Deltas whose admission outcome is settled (every Apply call counts —
  /// applied, queued, and rejected are all deterministic decisions). The
  /// journal records this as the resume position in the delta stream.
  int64_t settled_deltas() const { return settled_deltas_; }
  int64_t replayed_smc_pairs() const { return replayed_smc_pairs_; }

  /// Tenant snapshots, name-sorted (deterministic journal layout).
  std::vector<TenantSnapshot> Snapshot() const;

  const ServiceOptions& options() const { return opts_; }

 private:
  struct Tenant {
    std::string name;
    int index = 0;  ///< dense id, assigned at first sight (arrival order)
    IncrementalBlocker blocker;
    // Tenant-local records by (side, row_id); CompareBatch borrows these.
    std::map<std::pair<int, int64_t>, Record> records;
    std::set<Link> links;
    std::deque<RecordDelta> queue;
    int64_t allowance_remaining = 0;
    int64_t smc_pairs_spent = 0;

    explicit Tenant(const ServiceOptions& opts)
        : blocker(opts.rule), allowance_remaining(opts.tenant_allowance) {}
  };

  Tenant& GetTenant(const std::string& name);
  /// Globally unique oracle row id: tenants share one oracle, so local row
  /// ids are namespaced by the dense tenant index.
  static int64_t GlobalId(int tenant_index, int64_t row_id);

  /// Admission decision + commit for one delta (queue already consulted).
  Result<ApplyResult> Admit(Tenant& t, const RecordDelta& delta);
  Result<ApplyResult> CommitUpsert(Tenant& t, const RecordDelta& delta,
                                   const GenSequence& seq,
                                   const std::vector<AffectedPair>& pairs);
  Result<ApplyResult> CommitErase(Tenant& t, const RecordDelta& delta);
  /// Labels `pairs`' U subset through the oracle (or the replay set).
  Status DrainUnknowns(Tenant& t, const std::vector<AffectedPair>& unknowns,
                       ApplyResult* out);
  int64_t DropLinksTouching(Tenant& t, Side side, int64_t row_id);
  void PublishGauges();

  ServiceOptions opts_;
  MatchOracle* oracle_;
  obs::MetricsRegistry* metrics_;
  std::map<std::string, Tenant> tenants_;
  int next_tenant_index_ = 0;
  int64_t settled_deltas_ = 0;
  int64_t replayed_smc_pairs_ = 0;
  bool replaying_ = false;
  std::map<std::string, std::set<Link>> replay_links_;
};

}  // namespace hprl::serve

#endif  // HPRL_SERVE_SERVICE_H_
