#ifndef HPRL_SMC_SMC_ORACLE_H_
#define HPRL_SMC_SMC_ORACLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "crypto/material.h"
#include "linkage/oracle.h"
#include "smc/protocol.h"

namespace hprl::smc {

/// MatchOracle backed by the real three-party Paillier protocol, run
/// in-process by N worker comparator stacks (each a full qp/alice/bob trio
/// with its own bus) that share ONE published Paillier key pair — generated
/// once at Init, not once per worker — and one pool of precomputed
/// encryption randomizers.
///
/// CompareBatch is the only entry point (Compare and CompareRows are the
/// MatchOracle one-pair batches). It distributes a batch of row pairs over
/// the workers with one work-stealing loop (an atomic cursor over fixed
/// position ranges, one packed unit of the exchange each; one active worker
/// drains inline), and each worker writes the label of pair i into slot i
/// of the shared result vector. Because results are position-addressed, the
/// merged output is bit-identical for every thread count — determinism by
/// construction, with no ordering pass. Budget accounting matches too: the
/// aggregated costs() are sums over workers, independent of which worker
/// ran which pair.
///
/// Security note: sharing the key pair changes nothing in the trust model —
/// the workers are in-process replicas of the same three parties, exactly
/// as if one querying party answered N interleaved conversations.
class SmcMatchOracle : public MatchOracle {
 public:
  /// `threads` <= 1 runs every batch inline on the calling thread.
  SmcMatchOracle(SmcConfig config, MatchRule rule, int threads = 1);
  ~SmcMatchOracle() override;

  SmcMatchOracle(const SmcMatchOracle&) = delete;
  SmcMatchOracle& operator=(const SmcMatchOracle&) = delete;

  /// Checks the plan (PackedGroupPairs; its InvalidArgument comes back
  /// before any key is generated), generates the shared key pair, runs the
  /// offline phase on the shared randomizer pool and initializes the
  /// workers.
  ///
  /// The offline phase is crypto::RunOfflinePhase, the one a TCP holder
  /// daemon runs too: with SmcConfig::material_dir set it adopts the bank
  /// persisted for the keypair's fingerprint (a warm run), prewarms the
  /// randomizers offline_pairs pairs draw (RandomizerDraws) on the oracle's
  /// worker count, saves a bank it grew so the NEXT run is warm, and starts
  /// the pool's filler, which holds the resulting level. Everything Init
  /// does is input-independent.
  Status Init();

  /// Labels batch[i] into slot i of the result (kPairMatch / kPairNonMatch /
  /// kPairQuarantined); see class comment for the determinism argument.
  ///
  /// Worker supervision: when a pair fails with a fault-class status
  /// (smc/fault.h IsFaultClass) — an injected crash, or a transient
  /// transport fault that survived the protocol's retries — the pair's
  /// whole unit is quarantined (labeled
  /// kPairQuarantined, counted in pairs_quarantined()), the worker's
  /// comparator stack is rebuilt around the shared key pair
  /// (worker_restarts()), and the batch continues.
  /// Genuine semantic errors (InvalidArgument, Unimplemented, ...) still
  /// fail the whole batch with the error of the smallest-index failing pair.
  Result<std::vector<uint8_t>> CompareBatch(
      const std::vector<RowPairRequest>& batch) override;

  int64_t invocations() const override { return costs().invocations; }

  /// Streams every worker's protocol stack (message bus, party keys'
  /// paillier.* counters, per-compare latencies), the pool gauges and the
  /// oracle's smc.batches / smc.batch_seconds into `registry`.
  void AttachMetrics(obs::MetricsRegistry* registry) override;

  /// Aggregated protocol costs across all workers (order-independent sums),
  /// including the costs retired by workers that were since restarted.
  const SmcCosts& costs() const;

  /// Pairs labeled kPairQuarantined across all batches so far.
  int64_t pairs_quarantined() const {
    return pairs_quarantined_.load(std::memory_order_relaxed);
  }

  /// Worker comparator stacks rebuilt after a fault-class failure.
  int64_t worker_restarts() const {
    return worker_restarts_.load(std::memory_order_relaxed);
  }

  /// Worker 0's message bus (per-worker traffic; tests and demos).
  const MessageBus& bus() const { return workers_.front()->bus(); }

  /// The shared randomizer pool (nullptr before Init). Benches use this to
  /// Prewarm before timing.
  crypto::RandomizerPool* randomizer_pool() { return pool_.get(); }

  /// Material-store accounting for this oracle's Init (all zeros when no
  /// material_dir was configured).
  crypto::MaterialStats material_stats() const {
    return material_store_ != nullptr ? material_store_->stats()
                                      : crypto::MaterialStats{};
  }

  /// True when Init adopted persisted material (warm start).
  bool material_warm() const { return offline_.warm; }

 private:
  /// Rebuilds worker `w`'s comparator stack (same shared key, same derived
  /// seed), retiring its accumulated costs first so costs() keeps counting
  /// the work the dead stack already did. Called from the worker's own
  /// thread — each worker slot is owned exclusively by one thread per batch.
  Status RestartWorker(size_t w);

  /// Streams the material store's counters into `metrics_` exactly once —
  /// at Init when the registry is already attached, else at the first
  /// attach after Init (LinkageSession attaches at Run).
  void PublishMaterialMetrics();

  SmcConfig config_;
  MatchRule rule_;
  int threads_;
  bool initialized_ = false;
  crypto::PaillierKeyPair keypair_;
  std::unique_ptr<crypto::RandomizerPool> pool_;
  std::unique_ptr<crypto::MaterialStore> material_store_;
  crypto::OfflinePhase offline_;  // what Init's offline phase did
  bool material_metrics_published_ = false;
  std::vector<std::unique_ptr<SecureRecordComparator>> workers_;
  mutable SmcCosts aggregated_;  // scratch for costs(); see .cc
  mutable std::mutex retired_mu_;
  SmcCosts retired_;  // costs of restarted workers' previous stacks
  std::atomic<int64_t> pairs_quarantined_{0};
  std::atomic<int64_t> worker_restarts_{0};
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
};

}  // namespace hprl::smc

#endif  // HPRL_SMC_SMC_ORACLE_H_
