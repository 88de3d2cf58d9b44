#ifndef HPRL_SMC_FAULT_H_
#define HPRL_SMC_FAULT_H_

#include <cstdint>
#include <string>

#include "smc/channel.h"

namespace hprl::smc {

/// Deterministic, seed-driven schedule of transport faults. Whether a fault
/// fires at a given protocol step is a pure function of
/// (seed, record pair, step index, retry attempt, fault kind) — NOT of a
/// stateful RNG stream — so the same plan injects the same faults at the
/// same pairs regardless of worker count or scheduling. That is what makes
/// the fault-matrix determinism guarantee (same seed => bit-identical
/// HybridResult for every smc_threads) hold by construction.
///
/// Rates are per protocol step (one Send or one Expect). Retry attempts
/// re-roll with a different hash, so transient faults clear after a few
/// attempts unless a rate is ~1.
struct FaultPlan {
  uint64_t seed = 1;

  double drop_rate = 0;     ///< Send: message vanishes in transit
  double corrupt_rate = 0;  ///< Send: payload bytes flipped (checksum kept)
  double delay_rate = 0;    ///< Send: injected latency of delay_micros
  int delay_micros = 100;
  double crash_rate = 0;    ///< Expect: receiving party "dies" (Unavailable)

  bool enabled() const {
    return drop_rate > 0 || corrupt_rate > 0 || delay_rate > 0 ||
           crash_rate > 0;
  }
};

/// The one transient/fatal split of the SMC layer, shared by the in-process
/// retry and supervision (smc/protocol.cc, smc/smc_oracle.cc) and the TCP
/// coordinator (net/remote_oracle.cc). Transient: a dropped message or a
/// timeout (NotFound), a damaged payload (IOError) or a desynchronized link
/// (Internal); a retry heals it. Everything else is not retried.
bool IsTransientFault(const Status& s);

/// Transient, or a crashed party or dead link (Unavailable): a pair that
/// still fails this way after its retries is quarantined, never labeled.
/// Anything else is a semantic error that fails the whole batch.
bool IsFaultClass(const Status& s);

/// MessageBus decorated with FaultPlan-scheduled faults. Each comparator
/// worker owns one FaultyBus; the comparator announces the current record
/// pair and retry attempt through SetPairContext, and every subsequent
/// Send / Expect counts as one protocol step of that pair.
///
/// The bus starts disarmed — traffic before the first SetPairContext (key
/// publication during Init) passes through untouched. Faults model the
/// lossy per-pair exchange phase; a setup that cannot even publish a key
/// is not a degradation scenario the layer is meant to heal.
///
/// Injected faults and their healing are surfaced through the
/// smc.faults_injected / smc.faults_{dropped,corrupted,delayed,crashed}
/// counters when a registry is attached.
class FaultyBus : public MessageBus {
 public:
  explicit FaultyBus(FaultPlan plan) : plan_(plan) {}

  void Send(Message msg) override;
  Result<Message> Expect(const std::string& to, const std::string& tag) override;

  void SetPairContext(int64_t a_id, int64_t b_id, int attempt) override;

  void AttachMetrics(obs::MetricsRegistry* registry) override;

  int64_t faults_injected() const { return faults_injected_; }

 private:
  enum class Kind : uint64_t { kDrop = 1, kCorrupt = 2, kDelay = 3, kCrash = 4 };

  /// True when the plan schedules a fault of `kind` at the current step.
  bool Roll(Kind kind, double rate, uint64_t step);
  void CountFault(obs::Counter* per_kind);

  FaultPlan plan_;
  bool armed_ = false;    // set by the first SetPairContext
  int64_t pair_key_ = 0;  // mixes a_id/b_id; -1/-1 context hashes too
  int attempt_ = 0;
  uint64_t step_ = 0;  // Sends and Expects of the current pair, in order
  int64_t faults_injected_ = 0;

  obs::Counter* total_counter_ = nullptr;    // not owned
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* corrupted_counter_ = nullptr;
  obs::Counter* delayed_counter_ = nullptr;
  obs::Counter* crashed_counter_ = nullptr;
};

}  // namespace hprl::smc

#endif  // HPRL_SMC_FAULT_H_
