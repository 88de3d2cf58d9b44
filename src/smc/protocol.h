#ifndef HPRL_SMC_PROTOCOL_H_
#define HPRL_SMC_PROTOCOL_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/result.h"
#include "crypto/arena.h"
#include "crypto/fixed_point.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "linkage/match_rule.h"
#include "linkage/oracle.h"
#include "smc/channel.h"
#include "smc/costs.h"
#include "smc/fault.h"
#include "smc/operands.h"
#include "smc/parties.h"

namespace hprl::smc {

/// Parameters of the cryptographic step.
struct SmcConfig {
  /// Paillier modulus size; the paper's experiments use 1024.
  int key_bits = 1024;

  /// Fixed-point scale for numeric attributes (values are multiplied by this
  /// and rounded before entering the plaintext space).
  int64_t fp_scale = 1000;

  /// Bits of the multiplicative blinding factor used when
  /// reveal_distances == false.
  int blind_bits = 40;

  /// true: the querying party decrypts each squared distance and compares it
  /// with the threshold itself (paper §V-A's base protocol).
  /// false: the data holder blinds (T - d) multiplicatively so the querying
  /// party learns only the comparison outcome (the secure-comparison
  /// combination the paper mentions).
  bool reveal_distances = true;

  /// Non-zero: deterministic randomness for reproducible tests/benches.
  uint64_t test_seed = 0;

  /// Target depth of the precomputed-randomizer pool SmcMatchOracle shares
  /// across its workers; 0 disables the pool. Standalone comparators never
  /// pool (their encryptions stay inline), so this knob only matters when
  /// comparing through SmcMatchOracle.
  int randomizer_pool_depth = 64;

  /// Deterministic fault-injection schedule for the transport (smc/fault.h).
  /// When enabled, each worker's bus is decorated as a FaultyBus; disabled
  /// (the default), the comparator runs on the plain MessageBus and the
  /// zero-fault path is byte-identical to a build without the fault layer.
  FaultPlan fault_plan;

  /// How many times one per-attribute exchange (or the result announcement)
  /// is retried after a transient transport fault — a dropped message,
  /// a corrupted payload, or a desync — before the pair is given up
  /// (and, under SmcMatchOracle, quarantined). Retries run at once. 0
  /// disables retries.
  int max_retries = 3;

  /// Plaintext packing (the packed SMC fast path): > 0 lets SmcMatchOracle
  /// group up to this many pairs into ONE packed exchange — all the pairs'
  /// per-attribute distances land in disjoint bit-slots of a single
  /// Paillier plaintext, so one Encrypt/Add/Decrypt replaces k of them.
  /// Requires reveal_distances (the packed plaintext IS the distances).
  /// 0 (the default) keeps the scalar §V-A exchange everywhere.
  /// Labels are bit-identical either way — both paths compute the exact
  /// (x-y)² per attribute.
  int pack_pairs = 0;

  /// Bit width of one packed slot. Every slot must hold (|x| + |y|)² for
  /// its attribute pair; groups containing a pair that fails this carry-
  /// safety check fall back to the scalar exchange for that pair.
  int pack_slot_bits = 64;

  /// Non-empty: persistent offline-material store directory
  /// (crypto/material.h). SmcMatchOracle (and, over TCP, every daemon)
  /// loads fixed-base tables + pre-encrypted randomizers keyed by keypair
  /// fingerprint from here at Init and saves freshly generated material
  /// back, so warm runs skip the offline phase entirely. Corrupt or
  /// mismatched files are silently regenerated. Material only ever hits at
  /// a pinned test_seed (production keys never repeat).
  std::string material_dir;

  /// Record pairs the dedicated offline phase provisions randomizers for
  /// (OfflineRandomizerBudget: 3 per pair per attribute). SmcMatchOracle
  /// prewarms them on its smc_threads workers, and each TCP data holder on
  /// all of its cores; either way the material bytes do not depend on the
  /// thread count. 0 keeps the background filler as the only producer.
  int offline_pairs = 0;
};

/// Randomizers the dedicated offline phase prewarms for `offline_pairs`
/// record pairs over `attrs` attributes (at least one): the scalar
/// exchange's draw count, 3 encryptions per pair per attribute.
int OfflineRandomizerBudget(int offline_pairs, size_t attrs);

/// Drives the paper's §V-A secure record comparison among the three party
/// objects (smc/parties.h: data holders "alice" and "bob", querying party
/// "qp") over an accounted MessageBus. This class is the in-process
/// scheduler; the secrets live in the parties.
///
/// Per attribute i the protocol computes d = (x - y)^2 homomorphically:
///   alice -> bob : Enc(x^2), Enc(-2x)
///   bob   -> qp  : Enc(x^2) +h (Enc(-2x) ×h y) +h Enc(y^2)   [= Enc(d)]
/// and the querying party decrypts (or, blinded, sign-tests) d against the
/// scaled threshold. A pair matches when every attribute is within its
/// threshold; evaluation stops at the first failing attribute.
///
/// Leakage note (documented, matching the paper's relaxed model): the
/// querying party learns per-attribute outcomes, and with reveal_distances
/// also the squared distances of compared attributes; the final result is
/// sent back to both data holders.
class SecureRecordComparator {
 public:
  SecureRecordComparator(SmcConfig config, const MatchRule& rule);

  /// Generates the querying party's key pair and publishes the public key.
  Status Init();

  /// Init with an externally generated key pair: the querying party installs
  /// `kp` instead of generating its own. Lets N worker comparators share one
  /// published key (SmcMatchOracle) and lets benches exclude key generation.
  Status InitWithKeyPair(const crypto::PaillierKeyPair& kp);

  /// Routes the data holders' encryptions through a pool of precomputed
  /// r^n mod n² randomizers (nullptr detaches). Call after Init — key setup
  /// replaces the holders' key objects and with them the attachment; the
  /// comparator re-applies the pool if Init runs again. The pool must
  /// outlive the comparator's use of it.
  void AttachRandomizerPool(crypto::RandomizerPool* pool);

  /// Runs the full protocol on one record pair. Text attributes are not
  /// supported by the cryptographic step (paper future work).
  Result<bool> Compare(const Record& a, const Record& b);

  /// Compare with the pair's row ids, which seed the fault schedule of
  /// its exchanges (FaultPlan). Compare passes -1 for both.
  Result<bool> CompareRows(int64_t a_id, int64_t b_id, const Record& a,
                           const Record& b);

  /// Pairs one packed exchange can carry under this config and rule
  /// (active attributes per pair vs slots per plaintext); 0 when the packed
  /// path is unavailable (packing off, blinded comparisons, text
  /// attributes, or a modulus too small for one slot group).
  /// Depends only on the config and rule, so every worker of an
  /// SmcMatchOracle plans identical groups regardless of thread count.
  int PackedGroupPairs() const;

  /// Runs the packed variant of the §V-A exchange on up to
  /// PackedGroupPairs() pairs at once: one "alice_pk" message (packed
  /// Enc(Σx²·W) plus per-slot Enc(-2x_i·W_i), pre-weighted into slot i),
  /// one "bob_pk" ciphertext folded with the bare y_i as exponents (|y_i|
  /// bits, not slot_bits·i + |y_i|), ONE decryption, then a single group
  /// result announcement. Leakage equals the scalar exchange's. Pairs whose
  /// values fail the per-slot carry-safety check are compared through the
  /// scalar path instead (same labels, see SmcConfig::pack_pairs). Returns
  /// per-pair match flags in input order. Transient transport faults heal
  /// through the same retry layer as the scalar exchange.
  Result<std::vector<bool>> ComparePackedGroup(
      const std::vector<RowPairRequest>& pairs);

  /// Secure squared distance on raw scalars (test/benchmark entry point):
  /// returns the exact (x - y)^2 as seen by the querying party. Requires
  /// reveal_distances.
  Result<double> SecureSquaredDistance(double x, double y);

  const SmcCosts& costs() const { return costs_; }
  const MessageBus& bus() const { return *bus_; }
  const crypto::PaillierPublicKey& public_key() const {
    return qp_.public_key();
  }

  /// Streams protocol observability into `registry` (nullptr detaches):
  /// smc.bytes_sent / smc.messages from the bus, paillier.* op counters
  /// from every party's keys, smc.rounds and the smc.compare_seconds
  /// latency histogram from the comparator itself. Call after Init() (key
  /// setup replaces the key objects). The SmcCosts accountant is always on
  /// and unaffected.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  /// Retries `exchange` after transient transport faults (see
  /// SmcConfig::max_retries), purging the bus and re-announcing the pair
  /// context between attempts. Crashes (Unavailable) are not retried here —
  /// a dead party is SmcMatchOracle's supervision problem, not a transit
  /// glitch.
  template <typename Exchange>
  auto RetryExchange(int64_t a_id, int64_t b_id, int exchange_idx,
                     Exchange&& exchange) -> decltype(exchange());

  SmcConfig config_;
  RuleOperands operands_;
  crypto::FixedPointCodec codec_;
  std::unique_ptr<MessageBus> bus_;  // FaultyBus when fault_plan is enabled
  SmcCosts costs_;
  bool initialized_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
  crypto::RandomizerPool* pool_ = nullptr;   // not owned; may be null

  // Shared scratch arena for the packed exchange (crypto/arena.h): slots are
  // preallocated at the width of the largest mod-n² intermediate and reused
  // across groups, so a packed pair costs a handful of GMP allocations.
  // Reset at the start of every packed attempt and lent to the parties'
  // packed methods.
  crypto::BigIntArena arena_;

  // The three §V-A roles; each owns only its own secrets (see smc/parties.h).
  QueryingParty qp_;
  DataHolder alice_;
  DataHolder bob_;
};

}  // namespace hprl::smc

#endif  // HPRL_SMC_PROTOCOL_H_
