#ifndef HPRL_SMC_PROTOCOL_H_
#define HPRL_SMC_PROTOCOL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/result.h"
#include "crypto/arena.h"
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

  /// Non-zero: deterministic randomness for reproducible tests/benches.
  uint64_t test_seed = 0;

  /// Deterministic fault-injection schedule for the transport (smc/fault.h).
  /// When enabled, each worker's bus is decorated as a FaultyBus; disabled
  /// (the default), the comparator runs on the plain MessageBus and the
  /// zero-fault path is byte-identical to a build without the fault layer.
  FaultPlan fault_plan;

  /// How many times a unit's exchange (or its result announcement) is
  /// retried after a transient transport fault — a dropped message,
  /// a corrupted payload, or a desync — before the pair is given up
  /// (and, under SmcMatchOracle, quarantined). Retries run at once. 0
  /// disables retries.
  int max_retries = 3;

  /// The most pairs one unit of the exchange carries: all the pairs'
  /// per-attribute distances land in disjoint bit-slots of a single
  /// Paillier plaintext, so one Encrypt/Add/Decrypt serves them all. Each
  /// attribute's slot width comes from its declared domain
  /// (PackedGroupPairs). Must be >= 1; the default matches the spec's.
  int pack_pairs = 8;

  /// The widest slot one attribute may take, in bits. Each attribute's slot
  /// is as wide as its declared domain needs (RuleOperands::slot_widths);
  /// a rule with a wider attribute is refused at plan time.
  int pack_slot_bits = 64;

  /// Non-empty: persistent offline-material store directory
  /// (crypto/material.h). The offline phase (crypto::RunOfflinePhase) of
  /// SmcMatchOracle and, over TCP, of every holder daemon loads the
  /// randomizer bank filed under the keypair's fingerprint and saves a
  /// bank it grew, so a warm run generates only what the bank lacks.
  /// Corrupt or mismatched files are silently regenerated. Material only
  /// ever hits at a pinned test_seed (production keys never repeat).
  std::string material_dir;

  /// Record pairs the dedicated offline phase provisions randomizers for:
  /// exactly the draws of that many pairs (RandomizerDraws). SmcMatchOracle
  /// prewarms them on its smc_threads workers, and each TCP data holder its
  /// own role's count on all of its cores; either way the material bytes do
  /// not depend on the thread count, and the pool's idle-priority filler
  /// then holds that level. 0 keeps the background filler as the only
  /// producer.
  int offline_pairs = 0;
};

/// The fill level every randomizer pool starts at (SmcMatchOracle's shared
/// pool, each TCP holder daemon's); the offline phase raises it to what it
/// prewarms. Standalone comparators keep no pool: their encryptions
/// compute inline.
inline constexpr int kRandomizerPoolFloor = 64;

/// Pairs one unit of the exchange carries under `config` and the rule
/// behind `operands`. The widest unit is G = min(pack_pairs,
/// ⌊(key_bits − 2) / Σw_i⌋), w_i attribute i's slot width
/// (RuleOperands::slot_widths). The widest unit whose plaintext the
/// querying party decrypts with one CRT half, N = min(G,
/// ⌊crypto::NarrowPlaintextBits(key_bits) / Σw_i⌋), is taken instead when
/// 2·N > G: it costs about half a full decryption. At Paillier-1024 a §VI
/// pair takes 73 bits, so smc_pack 8 gives 6-pair units. The one plan-time
/// check of a run's SMC step: InvalidArgument, with what to change, when
/// pack_pairs < 1, the rule compares no attribute, a compared attribute is
/// text or declares no domain, a slot is wider than pack_slot_bits, or one
/// pair does not fit the key. A function of public plan-time values only,
/// so the in-process oracle, the TCP coordinator and every daemon derive
/// the same units.
Result<int> PackedGroupPairs(const SmcConfig& config,
                             const RuleOperands& operands);

/// Randomizers each data holder draws from its pool, one per Paillier
/// encryption.
struct RoleDraws {
  int64_t alice = 0;
  int64_t bob = 0;
  int64_t total() const { return alice + bob; }
};

/// The most draws `pairs` record pairs cut into whole units take under
/// `config` and the rule behind `operands`. With g = PackedGroupPairs and k
/// = operands.size(): alice ⌈pairs/g⌉ (Enc(Σx²W) per unit), bob pairs·k +
/// ⌈pairs/g⌉ (a column per R row and attribute, plus Enc(Σy²W) per unit).
/// A unit of pairs over d distinct R rows draws d·k + 2, so this is exact
/// when no unit repeats an R row and an upper bound otherwise; the offline
/// phase prewarms it for SmcConfig::offline_pairs. Fails as
/// PackedGroupPairs.
Result<RoleDraws> RandomizerDraws(const SmcConfig& config,
                                  const RuleOperands& operands, int64_t pairs);

/// Drives the paper's §V-A secure record comparison among the three party
/// objects (smc/parties.h: data holders "alice" and "bob", querying party
/// "qp") over an accounted MessageBus. This class is the in-process
/// scheduler; the secrets live in the parties.
///
/// Per attribute i the protocol computes d = (x - y)^2 homomorphically:
///   bob   -> alice : Enc(y^2), Enc(-2y)
///   alice -> qp    : Enc(y^2) +h Enc(x^2) +h (Enc(-2y) ×h x)   [= Enc(d)]
/// and the querying party decrypts d and compares it with the scaled
/// threshold. A pair matches when every attribute is within its threshold.
/// The comparator runs the exchange one packed unit at a time
/// (smc/parties.h): every compared attribute of every pair is evaluated,
/// exactly as the TCP daemons run the same role steps.
///
/// Leakage note (documented, matching the paper's relaxed model): the
/// querying party learns every compared attribute's squared distance; the
/// final result is sent back to both data holders.
class SecureRecordComparator {
 public:
  SecureRecordComparator(SmcConfig config, const MatchRule& rule);

  /// Generates the querying party's key pair and publishes the public key.
  /// Fails first with PackedGroupPairs' plan error when the config and rule
  /// cannot form a unit.
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

  /// Runs the full protocol on one record pair (a one-pair unit).
  Result<bool> Compare(const Record& a, const Record& b);

  /// Pairs one unit carries: PackedGroupPairs(config, rule), or 1 when the
  /// plan failed (Init reports why). Depends only on the config and rule, so
  /// every worker of an SmcMatchOracle plans identical units regardless of
  /// thread count.
  int unit_pairs() const { return std::max(1, group_pairs_); }

  /// Runs one unit of the §V-A exchange on up to unit_pairs() pairs: each
  /// role's step (smc/parties.h) in turn over this comparator's bus — one
  /// "bob_pk" message (packed Enc(Σy²·W) plus one column Enc(-2·Y_{r,i})
  /// per R row r of the pairs' a_ids and attribute i, pre-weighted into
  /// the row's slots), one "alice_pk" ciphertext folded with the bare x_i
  /// as exponents and ONE decryption — then one result announcement.
  /// Pairs that name one R row must carry the same record for it
  /// (InvalidArgument otherwise). Returns per-pair match flags in input
  /// order. The first
  /// pair's row ids seed the fault schedule (FaultPlan), and transient
  /// transport faults heal by replaying the exchange or the announcement.
  Result<std::vector<bool>> CompareUnit(
      const std::vector<RowPairRequest>& pairs);

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
  Status plan_;          // PackedGroupPairs' verdict; Init returns it
  int group_pairs_ = 0;  // PackedGroupPairs(config_, operands_) when planned
  crypto::PackingLayout layout_;
  std::unique_ptr<MessageBus> bus_;  // FaultyBus when fault_plan is enabled
  SmcCosts costs_;
  bool initialized_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
  crypto::RandomizerPool* pool_ = nullptr;   // not owned; may be null

  // Shared scratch arena for the exchange (crypto/arena.h): slots are
  // preallocated at the width of the largest mod-n² intermediate and reused
  // across units, so a packed pair costs a handful of GMP allocations.
  // Reset at the start of every attempt and lent to the role steps.
  crypto::BigIntArena arena_;

  // The three §V-A roles; each owns only its own secrets (see smc/parties.h).
  QueryingParty qp_;
  DataHolder alice_;
  DataHolder bob_;
};

}  // namespace hprl::smc

#endif  // HPRL_SMC_PROTOCOL_H_
