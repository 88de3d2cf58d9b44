#ifndef HPRL_SMC_PARTIES_H_
#define HPRL_SMC_PARTIES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "crypto/arena.h"
#include "crypto/fixed_point.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "smc/channel.h"
#include "smc/costs.h"

namespace hprl::smc {

/// One unit of the §V-A exchange is a packed group of pairs whose distances
/// share one plaintext, laid out by a crypto::PackingLayout. Each role runs
/// its side of a unit through one step — DataHolder::SendColumns (bob),
/// DataHolder::FoldColumns (alice), QueryingParty::DecideUnit then
/// AnnounceResults (qp), DataHolder::ReceiveResults (both holders) — over
/// whatever bus carries it: the in-process channel or a daemon's SocketBus.
/// Operand and threshold vectors are pair-major, attribute-minor.
///
/// The holders' steps factor the cross terms by R row. Pairs of one unit
/// that compare the same R row share Alice's operands, so their cross terms
/// sum to one term per attribute: Σ_j 2·x_i·y_{j,i}·W_{j,i} = 2·x_i·Y_{r,i}
/// with Y_{r,i} = Σ_j y_{j,i}·W_{j,i} over the row's pairs j. Both holders
/// group a unit's pairs by their public a_ids (UnitRows).

/// Row groups of a unit's pairs, from their R-row ids in pair order:
/// element j is pair j's group, numbered 0, 1, ... by first appearance. A
/// pair without a row id (a_id < 0) forms a group of its own.
std::vector<uint32_t> UnitRows(const std::vector<int64_t>& a_ids);

/// The querying party of §V-A: the only holder of the Paillier private key.
/// It publishes the public key, and per unit receives Alice's ciphertext and
/// decides whether each distance is within its threshold.
class QueryingParty {
 public:
  QueryingParty(int key_bits, uint64_t test_seed);

  /// Generates the key pair and broadcasts the public key on the bus.
  Status PublishKey(MessageBus* bus, SmcCosts* costs);

  /// Installs an externally generated key pair and broadcasts its public
  /// key — SmcMatchOracle's workers all publish the SAME key pair so the
  /// expensive generation happens once, not once per worker.
  Status PublishKeyPair(const crypto::PaillierKeyPair& kp, MessageBus* bus,
                        SmcCosts* costs);

  const crypto::PaillierPublicKey& public_key() const { return pub_; }

  /// qp's step of one unit of `pairs` pairs: decides every compared
  /// attribute of every pair against `thresholds` (one per attribute, the
  /// scaled integer bound on (x-y)²) and returns each pair's conjunction,
  /// 1 = match. The unit is one "alice_pk" ciphertext carrying every slot
  /// distance: ONE decryption (one CRT half when the unit's plaintext is
  /// narrow enough, PaillierPrivateKey::DecryptBelow), then an exact unpack
  /// (a nonzero residue past the last slot is reported as an IOError, so
  /// the retry layer treats it like any other damaged payload). Counts the
  /// unit's attribute comparisons, its exchange and its pairs. Scratch
  /// values live in `arena`, as in every unit step.
  Result<std::vector<uint8_t>> DecideUnit(
      MessageBus* bus, const std::vector<crypto::BigInt>& thresholds,
      size_t pairs, const crypto::PackingLayout& layout,
      crypto::BigIntArena* arena, SmcCosts* costs);

  /// Announces a unit's labels to both holders in one "results" message.
  Status AnnounceResults(MessageBus* bus, const std::vector<uint8_t>& labels);

  /// Attaches the party's Paillier keys to `registry` (paillier.* op
  /// counters). Call after PublishKey — key generation replaces the key
  /// objects and with them the attachment.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  int key_bits_;
  std::unique_ptr<crypto::SecureRandom> rng_;
  crypto::PaillierPublicKey pub_;
  crypto::PaillierPrivateKey priv_;
};

/// A data holder (Alice or Bob). Holds only the public key and its own
/// randomness; its cleartext values are passed in
/// per call by its owner, never stored.
class DataHolder {
 public:
  DataHolder(std::string name, uint64_t test_seed);

  const std::string& name() const { return name_; }

  /// The received public key (valid after ReceiveKey; zero before). Lets a
  /// daemon build a RandomizerPool around the same key its encryptions use.
  const crypto::PaillierPublicKey& public_key() const { return pub_; }

  /// Consumes the published public key from the bus.
  Status ReceiveKey(MessageBus* bus);

  /// Bob's step of one unit: ships his operands `ys` (pair-major) folded by
  /// R row to `peer` as one "bob_pk" message carrying Enc(Σ y_i²·W_i) —
  /// every slot's y² packed into ONE plaintext — plus, per row group r of
  /// the pairs' R-row ids `a_ids` (UnitRows) and attribute i, the column
  /// Enc(-2·Y_{r,i}),
  /// Y_{r,i} = Σ y_{j,i}·W_{j,i} over the group's pairs j, already weighted
  /// into their slots (W = 2^offset, PackingLayout::SlotOffset): d·k + 1
  /// encryptions for d groups of k attributes. The plan already checked
  /// carry safety: every squared distance an attribute's declared domain
  /// allows fits its slot (smc::PackedGroupPairs).
  Status SendColumns(MessageBus* bus, const std::string& peer,
                     const std::vector<crypto::BigInt>& ys,
                     const std::vector<int64_t>& a_ids,
                     const crypto::PackingLayout& layout,
                     crypto::BigIntArena* arena, SmcCosts* costs);

  /// Alice's step of one unit: folds her operands `xs` (pair-major) into
  /// Bob's columns, grouped by the same `a_ids`, d_{j,i} = (x_{j,i} - y_{j,i})²,
  ///   Enc(Σ d·W) = Enc(Σy²W) +h Enc(Σx²W) +h Σ_{r,i} (Enc(-2·Y_{r,i}) ×h x_{r,i})
  /// and forwards it to the querying party as ONE "alice_pk" ciphertext.
  /// Her fresh Enc(Σx²W) re-randomizes the product. The exponents are her
  /// bare x_{r,i}, one per row group and attribute, read in place from
  /// `xs`. InvalidArgument when two pairs of one row group carry different
  /// operands. Alice sees only ciphertexts.
  Status FoldColumns(MessageBus* bus, const std::vector<crypto::BigInt>& xs,
                     const std::vector<int64_t>& a_ids,
                     const crypto::PackingLayout& layout,
                     crypto::BigIntArena* arena, SmcCosts* costs);

  /// Consumes the announcement of a unit's `count` labels.
  Result<std::vector<uint8_t>> ReceiveResults(MessageBus* bus, size_t count);

  /// Attaches the holder's public-key copy to `registry` (paillier.* op
  /// counters). Call after ReceiveKey — receiving replaces the key object.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Routes this holder's encryptions through a pool of precomputed
  /// randomizers (nullptr detaches). Like AttachMetrics, call after
  /// ReceiveKey; the pool must outlive the holder.
  void AttachRandomizerPool(crypto::RandomizerPool* pool);

 private:
  std::string name_;
  std::unique_ptr<crypto::SecureRandom> rng_;
  crypto::PaillierPublicKey pub_;
  bool have_key_ = false;
};

}  // namespace hprl::smc

#endif  // HPRL_SMC_PARTIES_H_
