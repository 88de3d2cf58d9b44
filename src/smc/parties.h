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
/// its side of a unit through one step — DataHolder::SendUnit (alice),
/// DataHolder::FoldUnit (bob), QueryingParty::DecideUnit then
/// AnnounceResults (qp), DataHolder::ReceiveResults (both holders) — over
/// whatever bus carries it: the in-process channel or a daemon's SocketBus.
/// Operand and threshold vectors are pair-major, attribute-minor.

/// The querying party of §V-A: the only holder of the Paillier private key.
/// It publishes the public key, and per unit receives Bob's ciphertext and
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
  /// 1 = match. The unit is one "bob_pk" ciphertext carrying every slot
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

  /// Alice's step of one unit: ships her operands `xs` (pair-major) to
  /// `peer` as one "alice_pk" message carrying Enc(Σ x_i²·W_i) — every
  /// slot's x² packed into ONE plaintext — plus per-slot cross terms
  /// Enc(-2·x_i·W_i), already weighted into slot i (W_i = 2^offset(i),
  /// PackingLayout::SlotOffset): k + 1 encryptions for k slots. The plan
  /// already checked carry safety: every squared distance an attribute's
  /// declared domain allows fits its slot (smc::PackedGroupPairs).
  Status SendUnit(MessageBus* bus, const std::string& peer,
                  const std::vector<crypto::BigInt>& xs,
                  const crypto::PackingLayout& layout,
                  crypto::BigIntArena* arena, SmcCosts* costs);

  /// Bob's step of one unit: folds his operands `ys` (pair-major) into
  /// Alice's ciphertexts, d_i = (x_i - y_i)²,
  ///   Enc(Σ d_i·W_i) = Enc(Σx_i²W_i) +h Σ_i (Enc(-2x_i·W_i) ×h y_i)
  ///                    +h Enc(Σ y_i²W_i)
  /// and forwards it to the querying party as ONE "bob_pk" ciphertext. The
  /// exponent is the bare y_i, |y_i| bits wide (not offset(i) + |y_i|). Bob
  /// sees only ciphertexts.
  Status FoldUnit(MessageBus* bus, const std::vector<crypto::BigInt>& ys,
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
