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

/// Protocol-level parameters shared by the parties (mirrors the fields of
/// SmcConfig that cross trust boundaries: everyone knows the key size, the
/// fixed-point scale, the blinding width and the protocol variant).
struct ProtocolParams {
  int key_bits = 1024;
  int64_t fp_scale = 1000;
  int blind_bits = 40;
  bool reveal_distances = true;
};

/// The querying party of §V-A: the only holder of the Paillier private key.
/// It publishes the public key, and per compared attribute receives Bob's
/// ciphertext and decides whether the (possibly blinded) distance is within
/// the threshold.
class QueryingParty {
 public:
  QueryingParty(const ProtocolParams& params, uint64_t test_seed);

  /// Generates the key pair and broadcasts the public key on the bus.
  Status PublishKey(MessageBus* bus, SmcCosts* costs);

  /// Installs an externally generated key pair and broadcasts its public
  /// key — SmcMatchOracle's workers all publish the SAME key pair so the
  /// expensive generation happens once, not once per worker.
  Status PublishKeyPair(const crypto::PaillierKeyPair& kp, MessageBus* bus,
                        SmcCosts* costs);

  const crypto::PaillierPublicKey& public_key() const { return pub_; }

  /// Consumes one "bob_ct" message; true when the attribute is within its
  /// threshold. `threshold` is the scaled integer bound on (x-y)^2.
  Result<bool> DecideAttr(MessageBus* bus, const crypto::BigInt& threshold,
                          SmcCosts* costs);

  /// Consumes one "bob_ct" message and returns the decrypted signed
  /// plaintext (distance-revealing variant only; test/benchmark hook).
  Result<crypto::BigInt> ReceivePlain(MessageBus* bus, SmcCosts* costs);

  /// Packed variant: consumes one "bob_pk" ciphertext carrying every slot
  /// distance of the packed exchange, decrypts ONCE, unpacks, and compares
  /// slot i against thresholds[i]. A plaintext that fails to unpack (nonzero
  /// residue past the last slot) is reported as an IOError so the retry
  /// layer treats it like any other damaged payload. Distance-revealing
  /// variant only (the packed plaintext is the distances). Scratch values
  /// live in `arena`, as in every packed method below.
  Result<std::vector<bool>> DecideAttrsPacked(
      MessageBus* bus, const std::vector<crypto::BigInt>& thresholds,
      const crypto::PackingLayout& layout, crypto::BigIntArena* arena,
      SmcCosts* costs);

  /// Broadcasts the final pair label to both holders (who consume it).
  Status AnnounceResult(MessageBus* bus, bool match);

  /// Packed variant: one "results" message carrying the labels of every
  /// pair in the packed group.
  Status AnnounceResults(MessageBus* bus, const std::vector<uint8_t>& labels);

  /// Attaches the party's Paillier keys to `registry` (paillier.* op
  /// counters). Call after PublishKey — key generation replaces the key
  /// objects and with them the attachment.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  ProtocolParams params_;
  std::unique_ptr<crypto::SecureRandom> rng_;
  crypto::PaillierPublicKey pub_;
  crypto::PaillierPrivateKey priv_;
};

/// A data holder (Alice or Bob). Holds only the public key and its own
/// randomness; its cleartext values are passed in
/// per call by its owner, never stored.
class DataHolder {
 public:
  DataHolder(std::string name, const ProtocolParams& params,
             uint64_t test_seed);

  const std::string& name() const { return name_; }

  /// The received public key (valid after ReceiveKey; zero before). Lets a
  /// daemon build a RandomizerPool around the same key its encryptions use.
  const crypto::PaillierPublicKey& public_key() const { return pub_; }

  /// Consumes the published public key from the bus.
  Status ReceiveKey(MessageBus* bus);

  /// Alice's role for one attribute: ship Enc(x²), Enc(-2x) to `peer`.
  Status SendAttr(MessageBus* bus, const std::string& peer,
                  const crypto::BigInt& x, SmcCosts* costs);

  /// Bob's role: fold its value into Alice's ciphertexts producing
  /// Enc((x-y)²), optionally blind against the threshold, and forward to the
  /// querying party.
  Status FoldAndForward(MessageBus* bus, const crypto::BigInt& y,
                        const crypto::BigInt& threshold, SmcCosts* costs);

  /// Packed Alice: one "alice_pk" message carrying Enc(Σ x_i²·W_i) — every
  /// slot's x² packed into ONE plaintext — plus per-slot cross terms
  /// Enc(-2·x_i·W_i), already weighted into slot i (W_i = 2^(slot_bits·i)).
  /// Cuts the 2k scalar encryptions of k SendAttr calls to k + 1. The caller
  /// has already checked carry safety ((|x|+|y|)² fits a slot) for every
  /// slot.
  Status SendAttrsPacked(MessageBus* bus, const std::string& peer,
                         const std::vector<crypto::BigInt>& xs,
                         const crypto::PackingLayout& layout,
                         crypto::BigIntArena* arena, SmcCosts* costs);

  /// Packed Bob: folds y_i into slot i through Alice's pre-weighted term —
  ///   Enc(Σ d_i·W_i) = Enc(Σx_i²W_i) +h Σ_i (Enc(-2x_i·W_i) ×h y_i)
  ///                    +h Enc(Σ y_i²W_i),  d_i = (x_i - y_i)²
  /// — and forwards ONE ciphertext to the querying party where the scalar
  /// protocol sends k. The exponent is the bare y_i, |y_i| bits wide (not
  /// slot_bits·i + |y_i|). Bob sees only ciphertexts and the querying party
  /// the same packed plaintext, so leakage is that of the scalar protocol.
  Status FoldAndForwardPacked(MessageBus* bus,
                              const std::vector<crypto::BigInt>& ys,
                              const crypto::PackingLayout& layout,
                              crypto::BigIntArena* arena, SmcCosts* costs);

  /// Consumes the querying party's result announcement.
  Result<bool> ReceiveResult(MessageBus* bus);

  /// Packed variant: consumes the group announcement of `count` labels.
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
  ProtocolParams params_;
  std::unique_ptr<crypto::SecureRandom> rng_;
  crypto::PaillierPublicKey pub_;
  bool have_key_ = false;
};

}  // namespace hprl::smc

#endif  // HPRL_SMC_PARTIES_H_
