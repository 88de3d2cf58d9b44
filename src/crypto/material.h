#ifndef HPRL_CRYPTO_MATERIAL_H_
#define HPRL_CRYPTO_MATERIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "crypto/bigint.h"

namespace hprl::crypto {

/// 64-bit FNV-1a over the public modulus' big-endian bytes. Identifies a
/// keypair for material-cache keying: material generated under one key is
/// useless (and, if trusted, dangerous) under another, so every cache file
/// carries this fingerprint and loads reject a mismatch.
uint64_t KeyFingerprint(const BigInt& n);

/// One keypair's precomputed offline material: a bank of randomizers
/// h_n^s mod n^2 (crypto/paillier.h, RandomizerPool). Under g = n + 1 each
/// randomizer IS an encryption of zero (Enc(0; r) = r^n), and Enc(1) is one
/// modular multiply away ((1 + n) * r^n), so this bank doubles as the
/// pre-encrypted zero/one ciphertext pool: the warm online cost of an
/// encryption is a single modmul against a stored randomizer. The
/// fixed-base table that generates them is not stored: every pool builds
/// it from the key in its constructor.
struct CryptoMaterial {
  uint64_t fingerprint = 0;    ///< KeyFingerprint of the public modulus
  uint32_t modulus_bits = 0;   ///< Paillier key size the material targets
  std::vector<BigInt> randomizers;  ///< h_n^s mod n^2 (= Enc(0) ciphertexts)
};

/// Load/save accounting, mirrored into the crypto.material.* metrics and
/// the TCP PartyStats sweep. hits = files loaded and verified; misses =
/// lookups that found no usable material (absent or rejected); rejected =
/// files that existed but failed validation (truncated, bit-flipped, stale
/// fingerprint or version); bytes = material traffic in both directions.
struct MaterialStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t rejected = 0;
  int64_t bytes = 0;
};

/// Persistent store of offline crypto material, one versioned + checksummed
/// file per (fingerprint, modulus bits) key — the randomizers depend on the
/// modulus alone — see docs/FORMATS.md for the byte layout. Corrupt,
/// truncated or mismatched files are NEVER trusted and NEVER fatal: Load
/// reports NotFound (counting the rejection) and the caller regenerates,
/// exactly as on a cold run.
///
/// Security note: material only ever hits when the same keypair comes back,
/// which requires a pinned test_seed — production keys are drawn from OS
/// entropy, never repeat, and therefore never reuse stored randomizers
/// across protocol transcripts. At a pinned seed a stored randomizer may
/// recur across runs (the run that saved the bank used it too), but never
/// within one run: the adopting pool hands each adopted value out once and
/// generates everything after it past the stream positions the bank came
/// from (RandomizerPool::AdoptMaterial).
class MaterialStore {
 public:
  explicit MaterialStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// The cache file path for one material key.
  std::string PathFor(uint64_t fingerprint, uint32_t modulus_bits) const;

  /// Loads and fully validates one material file. Absent file: NotFound
  /// (miss). Present but invalid in ANY way: NotFound (miss + rejected).
  /// Valid: the parsed material (hit).
  Result<CryptoMaterial> Load(uint64_t fingerprint, uint32_t modulus_bits);

  /// Serializes `m` under its key, creating the store directory if needed.
  /// The write is atomic (temp file + rename) so a torn write can never be
  /// observed as a half-valid cache file.
  Status Save(const CryptoMaterial& m);

  const MaterialStats& stats() const { return stats_; }

 private:
  std::string dir_;
  MaterialStats stats_;
};

class RandomizerPool;

/// What one offline phase did.
struct OfflinePhase {
  bool warm = false;      ///< a verified bank was adopted from the store
  int64_t generated = 0;  ///< randomizers prewarmed beyond the adopted bank
};

/// The offline phase, run once per key before the first unit by both
/// transports: SmcMatchOracle::Init in process, and each TCP holder daemon
/// when its public key arrives. With a store it loads the bank filed under
/// `pool`'s keypair and adopts it (a warm start; an absent or rejected file
/// is a cold one). It then prewarms the pool to `randomizers` on `threads`
/// workers, saves the bank when that generated anything, and starts the
/// pool's filler, which holds the resulting level. The bank is saved only
/// here, before any take, so it is always the first values the pool's
/// stream yields. A failed save leaves the next run cold, never this one
/// failed. `store` may be null (no persistence).
Result<OfflinePhase> RunOfflinePhase(RandomizerPool& pool, MaterialStore* store,
                                     int64_t randomizers, int threads);

}  // namespace hprl::crypto

#endif  // HPRL_CRYPTO_MATERIAL_H_
