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

/// One keypair's precomputed offline material: the fixed-base window table
/// for h_n = (h^2 mod n)^n mod n^2, and a bank of pre-built randomizers
/// h_n^s mod n^2. Under g = n + 1 each randomizer IS an encryption of zero
/// (Enc(0; r) = r^n), and Enc(1) is one modular multiply away
/// ((1 + n) * r^n), so this bank doubles as the pre-encrypted zero/one
/// ciphertext pool: the warm online cost of an encryption is a single
/// modmul against a stored randomizer.
struct CryptoMaterial {
  uint64_t fingerprint = 0;    ///< KeyFingerprint of the public modulus
  uint32_t modulus_bits = 0;   ///< Paillier key size the material targets
  uint32_t short_exp_bits = 0; ///< exponent width the table was built for
  std::vector<uint8_t> table_blob;  ///< FixedBaseTable::Serialize output
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
/// file per (fingerprint, modulus bits) key — randomizers and the fixed-base
/// table depend on the modulus alone — see
/// docs/FORMATS.md for the byte layout. Corrupt, truncated or mismatched
/// files are NEVER trusted and NEVER fatal: Load reports NotFound (counting
/// the rejection) and the caller regenerates, exactly as on a cold run.
///
/// Security note: material only ever hits when the same keypair comes back,
/// which requires a pinned test_seed — production keys are drawn from OS
/// entropy, never repeat, and therefore never reuse stored randomizers
/// across protocol transcripts.
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

}  // namespace hprl::crypto

#endif  // HPRL_CRYPTO_MATERIAL_H_
