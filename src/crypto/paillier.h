#ifndef HPRL_CRYPTO_PAILLIER_H_
#define HPRL_CRYPTO_PAILLIER_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "common/result.h"
#include "crypto/arena.h"
#include "crypto/bigint.h"
#include "crypto/secure_random.h"
#include "obs/metrics.h"

namespace hprl::crypto {

class FixedBaseTable;
class RandomizerPool;
struct CryptoMaterial;

/// Paillier public key (Paillier, Eurocrypt'99) with the standard g = n + 1
/// optimization: Enc(m; r) = (1 + m·n) · r^n mod n².
///
/// The scheme is additively homomorphic:
///   Add:       Enc(m1) ·  Enc(m2)  = Enc(m1 + m2)   (the paper's  +_h)
///   ScalarMul: Enc(m)^k            = Enc(k · m)     (the paper's  ×_h)
class PaillierPublicKey {
 public:
  PaillierPublicKey() = default;
  explicit PaillierPublicKey(BigInt n);

  const BigInt& n() const { return n_; }
  const BigInt& n_squared() const { return n2_; }
  int modulus_bits() const { return static_cast<int>(n_.BitLength()); }

  /// Encrypts m ∈ [0, n). Fails on out-of-range plaintext. With a randomizer
  /// pool attached the expensive r^n mod n² factor is drawn from the pool
  /// instead of being computed inline (see RandomizerPool).
  Result<BigInt> Encrypt(const BigInt& m, SecureRandom& rng) const;

  /// Maps a signed value into [0, n) (negative x becomes n + x) so that
  /// homomorphic sums decode correctly as long as |result| < n/2.
  BigInt EncodeSigned(const BigInt& x) const;

  /// Encrypt(EncodeSigned(x)).
  Result<BigInt> EncryptSigned(const BigInt& x, SecureRandom& rng) const;

  /// Range precondition on a ciphertext: InvalidArgument unless 0 < c < n².
  /// Zero and out-of-range values are never valid Paillier ciphertexts (the
  /// multiplicative group of Z*_{n²} excludes them); every receive site of
  /// the SMC protocol checks this before feeding a wire value into the
  /// homomorphic ops or decryption.
  Status ValidateCiphertext(const BigInt& c) const;

  /// Homomorphic addition of plaintexts.
  BigInt Add(const BigInt& c1, const BigInt& c2) const;

  /// Homomorphic multiplication by a (possibly negative) scalar.
  BigInt ScalarMul(const BigInt& c, const BigInt& k) const;

  /// In-place variants for arena-backed callers (the packed SMC hot path):
  /// results land in *out, the only transient lives in *scratch, so a batch
  /// of ops over BigIntArena slots touches the heap at most through the
  /// randomizer draw. Identical math, randomness order and counters as the
  /// value-returning versions — outputs are bit-identical. *out and *scratch
  /// must be distinct objects (inputs may alias *out).
  Status EncryptInto(const BigInt& m, SecureRandom& rng, BigInt* scratch,
                     BigInt* out) const;

  /// EncodeSigned + EncryptInto, encoding through *out.
  Status EncryptSignedInto(const BigInt& x, SecureRandom& rng, BigInt* scratch,
                           BigInt* out) const;

  /// *acc = *acc ⊕ c.
  void AddInto(BigInt* acc, const BigInt& c) const;

  /// *out = c ×h k (k may be negative).
  void ScalarMulInto(const BigInt& c, const BigInt& k, BigInt* scratch,
                     BigInt* out) const;

  /// *acc = *acc +h Σ_i (bases[i] ×h exponents[i]): the integer the chain
  /// `ScalarMulInto(bases[i], exponents[i]); AddInto(acc, ·)` leaves, in
  /// one simultaneous (Straus) square-and-multiply of Π c_i^{k_i} mod n² —
  /// one squaring per bit of the widest |k_i|, shared by every base, plus
  /// one multiply per set bit — where the chain pays a full exponentiation
  /// per base. Each base is raised exactly as ScalarMulInto raises it (a
  /// negative k exponentiates c's inverse by |k|; a non-unit c, or a k of n
  /// or more, takes the exponent k mod n) and counts as one scalar mul and
  /// one add. Inverses, reduced exponents and the running product live in
  /// `arena` slots (at most one per base, plus two), so no GMP value is
  /// allocated. The spans have equal lengths; exponents are read in place.
  void ProductOfPowersInto(std::span<const BigInt* const> bases,
                           std::span<const BigInt* const> exponents,
                           BigIntArena* arena, BigInt* acc) const;

  /// Attaches a pool of precomputed r^n mod n² values (nullptr detaches).
  /// The pool must be built for this modulus and must outlive every copy of
  /// the key that carries the attachment (copies share the pointer) — in the
  /// SMC engine the pool is owned by the engine that owns all key copies.
  void AttachRandomizerPool(RandomizerPool* pool) { pool_ = pool; }

  /// Streams per-operation counts (paillier.encryptions /
  /// .homomorphic_adds / .scalar_muls) into `registry`; nullptr detaches.
  /// Counter handles are resolved once here, so the per-op cost with a
  /// registry attached is a single relaxed atomic add — and with none, a
  /// branch. Note keys are value types: re-assigning a key object replaces
  /// its attachment.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  BigInt n_;
  BigInt n2_;
  // Not owned; see AttachRandomizerPool / AttachMetrics for lifetimes.
  RandomizerPool* pool_ = nullptr;
  obs::Counter* encryptions_ = nullptr;
  obs::Counter* adds_ = nullptr;
  obs::Counter* scalar_muls_ = nullptr;
};

/// Paillier private key. Always carries the reference decryption data
/// (lambda = lcm(p-1, q-1), mu = lambda^{-1} mod n, valid for g = n + 1);
/// keys built via FromPrimes additionally keep p and q and decrypt through
/// the standard CRT fast path — two half-width exponentiations mod p² / q²
/// plus a Garner recombination, ~4× faster than the single full-width
/// exponentiation mod n².
class PaillierPrivateKey {
 public:
  PaillierPrivateKey() = default;

  /// Reference-only key (no CRT data); Decrypt uses the lambda/mu path.
  PaillierPrivateKey(BigInt n, BigInt lambda, BigInt mu);

  /// Builds the full key from the prime factorization, precomputing the CRT
  /// constants (p², q², hp, hq, p⁻¹ mod q). Fails when the primes do not
  /// form a valid Paillier modulus (gcd(n, λ) != 1).
  static Result<PaillierPrivateKey> FromPrimes(const BigInt& p,
                                               const BigInt& q);

  /// True when the key can take the CRT fast path.
  bool has_crt() const { return has_crt_; }

  /// Same precondition as PaillierPublicKey::ValidateCiphertext; every
  /// Decrypt* entry point enforces it.
  Status ValidateCiphertext(const BigInt& c) const { return CheckCiphertext(c); }

  /// Decrypts to [0, n); uses CRT when available.
  Result<BigInt> Decrypt(const BigInt& c) const;

  /// Decrypts a ciphertext whose plaintext the caller knows lies below
  /// 2^bits (a packed unit's slots). When bits + 64 <= |p| - 1 this is one
  /// CRT half, m_p = L_p(c^{p-1} mod p²)·h_p mod p, which is m itself for
  /// every m < 2^bits < p: one half-width exponentiation where Decrypt
  /// takes two. Otherwise, and for a key without CRT data, it is Decrypt.
  /// The 64-bit margin keeps damage visible: a damaged ciphertext decrypts
  /// to a near-uniform residue mod p, which lies below 2^bits (and so
  /// passes an exact-width check such as UnpackSlotsInto's) with
  /// probability at most 2^-64. The half path also counts
  /// paillier.narrow_decryptions.
  Result<BigInt> DecryptBelow(const BigInt& c, size_t bits) const;

  /// Decrypts through the reference lambda/mu path regardless of CRT data
  /// (parity testing and before/after benchmarking).
  Result<BigInt> DecryptReference(const BigInt& c) const;

  /// Decrypts and decodes the signed embedding: results in (-n/2, n/2].
  Result<BigInt> DecryptSigned(const BigInt& c) const;

  /// Signed decode through the reference path.
  Result<BigInt> DecryptSignedReference(const BigInt& c) const;

  const BigInt& n() const { return n_; }

  /// Streams paillier.decryptions and paillier.narrow_decryptions into
  /// `registry`; nullptr detaches.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  Result<BigInt> DecryptCrt(const BigInt& c) const;
  Status CheckCiphertext(const BigInt& c) const;
  BigInt DecodeSignedValue(BigInt m) const;

  BigInt n_;
  BigInt n2_;
  BigInt lambda_;
  BigInt mu_;
  // CRT fast-path constants (FromPrimes only).
  bool has_crt_ = false;
  BigInt p_, q_;
  BigInt p2_, q2_;
  BigInt hp_, hq_;      // L_p((n+1)^{p-1} mod p²)^{-1} mod p, resp. mod q
  BigInt p_inv_q_;      // p^{-1} mod q, for the Garner recombination
  obs::Counter* decryptions_ = nullptr;         // not owned
  obs::Counter* narrow_decryptions_ = nullptr;  // not owned
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

/// Generates a key pair with an (approximately) `modulus_bits`-bit modulus
/// n = p·q, p and q random primes of modulus_bits/2 bits. The paper's
/// experiments use 1024-bit keys. The private key keeps p and q, so
/// decryption takes the CRT fast path.
Result<PaillierKeyPair> GeneratePaillierKeyPair(int modulus_bits,
                                                SecureRandom& rng);

/// The widest plaintext, in bits, that PaillierPrivateKey::DecryptBelow
/// decrypts with one CRT half under a key from
/// GeneratePaillierKeyPair(modulus_bits), whose p has modulus_bits/2 bits:
/// |p| - 1 - 64. A function of the key size alone, so a plan can size its
/// units by it before any key exists (smc::PackedGroupPairs).
int NarrowPlaintextBits(int modulus_bits);

/// Pool of precomputed Paillier randomizers r^n mod n² — the expensive
/// full-width exponentiation of every encryption. A background filler thread
/// keeps the pool at its fill target so Encrypt only pays a queue pop on
/// the latency path; when the pool runs dry the caller computes
/// inline (correctness never depends on the filler keeping up). The target
/// starts at `target_depth` and rises to the level the offline phase leaves
/// (Prewarm, AdoptMaterial). The filler runs at SCHED_IDLE priority, so it
/// refills only on otherwise idle cores, and it refills behind a burst of
/// takes rather than during it (once the pool has gone a millisecond
/// without one), so it never competes with the encryptors.
///
/// The pool generates randomizers through a fixed-base comb table
/// (crypto/fixed_base.h; built once per keypair, shared by every comparator
/// worker that encrypts under this key): it fixes h_n = (h² mod n)^n mod n²
/// for a random h ∈ Z*_n and draws r^n = h_n^s for a short random exponent
/// s, so each randomizer costs at most 64 modular products at |s| = 512 (12
/// squarings plus one multiply per comb column) instead of a full-width
/// PowMod. Randomizers never touch plaintexts, so protocol outputs do not
/// depend on them.
///
/// Thread-safe: any number of encryptors may Take() concurrently with the
/// filler. Each value is handed out exactly once, so pool-backed encryption
/// is exactly as probabilistic as the inline path.
class RandomizerPool {
 public:
  /// `pub` must be an initialized key; it is only read during construction
  /// (modulus copied out). `test_seed` != 0 makes the pool deterministic for
  /// tests/benches. The fixed-base table is built on up to `threads`
  /// workers, as Prewarm's exponentiations run; the table does not depend
  /// on `threads`.
  RandomizerPool(const PaillierPublicKey& pub, int target_depth,
                 uint64_t test_seed = 0, int threads = 1);
  ~RandomizerPool();

  RandomizerPool(const RandomizerPool&) = delete;
  RandomizerPool& operator=(const RandomizerPool&) = delete;

  /// Launches the background filler (idempotent).
  void Start();

  /// Stops and joins the filler (idempotent; also run by the destructor).
  void Stop();

  /// The dedicated offline phase: synchronously fills the pool to at least
  /// `count` ready values and raises the fill target to `count`, so the
  /// filler later restores that level, and never goes past it. Returns how
  /// many values this call generated.
  ///
  /// The short exponents are drawn serially from the pool's RNG, in the
  /// order one-at-a-time generation draws them; only the fixed-base
  /// exponentiations run on up to `threads` workers (the calling thread is
  /// one of them), and the results join the pool in draw order. The values,
  /// the RNG state the filler continues from, and so the exported material
  /// are the same at every thread count. A failed exponentiation, which
  /// in-range exponents never cause, returns Internal and adds nothing.
  Result<int> Prewarm(int count, int threads = 1);

  /// Installs persisted offline material (crypto/material.h): enqueues every
  /// stored randomizer, then skips the pool's stream past as many draws. A
  /// bank is saved once, by the offline phase before any take
  /// (RunOfflinePhase), so it holds the first values this pool's stream
  /// yields at the same seed; without the skip a top-up Prewarm, the filler
  /// and inline misses would hand those values out a second time. Must run
  /// before Start. The fill target rises to the resulting depth, so the
  /// filler restores the adopted level. A randomizer outside (0, n²)
  /// returns InvalidArgument and leaves the pool exactly as constructed —
  /// the caller treats that as a cache miss.
  Status AdoptMaterial(const CryptoMaterial& m);

  /// Snapshot of the pool as persistable material: every currently ready
  /// randomizer.
  CryptoMaterial ExportMaterial() const;

  /// Pops one precomputed r^n mod n², or computes one inline when empty.
  BigInt Take();

  int depth() const;
  int64_t hits() const;    ///< Takes served from the pool
  int64_t misses() const;  ///< Takes computed inline
  int64_t adopted() const; ///< randomizers installed from the material store
  const BigInt& n() const { return n_; }  ///< the key's modulus

  /// Streams paillier.randomizer_pool_hits / _misses counters plus the
  /// paillier.randomizer_pool_depth and crypto.pool_hit_rate gauges into
  /// `registry`; nullptr detaches.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  BigInt DrawExponent();  // caller holds rng_mu_
  BigInt ComputeOne();
  void FillLoop();
  void PublishHitRate();  // caller holds mu_

  const BigInt n_;
  const BigInt n2_;

  mutable std::mutex mu_;  // guards target_, ready_, hits_, misses_, stop_,
                           // metric ptrs
  int target_;             // the filler's fill level
  std::condition_variable need_fill_;
  std::deque<BigInt> ready_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t adopted_ = 0;
  bool stop_ = false;
  std::thread filler_;

  std::mutex rng_mu_;  // the rng is shared by the filler, Prewarm and Take
  std::unique_ptr<SecureRandom> rng_;

  // Fixed-base randomizer generation (see class comment). Built in the
  // constructor, const afterwards; short_exp_bits_ is the width of s.
  std::unique_ptr<FixedBaseTable> fixed_base_;
  int short_exp_bits_ = 0;

  obs::Counter* hits_counter_ = nullptr;    // not owned
  obs::Counter* misses_counter_ = nullptr;  // not owned
  obs::Gauge* depth_gauge_ = nullptr;       // not owned
  obs::Gauge* hit_rate_gauge_ = nullptr;    // not owned
};

}  // namespace hprl::crypto

#endif  // HPRL_CRYPTO_PAILLIER_H_
