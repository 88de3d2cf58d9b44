#include "crypto/paillier.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "crypto/fixed_base.h"
#include "crypto/material.h"

namespace hprl::crypto {

PaillierPublicKey::PaillierPublicKey(BigInt n)
    : n_(std::move(n)), n2_(n_ * n_) {}

Result<BigInt> PaillierPublicKey::Encrypt(const BigInt& m,
                                          SecureRandom& rng) const {
  if (m.Sign() < 0 || m >= n_) {
    return Status::InvalidArgument("Paillier plaintext out of [0, n)");
  }
  if (encryptions_ != nullptr) encryptions_->Increment();
  // (1 + m*n) * r^n mod n^2 — with a pool attached the r^n factor (the
  // expensive full-width PowMod) was computed ahead of time.
  BigInt rn;
  if (pool_ != nullptr) {
    rn = pool_->Take();
  } else {
    // r uniform in [1, n) with gcd(r, n) = 1 (fails with negligible
    // probability only when r shares a prime factor with n).
    BigInt r;
    do {
      r = rng.NextBelow(n_);
    } while (r.IsZero() || BigInt::Gcd(r, n_) != BigInt(1));
    rn = BigInt::PowMod(r, n_, n2_);
  }
  BigInt gm = (BigInt(1) + m * n_) % n2_;
  return (gm * rn) % n2_;
}

BigInt PaillierPublicKey::EncodeSigned(const BigInt& x) const {
  return x % n_;  // Euclidean remainder maps negatives to n + x
}

Result<BigInt> PaillierPublicKey::EncryptSigned(const BigInt& x,
                                                SecureRandom& rng) const {
  return Encrypt(EncodeSigned(x), rng);
}

Status PaillierPublicKey::ValidateCiphertext(const BigInt& c) const {
  if (n_.IsZero()) {
    return Status::FailedPrecondition("public key not initialized");
  }
  if (c.Sign() <= 0 || c >= n2_) {
    return Status::InvalidArgument("Paillier ciphertext out of (0, n^2)");
  }
  return Status::OK();
}

BigInt PaillierPublicKey::Add(const BigInt& c1, const BigInt& c2) const {
  if (adds_ != nullptr) adds_->Increment();
  return (c1 * c2) % n2_;
}

BigInt PaillierPublicKey::ScalarMul(const BigInt& c, const BigInt& k) const {
  BigInt scratch;
  BigInt out;
  ScalarMulInto(c, k, &scratch, &out);
  return out;
}

Status PaillierPublicKey::EncryptInto(const BigInt& m, SecureRandom& rng,
                                      BigInt* scratch, BigInt* out) const {
  if (m.Sign() < 0 || m >= n_) {
    return Status::InvalidArgument("Paillier plaintext out of [0, n)");
  }
  if (encryptions_ != nullptr) encryptions_->Increment();
  // Randomness first, exactly like Encrypt — the draw order is part of the
  // bit-identical contract at pinned seeds.
  if (pool_ != nullptr) {
    *scratch = pool_->Take();
  } else {
    BigInt r;
    do {
      r = rng.NextBelow(n_);
    } while (r.IsZero() || BigInt::Gcd(r, n_) != BigInt(1));
    mpz_powm(scratch->raw(), r.raw(), n_.raw(), n2_.raw());
  }
  // (1 + m*n) * r^n mod n², computed in *out. mpz ops permit rop == op1, so
  // m may alias *out (EncryptSignedInto relies on it; m is consumed by the
  // first multiply and never read again).
  mpz_mul(out->raw(), m.raw(), n_.raw());
  mpz_add_ui(out->raw(), out->raw(), 1);
  mpz_mod(out->raw(), out->raw(), n2_.raw());
  mpz_mul(out->raw(), out->raw(), scratch->raw());
  mpz_mod(out->raw(), out->raw(), n2_.raw());
  return Status::OK();
}

Status PaillierPublicKey::EncryptSignedInto(const BigInt& x, SecureRandom& rng,
                                            BigInt* scratch,
                                            BigInt* out) const {
  mpz_mod(out->raw(), x.raw(), n_.raw());  // EncodeSigned, in place
  return EncryptInto(*out, rng, scratch, out);
}

void PaillierPublicKey::AddInto(BigInt* acc, const BigInt& c) const {
  if (adds_ != nullptr) adds_->Increment();
  mpz_mul(acc->raw(), acc->raw(), c.raw());
  mpz_mod(acc->raw(), acc->raw(), n2_.raw());
}

void PaillierPublicKey::ScalarMulInto(const BigInt& c, const BigInt& k,
                                      BigInt* scratch, BigInt* out) const {
  if (scalar_muls_ != nullptr) scalar_muls_->Increment();
  // A negative k is an exponent of |k|'s width on c's inverse, not the
  // full-width n - |k|: Enc(m)^k = Enc(k·m mod n) either way. Every valid
  // ciphertext is a unit mod n²; one that is not takes the n - |k| path.
  if (k.Sign() < 0 && mpz_invert(scratch->raw(), c.raw(), n2_.raw()) != 0) {
    if (mpz_sizeinbase(k.raw(), 2) <=
        std::numeric_limits<unsigned long>::digits) {
      // mpz_get_ui returns |k|.
      mpz_powm_ui(out->raw(), scratch->raw(), mpz_get_ui(k.raw()), n2_.raw());
    } else {
      mpz_powm(out->raw(), c.raw(), k.raw(), n2_.raw());  // inverts c itself
    }
    return;
  }
  mpz_mod(scratch->raw(), k.raw(), n_.raw());
  mpz_powm(out->raw(), c.raw(), scratch->raw(), n2_.raw());
}

void PaillierPublicKey::ProductOfPowersInto(
    std::span<const BigInt* const> bases,
    std::span<const BigInt* const> exponents,
    BigIntArena* arena, BigInt* acc) const {
  HPRL_CHECK(bases.size() == exponents.size());
  if (bases.empty()) return;
  const auto count = static_cast<int64_t>(bases.size());
  if (scalar_muls_ != nullptr) scalar_muls_->Increment(count);
  if (adds_ != nullptr) adds_->Increment(count);
  BigInt& product = arena->Next();
  BigInt& wide = arena->Next();  // each double-width product before reducing
  auto mul_mod = [&](BigInt* x, mpz_srcptr y) {
    mpz_mul(wide.raw(), x->raw(), y);
    mpz_mod(x->raw(), wide.raw(), n2_.raw());
  };
  // Bases go through the chain in stack-sized runs; each run's product
  // joins *acc, which is exact mod n² however the bases are split.
  constexpr size_t kRun = 128;
  for (size_t begin = 0; begin < bases.size(); begin += kRun) {
    const size_t run = std::min(kRun, bases.size() - begin);
    // What ScalarMulInto raises to what: base b[i] and exponent e[i] >= 0,
    // whose bits are read straight from its limbs.
    mpz_srcptr b[kRun] = {};
    const mp_limb_t* limbs[kRun] = {};
    size_t limb_count[kRun] = {};
    size_t width = 0;
    for (size_t i = 0; i < run; ++i) {
      const BigInt& c = *bases[begin + i];
      const BigInt& k = *exponents[begin + i];
      b[i] = c.raw();
      mpz_srcptr e = k.raw();  // |k|: mpz keeps sign and magnitude apart
      if (k.Sign() < 0 || k >= n_) {
        BigInt& slot = arena->Next();
        if (k.Sign() < 0 &&
            mpz_invert(slot.raw(), c.raw(), n2_.raw()) != 0) {
          b[i] = slot.raw();
        } else {
          mpz_mod(slot.raw(), k.raw(), n_.raw());
          e = slot.raw();
        }
      }
      limbs[i] = mpz_limbs_read(e);
      limb_count[i] = mpz_size(e);
      if (limb_count[i] > 0) width = std::max(width, mpz_sizeinbase(e, 2));
    }
    bool started = false;  // product still holds the empty product 1
    for (size_t bit = width; bit-- > 0;) {
      if (started) mul_mod(&product, product.raw());
      const size_t limb = bit / GMP_NUMB_BITS;
      const mp_limb_t mask = mp_limb_t{1} << (bit % GMP_NUMB_BITS);
      for (size_t i = 0; i < run; ++i) {
        if (limb >= limb_count[i] || (limbs[i][limb] & mask) == 0) continue;
        if (started) {
          mul_mod(&product, b[i]);
        } else {
          mpz_mod(product.raw(), b[i], n2_.raw());
          started = true;
        }
      }
    }
    // Every term of an all-zero run is 1; the chain still reduces *acc.
    if (started) {
      mul_mod(acc, product.raw());
    } else {
      mpz_mod(acc->raw(), acc->raw(), n2_.raw());
    }
  }
}

void PaillierPublicKey::AttachMetrics(obs::MetricsRegistry* registry) {
  encryptions_ = registry ? registry->counter("paillier.encryptions") : nullptr;
  adds_ = registry ? registry->counter("paillier.homomorphic_adds") : nullptr;
  scalar_muls_ = registry ? registry->counter("paillier.scalar_muls") : nullptr;
}

PaillierPrivateKey::PaillierPrivateKey(BigInt n, BigInt lambda, BigInt mu)
    : n_(std::move(n)),
      n2_(n_ * n_),
      lambda_(std::move(lambda)),
      mu_(std::move(mu)) {}

namespace {
// L_p(x) = (x - 1) / p, the CRT analogue of Paillier's L function.
BigInt LFunction(const BigInt& x, const BigInt& p) {
  return (x - BigInt(1)) / p;
}

// One CRT half of a decryption: m mod p = L_p(c^{p-1} mod p²) · h_p mod p.
BigInt CrtHalf(const BigInt& c, const BigInt& p, const BigInt& p2,
               const BigInt& h) {
  return (LFunction(BigInt::PowMod(c, p - BigInt(1), p2), p) * h) % p;
}

// Bits between a narrow plaintext's width and |p| - 1 that DecryptBelow
// requires: a damaged ciphertext's residue mod p lands below 2^bits with
// probability at most 2^-64.
constexpr size_t kNarrowMarginBits = 64;
}  // namespace

Result<PaillierPrivateKey> PaillierPrivateKey::FromPrimes(const BigInt& p,
                                                          const BigInt& q) {
  if (p.Sign() <= 0 || q.Sign() <= 0 || p == q) {
    return Status::InvalidArgument("Paillier primes must be distinct and > 0");
  }
  BigInt n = p * q;
  BigInt p1 = p - BigInt(1);
  BigInt q1 = q - BigInt(1);
  if (BigInt::Gcd(n, p1 * q1) != BigInt(1)) {
    return Status::InvalidArgument("gcd(n, phi(n)) != 1");
  }
  BigInt lambda = BigInt::Lcm(p1, q1);
  auto mu = BigInt::ModInverse(lambda, n);
  if (!mu.ok()) return mu.status();

  PaillierPrivateKey key(n, std::move(lambda), std::move(mu).value());
  key.p_ = p;
  key.q_ = q;
  key.p2_ = p * p;
  key.q2_ = q * q;
  // With g = n + 1: (n+1)^{p-1} mod p² = 1 + (p-1)·n mod p², so
  // L_p of it is (p-1)·q mod p — invertible because gcd(p, q) = 1.
  BigInt g = n + BigInt(1);
  auto hp = BigInt::ModInverse(LFunction(BigInt::PowMod(g, p1, key.p2_), p), p);
  if (!hp.ok()) return hp.status();
  auto hq = BigInt::ModInverse(LFunction(BigInt::PowMod(g, q1, key.q2_), q), q);
  if (!hq.ok()) return hq.status();
  auto p_inv_q = BigInt::ModInverse(p, q);
  if (!p_inv_q.ok()) return p_inv_q.status();
  key.hp_ = std::move(hp).value();
  key.hq_ = std::move(hq).value();
  key.p_inv_q_ = std::move(p_inv_q).value();
  key.has_crt_ = true;
  return key;
}

Status PaillierPrivateKey::CheckCiphertext(const BigInt& c) const {
  if (c.Sign() <= 0 || c >= n2_) {
    return Status::InvalidArgument("Paillier ciphertext out of (0, n^2)");
  }
  return Status::OK();
}

Result<BigInt> PaillierPrivateKey::Decrypt(const BigInt& c) const {
  if (has_crt_) return DecryptCrt(c);
  return DecryptReference(c);
}

Result<BigInt> PaillierPrivateKey::DecryptReference(const BigInt& c) const {
  HPRL_RETURN_IF_ERROR(CheckCiphertext(c));
  if (decryptions_ != nullptr) decryptions_->Increment();
  // m = L(c^lambda mod n^2) * mu mod n, with L(x) = (x - 1) / n.
  BigInt u = BigInt::PowMod(c, lambda_, n2_);
  BigInt l = (u - BigInt(1)) / n_;
  return (l * mu_) % n_;
}

Result<BigInt> PaillierPrivateKey::DecryptCrt(const BigInt& c) const {
  HPRL_RETURN_IF_ERROR(CheckCiphertext(c));
  if (decryptions_ != nullptr) decryptions_->Increment();
  // Two half-width exponentiations (exponents p-1 / q-1, moduli p² / q²)
  // instead of one full-width c^lambda mod n², then Garner recombination:
  //   m = m_p + p · ((m_q - m_p) · p⁻¹ mod q)
  BigInt mp = CrtHalf(c, p_, p2_, hp_);
  BigInt mq = CrtHalf(c, q_, q2_, hq_);
  BigInt t = ((mq - mp) * p_inv_q_) % q_;  // Euclidean % keeps t in [0, q)
  return mp + p_ * t;
}

Result<BigInt> PaillierPrivateKey::DecryptBelow(const BigInt& c,
                                                size_t bits) const {
  if (!has_crt_ || bits + kNarrowMarginBits + 1 > p_.BitLength()) {
    return Decrypt(c);
  }
  HPRL_RETURN_IF_ERROR(CheckCiphertext(c));
  if (decryptions_ != nullptr) decryptions_->Increment();
  if (narrow_decryptions_ != nullptr) narrow_decryptions_->Increment();
  return CrtHalf(c, p_, p2_, hp_);  // m mod p = m, as m < 2^bits < p
}

void PaillierPrivateKey::AttachMetrics(obs::MetricsRegistry* registry) {
  decryptions_ = registry ? registry->counter("paillier.decryptions") : nullptr;
  narrow_decryptions_ =
      registry ? registry->counter("paillier.narrow_decryptions") : nullptr;
}

BigInt PaillierPrivateKey::DecodeSignedValue(BigInt m) const {
  BigInt half = n_ / BigInt(2);
  if (m > half) return m - n_;
  return m;
}

Result<BigInt> PaillierPrivateKey::DecryptSigned(const BigInt& c) const {
  auto m = Decrypt(c);
  if (!m.ok()) return m.status();
  return DecodeSignedValue(std::move(m).value());
}

Result<BigInt> PaillierPrivateKey::DecryptSignedReference(
    const BigInt& c) const {
  auto m = DecryptReference(c);
  if (!m.ok()) return m.status();
  return DecodeSignedValue(std::move(m).value());
}

Result<PaillierKeyPair> GeneratePaillierKeyPair(int modulus_bits,
                                                SecureRandom& rng) {
  if (modulus_bits < 64) {
    return Status::InvalidArgument("modulus too small (need >= 64 bits)");
  }
  int half = modulus_bits / 2;
  for (int attempt = 0; attempt < 128; ++attempt) {
    BigInt p = rng.NextPrime(half);
    BigInt q = rng.NextPrime(modulus_bits - half);
    if (p == q) continue;
    auto priv = PaillierPrivateKey::FromPrimes(p, q);
    if (!priv.ok()) continue;
    PaillierKeyPair kp;
    kp.pub = PaillierPublicKey(priv->n());
    kp.priv = std::move(priv).value();
    return kp;
  }
  return Status::Internal("Paillier key generation failed repeatedly");
}

int NarrowPlaintextBits(int modulus_bits) {
  return modulus_bits / 2 - 1 - static_cast<int>(kNarrowMarginBits);
}

RandomizerPool::RandomizerPool(const PaillierPublicKey& pub, int target_depth,
                               uint64_t test_seed, int threads)
    : n_(pub.n()),
      n2_(pub.n_squared()),
      target_(std::max(1, target_depth)),
      rng_(test_seed != 0 ? std::make_unique<SecureRandom>(test_seed)
                          : std::make_unique<SecureRandom>()) {
  HPRL_CHECK(n_.Sign() > 0);
  // Fix h_n = (h² mod n)^n mod n² once (h random coprime to n; the squaring
  // lands h² in the quadratic residues, the standard subgroup choice for
  // short-exponent randomizers) and later draw r^n = h_n^s with s of
  // modulus_bits/2 bits through the fixed-base comb.
  BigInt h;
  do {
    h = rng_->NextBelow(n_);
  } while (h.IsZero() || BigInt::Gcd(h, n_) != BigInt(1));
  BigInt hn = BigInt::PowMod((h * h) % n_, n_, n2_);
  short_exp_bits_ = std::max(128, static_cast<int>(n_.BitLength()) / 2);
  fixed_base_ =
      std::make_unique<FixedBaseTable>(hn, n2_, short_exp_bits_, threads);
}

RandomizerPool::~RandomizerPool() { Stop(); }

void RandomizerPool::Start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (filler_.joinable()) return;
  stop_ = false;
  filler_ = std::thread(&RandomizerPool::FillLoop, this);
}

void RandomizerPool::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    to_join = std::move(filler_);
  }
  need_fill_.notify_all();
  if (to_join.joinable()) to_join.join();
}

BigInt RandomizerPool::DrawExponent() {
  BigInt s;
  do {
    s = rng_->NextBits(short_exp_bits_);
  } while (s.IsZero());
  return s;
}

BigInt RandomizerPool::ComputeOne() {
  BigInt s;
  {
    std::lock_guard<std::mutex> lk(rng_mu_);
    s = DrawExponent();
  }
  auto rn = fixed_base_->Pow(s);
  HPRL_CHECK(rn.ok());  // s is drawn in range, so the table always covers it
  return std::move(rn).value();
}

Result<int> RandomizerPool::Prewarm(int count, int threads) {
  int need = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    need = count - static_cast<int>(ready_.size());
    if (need <= 0) target_ = std::max(target_, count);
  }
  if (need <= 0) return 0;

  // 1. Every short exponent, serially, in the order one-at-a-time
  //    generation draws them: the sequence and the RNG state the filler
  //    continues from do not depend on `threads`.
  std::vector<BigInt> values(static_cast<size_t>(need));
  {
    std::lock_guard<std::mutex> lk(rng_mu_);
    for (BigInt& s : values) s = DrawExponent();
  }

  // 2. The exponentiations, each worker overwriting the exponents it claims
  //    with their randomizers. The table is const, so workers share it.
  const int workers = std::clamp(threads, 1, need);
  std::atomic<size_t> cursor{0};
  std::atomic<bool> failed{false};
  auto drain = [&] {
    for (size_t i = cursor++; i < values.size(); i = cursor++) {
      auto rn = fixed_base_->Pow(values[i]);
      if (!rn.ok()) {
        failed = true;
        return;
      }
      values[i] = std::move(rn).value();
    }
  };
  {
    std::vector<std::jthread> spawned;  // joined as the scope exits
    spawned.reserve(static_cast<size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) spawned.emplace_back(drain);
    drain();
  }
  // A fresh draw here would shift every later randomizer, so a failure is
  // reported rather than papered over. In-range exponents never fail.
  if (failed) return Status::Internal("prewarm exponentiation failed");

  // 3. Into the pool in draw order. Only now does the target rise: a filler
  //    already running must not race this call toward the same level.
  std::lock_guard<std::mutex> lk(mu_);
  for (BigInt& rn : values) ready_.push_back(std::move(rn));
  target_ = std::max(target_, count);
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<double>(ready_.size()));
  }
  return need;
}

Status RandomizerPool::AdoptMaterial(const CryptoMaterial& m) {
  // Validate every randomizer before touching pool state so a bad entry
  // can never leave a half-adopted pool behind.
  for (const BigInt& r : m.randomizers) {
    if (r.Sign() <= 0 || !(r < n2_)) {
      return Status::InvalidArgument("material randomizer out of (0, n^2)");
    }
  }
  std::scoped_lock lk(mu_, rng_mu_);
  if (filler_.joinable()) {
    return Status::FailedPrecondition("AdoptMaterial must run before Start");
  }
  for (const BigInt& r : m.randomizers) ready_.push_back(r);
  // The bank came from this stream's first positions: skip them, so every
  // value generated from here on is one the bank does not hold.
  for (size_t i = 0; i < m.randomizers.size(); ++i) DrawExponent();
  adopted_ += static_cast<int64_t>(m.randomizers.size());
  target_ = std::max(target_, static_cast<int>(ready_.size()));
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<double>(ready_.size()));
  }
  return Status::OK();
}

CryptoMaterial RandomizerPool::ExportMaterial() const {
  CryptoMaterial m;
  m.fingerprint = KeyFingerprint(n_);
  m.modulus_bits = static_cast<uint32_t>(n_.BitLength());
  std::lock_guard<std::mutex> lk(mu_);
  m.randomizers.assign(ready_.begin(), ready_.end());
  return m;
}

BigInt RandomizerPool::Take() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!ready_.empty()) {
      BigInt rn = std::move(ready_.front());
      ready_.pop_front();
      ++hits_;
      if (hits_counter_ != nullptr) hits_counter_->Increment();
      if (depth_gauge_ != nullptr) {
        depth_gauge_->Set(static_cast<double>(ready_.size()));
      }
      PublishHitRate();
      need_fill_.notify_one();
      return rn;
    }
    ++misses_;
    if (misses_counter_ != nullptr) misses_counter_->Increment();
    PublishHitRate();
  }
  return ComputeOne();  // pool ran dry — fall back to the inline path
}

void RandomizerPool::PublishHitRate() {
  if (hit_rate_gauge_ == nullptr) return;
  const int64_t takes = hits_ + misses_;
  if (takes > 0) {
    hit_rate_gauge_->Set(static_cast<double>(hits_) /
                         static_cast<double>(takes));
  }
}

void RandomizerPool::FillLoop() {
  // Refill only on cores nothing else wants: the encryptors, and every other
  // thread of the process, always run first. Best effort — lowering one's
  // own priority needs no privilege, and a refused request only costs the
  // filler its politeness.
  sched_param idle{};
  (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
  // An idle core still shares the host's memory and, on a VM, its physical
  // CPUs with the encryptors, so the filler also refills behind a burst of
  // takes rather than during it: after a take it waits until the pool has
  // gone kQuietPeriod without one.
  constexpr auto kQuietPeriod = std::chrono::milliseconds(1);
  std::unique_lock<std::mutex> lk(mu_);
  int64_t seen_takes = hits_ + misses_;
  while (true) {
    need_fill_.wait(lk, [this] {
      return stop_ || static_cast<int>(ready_.size()) < target_;
    });
    while (!stop_ && hits_ + misses_ != seen_takes) {
      seen_takes = hits_ + misses_;
      need_fill_.wait_for(lk, kQuietPeriod, [&] {
        return stop_ || hits_ + misses_ != seen_takes;
      });
    }
    if (stop_) return;
    lk.unlock();
    BigInt rn = ComputeOne();
    lk.lock();
    ready_.push_back(std::move(rn));
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<double>(ready_.size()));
    }
  }
}

int RandomizerPool::depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(ready_.size());
}

int64_t RandomizerPool::hits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hits_;
}

int64_t RandomizerPool::misses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return misses_;
}

int64_t RandomizerPool::adopted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return adopted_;
}

void RandomizerPool::AttachMetrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lk(mu_);
  hits_counter_ =
      registry ? registry->counter("paillier.randomizer_pool_hits") : nullptr;
  misses_counter_ =
      registry ? registry->counter("paillier.randomizer_pool_misses") : nullptr;
  depth_gauge_ =
      registry ? registry->gauge("paillier.randomizer_pool_depth") : nullptr;
  hit_rate_gauge_ =
      registry ? registry->gauge("crypto.pool_hit_rate") : nullptr;
  PublishHitRate();
}

}  // namespace hprl::crypto
