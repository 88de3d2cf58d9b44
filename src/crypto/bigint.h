#ifndef HPRL_CRYPTO_BIGINT_H_
#define HPRL_CRYPTO_BIGINT_H_

#include <gmp.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace hprl::crypto {

/// RAII value wrapper around GMP's mpz_t with the operations the Paillier
/// layer needs. Copyable and movable; never throws — fallible operations
/// return Result.
class BigInt {
 public:
  BigInt() { mpz_init(z_); }
  /// Explicit: an implicit int64 conversion silently heap-allocates a fresh
  /// mpz at every literal-argument call site — exactly the temporaries the
  /// arena audit exists to surface.
  explicit BigInt(int64_t v) { mpz_init_set_si(z_, v); }
  BigInt(const BigInt& o) { mpz_init_set(z_, o.z_); }
  BigInt(BigInt&& o) noexcept {
    mpz_init(z_);
    mpz_swap(z_, o.z_);
  }
  BigInt& operator=(const BigInt& o) {
    if (this != &o) mpz_set(z_, o.z_);
    return *this;
  }
  BigInt& operator=(BigInt&& o) noexcept {
    if (this != &o) mpz_swap(z_, o.z_);
    return *this;
  }
  ~BigInt() { mpz_clear(z_); }

  /// Parses base-10 (or the given base) digits.
  static Result<BigInt> FromString(const std::string& s, int base = 10);

  /// Big-endian magnitude bytes (two's complement is not used; sign must be
  /// tracked separately — ciphertexts and moduli are non-negative).
  static BigInt FromBytes(const std::vector<uint8_t>& bytes);
  std::vector<uint8_t> ToBytes() const;

  std::string ToString(int base = 10) const;
  Result<int64_t> ToInt64() const;

  /// Widens the backing limb allocation to hold `bits` (value preserved).
  /// BigIntArena bulk-reserves freshly initialized slots at the width of the
  /// largest intermediate so in-place mpz ops never touch the allocator.
  void Reserve(size_t bits) {
    mpz_realloc2(z_, static_cast<mp_bitcnt_t>(bits));
  }

  size_t BitLength() const { return mpz_sizeinbase(z_, 2); }
  int Sign() const { return mpz_sgn(z_); }
  bool IsZero() const { return mpz_sgn(z_) == 0; }

  // Arithmetic (value semantics).
  friend BigInt operator+(const BigInt& a, const BigInt& b) {
    BigInt r;
    mpz_add(r.z_, a.z_, b.z_);
    return r;
  }
  friend BigInt operator-(const BigInt& a, const BigInt& b) {
    BigInt r;
    mpz_sub(r.z_, a.z_, b.z_);
    return r;
  }
  friend BigInt operator*(const BigInt& a, const BigInt& b) {
    BigInt r;
    mpz_mul(r.z_, a.z_, b.z_);
    return r;
  }
  /// Truncated division (C semantics).
  friend BigInt operator/(const BigInt& a, const BigInt& b) {
    BigInt r;
    mpz_tdiv_q(r.z_, a.z_, b.z_);
    return r;
  }
  /// Euclidean (always non-negative) remainder.
  friend BigInt operator%(const BigInt& a, const BigInt& b) {
    BigInt r;
    mpz_mod(r.z_, a.z_, b.z_);
    return r;
  }
  BigInt operator-() const {
    BigInt r;
    mpz_neg(r.z_, z_);
    return r;
  }

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return mpz_cmp(a.z_, b.z_) == 0;
  }
  friend bool operator!=(const BigInt& a, const BigInt& b) {
    return mpz_cmp(a.z_, b.z_) != 0;
  }
  friend bool operator<(const BigInt& a, const BigInt& b) {
    return mpz_cmp(a.z_, b.z_) < 0;
  }
  friend bool operator<=(const BigInt& a, const BigInt& b) {
    return mpz_cmp(a.z_, b.z_) <= 0;
  }
  friend bool operator>(const BigInt& a, const BigInt& b) {
    return mpz_cmp(a.z_, b.z_) > 0;
  }
  friend bool operator>=(const BigInt& a, const BigInt& b) {
    return mpz_cmp(a.z_, b.z_) >= 0;
  }

  /// (base ^ exp) mod mod; exp must be non-negative, mod positive.
  static BigInt PowMod(const BigInt& base, const BigInt& exp,
                       const BigInt& mod);

  /// Modular inverse; fails when gcd(a, mod) != 1.
  static Result<BigInt> ModInverse(const BigInt& a, const BigInt& mod);

  static BigInt Gcd(const BigInt& a, const BigInt& b);
  static BigInt Lcm(const BigInt& a, const BigInt& b);

  /// Miller-Rabin with `reps` rounds (GMP's mpz_probab_prime_p).
  bool IsProbablePrime(int reps = 30) const;

  /// Next prime greater than *this.
  BigInt NextPrime() const;

  /// Direct access for helpers inside the crypto library.
  const mpz_t& raw() const { return z_; }
  mpz_t& raw() { return z_; }

 private:
  mpz_t z_;
};

}  // namespace hprl::crypto

#endif  // HPRL_CRYPTO_BIGINT_H_
