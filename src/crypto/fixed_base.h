#ifndef HPRL_CRYPTO_FIXED_BASE_H_
#define HPRL_CRYPTO_FIXED_BASE_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "crypto/bigint.h"

namespace hprl::crypto {

/// Fixed-base windowed exponentiation table: precomputes powers of one base
/// modulo one modulus so that later exponentiations cost one modular multiply
/// per window digit instead of a full square-and-multiply pass.
///
/// The exponent is split into w-bit digits e = Σ d_i · 2^{w·i}; the table
/// stores base^{j · 2^{w·i}} mod m for every window i and digit j ∈ [1, 2^w),
/// so base^e = Π table[i][d_i]. For a b-bit exponent that is ⌈b/w⌉ modular
/// multiplies versus ~1.5·b for plain square-and-multiply — a ~10–15×
/// reduction at w = 6.
///
/// Built once per keypair (the SMC engine shares one table across all
/// comparator workers via the RandomizerPool); const after construction, so
/// concurrent Pow calls are safe.
class FixedBaseTable {
 public:
  FixedBaseTable() = default;

  /// Precomputes the table for exponents of up to `max_exp_bits` bits.
  /// Construction costs ⌈max_exp_bits/w⌉ · (2^w - 1) modular multiplies
  /// (~5k at 512 exponent bits, w = 6) — amortized after a few dozen Pows.
  /// Each window's step base^{2^{w·i}} is computed serially (w squarings
  /// apiece), then the windows' rows fill on up to `threads` workers (the
  /// calling thread is one); every entry is a canonical residue, so the
  /// table does not depend on `threads`.
  FixedBaseTable(const BigInt& base, const BigInt& modulus, int max_exp_bits,
                 int window_bits = 6, int threads = 1);

  bool ready() const { return !windows_.empty(); }
  int max_exp_bits() const { return max_exp_bits_; }
  int window_bits() const { return window_bits_; }
  size_t table_entries() const;

  /// base^exp mod modulus. Fails when exp is negative or wider than the
  /// precomputed max_exp_bits, or when the table is empty.
  Result<BigInt> Pow(const BigInt& exp) const;

 private:
  BigInt modulus_;
  int window_bits_ = 0;
  int max_exp_bits_ = 0;
  // windows_[i][j - 1] = base^{j · 2^{w·i}} mod modulus, j in [1, 2^w).
  std::vector<std::vector<BigInt>> windows_;
};

}  // namespace hprl::crypto

#endif  // HPRL_CRYPTO_FIXED_BASE_H_
