#ifndef HPRL_CRYPTO_FIXED_BASE_H_
#define HPRL_CRYPTO_FIXED_BASE_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "crypto/bigint.h"

namespace hprl::crypto {

/// The shape of a Lim–Lee comb over exponents of up to max_exp_bits bits,
/// a constant of that width: the exponent is cut into h = min(10,
/// max_exp_bits) rows of a bits each, and each row into v ≤ 4 blocks of b
/// bits (the last block of a row may be short). At 512 exponent bits: 10
/// rows of 52 bits, 4 blocks of 13.
struct CombShape {
  int rows = 0;        ///< h: one bit of every table index per row
  int row_bits = 0;    ///< a = ⌈max_exp_bits / h⌉
  int blocks = 0;      ///< v: one table of 2^h - 1 entries per block
  int block_bits = 0;  ///< b = ⌈a / v⌉: the squarings of a Pow, plus one

  /// Products mod the modulus one Pow costs at most: b - 1 squarings plus
  /// one multiply per comb column, a in all (64 at 512 bits).
  int max_products() const { return block_bits - 1 + row_bits; }
};

/// Fixed-base comb exponentiation (Lim & Lee, CRYPTO '94): precomputes
/// products of powers of one base modulo one modulus so that a later
/// exponentiation costs b - 1 squarings and at most a multiplies
/// (CombShape) instead of a full square-and-multiply pass.
///
/// Bit k of block j of row i sits at exponent bit i·a + j·b + k. The table
/// stores G[j][u] = Π_{i ∈ bits(u)} base^{2^{i·a + j·b}} mod m for every
/// block j and every nonzero h-bit index u, so base^e is
/// Π_{k = b-1..0} (Π_j G[j][u_{j,k}])^{2^k}, where u_{j,k} gathers bit k of
/// block j from every row. At 512 exponent bits that is at most 64 products
/// against ~768 for plain square-and-multiply, from 4 × 1023 entries
/// (1.05 MB at Paillier-1024's n²).
///
/// Built once per keypair (the SMC engine shares one table across all
/// comparator workers via the RandomizerPool); const after construction, so
/// concurrent Pow calls are safe.
class FixedBaseTable {
 public:
  FixedBaseTable() = default;

  /// Precomputes the table for exponents of up to `max_exp_bits` bits.
  /// One serial chain of (h-1)·a + (v-1)·b squarings (507 at 512 bits)
  /// gives the h·v single-bit entries base^{2^{i·a + j·b}}; the v blocks'
  /// tables then fill on up to `threads` workers (the calling thread is
  /// one), one multiply per remaining entry. Every entry is a canonical
  /// residue, so the table does not depend on `threads`.
  FixedBaseTable(const BigInt& base, const BigInt& modulus, int max_exp_bits,
                 int threads = 1);

  bool ready() const { return !table_.empty(); }
  int max_exp_bits() const { return max_exp_bits_; }
  const CombShape& shape() const { return shape_; }
  size_t table_entries() const { return table_.size(); }

  /// base^exp mod modulus. Fails when exp is negative or wider than the
  /// precomputed max_exp_bits, or when the table is empty.
  Result<BigInt> Pow(const BigInt& exp) const;

 private:
  BigInt modulus_;
  int max_exp_bits_ = 0;
  CombShape shape_;
  // table_[j · (2^h - 1) + u - 1] = G[j][u], u in [1, 2^h).
  std::vector<BigInt> table_;
};

}  // namespace hprl::crypto

#endif  // HPRL_CRYPTO_FIXED_BASE_H_
