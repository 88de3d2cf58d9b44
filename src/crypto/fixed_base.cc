#include "crypto/fixed_base.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>

namespace hprl::crypto {
namespace {

// At 512 exponent bits, 10 rows and 4 blocks make 4 tables of 1023 entries
// (1.05 MB at Paillier-1024's n²) and at most 64 products per Pow; each
// further row would double the table for ~6 fewer products.
constexpr int kCombRows = 10;
constexpr int kCombBlocks = 4;

// out = x · y mod m through the caller's scratch product, so a Pow or a
// table fill allocates nothing per product; out keeps m's width.
void MulMod(const mpz_t x, const mpz_t y, const mpz_t m, mpz_t product,
            mpz_t out) {
  mpz_mul(product, x, y);
  mpz_mod(out, product, m);
}

CombShape ShapeFor(int max_exp_bits) {
  CombShape s;
  s.rows = std::min(kCombRows, max_exp_bits);
  s.row_bits = (max_exp_bits + s.rows - 1) / s.rows;
  const int blocks = std::min(kCombBlocks, s.row_bits);
  s.block_bits = (s.row_bits + blocks - 1) / blocks;
  s.blocks = (s.row_bits + s.block_bits - 1) / s.block_bits;
  return s;
}

}  // namespace

FixedBaseTable::FixedBaseTable(const BigInt& base, const BigInt& modulus,
                               int max_exp_bits, int threads)
    : modulus_(modulus) {
  if (modulus.Sign() <= 0 || max_exp_bits <= 0) {
    return;  // leaves the table empty; Pow reports FailedPrecondition
  }
  max_exp_bits_ = max_exp_bits;
  shape_ = ShapeFor(max_exp_bits);
  const int h = shape_.rows, a = shape_.row_bits, v = shape_.blocks,
            b = shape_.block_bits;
  const size_t stride = (size_t{1} << h) - 1;
  table_.resize(static_cast<size_t>(v) * stride);
  const size_t product_bits = 2 * modulus_.BitLength() + 64;

  // 1. The single-bit entries G[j][2^i] = base^{2^{i·a + j·b}}, serially:
  //    one squaring chain visits each position i·a + j·b in turn (j·b < a,
  //    so the positions rise with (i, j)).
  {
    BigInt x = base % modulus_, product;
    product.Reserve(product_bits);
    int pos = 0;
    for (int i = 0; i < h; ++i) {
      for (int j = 0; j < v; ++j) {
        for (; pos < i * a + j * b; ++pos) {
          MulMod(x.raw(), x.raw(), modulus_.raw(), product.raw(), x.raw());
        }
        table_[static_cast<size_t>(j) * stride + (size_t{1} << i) - 1] = x;
      }
    }
  }

  // 2. Each block's other entries on the workers, in rising u: G[j][u] is
  //    G[j][u without its lowest bit] times G[j][lowest bit of u], both
  //    already filled. Blocks are independent, and each worker writes only
  //    the blocks it claims.
  std::atomic<int> cursor{0};
  auto fill = [&] {
    BigInt product;
    product.Reserve(product_bits);
    for (int j = cursor++; j < v; j = cursor++) {
      BigInt* row = &table_[static_cast<size_t>(j) * stride];  // G[j][u + 1]
      for (size_t u = 3; u <= stride; ++u) {
        const size_t low = u & (~u + 1);
        if (low == u) continue;  // a single-bit entry, from the chain
        MulMod(row[u - low - 1].raw(), row[low - 1].raw(), modulus_.raw(),
               product.raw(), row[u - 1].raw());
      }
    }
  };
  std::vector<std::jthread> spawned;  // joined as the scope exits
  const int workers = std::clamp(threads, 1, v);
  spawned.reserve(static_cast<size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) spawned.emplace_back(fill);
  fill();
}

Result<BigInt> FixedBaseTable::Pow(const BigInt& exp) const {
  if (table_.empty()) {
    return Status::FailedPrecondition("fixed-base table not initialized");
  }
  if (exp.Sign() < 0) {
    return Status::InvalidArgument("fixed-base exponent must be non-negative");
  }
  if (static_cast<int>(exp.BitLength()) > max_exp_bits_) {
    return Status::InvalidArgument("fixed-base exponent wider than table");
  }
  const int a = shape_.row_bits, v = shape_.blocks, b = shape_.block_bits;
  const size_t stride = (size_t{1} << shape_.rows) - 1;
  // column[j·b + k] = the table index of bit k of block j: its bit i is
  // exponent bit i·a + j·b + k. A short last block's columns past a stay 0.
  std::vector<uint16_t> column(static_cast<size_t>(v * b), 0);
  constexpr mp_bitcnt_t kNone = ~mp_bitcnt_t{0};
  for (mp_bitcnt_t pos = mpz_scan1(exp.raw(), 0); pos != kNone;
       pos = mpz_scan1(exp.raw(), pos + 1)) {
    column[pos % a] |= static_cast<uint16_t>(1u << (pos / a));
  }

  BigInt result, product;
  result.Reserve(modulus_.BitLength());
  product.Reserve(2 * modulus_.BitLength() + 64);
  bool one = true;  // result is still 1: nothing to square or multiply
  for (int k = b - 1; k >= 0; --k) {
    if (!one) {
      MulMod(result.raw(), result.raw(), modulus_.raw(), product.raw(),
             result.raw());
    }
    for (int j = 0; j < v; ++j) {
      const uint16_t u = column[static_cast<size_t>(j * b + k)];
      if (u == 0) continue;
      const BigInt& g = table_[static_cast<size_t>(j) * stride + u - 1];
      if (one) {
        result = g;
        one = false;
      } else {
        MulMod(result.raw(), g.raw(), modulus_.raw(), product.raw(),
               result.raw());
      }
    }
  }
  if (one) return BigInt(1);
  return result;
}

}  // namespace hprl::crypto
