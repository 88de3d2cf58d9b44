#include "crypto/fixed_base.h"

#include <algorithm>
#include <atomic>
#include <thread>


namespace hprl::crypto {

FixedBaseTable::FixedBaseTable(const BigInt& base, const BigInt& modulus,
                               int max_exp_bits, int window_bits, int threads)
    : modulus_(modulus) {
  if (modulus.Sign() <= 0 || max_exp_bits <= 0 || window_bits <= 0 ||
      window_bits > 16) {
    return;  // leaves the table empty; Pow reports FailedPrecondition
  }
  window_bits_ = window_bits;
  max_exp_bits_ = max_exp_bits;
  const int digits = 1 << window_bits;
  const int num_windows = (max_exp_bits + window_bits - 1) / window_bits;
  // 1. Window i's step base^{2^{w·i}}, serially: w squarings apiece.
  windows_.assign(static_cast<size_t>(num_windows), {});
  BigInt step = base % modulus_;
  for (auto& row : windows_) {
    row.reserve(static_cast<size_t>(digits - 1));
    row.push_back(step);
    for (int b = 0; b < window_bits; ++b) step = (step * step) % modulus_;
  }
  // 2. Each row's powers step^j, j in [2, 2^w), on the workers: rows are
  //    independent, and each worker writes only the rows it claims.
  std::atomic<size_t> cursor{0};
  auto fill = [&] {
    for (size_t i = cursor++; i < windows_.size(); i = cursor++) {
      std::vector<BigInt>& row = windows_[i];
      for (int j = 2; j < digits; ++j) {
        row.push_back((row.back() * row.front()) % modulus_);
      }
    }
  };
  std::vector<std::jthread> spawned;  // joined as the scope exits
  const int workers = std::clamp(threads, 1, num_windows);
  spawned.reserve(static_cast<size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) spawned.emplace_back(fill);
  fill();
}

size_t FixedBaseTable::table_entries() const {
  size_t total = 0;
  for (const auto& row : windows_) total += row.size();
  return total;
}

Result<BigInt> FixedBaseTable::Pow(const BigInt& exp) const {
  if (windows_.empty()) {
    return Status::FailedPrecondition("fixed-base table not initialized");
  }
  if (exp.Sign() < 0) {
    return Status::InvalidArgument("fixed-base exponent must be non-negative");
  }
  if (static_cast<int>(exp.BitLength()) > max_exp_bits_) {
    return Status::InvalidArgument("fixed-base exponent wider than table");
  }
  BigInt result(1);
  const size_t bits = exp.BitLength();
  for (size_t i = 0; i * window_bits_ < bits; ++i) {
    unsigned digit = 0;
    for (int b = window_bits_ - 1; b >= 0; --b) {
      const size_t pos = i * window_bits_ + b;
      digit = (digit << 1) |
              (pos < bits ? mpz_tstbit(exp.raw(), pos) : 0u);
    }
    if (digit != 0) {
      result = (result * windows_[i][digit - 1]) % modulus_;
    }
  }
  return result;
}

}  // namespace hprl::crypto
