#include "crypto/fixed_base.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "common/durable_file.h"

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

std::vector<uint8_t> FixedBaseTable::Serialize() const {
  ByteWriter out;
  out.U32(static_cast<uint32_t>(window_bits_));
  out.U32(static_cast<uint32_t>(max_exp_bits_));
  out.U32(static_cast<uint32_t>(windows_.size()));
  for (const auto& row : windows_) {
    out.U32(static_cast<uint32_t>(row.size()));
    for (const BigInt& entry : row) {
      std::vector<uint8_t> bytes = entry.ToBytes();
      out.Blob(bytes.data(), bytes.size());
    }
  }
  return std::move(out).Take();
}

Result<FixedBaseTable> FixedBaseTable::Deserialize(
    const std::vector<uint8_t>& blob, const BigInt& modulus) {
  auto bad = [](const char* what) {
    return Status::InvalidArgument(std::string("fixed-base table blob: ") +
                                   what);
  };
  if (modulus.Sign() <= 0) return bad("modulus must be positive");
  ByteReader in(blob);
  uint32_t window_bits = 0, max_exp_bits = 0, num_windows = 0;
  if (!in.U32(&window_bits) || !in.U32(&max_exp_bits) ||
      !in.U32(&num_windows)) {
    return bad("truncated header");
  }
  if (window_bits == 0 || window_bits > 16 || max_exp_bits == 0 ||
      max_exp_bits > 1u << 20) {
    return bad("window parameters out of range");
  }
  const uint32_t expect_windows =
      (max_exp_bits + window_bits - 1) / window_bits;
  const uint32_t expect_row = (1u << window_bits) - 1;
  if (num_windows != expect_windows) {
    return bad("window count disagrees with exponent width");
  }
  const uint32_t entry_cap =
      static_cast<uint32_t>(modulus.ToBytes().size() + 8);
  FixedBaseTable table;
  table.modulus_ = modulus;
  table.window_bits_ = static_cast<int>(window_bits);
  table.max_exp_bits_ = static_cast<int>(max_exp_bits);
  table.windows_.reserve(num_windows);
  for (uint32_t i = 0; i < num_windows; ++i) {
    uint32_t row_len = 0;
    if (!in.U32(&row_len) || row_len != expect_row) {
      return bad("bad row length");
    }
    std::vector<BigInt> row;
    row.reserve(row_len);
    std::vector<uint8_t> bytes;
    for (uint32_t j = 0; j < row_len; ++j) {
      if (!in.Blob(entry_cap, &bytes)) return bad("truncated entry");
      BigInt entry = BigInt::FromBytes(bytes);
      if (entry.Sign() <= 0 || !(entry < modulus)) {
        return bad("entry outside [1, modulus)");
      }
      row.push_back(std::move(entry));
    }
    table.windows_.push_back(std::move(row));
  }
  if (!in.done()) return bad("trailing bytes");
  return table;
}

}  // namespace hprl::crypto
