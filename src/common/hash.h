#ifndef HPRL_COMMON_HASH_H_
#define HPRL_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hprl {

/// 32-bit FNV-1a, forced non-zero so 0 can mean "unstamped". This is the
/// wire checksum of every SMC message (smc::PayloadChecksum).
inline uint32_t Fnv1a32(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 16777619u;
  }
  return h == 0 ? 1u : h;
}

inline constexpr uint64_t kFnv64OffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnv64Prime = 1099511628211ull;

/// 64-bit FNV-1a: the durable-file trailer (common/durable_file.h), the
/// keypair fingerprint and the serve stream fingerprint. Passing a previous
/// result as `h` continues the hash over more bytes.
inline uint64_t Fnv1a64(const void* data, size_t n,
                        uint64_t h = kFnv64OffsetBasis) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv64Prime;
  }
  return h;
}

inline uint64_t Fnv1a64(std::string_view bytes) {
  return Fnv1a64(bytes.data(), bytes.size());
}

/// SplitMix64 finalizer, used to fold a run's shape into a journal
/// fingerprint one field at a time.
inline uint64_t MixFp(uint64_t h, uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h += 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

}  // namespace hprl

#endif  // HPRL_COMMON_HASH_H_
