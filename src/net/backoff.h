#ifndef HPRL_NET_BACKOFF_H_
#define HPRL_NET_BACKOFF_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/hash.h"

namespace hprl::net {

/// Dial retry backoff policy (PR 8): bounded exponential growth with a
/// derived — not drawn — jitter, so pinned seeds reproduce the exact dial
/// schedule while a fleet restarting in lockstep does not knock in lockstep.
struct BackoffPolicy {
  int base_ms = 25;      ///< first wait
  int max_ms = 800;      ///< exponential growth cap
  uint64_t seed = 1;     ///< jitter seed (dial_jitter_seed)
};

/// Wait before attempt `attempt` + 1 on the (local, peer) link: base_ms
/// doubled per attempt up to max_ms, stretched by a jitter in [0, base/2]
/// derived via FNV-1a over (seed, local, peer, attempt) finalized with an
/// avalanche mix so nearby attempts do not produce nearby waits.
inline int BackoffWaitMs(const BackoffPolicy& policy, const std::string& local,
                         const std::string& peer, int attempt) {
  int64_t base = std::max(1, policy.base_ms);
  const int64_t cap = std::max<int64_t>(base, policy.max_ms);
  for (int i = 0; i < attempt && base < cap; ++i) base *= 2;
  base = std::min(base, cap);
  uint64_t h =
      Fnv1a64(local.data(), local.size(), kFnv64OffsetBasis ^ policy.seed);
  h = Fnv1a64(peer.data(), peer.size(), h);
  h ^= static_cast<uint64_t>(attempt);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  const int64_t jitter =
      static_cast<int64_t>(h % static_cast<uint64_t>(base / 2 + 1));
  return static_cast<int>(base + jitter);
}

}  // namespace hprl::net

#endif  // HPRL_NET_BACKOFF_H_
