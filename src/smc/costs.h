#ifndef HPRL_SMC_COSTS_H_
#define HPRL_SMC_COSTS_H_

#include <cstdint>
#include <string>

namespace hprl::smc {

/// Operation counters for the cryptographic step. The paper reduces the cost
/// model to the number of SMC protocol invocations after observing that
/// cryptographic operations dominate everything else (§VI); these counters
/// let the benches report both the invocation count and its breakdown.
struct SmcCosts {
  int64_t invocations = 0;       ///< record-pair comparisons
  int64_t attr_comparisons = 0;  ///< per-attribute secure distance runs
  int64_t encryptions = 0;
  int64_t decryptions = 0;
  int64_t homomorphic_adds = 0;
  int64_t scalar_muls = 0;
  int64_t retries = 0;  ///< exchanges replayed after a transient fault
  /// Pairs moved off a suspect/dead comparator shard and re-dispatched on a
  /// healthy one by the sharded coordinator (net/remote_oracle.cc). Distinct
  /// from retries: a rebalanced pair never failed, its shard did.
  int64_t rebalanced_pairs = 0;
  /// Packed exchange runs (one per unit), and how many record pairs they
  /// carried. Amortized per-pair crypto is the enc/dec/hadd/smul totals
  /// divided by packed_pairs.
  int64_t packed_exchanges = 0;
  int64_t packed_pairs = 0;
  /// Offline/online attribution: encryptions whose r^n factor was consumed
  /// from the precomputed randomizer pool paid for that exponentiation in
  /// the offline phase (pool prewarm or idle-time fill), so the online cost
  /// was one modular multiply. material_randomizers counts the subset whose
  /// randomizers were LOADED from the persistent material store rather than
  /// generated this run (crypto/material.h).
  int64_t offline_randomizers = 0;
  int64_t material_randomizers = 0;

  void Clear() { *this = SmcCosts{}; }

  SmcCosts& operator+=(const SmcCosts& o) {
    invocations += o.invocations;
    attr_comparisons += o.attr_comparisons;
    encryptions += o.encryptions;
    decryptions += o.decryptions;
    homomorphic_adds += o.homomorphic_adds;
    scalar_muls += o.scalar_muls;
    retries += o.retries;
    rebalanced_pairs += o.rebalanced_pairs;
    packed_exchanges += o.packed_exchanges;
    packed_pairs += o.packed_pairs;
    offline_randomizers += o.offline_randomizers;
    material_randomizers += o.material_randomizers;
    return *this;
  }

  std::string ToString() const;
};

}  // namespace hprl::smc

#endif  // HPRL_SMC_COSTS_H_
