#ifndef HPRL_CRYPTO_PACKING_H_
#define HPRL_CRYPTO_PACKING_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "crypto/bigint.h"

namespace hprl::crypto {

/// Layout of a packed Paillier plaintext: `num_slots` disjoint bit-slots of
/// `slot_bits` bits each, packed as  m = Σ v_i · 2^{slot_bits · i}.
///
/// Additively homomorphic slot-wise: as long as every slot of every operand —
/// and every slot of the SUM — stays inside [0, 2^slot_bits), homomorphic
/// addition adds the slots independently (no carries cross a slot boundary)
/// and one Encrypt/Add/Decrypt does the work of num_slots scalar ones.
/// Callers are responsible for the carry-safety analysis; the SMC layer
/// packs a rule only when every squared distance its declared domains
/// allow fits a slot (smc::PackedGroupPairs).
struct PackingLayout {
  int slot_bits = 0;
  int num_slots = 0;

  /// Plans a layout for a modulus of `modulus_bits` bits: capacity is
  /// (modulus_bits - 2) / slot_bits slots, so the packed value is < n/2 and
  /// survives the signed-embedding round trip. Fails when no full slot fits
  /// or slot_bits is below 8 (a squared distance of even 16 would not fit).
  static Result<PackingLayout> Plan(int modulus_bits, int slot_bits);

  /// 2^{slot_bits · slot} — the weight of slot `slot` in the packed value.
  BigInt SlotWeight(size_t slot) const;
};

/// Packs slot values into *out, slot i at weight 2^{slot_bits · i}; the only
/// transient lives in *scratch — no BigInt is constructed. Fails
/// (InvalidArgument) when there are more values than slots or any value is
/// negative or >= 2^slot_bits — the slot-overflow rejection the protocol
/// relies on to never silently corrupt a neighbouring slot. *out and
/// *scratch must be distinct from each other and from every input.
Status PackSlotsInto(const std::vector<const BigInt*>& values,
                     const PackingLayout& layout, BigInt* scratch,
                     BigInt* out);

/// Recovers the first `count` slot values of a packed plaintext, the exact
/// inverse of PackSlotsInto: slot i is written through (*slots)[i] (which
/// must hold `count` distinct destinations) and *rest carries the running
/// quotient. Fails when packed is negative, count exceeds the layout, or a
/// nonzero residue remains past `count` slots (evidence of slot overflow or
/// a corrupted plaintext).
Status UnpackSlotsInto(const BigInt& packed, size_t count,
                       const PackingLayout& layout, BigInt* rest,
                       const std::vector<BigInt*>& slots);

}  // namespace hprl::crypto

#endif  // HPRL_CRYPTO_PACKING_H_
