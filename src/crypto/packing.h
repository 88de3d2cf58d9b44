#ifndef HPRL_CRYPTO_PACKING_H_
#define HPRL_CRYPTO_PACKING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "crypto/bigint.h"

namespace hprl::crypto {

/// Layout of a packed Paillier plaintext: disjoint bit-slots of per-slot
/// widths, packed as  m = Σ v_s · 2^{offset(s)}  from the least significant
/// bit up. One group of k slots has the widths given to Plan (in the SMC
/// layer, one record pair's compared attributes), and the plaintext holds
/// `groups()` such groups back to back: slot s has width widths[s mod k]
/// and offset (s div k)·Σwidths plus the widths of the slots before it in
/// its group.
///
/// Additively homomorphic slot-wise: as long as every slot of the final SUM
/// stays inside [0, 2^width), the packed plaintext is exactly Σ v_s·2^offset
/// and one Encrypt/Add/Decrypt does the work of num_slots() scalar ones.
/// Callers are responsible for the carry-safety analysis; the SMC layer
/// sizes each attribute's slot from its declared domain, so every squared
/// distance the domain allows fits (smc::PackedGroupPairs).
class PackingLayout {
 public:
  /// Unplanned: no slots; packing and unpacking fail.
  PackingLayout() = default;

  /// Plans a layout for a modulus of `modulus_bits` bits with one group's
  /// slot `widths`: capacity is (modulus_bits - 2) / Σwidths groups, so the
  /// packed value is < 2^(modulus_bits - 2): below n/2 for an n of exactly
  /// that many bits, and below n for a key generated at that size (whose n
  /// has at least modulus_bits - 1). Fails when `widths` is empty, a width
  /// is below 1, or no whole group fits.
  static Result<PackingLayout> Plan(int modulus_bits, std::vector<int> widths);

  /// Whole groups one plaintext holds.
  int groups() const { return groups_; }
  size_t num_slots() const { return widths_.size() * groups_; }

  int SlotWidth(size_t slot) const { return widths_[slot % widths_.size()]; }
  /// The bit position of slot `slot`'s least significant bit.
  uint64_t SlotOffset(size_t slot) const {
    const size_t k = widths_.size();
    return static_cast<uint64_t>(slot / k) * group_bits_ + offsets_[slot % k];
  }

 private:
  std::vector<int> widths_;
  std::vector<int> offsets_;  // offset of each slot within its group
  int group_bits_ = 0;
  int groups_ = 0;
};

/// Packs slot values into *out, slot s at weight 2^{SlotOffset(s)}; the
/// only transient lives in *scratch — no BigInt is constructed. Fails
/// (InvalidArgument) when there are more values than slots or any value is
/// negative or >= 2^{SlotWidth(s)} — the slot-overflow rejection the
/// protocol relies on to never silently corrupt a neighbouring slot. *out
/// and *scratch must be distinct from each other and from every input.
Status PackSlotsInto(const std::vector<const BigInt*>& values,
                     const PackingLayout& layout, BigInt* scratch,
                     BigInt* out);

/// Recovers the first `count` slot values of a packed plaintext, the exact
/// inverse of PackSlotsInto: slot s is written through (*slots)[s] (which
/// must hold `count` distinct destinations) and *rest carries the running
/// quotient. Fails when packed is negative, count exceeds the layout, or a
/// nonzero residue remains past `count` slots (evidence of slot overflow or
/// a corrupted plaintext).
Status UnpackSlotsInto(const BigInt& packed, size_t count,
                       const PackingLayout& layout, BigInt* rest,
                       const std::vector<BigInt*>& slots);

}  // namespace hprl::crypto

#endif  // HPRL_CRYPTO_PACKING_H_
