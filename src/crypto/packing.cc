#include "crypto/packing.h"

namespace hprl::crypto {

Result<PackingLayout> PackingLayout::Plan(int modulus_bits, int slot_bits) {
  if (slot_bits < 8) {
    return Status::InvalidArgument("packing slot width must be >= 8 bits");
  }
  // Keep the packed value strictly below 2^{modulus_bits - 2} <= n/2 so it
  // also survives the signed decode used elsewhere in the protocol.
  const int usable_bits = modulus_bits - 2;
  const int slots = usable_bits / slot_bits;
  if (slots < 1) {
    return Status::InvalidArgument("modulus too small for one packed slot");
  }
  PackingLayout layout;
  layout.slot_bits = slot_bits;
  layout.num_slots = slots;
  return layout;
}

BigInt PackingLayout::SlotWeight(size_t slot) const {
  BigInt w;
  mpz_set_ui(w.raw(), 1);
  mpz_mul_2exp(w.raw(), w.raw(), static_cast<mp_bitcnt_t>(slot_bits) * slot);
  return w;
}

Status PackSlotsInto(const std::vector<const BigInt*>& values,
                     const PackingLayout& layout, BigInt* scratch,
                     BigInt* out) {
  if (layout.slot_bits <= 0 || layout.num_slots <= 0) {
    return Status::FailedPrecondition("packing layout not planned");
  }
  if (values.size() > static_cast<size_t>(layout.num_slots)) {
    return Status::InvalidArgument("more values than packing slots");
  }
  mpz_set_ui(out->raw(), 0);
  for (size_t i = 0; i < values.size(); ++i) {
    const BigInt& v = *values[i];
    // For v >= 0, BitLength(v) <= slot_bits is exactly v < 2^slot_bits (and
    // mpz_sizeinbase(0, 2) == 1 <= slot_bits), with no allocation.
    if (v.Sign() < 0 ||
        static_cast<int>(v.BitLength()) > layout.slot_bits) {
      return Status::InvalidArgument("value does not fit its packing slot");
    }
    mpz_mul_2exp(scratch->raw(), v.raw(),
                 static_cast<mp_bitcnt_t>(layout.slot_bits) * i);
    mpz_add(out->raw(), out->raw(), scratch->raw());
  }
  return Status::OK();
}

Status UnpackSlotsInto(const BigInt& packed, size_t count,
                       const PackingLayout& layout, BigInt* rest,
                       const std::vector<BigInt*>& slots) {
  if (layout.slot_bits <= 0 || layout.num_slots <= 0) {
    return Status::FailedPrecondition("packing layout not planned");
  }
  if (packed.Sign() < 0) {
    return Status::InvalidArgument("packed value must be non-negative");
  }
  if (count > static_cast<size_t>(layout.num_slots)) {
    return Status::InvalidArgument("more slots requested than the layout has");
  }
  if (slots.size() < count) {
    return Status::InvalidArgument("fewer slot destinations than slots");
  }
  mpz_set(rest->raw(), packed.raw());
  for (size_t i = 0; i < count; ++i) {
    mpz_fdiv_r_2exp(slots[i]->raw(), rest->raw(),
                    static_cast<mp_bitcnt_t>(layout.slot_bits));
    mpz_fdiv_q_2exp(rest->raw(), rest->raw(),
                    static_cast<mp_bitcnt_t>(layout.slot_bits));
  }
  if (!rest->IsZero()) {
    return Status::InvalidArgument(
        "packed plaintext has residue past the requested slots");
  }
  return Status::OK();
}

}  // namespace hprl::crypto
