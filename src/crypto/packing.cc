#include "crypto/packing.h"

#include <utility>

namespace hprl::crypto {

Result<PackingLayout> PackingLayout::Plan(int modulus_bits,
                                          std::vector<int> widths) {
  if (widths.empty()) {
    return Status::InvalidArgument("packing layout needs at least one slot");
  }
  // Keep the packed value strictly below 2^{modulus_bits - 2} <= n/2 so it
  // also survives the signed decode used elsewhere in the protocol.
  const int usable_bits = modulus_bits - 2;
  PackingLayout layout;
  for (int w : widths) {
    if (w < 1) {
      return Status::InvalidArgument("packing slot width must be >= 1 bit");
    }
    if (w > usable_bits - layout.group_bits_) {
      return Status::InvalidArgument("modulus too small for one packed group");
    }
    layout.offsets_.push_back(layout.group_bits_);
    layout.group_bits_ += w;
  }
  layout.groups_ = usable_bits / layout.group_bits_;
  layout.widths_ = std::move(widths);
  return layout;
}

Status PackSlotsInto(const std::vector<const BigInt*>& values,
                     const PackingLayout& layout, BigInt* scratch,
                     BigInt* out) {
  if (layout.num_slots() == 0) {
    return Status::FailedPrecondition("packing layout not planned");
  }
  if (values.size() > layout.num_slots()) {
    return Status::InvalidArgument("more values than packing slots");
  }
  mpz_set_ui(out->raw(), 0);
  for (size_t s = 0; s < values.size(); ++s) {
    const BigInt& v = *values[s];
    // For v >= 0, BitLength(v) <= width is exactly v < 2^width (and
    // mpz_sizeinbase(0, 2) == 1 <= width), with no allocation.
    if (v.Sign() < 0 ||
        static_cast<int>(v.BitLength()) > layout.SlotWidth(s)) {
      return Status::InvalidArgument("value does not fit its packing slot");
    }
    mpz_mul_2exp(scratch->raw(), v.raw(), layout.SlotOffset(s));
    mpz_add(out->raw(), out->raw(), scratch->raw());
  }
  return Status::OK();
}

Status UnpackSlotsInto(const BigInt& packed, size_t count,
                       const PackingLayout& layout, BigInt* rest,
                       const std::vector<BigInt*>& slots) {
  if (layout.num_slots() == 0) {
    return Status::FailedPrecondition("packing layout not planned");
  }
  if (packed.Sign() < 0) {
    return Status::InvalidArgument("packed value must be non-negative");
  }
  if (count > layout.num_slots()) {
    return Status::InvalidArgument("more slots requested than the layout has");
  }
  if (slots.size() < count) {
    return Status::InvalidArgument("fewer slot destinations than slots");
  }
  mpz_set(rest->raw(), packed.raw());
  for (size_t s = 0; s < count; ++s) {
    const auto width = static_cast<mp_bitcnt_t>(layout.SlotWidth(s));
    mpz_fdiv_r_2exp(slots[s]->raw(), rest->raw(), width);
    mpz_fdiv_q_2exp(rest->raw(), rest->raw(), width);
  }
  if (!rest->IsZero()) {
    return Status::InvalidArgument(
        "packed plaintext has residue past the requested slots");
  }
  return Status::OK();
}

}  // namespace hprl::crypto
