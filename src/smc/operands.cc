#include "smc/operands.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace hprl::smc {

RuleOperands::RuleOperands(const MatchRule& rule, int64_t fp_scale)
    : codec_(fp_scale) {
  for (const AttrRule& attr : rule.attrs) {
    if (attr.type == AttrType::kCategorical && attr.theta >= 1.0) continue;
    attrs_.push_back(attr);
    if (!attr.has_domain()) {
      slot_widths_.push_back(0);
    } else {
      // Encodings lie in [Enc(lo), Enc(hi)], so no |x| exceeds the larger
      // end's magnitude M and no |x - y| exceeds 2·M.
      const bool num = attr.type == AttrType::kNumeric;
      crypto::BigInt lo = num ? codec_.Encode(attr.domain_lo)
                              : crypto::BigInt(static_cast<int64_t>(
                                    attr.domain_lo));
      crypto::BigInt hi = num ? codec_.Encode(attr.domain_hi)
                              : crypto::BigInt(static_cast<int64_t>(
                                    attr.domain_hi));
      mpz_abs(lo.raw(), lo.raw());
      mpz_abs(hi.raw(), hi.raw());
      const crypto::BigInt span = std::max(lo, hi) * crypto::BigInt(2);
      slot_widths_.push_back(static_cast<int>((span * span).BitLength()));
    }
    if (attr.type == AttrType::kCategorical) {
      thresholds_.emplace_back(int64_t{0});
      continue;
    }
    const double t = attr.theta * attr.norm * static_cast<double>(fp_scale);
    thresholds_.emplace_back(static_cast<int64_t>(std::floor(t * t + 1e-9)));
  }
}

Result<crypto::BigInt> RuleOperands::Encode(size_t i,
                                            const Record& record) const {
  const AttrRule& attr = attrs_[i];
  const Value& v = record[attr.attr_index];
  if (attr.has_domain() && attr.type != AttrType::kText) {
    const double x = attr.type == AttrType::kNumeric
                         ? v.num()
                         : static_cast<double>(v.category());
    if (!(x >= attr.domain_lo && x < attr.domain_hi)) {
      return Status::InvalidArgument(
          StrFormat("%s value %g outside its declared domain [%g, %g)",
                    attr.name.c_str(), x, attr.domain_lo, attr.domain_hi));
    }
  }
  switch (attr.type) {
    case AttrType::kCategorical:
      return crypto::BigInt(v.category());
    case AttrType::kNumeric:
      return codec_.Encode(v.num());
    case AttrType::kText:
      return Status::Unimplemented(
          "text attributes in the SMC step are future work (paper §VIII)");
  }
  return Status::Internal("unreachable");
}

}  // namespace hprl::smc
