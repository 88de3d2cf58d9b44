#include "smc/operands.h"

#include <cmath>

namespace hprl::smc {

RuleOperands::RuleOperands(const MatchRule& rule, int64_t fp_scale)
    : codec_(fp_scale) {
  for (const AttrRule& attr : rule.attrs) {
    if (attr.type == AttrType::kCategorical && attr.theta >= 1.0) continue;
    attrs_.push_back(attr);
    if (attr.type == AttrType::kCategorical) {
      thresholds_.emplace_back(int64_t{0});
      continue;
    }
    const double t = attr.theta * attr.norm * static_cast<double>(fp_scale);
    thresholds_.emplace_back(static_cast<int64_t>(std::floor(t * t + 1e-9)));
  }
}

bool RuleOperands::has_text() const {
  for (const AttrRule& attr : attrs_) {
    if (attr.type == AttrType::kText) return true;
  }
  return false;
}

Result<crypto::BigInt> RuleOperands::Encode(size_t i,
                                            const Record& record) const {
  const AttrRule& attr = attrs_[i];
  const Value& v = record[attr.attr_index];
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
