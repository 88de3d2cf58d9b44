#ifndef HPRL_SMC_OPERANDS_H_
#define HPRL_SMC_OPERANDS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "crypto/bigint.h"
#include "crypto/fixed_point.h"
#include "linkage/match_rule.h"

namespace hprl::smc {

/// How a match rule turns a record pair into §V-A protocol operands: the
/// attributes the protocol compares, each one's threshold, and the integer
/// a holder encrypts for a record's value. The in-process comparator and
/// the TCP coordinator both encode through this one type.
///
/// A categorical attribute with θ ≥ 1 is vacuous (a Hamming distance never
/// exceeds 1) and is not compared. A categorical value encodes as its
/// category id (threshold 0: within iff equal); a numeric value as
/// round(v · fp_scale), with threshold ⌊(θ · norm · fp_scale)²⌋ on the
/// squared difference.
///
/// An attribute that declares its domain (AttrRule::has_domain()) bounds its
/// encodings: Encode refuses a value outside the domain, and slot_widths()
/// sizes a packing slot that holds every squared distance it allows.
class RuleOperands {
 public:
  RuleOperands(const MatchRule& rule, int64_t fp_scale);

  /// Number of compared attributes.
  size_t size() const { return attrs_.size(); }

  /// The compared attributes, in order.
  const std::vector<AttrRule>& attrs() const { return attrs_; }

  /// The scaled threshold of every compared attribute, in order: attribute
  /// i is within iff (x - y)² <= thresholds()[i].
  const std::vector<crypto::BigInt>& thresholds() const { return thresholds_; }

  /// Per compared attribute, the bits of its packing slot:
  /// BitLength((2·M_i)²), M_i the largest encoded magnitude attribute i's
  /// declared domain allows, so every squared distance fits its slot and
  /// distances share a plaintext without a carry crossing slots; 0 for an
  /// attribute that declares no domain. Public: the widths come from the
  /// spec's VGHs, never from the values compared.
  const std::vector<int>& slot_widths() const { return slot_widths_; }

  /// One side's operand for compared attribute `i` of `record`.
  /// InvalidArgument for a value outside the attribute's declared domain;
  /// Unimplemented for a text attribute.
  Result<crypto::BigInt> Encode(size_t i, const Record& record) const;

 private:
  std::vector<AttrRule> attrs_;
  std::vector<crypto::BigInt> thresholds_;
  std::vector<int> slot_widths_;
  crypto::FixedPointCodec codec_;
};

}  // namespace hprl::smc

#endif  // HPRL_SMC_OPERANDS_H_
