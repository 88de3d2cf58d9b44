#ifndef HPRL_LINKAGE_MATCH_RULE_H_
#define HPRL_LINKAGE_MATCH_RULE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "hierarchy/vgh.h"

namespace hprl {

/// Matching condition for one attribute: records agree on the attribute when
/// its normalized distance is at most `theta` (paper §II decision rule).
struct AttrRule {
  int attr_index = -1;  ///< column in the original tables
  AttrType type = AttrType::kCategorical;
  double theta = 0.05;  ///< matching threshold θ_i
  /// Normalization factor: numeric range (paper: the VGH root range, e.g.
  /// 98 for WorkHrs [1-99)); 1.0 for categorical (Hamming already in {0,1})
  /// and for text (θ counts raw edit operations).
  double norm = 1.0;
  std::string name;  ///< display only
  /// Declared value domain [domain_lo, domain_hi), public like θ: a numeric
  /// attribute's VGH root range, a categorical attribute's category ids
  /// [0, leaves). The SMC step packs only rules whose every compared
  /// attribute declares one (smc::PackedGroupPairs) and refuses a value
  /// outside it. The default empty range declares none, and a rule without
  /// one never packs.
  double domain_lo = 0;
  double domain_hi = 0;

  bool has_domain() const { return domain_lo < domain_hi; }
};

/// Declares `rule`'s domain from the attribute's hierarchy: the root range
/// of a numeric VGH, the leaf ids [0, leaves) of a categorical one.
void DeclareDomain(const Vgh& vgh, AttrRule* rule);

/// The classifier supplied by the querying party: a record pair matches when
/// every attribute rule is satisfied (conjunction, paper dr(r,s)).
struct MatchRule {
  std::vector<AttrRule> attrs;

  int num_attrs() const { return static_cast<int>(attrs.size()); }
};

/// Builds the rule for the first `num_qids` Adult QIDs with a uniform theta.
/// `schema` is the data schema; hierarchies provide numeric normalization
/// factors. Fails when a QID name is missing from the schema.
Result<MatchRule> MakeUniformRule(const SchemaPtr& schema,
                                  const std::vector<std::string>& qid_names,
                                  const std::vector<VghPtr>& hierarchies,
                                  int num_qids, double theta);

/// Normalized distance between two original values under `rule`.
double AttrDistance(const Value& a, const Value& b, const AttrRule& rule);

/// True when (r, s) satisfies every attribute rule — the plaintext decision
/// rule dr(r,s). This is what the SMC step computes securely.
bool RecordsMatch(const Record& r, const Record& s, const MatchRule& rule);

}  // namespace hprl

#endif  // HPRL_LINKAGE_MATCH_RULE_H_
