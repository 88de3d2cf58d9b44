#include "linkage/match_rule.h"

#include "linkage/distance.h"

namespace hprl {

Result<MatchRule> MakeUniformRule(const SchemaPtr& schema,
                                  const std::vector<std::string>& qid_names,
                                  const std::vector<VghPtr>& hierarchies,
                                  int num_qids, double theta) {
  if (num_qids < 1 || num_qids > static_cast<int>(qid_names.size())) {
    return Status::InvalidArgument("num_qids out of range");
  }
  if (hierarchies.size() != qid_names.size()) {
    return Status::InvalidArgument("hierarchies/qid_names size mismatch");
  }
  MatchRule rule;
  for (int i = 0; i < num_qids; ++i) {
    int idx = schema->FindIndex(qid_names[i]);
    if (idx < 0) {
      return Status::NotFound("QID not in schema: " + qid_names[i]);
    }
    AttrRule r;
    r.attr_index = idx;
    r.type = schema->attribute(idx).type;
    r.theta = theta;
    r.name = qid_names[i];
    if (r.type == AttrType::kNumeric) {
      if (hierarchies[i] == nullptr) {
        return Status::InvalidArgument("numeric QID needs a hierarchy: " +
                                       qid_names[i]);
      }
      r.norm = hierarchies[i]->RootRange();
    }
    if (hierarchies[i] != nullptr) DeclareDomain(*hierarchies[i], &r);
    rule.attrs.push_back(std::move(r));
  }
  return rule;
}

void DeclareDomain(const Vgh& vgh, AttrRule* rule) {
  if (vgh.kind() == Vgh::Kind::kNumeric) {
    rule->domain_lo = vgh.RootLo();
    rule->domain_hi = vgh.RootHi();
  } else {
    rule->domain_lo = 0;
    rule->domain_hi = vgh.num_leaves();
  }
}

double AttrDistance(const Value& a, const Value& b, const AttrRule& rule) {
  switch (rule.type) {
    case AttrType::kCategorical:
      return HammingDistance(a.category(), b.category());
    case AttrType::kNumeric:
      return NormalizedNumericDistance(a.num(), b.num(), rule.norm);
    case AttrType::kText:
      return static_cast<double>(EditDistance(a.text(), b.text()));
  }
  return 1.0;
}

bool RecordsMatch(const Record& r, const Record& s, const MatchRule& rule) {
  for (const AttrRule& a : rule.attrs) {
    if (AttrDistance(r[a.attr_index], s[a.attr_index], a) > a.theta) {
      return false;
    }
  }
  return true;
}

}  // namespace hprl
