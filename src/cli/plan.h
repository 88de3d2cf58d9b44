#ifndef HPRL_CLI_PLAN_H_
#define HPRL_CLI_PLAN_H_

#include <string>
#include <vector>

#include "anon/anonymizer.h"
#include "cli/spec.h"
#include "common/result.h"
#include "data/csv.h"
#include "data/table.h"
#include "linkage/match_rule.h"

namespace hprl::cli {

/// Everything derived from the spec that every input record shares: the
/// typed schema, one hierarchy per QID, the match rule, and the anonymizer
/// configuration. Built once per run; the batch runner and the streaming
/// serve runner both type their inputs against it.
struct Plan {
  SchemaPtr schema;                 // QID attrs in spec order (+class/+sensitive)
  std::vector<VghPtr> hierarchies;  // per QID (nullptr for text)
  MatchRule rule;
  AnonymizerConfig anon_cfg;
};

/// Derives the plan from a parsed spec. The raw CSVs are only needed for
/// the spec's extra (class/sensitive) columns, whose category domains are
/// collected from both inputs; callers without batch inputs (the streaming
/// service, which anonymizes per record) pass nullptr and get a plan whose
/// schema holds exactly the QIDs.
Result<Plan> BuildPlan(const LinkageSpec& spec, const RawCsv* raw_r = nullptr,
                       const RawCsv* raw_s = nullptr);

/// Converts one raw CSV into a typed table under the plan's schema, locating
/// columns by header name. `which` prefixes error messages ("R"/"S").
Result<Table> Typed(const RawCsv& raw, const Plan& plan,
                    const std::string& which);

/// Types one raw CSV field for schema attribute `attr_index`. `where`
/// prefixes error messages (e.g. "delta line 12").
Result<Value> TypedField(const std::string& field, const Plan& plan,
                         int attr_index, const std::string& where);

/// TypedField for the field at 1-based `row` of input `which`: a failure's
/// message is prefixed "<which> row <row>", formatted only on failure. Typed
/// and the serve runner's delta parser type their cells with it.
Result<Value> TypedCell(const std::string& field, const Plan& plan,
                        int attr_index, const char* which, size_t row);

}  // namespace hprl::cli

#endif  // HPRL_CLI_PLAN_H_
