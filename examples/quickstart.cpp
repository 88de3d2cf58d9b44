// Quickstart: the paper's §III worked example, end to end.
//
// Two 6-record relations R (Table I) and S (Table II) over
// (Education, WorkHrs) are linked privately:
//   1. each holder releases a k-anonymous generalization (R' with k=3,
//      S' with k=2, exactly the paper's tables),
//   2. the blocking step labels 12 pairs Mismatch and 6 pairs Match from the
//      anonymized releases alone,
//   3. the 18 Unknown pairs go through the real three-party Paillier-1024
//      protocol, subject to an SMC allowance of 10 pairs (as in the paper's
//      §III discussion); leftovers default to non-match.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "adult/adult.h"
#include "core/blocking.h"
#include "core/hybrid.h"
#include "linkage/ground_truth.h"
#include "smc/smc_oracle.h"

using namespace hprl;

namespace {

void Die(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main() {
  // --- schema: Education (categorical, Fig. 1 VGH), WorkHrs (numeric) ---
  auto edu_vgh_or = adult::MakeExampleEducationVgh();
  if (!edu_vgh_or.ok()) Die(edu_vgh_or.status());
  auto edu = std::make_shared<const Vgh>(std::move(edu_vgh_or).value());
  auto hrs_vgh_or = adult::MakeWorkHrsVgh();
  if (!hrs_vgh_or.ok()) Die(hrs_vgh_or.status());
  auto hrs = std::make_shared<const Vgh>(std::move(hrs_vgh_or).value());

  auto schema = std::make_shared<Schema>();
  schema->AddCategorical("education", edu->MakeDomain());
  schema->AddNumeric("workhrs");

  auto cat = [&](const char* label) {
    return Value::Category(schema->attribute(0).domain->Find(label));
  };

  // --- Table I (R) and Table II (S) ---
  Table r(schema), s(schema);
  r.AppendUnchecked({cat("Masters"), Value::Numeric(35)});
  r.AppendUnchecked({cat("Masters"), Value::Numeric(36)});
  r.AppendUnchecked({cat("Masters"), Value::Numeric(36)});
  r.AppendUnchecked({cat("9th"), Value::Numeric(28)});
  r.AppendUnchecked({cat("10th"), Value::Numeric(22)});
  r.AppendUnchecked({cat("12th"), Value::Numeric(33)});
  s.AppendUnchecked({cat("Masters"), Value::Numeric(36)});
  s.AppendUnchecked({cat("Masters"), Value::Numeric(35)});
  s.AppendUnchecked({cat("Bachelors"), Value::Numeric(27)});
  s.AppendUnchecked({cat("11th"), Value::Numeric(33)});
  s.AppendUnchecked({cat("11th"), Value::Numeric(22)});
  s.AppendUnchecked({cat("12th"), Value::Numeric(27)});

  // --- the querying party's classifier: θ1 = 0.5 (Hamming), θ2 = 0.2
  //     (Euclidean, normFactor = 98 from the WorkHrs VGH) ---
  MatchRule rule;
  {
    AttrRule a1;
    a1.attr_index = 0;
    a1.type = AttrType::kCategorical;
    a1.theta = 0.5;
    a1.name = "education";
    AttrRule a2;
    a2.attr_index = 1;
    a2.type = AttrType::kNumeric;
    a2.theta = 0.2;
    a2.norm = hrs->RootRange();
    a2.name = "workhrs";
    // Public domains from the VGHs size the SMC step's packing slots.
    DeclareDomain(*edu, &a1);
    DeclareDomain(*hrs, &a2);
    rule.attrs = {a1, a2};
  }
  std::printf("matching rule: education equal (θ=0.5, Hamming), "
              "|workhrs Δ| <= %.1f (θ=0.2 × %g)\n\n",
              rule.attrs[1].theta * rule.attrs[1].norm, rule.attrs[1].norm);

  // --- the paper's anonymized releases R' (k=3) and S' (k=2) ---
  auto gen = [&](const char* label) { return edu->Gen(edu->FindByLabel(label)); };
  AnonymizedTable anon_r, anon_s;
  anon_r.num_rows = 6;
  anon_r.qid_attrs = {0, 1};
  anon_r.groups.push_back(
      {{gen("Masters"), GenValue::NumericInterval(35, 37)}, {0, 1, 2}});
  anon_r.groups.push_back(
      {{gen("Secondary"), GenValue::NumericInterval(1, 35)}, {3, 4, 5}});
  anon_s.num_rows = 6;
  anon_s.qid_attrs = {0, 1};
  anon_s.groups.push_back(
      {{gen("Masters"), GenValue::NumericInterval(35, 37)}, {0, 1}});
  anon_s.groups.push_back(
      {{gen("ANY"), GenValue::NumericInterval(1, 35)}, {2, 3}});
  anon_s.groups.push_back(
      {{gen("Senior Sec."), GenValue::NumericInterval(1, 35)}, {4, 5}});

  // --- blocking step ---
  auto blocking = RunBlocking(anon_r, anon_s, rule);
  if (!blocking.ok()) Die(blocking.status());
  std::printf("blocking step over R' x S' (36 record pairs):\n");
  std::printf("  mismatched (N): %lld pairs\n",
              static_cast<long long>(blocking->mismatched_pairs));
  std::printf("  matched    (M): %lld pairs\n",
              static_cast<long long>(blocking->matched_pairs));
  std::printf("  unknown    (U): %lld pairs\n\n",
              static_cast<long long>(blocking->unknown_pairs));

  // --- SMC step with the real Paillier-1024 protocol, allowance 10 ---
  smc::SmcConfig smc_cfg;
  smc_cfg.key_bits = 1024;
  smc::SmcMatchOracle oracle(smc_cfg, rule);
  if (auto st = oracle.Init(); !st.ok()) Die(st);

  HybridConfig hc;
  hc.rule = rule;
  hc.smc_allowance_fraction = 10.0 / 36.0;  // the paper's "at most 10 pairs"
  hc.heuristic = SelectionHeuristic::kMinAvgFirst;
  hc.collect_matches = true;
  auto result = RunHybridLinkage(r, s, anon_r, anon_s, hc, oracle);
  if (!result.ok()) Die(result.status());

  std::printf("SMC step (Paillier-1024, three parties, allowance %lld "
              "pairs):\n",
              static_cast<long long>(result->allowance_pairs));
  std::printf("  protocol invocations: %lld\n",
              static_cast<long long>(result->smc_processed));
  std::printf("  crypto ops: %s\n", oracle.costs().ToString().c_str());
  std::printf("  bytes on the wire: %lld over %lld messages\n",
              static_cast<long long>(oracle.bus().total_bytes()),
              static_cast<long long>(oracle.bus().total_messages()));
  std::printf("  unknown pairs left unlabeled -> non-match: %lld\n\n",
              static_cast<long long>(result->unprocessed_pairs));

  std::printf("reported links (record indexes are 0-based):\n");
  for (const auto& [ri, si] : result->matched_row_pairs) {
    std::printf("  r%lld = (%s, %g)  <->  s%lld = (%s, %g)\n",
                static_cast<long long>(ri + 1),
                schema->RenderValue(0, r.at(ri, 0)).c_str(), r.at(ri, 1).num(),
                static_cast<long long>(si + 1),
                schema->RenderValue(0, s.at(si, 0)).c_str(), s.at(si, 1).num());
  }

  if (auto st = EvaluateRecall(r, s, rule, &result.value()); !st.ok()) Die(st);
  std::printf("\nprecision %.0f%%, recall %.1f%% (true matches: %lld)\n",
              100.0 * result->precision, 100.0 * result->recall,
              static_cast<long long>(result->true_matches));
  return 0;
}
