#include <gtest/gtest.h>

#include <set>

#include "anon/anonymizer.h"
#include "core/blocking.h"
#include "core/hybrid.h"
#include "data/names.h"
#include "linkage/distance.h"
#include "linkage/ground_truth.h"
#include "linkage/oracle.h"

namespace hprl {
namespace {

VghPtr AgeVgh() {
  auto v = MakeEquiWidthVgh(16, 8, {3, 2, 2});
  EXPECT_TRUE(v.ok());
  return std::make_shared<const Vgh>(std::move(v).value());
}

AnonymizerConfig NameConfig(int64_t k) {
  AnonymizerConfig cfg;
  cfg.k = k;
  cfg.qid_attrs = {0, 1, 2};  // surname, city, age
  cfg.hierarchies = {nullptr, nullptr, AgeVgh()};
  return cfg;
}

MatchRule FuzzyRule() {
  MatchRule rule;
  AttrRule surname;
  surname.attr_index = 0;
  surname.type = AttrType::kText;
  surname.theta = 1;
  AttrRule city = surname;
  city.attr_index = 1;
  AttrRule age;
  age.attr_index = 2;
  age.type = AttrType::kNumeric;
  age.theta = 2.0 / 96.0;
  age.norm = 96;
  rule.attrs = {surname, city, age};
  return rule;
}

// ---------------------------------------------------------------- names

TEST(NamesTest, RegistryShapeAndDeterminism) {
  Table a = GenerateNameRegistry(300, 5);
  Table b = GenerateNameRegistry(300, 5);
  ASSERT_EQ(a.num_rows(), 300);
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.row(i), b.row(i));
    EXPECT_FALSE(a.at(i, 0).text().empty());
    EXPECT_GE(a.at(i, 2).num(), 17);
    EXPECT_LE(a.at(i, 2).num(), 90);
  }
}

TEST(NamesTest, RandomEditIsWithinOneOperation) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    std::string s = "garcia";
    std::string t = ApplyRandomEdit(s, rng);
    EXPECT_LE(EditDistance(s, t), 1);
  }
  // Editing the empty string only inserts.
  std::string e = ApplyRandomEdit("", rng);
  EXPECT_EQ(e.size(), 1u);
}

TEST(NamesTest, ZeroRatesCopyExactly) {
  Table a = GenerateNameRegistry(100, 6);
  Table b = CorruptRegistry(a, 0, 0, 1);
  for (int64_t i = 0; i < a.num_rows(); ++i) EXPECT_EQ(a.row(i), b.row(i));
}

TEST(NamesTest, CorruptionStaysWithinFuzzyRule) {
  Table a = GenerateNameRegistry(400, 7);
  Table b = CorruptRegistry(a, 0.5, 0.5, 2);
  MatchRule rule = FuzzyRule();
  // Each corrupted row is at most one edit per text field and ±1 in age, so
  // it still matches its source record under the fuzzy rule.
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_TRUE(RecordsMatch(a.row(i), b.row(i), rule)) << i;
  }
}

// ------------------------------------------------------- text anonymization

class TextAnonTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(TextAnonTest, MaxEntropyPrefixReleaseIsConsistentAndKAnonymous) {
  Table t = GenerateNameRegistry(600, 11);
  AnonymizerConfig cfg = NameConfig(GetParam());
  auto anon = MakeMaxEntropyAnonymizer(cfg)->Anonymize(t);
  ASSERT_TRUE(anon.ok()) << anon.status().ToString();
  EXPECT_TRUE(anon->IsKAnonymous(GetParam()))
      << "min group " << anon->MinGroupSize();

  std::set<int64_t> seen;
  for (const auto& g : anon->groups) {
    for (int64_t row : g.rows) {
      EXPECT_TRUE(seen.insert(row).second);
      for (int q = 0; q < 2; ++q) {
        const GenValue& gv = g.seq[q];
        ASSERT_EQ(gv.type, AttrType::kText);
        const std::string& s = t.at(row, q).text();
        // The release is accurate: the string extends the released prefix,
        // and an exact release equals the string.
        EXPECT_EQ(s.substr(0, gv.text_prefix.size()), gv.text_prefix);
        if (gv.text_exact) {
          EXPECT_EQ(s, gv.text_prefix);
        }
      }
    }
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), t.num_rows());
}

INSTANTIATE_TEST_SUITE_P(Ks, TextAnonTest,
                         ::testing::Values<int64_t>(1, 2, 8, 32, 128),
                         [](const ::testing::TestParamInfo<int64_t>& info) {
                           // Appending, not "k" + std::string&&, which
                           // trips GCC 12's -Wrestrict false positive.
                           std::string name = "k";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(TextAnonDataflyTest, PrefixLevelsAreKAnonymousWithBoundedSuppression) {
  Table t = GenerateNameRegistry(600, 12);
  AnonymizerConfig cfg = NameConfig(16);
  auto anon = MakeDataflyAnonymizer(cfg)->Anonymize(t);
  ASSERT_TRUE(anon.ok()) << anon.status().ToString();
  EXPECT_TRUE(anon->IsKAnonymous(16));
  EXPECT_LE(anon->suppressed, 16);
  for (const auto& g : anon->groups) {
    for (int64_t row : g.rows) {
      for (int q = 0; q < 2; ++q) {
        const std::string& s = t.at(row, q).text();
        EXPECT_EQ(s.substr(0, g.seq[q].text_prefix.size()),
                  g.seq[q].text_prefix);
      }
    }
  }
}

TEST(TextAnonTest, TdsAndMondrianRejectTextQids) {
  Table t = GenerateNameRegistry(100, 13);
  AnonymizerConfig cfg = NameConfig(4);
  cfg.class_attr = -1;
  auto mondrian = MakeMondrianAnonymizer(cfg)->Anonymize(t);
  EXPECT_EQ(mondrian.status().code(), StatusCode::kUnimplemented);
  cfg.class_attr = 2;  // numeric — TDS rejects class kind first or text
  auto tds = MakeTdsAnonymizer(cfg)->Anonymize(t);
  EXPECT_FALSE(tds.ok());
}

TEST(TextAnonTest, TextQidWithHierarchyRejected) {
  Table t = GenerateNameRegistry(100, 14);
  AnonymizerConfig cfg = NameConfig(4);
  cfg.hierarchies[0] = AgeVgh();  // a VGH on a text attribute is an error
  EXPECT_FALSE(MakeMaxEntropyAnonymizer(cfg)->Anonymize(t).ok());
}

// ------------------------------------------------------- blocking + hybrid

TEST(TextBlockingTest, MismatchLabelsAreSoundOnPrefixes) {
  Table a = GenerateNameRegistry(400, 15);
  Table b = CorruptRegistry(a, 0.3, 0.2, 3);
  AnonymizerConfig cfg = NameConfig(8);
  auto anon_a = MakeMaxEntropyAnonymizer(cfg)->Anonymize(a);
  auto anon_b = MakeMaxEntropyAnonymizer(cfg)->Anonymize(b);
  ASSERT_TRUE(anon_a.ok() && anon_b.ok());
  MatchRule rule = FuzzyRule();
  auto blocking = RunBlocking(*anon_a, *anon_b, rule);
  ASSERT_TRUE(blocking.ok());
  EXPECT_GT(blocking->mismatched_pairs, 0);

  // Every pair inside an N-labeled group pair must truly mismatch. (Checking
  // all M groups too: with text supremum infinite, M requires both exact.)
  // Validate by exhaustive re-derivation over a sample of group pairs.
  auto check_group = [&](const SequencePair& sp, bool expect_match) {
    for (int64_t ra : anon_a->groups[sp.group_r].rows) {
      for (int64_t rb : anon_b->groups[sp.group_s].rows) {
        EXPECT_EQ(RecordsMatch(a.row(ra), b.row(rb), rule), expect_match);
      }
    }
  };
  for (size_t i = 0; i < std::min<size_t>(5, blocking->matches.size()); ++i) {
    check_group(blocking->matches[i], true);
  }
  // Soundness of N is implied by total-count bookkeeping below: matches can
  // only live in M ∪ U.
  auto truth = CountMatchingPairs(a, b, rule);
  ASSERT_TRUE(truth.ok());
  EXPECT_LE(blocking->matched_pairs, *truth);
  EXPECT_GE(blocking->matched_pairs + blocking->unknown_pairs, *truth);
}

TEST(TextHybridTest, FullBudgetReachesPerfectRecallOnTypos) {
  Table a = GenerateNameRegistry(500, 16);
  Table b = CorruptRegistry(a, 0.35, 0.3, 4);
  AnonymizerConfig cfg = NameConfig(8);
  auto anon_a = MakeMaxEntropyAnonymizer(cfg)->Anonymize(a);
  auto anon_b = MakeMaxEntropyAnonymizer(cfg)->Anonymize(b);
  ASSERT_TRUE(anon_a.ok() && anon_b.ok());

  MatchRule rule = FuzzyRule();
  HybridConfig hc;
  hc.rule = rule;
  hc.smc_allowance_fraction = 1.0;
  CountingPlaintextOracle oracle(rule);
  auto result = RunHybridLinkage(a, b, *anon_a, *anon_b, hc, oracle);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(EvaluateRecall(a, b, rule, &result.value()).ok());
  EXPECT_DOUBLE_EQ(result->recall, 1.0);
  EXPECT_DOUBLE_EQ(result->precision, 1.0);
  // Every corrupted record should find its source: truth >= |a|.
  EXPECT_GE(result->true_matches, a.num_rows());
  // Blocking must have pruned something despite fuzzy matching.
  EXPECT_GT(result->blocking_efficiency, 0.3);
}

}  // namespace
}  // namespace hprl
