// Cross-module property tests: randomized invariants that tie the
// anonymizers, the slack decision rule, the heuristics and the crypto layer
// together. These are the guarantees the paper's correctness argument rests
// on (blocking soundness above all: an M or N label must hold for EVERY
// concrete record pair consistent with the generalizations).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "anon/release_io.h"
#include "core/blocking.h"
#include "core/experiment.h"
#include "core/heuristics.h"
#include "crypto/paillier.h"
#include "linkage/expected.h"
#include "linkage/ground_truth.h"

namespace hprl {
namespace {

const ExperimentData& PropData() {
  static const ExperimentData* data = [] {
    auto d = PrepareAdultData(750, 99);
    EXPECT_TRUE(d.ok());
    return new ExperimentData(std::move(d).value());
  }();
  return *data;
}

Result<MatchRule> PropRule(double theta = 0.05, int qids = 5) {
  const auto& data = PropData();
  std::vector<VghPtr> vghs;
  for (const auto& n : adult::AdultQidNames()) {
    vghs.push_back(data.hierarchies.ByName(n));
  }
  return MakeUniformRule(data.schema, adult::AdultQidNames(), vghs, qids,
                         theta);
}

// ------------------------------------------------------ blocking soundness

struct SoundnessParam {
  std::string method;
  int64_t k;
  double theta;
};

class BlockingSoundnessTest : public ::testing::TestWithParam<SoundnessParam> {
};

TEST_P(BlockingSoundnessTest, LabelsHoldForEveryConcretePair) {
  const auto& data = PropData();
  auto cfg = MakeAdultAnonConfig(data, 5, GetParam().k);
  ASSERT_TRUE(cfg.ok());
  auto anonymizer = MakeAnonymizerByName(GetParam().method, *cfg);
  ASSERT_TRUE(anonymizer.ok());
  auto anon_r = (*anonymizer)->Anonymize(data.split.d1);
  auto anon_s = (*anonymizer)->Anonymize(data.split.d2);
  ASSERT_TRUE(anon_r.ok() && anon_s.ok());
  auto rule = PropRule(GetParam().theta);
  ASSERT_TRUE(rule.ok());

  // Re-derive labels group pair by group pair and verify against plaintext,
  // with a work cap per label so the test stays fast.
  int64_t checked_m = 0, checked_n = 0;
  constexpr int64_t kCap = 60000;
  for (const auto& gr : anon_r->groups) {
    for (const auto& gs : anon_s->groups) {
      PairLabel label = SlackDecide(gr.seq, gs.seq, *rule);
      if (label == PairLabel::kUnknown) continue;
      int64_t* counter = label == PairLabel::kMatch ? &checked_m : &checked_n;
      if (*counter > kCap) continue;
      for (int64_t rr : gr.rows) {
        for (int64_t sr : gs.rows) {
          bool matches =
              RecordsMatch(data.split.d1.row(rr), data.split.d2.row(sr), *rule);
          if (label == PairLabel::kMatch) {
            ASSERT_TRUE(matches) << GetParam().method;
          } else {
            ASSERT_FALSE(matches) << GetParam().method;
          }
          ++*counter;
        }
      }
    }
  }
  EXPECT_GT(checked_n, 0);  // mismatches must exist at these settings
}

INSTANTIATE_TEST_SUITE_P(
    MethodsKsThetas, BlockingSoundnessTest,
    ::testing::Values(SoundnessParam{"MaxEntropy", 4, 0.05},
                      SoundnessParam{"MaxEntropy", 32, 0.05},
                      SoundnessParam{"MaxEntropy", 4, 0.10},
                      SoundnessParam{"DataFly", 16, 0.05},
                      SoundnessParam{"Mondrian", 8, 0.05},
                      SoundnessParam{"Incognito", 16, 0.05},
                      SoundnessParam{"TDS", 16, 0.05}),
    [](const ::testing::TestParamInfo<SoundnessParam>& info) {
      return info.param.method + "_k" + std::to_string(info.param.k) + "_t" +
             std::to_string(static_cast<int>(info.param.theta * 100));
    });

// --------------------------------------------- expected distance bracketing

TEST(ExpectedDistanceProperty, LiesWithinSlackBoundsForCategoricals) {
  Rng rng(5);
  AttrRule rule;
  rule.type = AttrType::kCategorical;
  for (int trial = 0; trial < 500; ++trial) {
    int32_t lo1 = static_cast<int32_t>(rng.NextBounded(20));
    int32_t hi1 = lo1 + 1 + static_cast<int32_t>(rng.NextBounded(10));
    int32_t lo2 = static_cast<int32_t>(rng.NextBounded(20));
    int32_t hi2 = lo2 + 1 + static_cast<int32_t>(rng.NextBounded(10));
    GenValue v = GenValue::CategoryRange(lo1, hi1);
    GenValue w = GenValue::CategoryRange(lo2, hi2);
    SlackBounds sb = AttrSlack(v, w, rule);
    double ed = ExpectedAttrDistance(v, w, rule);
    EXPECT_GE(ed, sb.inf - 1e-12);
    EXPECT_LE(ed, sb.sup + 1e-12);
  }
}

TEST(ExpectedDistanceProperty, SquaredExpectationBracketsForNumerics) {
  Rng rng(6);
  AttrRule rule;
  rule.type = AttrType::kNumeric;
  rule.norm = 100;
  for (int trial = 0; trial < 500; ++trial) {
    double a1 = rng.NextDouble(0, 80), b1 = a1 + rng.NextDouble(0, 20);
    double a2 = rng.NextDouble(0, 80), b2 = a2 + rng.NextDouble(0, 20);
    GenValue v = GenValue::NumericInterval(a1, b1);
    GenValue w = GenValue::NumericInterval(a2, b2);
    SlackBounds sb = AttrSlack(v, w, rule);
    double ed = ExpectedAttrDistance(v, w, rule);  // E[(normalized d)^2]
    EXPECT_GE(ed, sb.inf * sb.inf - 1e-12);
    EXPECT_LE(ed, sb.sup * sb.sup + 1e-12);
  }
}

// ------------------------------------------------------- heuristic ordering

TEST(HeuristicProperty, OrderIsMonotoneInItsKey) {
  const auto& data = PropData();
  auto cfg = MakeAdultAnonConfig(data, 5, 16);
  ASSERT_TRUE(cfg.ok());
  auto anon_r = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1);
  auto anon_s = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d2);
  ASSERT_TRUE(anon_r.ok() && anon_s.ok());
  auto rule = PropRule();
  ASSERT_TRUE(rule.ok());
  auto blocking = RunBlocking(*anon_r, *anon_s, *rule);
  ASSERT_TRUE(blocking.ok());
  ASSERT_GT(blocking->unknown.size(), 1u);

  Rng rng(1);
  for (SelectionHeuristic h :
       {SelectionHeuristic::kMinFirst, SelectionHeuristic::kMaxLast,
        SelectionHeuristic::kMinAvgFirst}) {
    auto order =
        OrderUnknownPairs(*blocking, *anon_r, *anon_s, *rule, h, rng);
    double prev = -1;
    for (size_t idx : order) {
      const SequencePair& sp = blocking->unknown[idx];
      auto ed = ExpectedDistances(anon_r->groups[sp.group_r].seq,
                                  anon_s->groups[sp.group_s].seq, *rule);
      double key = 0;
      switch (h) {
        case SelectionHeuristic::kMinFirst:
          key = *std::min_element(ed.begin(), ed.end());
          break;
        case SelectionHeuristic::kMaxLast:
          key = *std::max_element(ed.begin(), ed.end());
          break;
        default:
          key = std::accumulate(ed.begin(), ed.end(), 0.0) / ed.size();
      }
      EXPECT_GE(key, prev - 1e-12) << HeuristicName(h);
      prev = key;
    }
  }
}

// ----------------------------------------------------- release round trips

class ReleaseRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ReleaseRoundTripTest, EveryAnonymizerSurvivesSerialization) {
  const auto& data = PropData();
  auto cfg = MakeAdultAnonConfig(data, 5, 16);
  ASSERT_TRUE(cfg.ok());
  auto anonymizer = MakeAnonymizerByName(GetParam(), *cfg);
  ASSERT_TRUE(anonymizer.ok());
  auto anon = (*anonymizer)->Anonymize(data.split.d1);
  ASSERT_TRUE(anon.ok());
  auto back = ParseRelease(FormatRelease(*anon, true));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->groups.size(), anon->groups.size());
  for (size_t i = 0; i < anon->groups.size(); ++i) {
    EXPECT_EQ(back->groups[i].seq, anon->groups[i].seq);
    EXPECT_EQ(back->groups[i].rows, anon->groups[i].rows);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, ReleaseRoundTripTest,
                         ::testing::Values("MaxEntropy", "TDS", "DataFly",
                                           "Mondrian", "Incognito"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --------------------------------------------------------- crypto sweeps

class PaillierSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PaillierSweepTest, HomomorphismsHoldForRandomPlaintexts) {
  crypto::SecureRandom keyrng(static_cast<uint64_t>(GetParam()));
  auto kp = crypto::GeneratePaillierKeyPair(GetParam(), keyrng);
  ASSERT_TRUE(kp.ok());
  crypto::SecureRandom rng(4711);
  Rng values(static_cast<uint64_t>(GetParam()) * 31 + 1);
  for (int trial = 0; trial < 12; ++trial) {
    int64_t a = values.NextInt(-1000000, 1000000);
    int64_t b = values.NextInt(-1000000, 1000000);
    int64_t s = values.NextInt(-50, 50);
    auto ca = kp->pub.EncryptSigned(crypto::BigInt(a), rng);
    auto cb = kp->pub.EncryptSigned(crypto::BigInt(b), rng);
    ASSERT_TRUE(ca.ok() && cb.ok());
    auto sum = kp->priv.DecryptSigned(kp->pub.Add(*ca, *cb));
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(*sum, crypto::BigInt(a + b));
    auto scaled =
        kp->priv.DecryptSigned(kp->pub.ScalarMul(*ca, crypto::BigInt(s)));
    ASSERT_TRUE(scaled.ok());
    EXPECT_EQ(*scaled, crypto::BigInt(a * s));
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, PaillierSweepTest,
                         ::testing::Values(128, 256, 512),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "bits" + std::to_string(info.param);
                         });

// ----------------------------------------------- ground truth invariances

TEST(GroundTruthProperty, MatchesAreMonotoneInTheta) {
  const auto& data = PropData();
  int64_t prev = -1;
  for (double theta : {0.0, 0.02, 0.05, 0.1, 0.5}) {
    auto rule = PropRule(theta);
    ASSERT_TRUE(rule.ok());
    auto n = CountMatchingPairs(data.split.d1, data.split.d2, *rule);
    ASSERT_TRUE(n.ok());
    EXPECT_GE(*n, prev);
    prev = *n;
  }
}

TEST(GroundTruthProperty, MatchesAreAntitoneInQidCount) {
  // Adding attributes to the conjunction can only remove matches.
  const auto& data = PropData();
  int64_t prev = std::numeric_limits<int64_t>::max();
  for (int qids = 1; qids <= 8; ++qids) {
    auto rule = PropRule(0.05, qids);
    ASSERT_TRUE(rule.ok());
    auto n = CountMatchingPairs(data.split.d1, data.split.d2, *rule);
    ASSERT_TRUE(n.ok());
    EXPECT_LE(*n, prev) << qids;
    prev = *n;
  }
  // The shared d3 block survives even the full conjunction.
  EXPECT_GE(prev, data.split.shared_count);
}

// --------------------------------------------- randomized pipeline sweep

/// Fuzz-flavored end-to-end invariants: random hierarchies, random tables,
/// random parameters — the pipeline must keep its accounting identities and
/// 100% precision regardless.
class RandomPipelineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPipelineTest, InvariantsHoldOnRandomWorlds) {
  Rng rng(GetParam());

  // Random categorical hierarchy: 2-4 branches, 2-4 leaves each.
  VghBuilder b(Vgh::Kind::kCategorical);
  int any = b.AddRoot("ANY");
  int branches = static_cast<int>(rng.NextInt(2, 4));
  for (int bi = 0; bi < branches; ++bi) {
    // Names are appended, not built as "b" + std::string&&, which trips
    // GCC 12's -Wrestrict false positive.
    std::string branch = "b";
    branch += std::to_string(bi);
    int mid = b.AddChild(any, branch);
    int leaves = static_cast<int>(rng.NextInt(2, 4));
    for (int li = 0; li < leaves; ++li) {
      std::string leaf = "l";
      leaf += std::to_string(bi);
      leaf += "_";
      leaf += std::to_string(li);
      b.AddChild(mid, leaf);
    }
  }
  auto vgh_or = b.Build();
  ASSERT_TRUE(vgh_or.ok());
  auto cat_vgh = std::make_shared<const Vgh>(std::move(vgh_or).value());
  auto num_or = MakeEquiWidthVgh(0, rng.NextInt(2, 10), {2, 2, 2});
  ASSERT_TRUE(num_or.ok());
  auto num_vgh = std::make_shared<const Vgh>(std::move(num_or).value());

  auto schema = std::make_shared<Schema>();
  schema->AddCategorical("c", cat_vgh->MakeDomain());
  schema->AddNumeric("v");
  auto make_table = [&](int64_t n) {
    Table t(schema);
    for (int64_t i = 0; i < n; ++i) {
      t.AppendUnchecked(
          {Value::Category(static_cast<int32_t>(
               rng.NextBounded(static_cast<uint64_t>(cat_vgh->num_leaves())))),
           Value::Numeric(rng.NextDouble(0, num_vgh->RootRange() * 0.999))});
    }
    return t;
  };
  Table r = make_table(rng.NextInt(20, 120));
  Table s = make_table(rng.NextInt(20, 120));

  MatchRule rule;
  {
    AttrRule c;
    c.attr_index = 0;
    c.type = AttrType::kCategorical;
    c.theta = rng.NextDouble(0.1, 1.2);  // sometimes vacuous
    AttrRule v;
    v.attr_index = 1;
    v.type = AttrType::kNumeric;
    v.theta = rng.NextDouble(0.0, 0.4);
    v.norm = num_vgh->RootRange();
    rule.attrs = {c, v};
  }

  AnonymizerConfig cfg;
  cfg.k = rng.NextInt(1, 10);
  cfg.qid_attrs = {0, 1};
  cfg.hierarchies = {cat_vgh, num_vgh};
  const char* methods[] = {"MaxEntropy", "DataFly", "Mondrian", "Incognito"};
  auto anonymizer =
      MakeAnonymizerByName(methods[rng.NextBounded(4)], cfg);
  ASSERT_TRUE(anonymizer.ok());
  auto anon_r = (*anonymizer)->Anonymize(r);
  auto anon_s = (*anonymizer)->Anonymize(s);
  ASSERT_TRUE(anon_r.ok() && anon_s.ok());

  HybridConfig hc;
  hc.rule = rule;
  hc.smc_allowance_fraction = rng.NextDouble(0, 0.2);
  hc.heuristic = static_cast<SelectionHeuristic>(rng.NextBounded(4));
  hc.collect_matches = true;
  CountingPlaintextOracle oracle(rule);
  auto result = RunHybridLinkage(r, s, *anon_r, *anon_s, hc, oracle);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Accounting identities.
  EXPECT_EQ(result->total_pairs, r.num_rows() * s.num_rows());
  EXPECT_EQ(result->blocked_match_pairs + result->blocked_mismatch_pairs +
                result->unknown_pairs,
            result->total_pairs);
  EXPECT_LE(result->smc_processed, result->allowance_pairs);
  EXPECT_EQ(result->reported_matches,
            static_cast<int64_t>(result->matched_row_pairs.size()));

  // 100% precision: every reported link truly matches.
  for (const auto& [rr, sr] : result->matched_row_pairs) {
    EXPECT_TRUE(RecordsMatch(r.row(rr), s.row(sr), rule)) << GetParam();
  }
  // Reported <= truth, and truth is reachable with unlimited budget.
  auto truth = CountMatchingPairs(r, s, rule);
  ASSERT_TRUE(truth.ok());
  EXPECT_LE(result->reported_matches, *truth);
  HybridConfig full = hc;
  full.smc_allowance_fraction = 1.0;
  CountingPlaintextOracle oracle2(rule);
  auto complete = RunHybridLinkage(r, s, *anon_r, *anon_s, full, oracle2);
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(complete->reported_matches, *truth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineTest,
                         ::testing::Range<uint64_t>(1, 13),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hprl
