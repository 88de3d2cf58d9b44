#include <gtest/gtest.h>

#include <set>

#include "adult/adult.h"
#include "anon/anonymizer.h"
#include "anon/metrics.h"
#include "anon/release_io.h"
#include "common/hash.h"
#include "core/experiment.h"
#include "data/names.h"
#include "obs/metrics.h"

namespace hprl {
namespace {

/// Shared small Adult sample.
class AnonFixture {
 public:
  static const ExperimentData& Data() {
    static const ExperimentData* data = [] {
      auto d = PrepareAdultData(900, 11);
      EXPECT_TRUE(d.ok());
      return new ExperimentData(std::move(d).value());
    }();
    return *data;
  }
};

/// Every row of every group must be consistent with the group's sequence:
/// the generalization is imprecise but always accurate (paper §IV).
void CheckConsistency(const Table& table, const AnonymizedTable& anon,
                      const AnonymizerConfig& cfg) {
  int64_t covered = 0;
  std::set<int64_t> seen;
  for (const auto& g : anon.groups) {
    for (int64_t row : g.rows) {
      EXPECT_TRUE(seen.insert(row).second) << "row in two groups";
      ++covered;
      for (size_t q = 0; q < cfg.qid_attrs.size(); ++q) {
        const GenValue& gv = g.seq[q];
        const Value& v = table.at(row, cfg.qid_attrs[q]);
        if (gv.type == AttrType::kCategorical) {
          EXPECT_GE(v.category(), gv.cat_lo);
          EXPECT_LT(v.category(), gv.cat_hi);
        } else {
          EXPECT_GE(v.num(), gv.num_lo);
          EXPECT_LE(v.num(), gv.num_hi + 1e-9);
        }
      }
    }
  }
  EXPECT_EQ(covered, table.num_rows());
}

struct MethodK {
  std::string method;
  int64_t k;
};

class AnonymizerParamTest : public ::testing::TestWithParam<MethodK> {};

TEST_P(AnonymizerParamTest, ProducesValidKAnonymousPartition) {
  const auto& data = AnonFixture::Data();
  auto cfg = MakeAdultAnonConfig(data, 5, GetParam().k);
  ASSERT_TRUE(cfg.ok());
  auto anonymizer = MakeAnonymizerByName(GetParam().method, *cfg);
  ASSERT_TRUE(anonymizer.ok());

  auto anon = (*anonymizer)->Anonymize(data.split.d1);
  ASSERT_TRUE(anon.ok()) << anon.status().ToString();
  EXPECT_EQ(anon->num_rows, data.split.d1.num_rows());
  EXPECT_TRUE(anon->IsKAnonymous(GetParam().k))
      << GetParam().method << " k=" << GetParam().k
      << " min group=" << anon->MinGroupSize();
  CheckConsistency(data.split.d1, *anon, *cfg);
  // DataFly may suppress at most k rows.
  EXPECT_LE(anon->suppressed, GetParam().k);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndKs, AnonymizerParamTest,
    ::testing::Values(MethodK{"MaxEntropy", 2}, MethodK{"MaxEntropy", 8},
                      MethodK{"MaxEntropy", 32}, MethodK{"MaxEntropy", 128},
                      MethodK{"TDS", 2}, MethodK{"TDS", 8}, MethodK{"TDS", 32},
                      MethodK{"TDS", 128}, MethodK{"DataFly", 2},
                      MethodK{"DataFly", 8}, MethodK{"DataFly", 32},
                      MethodK{"DataFly", 128}, MethodK{"Mondrian", 2},
                      MethodK{"Mondrian", 8}, MethodK{"Mondrian", 32},
                      MethodK{"Mondrian", 128}, MethodK{"Incognito", 2},
                      MethodK{"Incognito", 8}, MethodK{"Incognito", 32},
                      MethodK{"Incognito", 128}),
    [](const ::testing::TestParamInfo<MethodK>& info) {
      return info.param.method + "_k" + std::to_string(info.param.k);
    });

TEST(MaxEntropyTest, KOneReleasesOriginalNumericValues) {
  const auto& data = AnonFixture::Data();
  auto cfg = MakeAdultAnonConfig(data, 5, 1);
  ASSERT_TRUE(cfg.ok());
  auto anon = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1);
  ASSERT_TRUE(anon.ok());
  // Paper §III extreme (1): k=1 means the release is fully specific — every
  // sequence value is a singleton.
  for (const auto& g : anon->groups) {
    for (const auto& gv : g.seq) {
      EXPECT_TRUE(gv.IsSingleton());
    }
  }
}

TEST(MaxEntropyTest, LargeKCollapsesTowardRoot) {
  const auto& data = AnonFixture::Data();
  int64_t n = data.split.d1.num_rows();
  auto cfg = MakeAdultAnonConfig(data, 5, n);
  ASSERT_TRUE(cfg.ok());
  auto anon = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1);
  ASSERT_TRUE(anon.ok());
  // Paper §III extreme (2): k=|R| leaves (essentially) one root group.
  EXPECT_EQ(anon->NumSequences(), 1);
}

TEST(MaxEntropyTest, SequencesDecreaseWithK) {
  const auto& data = AnonFixture::Data();
  int64_t prev = -1;
  for (int64_t k : {2, 8, 32, 128}) {
    auto cfg = MakeAdultAnonConfig(data, 5, k);
    ASSERT_TRUE(cfg.ok());
    auto anon = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1);
    ASSERT_TRUE(anon.ok());
    if (prev >= 0) {
      EXPECT_LE(anon->NumSequences(), prev) << "k=" << k;
    }
    prev = anon->NumSequences();
  }
}

TEST(MaxEntropyTest, BeatsTdsAndDataflyOnSequenceCount) {
  // The paper's Fig. 2 headline at small k.
  const auto& data = AnonFixture::Data();
  auto cfg = MakeAdultAnonConfig(data, 5, 8);
  ASSERT_TRUE(cfg.ok());
  auto me = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1);
  auto tds = MakeTdsAnonymizer(*cfg)->Anonymize(data.split.d1);
  auto df = MakeDataflyAnonymizer(*cfg)->Anonymize(data.split.d1);
  ASSERT_TRUE(me.ok());
  ASSERT_TRUE(tds.ok());
  ASSERT_TRUE(df.ok());
  EXPECT_GT(me->NumSequences(), tds->NumSequences());
  EXPECT_GT(me->NumSequences(), df->NumSequences());
}

TEST(TdsTest, RequiresClassAttribute) {
  const auto& data = AnonFixture::Data();
  auto cfg = MakeAdultAnonConfig(data, 5, 8);
  ASSERT_TRUE(cfg.ok());
  cfg->class_attr = -1;
  auto anon = MakeTdsAnonymizer(*cfg)->Anonymize(data.split.d1);
  EXPECT_FALSE(anon.ok());
}

TEST(DataflySuppressionTest, SuppressionGroupIsRootSequence) {
  const auto& data = AnonFixture::Data();
  auto cfg = MakeAdultAnonConfig(data, 5, 16);
  ASSERT_TRUE(cfg.ok());
  auto anon = MakeDataflyAnonymizer(*cfg)->Anonymize(data.split.d1);
  ASSERT_TRUE(anon.ok());
  for (const auto& g : anon->groups) {
    if (!g.is_suppression_group) continue;
    EXPECT_EQ(static_cast<int64_t>(g.rows.size()), anon->suppressed);
    for (size_t q = 0; q < g.seq.size(); ++q) {
      const GenValue& gv = g.seq[q];
      if (gv.type == AttrType::kCategorical) {
        EXPECT_EQ(gv.cat_lo, 0);
        EXPECT_EQ(gv.cat_hi, cfg->hierarchies[q]->num_leaves());
      } else {
        EXPECT_DOUBLE_EQ(gv.num_lo, cfg->hierarchies[q]->node(Vgh::kRoot).lo);
      }
    }
  }
}

TEST(QidDataTest, RejectsBadConfigs) {
  const auto& data = AnonFixture::Data();
  {
    AnonymizerConfig cfg;  // no QIDs
    cfg.k = 4;
    EXPECT_FALSE(MakeMaxEntropyAnonymizer(cfg)
                     ->Anonymize(data.split.d1)
                     .ok());
  }
  {
    auto cfg = MakeAdultAnonConfig(data, 3, 0);  // k < 1
    ASSERT_TRUE(cfg.ok());
    EXPECT_FALSE(MakeMaxEntropyAnonymizer(*cfg)
                     ->Anonymize(data.split.d1)
                     .ok());
  }
  {
    auto cfg = MakeAdultAnonConfig(data, 3, 4);
    ASSERT_TRUE(cfg.ok());
    cfg->hierarchies[1] = cfg->hierarchies[0];  // kind mismatch (numeric VGH
                                                // for categorical attribute)
    EXPECT_FALSE(MakeMaxEntropyAnonymizer(*cfg)
                     ->Anonymize(data.split.d1)
                     .ok());
  }
}

TEST(MetricsTest, BasicAccounting) {
  const auto& data = AnonFixture::Data();
  auto cfg = MakeAdultAnonConfig(data, 5, 16);
  ASSERT_TRUE(cfg.ok());
  auto anon = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1);
  ASSERT_TRUE(anon.ok());

  EXPECT_EQ(DistinctSequences(*anon), anon->NumSequences());
  EXPECT_NEAR(AverageGroupSize(*anon) * static_cast<double>(anon->NumSequences()),
              static_cast<double>(anon->num_rows), 1e-6);
  // Discernibility is at least k * N (every row is in a group of >= k).
  EXPECT_GE(DiscernibilityCost(*anon), 16 * anon->num_rows);
  // l-diversity of income is at least 1 and at most 2 (binary class).
  int64_t l = LDiversity(data.split.d1, *anon, data.schema->FindIndex("income"));
  EXPECT_GE(l, 1);
  EXPECT_LE(l, 2);
}

TEST(LDiversityTest, ConstraintIsEnforcedWhenRequested) {
  const auto& data = AnonFixture::Data();
  int income = data.schema->FindIndex("income");
  ASSERT_GE(income, 0);
  auto cfg = MakeAdultAnonConfig(data, 5, 8);
  ASSERT_TRUE(cfg.ok());
  cfg->l_diversity = 2;
  cfg->sensitive_attr = income;
  auto anon = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1);
  ASSERT_TRUE(anon.ok()) << anon.status().ToString();
  EXPECT_TRUE(anon->IsKAnonymous(8));
  EXPECT_GE(LDiversity(data.split.d1, *anon, income), 2);
}

TEST(LDiversityTest, ConstraintCostsGranularity) {
  const auto& data = AnonFixture::Data();
  auto cfg = MakeAdultAnonConfig(data, 5, 8);
  ASSERT_TRUE(cfg.ok());
  auto plain = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1);
  ASSERT_TRUE(plain.ok());
  cfg->l_diversity = 2;
  cfg->sensitive_attr = data.schema->FindIndex("income");
  auto diverse = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1);
  ASSERT_TRUE(diverse.ok());
  EXPECT_LE(diverse->NumSequences(), plain->NumSequences());
}

TEST(LDiversityTest, NeedsCategoricalSensitiveAttr) {
  const auto& data = AnonFixture::Data();
  auto cfg = MakeAdultAnonConfig(data, 5, 8);
  ASSERT_TRUE(cfg.ok());
  cfg->l_diversity = 2;
  cfg->sensitive_attr = -1;
  EXPECT_FALSE(MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1).ok());
  cfg->sensitive_attr = data.schema->FindIndex("age");  // numeric
  EXPECT_FALSE(MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1).ok());
}

TEST(MetricsTest, GeneralizationLossOrderedByK) {
  // Loss is 0 at k=1 (fully specific), grows with k, and reaches ~1 at k=n.
  const auto& data = AnonFixture::Data();
  double prev = -1;
  for (int64_t k : std::vector<int64_t>{1, 8, 64, data.split.d1.num_rows()}) {
    auto cfg = MakeAdultAnonConfig(data, 5, k);
    ASSERT_TRUE(cfg.ok());
    auto anon = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1);
    ASSERT_TRUE(anon.ok());
    auto loss = AverageGeneralizationLoss(*anon, cfg->hierarchies);
    ASSERT_TRUE(loss.ok());
    EXPECT_GE(*loss, prev - 1e-9) << k;
    EXPECT_GE(*loss, 0.0);
    EXPECT_LE(*loss, 1.0);
    if (k == 1) {
      EXPECT_NEAR(*loss, 0.0, 1e-9);
    }
    if (k == data.split.d1.num_rows()) {
      EXPECT_GT(*loss, 0.9);
    }
    prev = *loss;
  }
}

TEST(MetricsTest, GeneralizationLossValidatesInput) {
  const auto& data = AnonFixture::Data();
  auto cfg = MakeAdultAnonConfig(data, 5, 8);
  ASSERT_TRUE(cfg.ok());
  auto anon = MakeMaxEntropyAnonymizer(*cfg)->Anonymize(data.split.d1);
  ASSERT_TRUE(anon.ok());
  std::vector<VghPtr> too_few(cfg->hierarchies.begin(),
                              cfg->hierarchies.end() - 1);
  EXPECT_FALSE(AverageGeneralizationLoss(*anon, too_few).ok());
}

TEST(MondrianTest, BoxesAreTight) {
  const auto& data = AnonFixture::Data();
  auto cfg = MakeAdultAnonConfig(data, 4, 8);
  ASSERT_TRUE(cfg.ok());
  auto anon = MakeMondrianAnonymizer(*cfg)->Anonymize(data.split.d1);
  ASSERT_TRUE(anon.ok());
  // Tightness: each box's bounds are attained by some row.
  for (const auto& g : anon->groups) {
    for (size_t q = 0; q < g.seq.size(); ++q) {
      const GenValue& gv = g.seq[q];
      bool lo_hit = false, hi_hit = false;
      for (int64_t row : g.rows) {
        const Value& v = data.split.d1.at(row, cfg->qid_attrs[q]);
        if (gv.type == AttrType::kNumeric) {
          lo_hit |= v.num() == gv.num_lo;
          hi_hit |= v.num() == gv.num_hi;
        } else {
          lo_hit |= v.category() == gv.cat_lo;
          hi_hit |= v.category() == gv.cat_hi - 1;
        }
      }
      EXPECT_TRUE(lo_hit && hi_hit);
    }
  }
}

// ------------------------------------------------------- golden releases
//
// Group order, row order and every sequence value are part of a release, so
// a faster kernel must reproduce these digests of FormatRelease(..., true)
// exactly. They were recorded before the anonymizers' index tables, flat
// value splits and move-only child partitions went in.

struct GoldenRun {
  uint64_t digest = 0;
  int64_t groups = 0;
  int64_t specializations = 0;
};

/// Anonymizes each table in turn and digests the concatenated full releases.
GoldenRun RunGolden(const std::string& method, AnonymizerConfig cfg,
                    const std::vector<const Table*>& tables) {
  obs::MetricsRegistry registry;
  cfg.metrics = &registry;
  auto anonymizer = MakeAnonymizerByName(method, cfg);
  EXPECT_TRUE(anonymizer.ok());
  std::string releases;
  for (const Table* t : tables) {
    auto anon = (*anonymizer)->Anonymize(*t);
    EXPECT_TRUE(anon.ok()) << anon.status().ToString();
    if (!anon.ok()) return {};
    releases += FormatRelease(*anon, /*include_rows=*/true);
  }
  GoldenRun run;
  run.digest = Fnv1a64(releases);
  const auto counters = registry.CounterValues();
  if (auto it = counters.find("anon.groups"); it != counters.end()) {
    run.groups = it->second;
  }
  if (auto it = counters.find("anon.specializations"); it != counters.end()) {
    run.specializations = it->second;
  }
  return run;
}

/// hprl_gen's generator and split at `seed`, at the paper's k = 32.
GoldenRun MaxEntropyOnGenerated(uint64_t seed) {
  auto data = PrepareAdultData(6000, seed);
  EXPECT_TRUE(data.ok());
  auto cfg = MakeAdultAnonConfig(*data, 5, 32);
  EXPECT_TRUE(cfg.ok());
  return RunGolden("MaxEntropy", *cfg, {&data->split.d1, &data->split.d2});
}

TEST(GoldenReleaseTest, MaxEntropyGeneratedSeed711) {
  GoldenRun run = MaxEntropyOnGenerated(711);
  EXPECT_EQ(run.digest, 0x718f82275df593bfULL);
  EXPECT_EQ(run.groups, 103);
  EXPECT_EQ(run.specializations, 127);
}

TEST(GoldenReleaseTest, MaxEntropyGeneratedSeed712) {
  GoldenRun run = MaxEntropyOnGenerated(712);
  EXPECT_EQ(run.digest, 0x4390682be7ba59eeULL);
  EXPECT_EQ(run.groups, 107);
  EXPECT_EQ(run.specializations, 127);
}

TEST(GoldenReleaseTest, MaxEntropyLDiversity3) {
  auto data = PrepareAdultData(6000, 711);
  ASSERT_TRUE(data.ok());
  auto cfg = MakeAdultAnonConfig(*data, 5, 8);
  ASSERT_TRUE(cfg.ok());
  cfg->l_diversity = 3;
  cfg->sensitive_attr = data->schema->FindIndex("native-country");
  GoldenRun run = RunGolden("MaxEntropy", *cfg, {&data->split.d1});
  EXPECT_EQ(run.digest, 0xfcd1d2a1b74e8a81ULL);
  EXPECT_EQ(run.groups, 67);
  EXPECT_EQ(run.specializations, 99);
}

TEST(GoldenReleaseTest, MaxEntropyTextQids) {
  // The text-linkage registry: surname and city by prefix, age by VGH.
  Table t = GenerateNameRegistry(600, 11);
  auto age = MakeEquiWidthVgh(16, 8, {3, 2, 2});
  ASSERT_TRUE(age.ok());
  AnonymizerConfig cfg;
  cfg.k = 4;
  cfg.qid_attrs = {0, 1, 2};
  cfg.hierarchies = {nullptr, nullptr,
                     std::make_shared<const Vgh>(std::move(age).value())};
  GoldenRun run = RunGolden("MaxEntropy", cfg, {&t});
  EXPECT_EQ(run.digest, 0x1c6caf360c5137f1ULL);
  EXPECT_EQ(run.groups, 81);
  EXPECT_EQ(run.specializations, 136);
}

TEST(GoldenReleaseTest, MaxEntropyWideNumericLeaves) {
  // 400 distinct values per leaf, each on three rows spread across the
  // table: exact splits must emit values ascending and keep each value's
  // rows in table order.
  auto schema = std::make_shared<Schema>();
  schema->AddNumeric("income");
  Table t(schema);
  for (int i = 0; i < 4800; ++i) {
    t.AppendUnchecked({Value::Numeric((i * 7919 % 1600) * 2.5)});
  }
  auto income = MakeEquiWidthVgh(0, 1000, {2, 2});
  ASSERT_TRUE(income.ok());
  AnonymizerConfig cfg;
  cfg.k = 3;
  cfg.qid_attrs = {0};
  cfg.hierarchies = {std::make_shared<const Vgh>(std::move(income).value())};
  GoldenRun run = RunGolden("MaxEntropy", cfg, {&t});
  EXPECT_EQ(run.digest, 0xe0558ce2f86ea9f0ULL);
  EXPECT_EQ(run.groups, 1600);
  EXPECT_EQ(run.specializations, 7);
}

TEST(GoldenReleaseTest, Tds) {
  auto data = PrepareAdultData(6000, 711);
  ASSERT_TRUE(data.ok());
  auto cfg = MakeAdultAnonConfig(*data, 5, 32);
  ASSERT_TRUE(cfg.ok());
  GoldenRun run = RunGolden("TDS", *cfg, {&data->split.d1, &data->split.d2});
  EXPECT_EQ(run.digest, 0x23b61b8c76464be2ULL);
}

}  // namespace
}  // namespace hprl
