// Determinism of the batch-parallel SMC engine: every thread count must
// produce bit-identical labels, identical budget accounting and identical
// deterministic metrics. (smc.bytes_sent is deliberately NOT compared — the
// serialized length of a ciphertext depends on its random value, so byte
// traffic is equal only in distribution across thread counts.)

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/experiment.h"
#include "core/session.h"
#include "smc/protocol.h"
#include "smc/smc_oracle.h"

namespace hprl {
namespace {

struct Workload {
  ExperimentData data;
  AnonymizedTable anon_r;
  AnonymizedTable anon_s;
  MatchRule rule;
};

const Workload& SmallWorkload() {
  static const Workload* w = [] {
    auto data = PrepareAdultData(80, 77);
    EXPECT_TRUE(data.ok());
    auto cfg = MakeAdultAnonConfig(*data, 3, 4);
    EXPECT_TRUE(cfg.ok());
    auto anonymizer = MakeMaxEntropyAnonymizer(*cfg);
    auto anon_r = anonymizer->Anonymize(data->split.d1);
    auto anon_s = anonymizer->Anonymize(data->split.d2);
    EXPECT_TRUE(anon_r.ok() && anon_s.ok());
    std::vector<VghPtr> vghs;
    for (const auto& n : adult::AdultQidNames()) {
      vghs.push_back(data->hierarchies.ByName(n));
    }
    auto rule =
        MakeUniformRule(data->schema, adult::AdultQidNames(), vghs, 3, 0.05);
    EXPECT_TRUE(rule.ok());
    return new Workload{std::move(data).value(), std::move(anon_r).value(),
                        std::move(anon_s).value(), std::move(rule).value()};
  }();
  return *w;
}

smc::SmcConfig TestSmcConfig() {
  smc::SmcConfig cfg;
  cfg.key_bits = 256;  // small key keeps the suite fast; semantics equal
  cfg.test_seed = 11;
  return cfg;
}

std::vector<RowPairRequest> MakeBatch(const Workload& w, size_t limit) {
  std::vector<RowPairRequest> batch;
  const Table& r = w.data.split.d1;
  const Table& s = w.data.split.d2;
  for (int64_t i = 0; i < r.num_rows() && batch.size() < limit; ++i) {
    for (int64_t j = 0; j < s.num_rows() && batch.size() < limit; ++j) {
      batch.push_back({i, j, &r.row(i), &s.row(j)});
    }
  }
  return batch;
}

TEST(SmcMatchOracleTest, BatchLabelsIdenticalAcrossThreadCounts) {
  const Workload& w = SmallWorkload();
  const auto batch = MakeBatch(w, 40);

  std::vector<std::vector<uint8_t>> labels_by_threads;
  std::vector<smc::SmcCosts> costs_by_threads;
  for (int threads : {1, 4}) {
    smc::SmcMatchOracle engine(TestSmcConfig(), w.rule, threads);
    ASSERT_TRUE(engine.Init().ok());
    auto labels = engine.CompareBatch(batch);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    labels_by_threads.push_back(std::move(labels).value());
    costs_by_threads.push_back(engine.costs());
  }
  EXPECT_EQ(labels_by_threads[0], labels_by_threads[1]);
  EXPECT_EQ(costs_by_threads[0].invocations, costs_by_threads[1].invocations);
  EXPECT_EQ(costs_by_threads[0].encryptions, costs_by_threads[1].encryptions);
  EXPECT_EQ(costs_by_threads[0].decryptions, costs_by_threads[1].decryptions);

  // And the labels are the exact plaintext outcomes (SMC is exact).
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(labels_by_threads[0][i] != 0,
              RecordsMatch(*batch[i].a, *batch[i].b, w.rule))
        << i;
  }
}

TEST(SmcMatchOracleTest, BatchAgreesWithSerialCompareRows) {
  const Workload& w = SmallWorkload();
  const auto batch = MakeBatch(w, 20);

  smc::SmcMatchOracle engine(TestSmcConfig(), w.rule, 3);
  ASSERT_TRUE(engine.Init().ok());
  auto labels = engine.CompareBatch(batch);
  ASSERT_TRUE(labels.ok());

  smc::SmcMatchOracle serial(TestSmcConfig(), w.rule, 1);
  ASSERT_TRUE(serial.Init().ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto m = serial.CompareRows(batch[i].a_id, batch[i].b_id, *batch[i].a,
                                *batch[i].b);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ((*labels)[i] != 0, *m) << i;
  }
}

// The full pipeline: serial and parallel SMC oracles must produce identical
// HybridResults — same links, same budget accounting — and identical
// deterministic metrics.
TEST(ParallelSmcPipelineTest, SerialAndParallelRunsAreIdentical) {
  const Workload& w = SmallWorkload();

  HybridConfig hc;
  hc.rule = w.rule;
  hc.smc_allowance_fraction = 1.0;
  hc.collect_matches = true;

  struct RunOutcome {
    HybridResult result;
    std::map<std::string, int64_t> counters;
    std::map<std::string, obs::Histogram::Summary> histograms;
  };
  auto run_with = [&](int smc_threads) -> RunOutcome {
    smc::SmcMatchOracle oracle(TestSmcConfig(), w.rule, smc_threads);
    EXPECT_TRUE(oracle.Init().ok());
    obs::MetricsRegistry registry;
    auto out = LinkageSession()
                   .WithTables(w.data.split.d1, w.data.split.d2)
                   .WithReleases(w.anon_r, w.anon_s)
                   .WithConfig(hc)
                   .WithOracle(oracle)
                   .WithMetrics(&registry)
                   .Run();
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return {std::move(out).value(), registry.CounterValues(),
            registry.HistogramSummaries()};
  };

  RunOutcome serial = run_with(1);
  RunOutcome parallel = run_with(4);

  // Identical links (order included: results are position-addressed).
  EXPECT_EQ(serial.result.matched_row_pairs, parallel.result.matched_row_pairs);
  EXPECT_GT(serial.result.matched_row_pairs.size(), 0u);

  // Identical budget accounting.
  EXPECT_EQ(serial.result.smc_processed, parallel.result.smc_processed);
  EXPECT_EQ(serial.result.smc_matched, parallel.result.smc_matched);
  EXPECT_EQ(serial.result.reported_matches, parallel.result.reported_matches);
  EXPECT_EQ(serial.result.allowance_pairs, parallel.result.allowance_pairs);
  EXPECT_EQ(serial.result.unknown_pairs, parallel.result.unknown_pairs);
  EXPECT_GT(serial.result.smc_processed, 0);

  // Identical deterministic counters. Byte/traffic counters are excluded on
  // purpose (see file comment); pool hit/miss split depends on filler timing
  // but the total number of takes does not.
  for (const char* name :
       {"smc.invocations", "smc.matched", "smc.allowance_pairs", "smc.rounds",
        "smc.attr_comparisons", "smc.batches", "linkage.reported_matches",
        "paillier.decryptions", "paillier.encryptions",
        "paillier.homomorphic_adds", "paillier.scalar_muls",
        "blocking.pairs_total", "blocking.pairs_m", "blocking.pairs_u",
        "blocking.slack_cache_hits", "blocking.slack_cache_misses"}) {
    ASSERT_TRUE(serial.counters.count(name)) << name;
    ASSERT_TRUE(parallel.counters.count(name)) << name;
    EXPECT_EQ(serial.counters.at(name), parallel.counters.at(name)) << name;
  }
  const int64_t serial_takes =
      serial.counters.at("paillier.randomizer_pool_hits") +
      serial.counters.at("paillier.randomizer_pool_misses");
  const int64_t parallel_takes =
      parallel.counters.at("paillier.randomizer_pool_hits") +
      parallel.counters.at("paillier.randomizer_pool_misses");
  EXPECT_EQ(serial_takes, parallel_takes);

  // Same number of per-compare and per-batch latency samples.
  EXPECT_EQ(serial.histograms.at("smc.compare_seconds").count,
            parallel.histograms.at("smc.compare_seconds").count);
  EXPECT_EQ(serial.histograms.at("smc.batch_seconds").count,
            parallel.histograms.at("smc.batch_seconds").count);
}

smc::SmcConfig PackedSmcConfig(int pack_pairs, int slot_bits = 64) {
  smc::SmcConfig cfg = TestSmcConfig();
  // A 512-bit modulus holds more pairs than the cap of the tests below, so
  // groups hold more than one pair and the amortization assertions below
  // have teeth.
  cfg.key_bits = 512;
  cfg.pack_pairs = pack_pairs;
  cfg.pack_slot_bits = slot_bits;
  return cfg;
}

// Packing is exact: the plaintext rule's labels (RecordsMatch), at every
// thread count, with more than one pair per exchange (the cost counters
// prove it).
TEST(PackedSmcTest, PackedLabelsMatchPlaintextAtEveryThreadCount) {
  const Workload& w = SmallWorkload();
  const auto batch = MakeBatch(w, 40);
  std::vector<uint8_t> truth;
  for (const RowPairRequest& p : batch) {
    truth.push_back(RecordsMatch(*p.a, *p.b, w.rule) ? kPairMatch
                                                     : kPairNonMatch);
  }
  ASSERT_NE(std::count(truth.begin(), truth.end(), kPairMatch), 0);

  for (int threads : {1, 4}) {
    smc::SmcMatchOracle packed(PackedSmcConfig(4), w.rule, threads);
    ASSERT_TRUE(packed.Init().ok());
    auto labels = packed.CompareBatch(batch);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    EXPECT_EQ(*labels, truth) << "threads=" << threads;
    EXPECT_GT(packed.costs().packed_exchanges, 0) << "threads=" << threads;
    EXPECT_GT(packed.costs().packed_pairs,
              packed.costs().packed_exchanges)  // > 1 pair per exchange
        << "threads=" << threads;
  }
}

// Full packed groups whose slots carry negative numeric encodings and
// category 0 on either side: with the cross terms pre-weighted by Alice,
// Bob exponentiates by these raw (zero, negative) y_i, and every label must
// still equal the plaintext rule at 1 and 4 threads.
TEST(PackedSmcTest, NegativeAndZeroValuesMatchPlaintext) {
  MatchRule rule;
  AttrRule cat;
  cat.attr_index = 0;
  cat.type = AttrType::kCategorical;
  cat.theta = 0.5;
  cat.domain_hi = 2;  // categories {0, 1}
  AttrRule num;
  num.attr_index = 1;
  num.type = AttrType::kNumeric;
  num.theta = 0.1;
  num.norm = 40;  // |x - y| <= 4 matches
  num.domain_lo = -20;
  num.domain_hi = 20;
  rule.attrs = {cat, num};

  const smc::SmcConfig cfg = PackedSmcConfig(4);
  const int group =
      *smc::PackedGroupPairs(cfg, smc::RuleOperands(rule, cfg.fp_scale));
  ASSERT_EQ(group, 4);  // the cap: 5 + 31 bits a pair, 14 pairs would fit

  const std::vector<double> nums = {-12.5, -3.0, 0.0, -0.25, 2.75, -7.0};
  std::vector<Record> as, bs;
  for (size_t i = 0; i < 4 * static_cast<size_t>(group); ++i) {
    const int32_t ca = static_cast<int32_t>(i % 3 == 0 ? 0 : i % 2);
    const int32_t cb = static_cast<int32_t>(i % 4 == 0 ? 0 : i % 2);
    as.push_back({Value::Category(ca), Value::Numeric(nums[i % nums.size()])});
    bs.push_back({Value::Category(cb),
                  Value::Numeric(nums[(i + i / 2) % nums.size()] + 1.5)});
  }
  std::vector<RowPairRequest> batch;
  for (size_t i = 0; i < as.size(); ++i) {
    batch.push_back({static_cast<int64_t>(i), static_cast<int64_t>(i), &as[i],
                     &bs[i]});
  }
  std::vector<uint8_t> oracle;
  for (size_t i = 0; i < as.size(); ++i) {
    oracle.push_back(RecordsMatch(as[i], bs[i], rule) ? 1 : 0);
  }
  ASSERT_NE(std::count(oracle.begin(), oracle.end(), 1), 0);
  ASSERT_NE(std::count(oracle.begin(), oracle.end(), 0), 0);

  for (int threads : {1, 4}) {
    smc::SmcMatchOracle packed(cfg, rule, threads);
    ASSERT_TRUE(packed.Init().ok());
    auto labels = packed.CompareBatch(batch);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    EXPECT_EQ(*labels, oracle) << "threads=" << threads;
    // Every pair rode a packed unit.
    EXPECT_EQ(packed.costs().packed_pairs, static_cast<int64_t>(batch.size()))
        << "threads=" << threads;
  }
}

// Same fault schedule + same seed => the packed engine is deterministic
// across thread counts (quarantine labels included).
TEST(PackedSmcTest, PackedDeterministicUnderFaults) {
  const Workload& w = SmallWorkload();
  const auto batch = MakeBatch(w, 40);

  smc::SmcConfig cfg = PackedSmcConfig(4);
  cfg.fault_plan.seed = 47;
  cfg.fault_plan.drop_rate = 0.15;
  cfg.fault_plan.corrupt_rate = 0.10;
  cfg.fault_plan.crash_rate = 0.05;
  const size_t group = static_cast<size_t>(
      *smc::PackedGroupPairs(cfg, smc::RuleOperands(w.rule, cfg.fp_scale)));
  ASSERT_GT(group, 1u);

  std::vector<std::vector<uint8_t>> by_threads;
  for (int threads : {1, 4}) {
    smc::SmcMatchOracle engine(cfg, w.rule, threads);
    ASSERT_TRUE(engine.Init().ok());
    auto labels = engine.CompareBatch(batch);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    // A crash takes out its whole packed group, never part of one.
    const int64_t quarantined =
        std::count(labels->begin(), labels->end(), kPairQuarantined);
    EXPECT_GT(quarantined, 0) << "threads=" << threads;
    EXPECT_LT(quarantined, static_cast<int64_t>(batch.size()))
        << "threads=" << threads;
    EXPECT_EQ(engine.pairs_quarantined(), quarantined) << "threads=" << threads;
    for (size_t begin = 0; begin < batch.size(); begin += group) {
      const size_t end = std::min(begin + group, batch.size());
      const auto first = (*labels)[begin] == kPairQuarantined;
      for (size_t i = begin; i < end; ++i) {
        EXPECT_EQ((*labels)[i] == kPairQuarantined, first)
            << "threads=" << threads << " pair " << i;
      }
    }
    by_threads.push_back(std::move(labels).value());
  }
  EXPECT_EQ(by_threads[0], by_threads[1]);
}

// A semantic error in the middle of a batch — here two values outside
// their attribute's declared domain, at pairs 21 and 30 — fails the batch
// with the same status at every thread count and unit size: the holder
// refuses to encode the value before any exchange runs.
TEST(SmcMatchOracleTest, MidBatchSemanticErrorIsThreadCountInvariant) {
  MatchRule rule;
  AttrRule cat;
  cat.attr_index = 0;
  cat.type = AttrType::kCategorical;
  cat.theta = 0.5;
  cat.domain_hi = 4;
  AttrRule num;
  num.attr_index = 1;
  num.type = AttrType::kNumeric;
  num.theta = 0.1;
  num.norm = 100;
  num.domain_hi = 100;
  rule.attrs = {cat, num};

  std::vector<Record> as, bs;
  for (int i = 0; i < 40; ++i) {
    const double outside = i == 21 ? 100 : (i == 30 ? -0.001 : 50);
    as.push_back({Value::Category(1), Value::Numeric(50)});
    bs.push_back({Value::Category(i % 3), Value::Numeric(outside)});
  }
  std::vector<RowPairRequest> batch;
  for (size_t i = 0; i < as.size(); ++i) {
    batch.push_back({static_cast<int64_t>(i), static_cast<int64_t>(i), &as[i],
                     &bs[i]});
  }

  for (const smc::SmcConfig& cfg : {TestSmcConfig(), PackedSmcConfig(4)}) {
    std::vector<std::string> by_threads;
    for (int threads : {1, 4}) {
      smc::SmcMatchOracle engine(cfg, rule, threads);
      ASSERT_TRUE(engine.Init().ok());
      auto labels = engine.CompareBatch(batch);
      ASSERT_FALSE(labels.ok()) << "threads=" << threads;
      EXPECT_EQ(labels.status().code(), StatusCode::kInvalidArgument)
          << labels.status().ToString();
      EXPECT_NE(labels.status().message().find("100"), std::string::npos)
          << "the first failing pair, 21, names the error: "
          << labels.status().ToString();
      EXPECT_EQ(engine.pairs_quarantined(), 0) << "threads=" << threads;
      by_threads.push_back(labels.status().ToString());
    }
    EXPECT_EQ(by_threads[0], by_threads[1]) << "pack_pairs=" << cfg.pack_pairs;
  }
  EXPECT_GT(*smc::PackedGroupPairs(PackedSmcConfig(4),
                                   smc::RuleOperands(rule, 1000)),
            1);
}

// A slot cap narrower than an attribute's declared domain needs: the rule
// cannot form a unit, and the engine refuses it at Init, before generating
// a key.
TEST(PackedSmcTest, NarrowSlotsAreRefusedAtInit) {
  const Workload& w = SmallWorkload();
  // fp_scale = 1000 puts the age domain's encodings near 10⁵ in magnitude,
  // so its squared distances need far more than the 8-bit cap.
  const smc::SmcConfig narrow_cfg = PackedSmcConfig(4, /*slot_bits=*/8);
  EXPECT_EQ(smc::PackedGroupPairs(narrow_cfg, smc::RuleOperands(w.rule, 1000))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  smc::SmcMatchOracle narrow(narrow_cfg, w.rule, 2);
  const Status st = narrow.Init();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("slot_bits 8"), std::string::npos)
      << st.ToString();
}

// --------------------------------------------- one oracle contract

/// A random world for the entry-point equivalence below: one to three
/// attributes (categorical with θ sometimes ≥ 1, i.e. vacuous; numeric with
/// signed values), and pairs drawn close enough that both labels occur.
struct EntryWorld {
  MatchRule rule;
  std::vector<Record> as, bs;
};

EntryWorld MakeEntryWorld(uint64_t seed) {
  Rng rng(seed);
  EntryWorld w;
  const int attrs = static_cast<int>(rng.NextInt(1, 3));
  for (int i = 0; i < attrs; ++i) {
    AttrRule a;
    a.attr_index = i;
    // Every attribute declares a domain, so the packed configuration packs.
    if (rng.NextBernoulli(0.5)) {
      a.type = AttrType::kCategorical;
      a.theta = rng.NextDouble(0.1, 1.3);
      a.domain_hi = 3;
    } else {
      a.type = AttrType::kNumeric;
      a.theta = rng.NextDouble(0.02, 0.3);
      a.norm = rng.NextDouble(10, 100);
      a.domain_lo = -2 * a.norm;  // holds x ± 1.6·θ·norm, x within norm/4
      a.domain_hi = 2 * a.norm;
    }
    w.rule.attrs.push_back(a);
  }
  for (int p = 0; p < 14; ++p) {
    Record a, b;
    for (const AttrRule& r : w.rule.attrs) {
      if (r.type == AttrType::kCategorical) {
        const auto c = static_cast<int32_t>(rng.NextBounded(2));
        a.push_back(Value::Category(c));
        b.push_back(Value::Category(
            rng.NextBernoulli(0.7) ? c : static_cast<int32_t>(rng.NextBounded(3))));
      } else {
        const double x = rng.NextDouble(-r.norm / 4, r.norm / 4);
        const double reach = r.theta * r.norm;
        a.push_back(Value::Numeric(x));
        b.push_back(Value::Numeric(x + rng.NextDouble(-1.6 * reach, 1.6 * reach)));
      }
    }
    w.as.push_back(std::move(a));
    w.bs.push_back(std::move(b));
  }
  return w;
}

/// Labels every pair through each of the three MatchOracle entry points, in
/// that order; slot e of the result holds entry point e's labels.
std::vector<std::vector<uint8_t>> LabelsByEntryPoint(MatchOracle& oracle,
                                                     const EntryWorld& w) {
  std::vector<std::vector<uint8_t>> out(3);
  std::vector<RowPairRequest> batch;
  for (size_t i = 0; i < w.as.size(); ++i) {
    auto c = oracle.Compare(w.as[i], w.bs[i]);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    out[0].push_back(c.ok() && *c ? kPairMatch : kPairNonMatch);
    const auto id = static_cast<int64_t>(i);
    auto r = oracle.CompareRows(id, 100 + id, w.as[i], w.bs[i]);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out[1].push_back(r.ok() && *r ? kPairMatch : kPairNonMatch);
    batch.push_back({id, 100 + id, &w.as[i], &w.bs[i]});
  }
  auto labels = oracle.CompareBatch(batch);
  EXPECT_TRUE(labels.ok()) << labels.status().ToString();
  if (labels.ok()) out[2] = std::move(labels).value();
  return out;
}

class OracleEntryPointTest : public ::testing::TestWithParam<uint64_t> {};

// Compare, CompareRows and CompareBatch are one contract: on random worlds
// each gives the plaintext rule's labels, on the plaintext oracle and on
// the SMC oracle at two unit sizes, at 1 and 4 threads. Every entry point
// counts one invocation per pair.
TEST_P(OracleEntryPointTest, EveryEntryPointLabelsLikeThePlaintextRule) {
  const EntryWorld w = MakeEntryWorld(GetParam());
  std::vector<uint8_t> truth;
  for (size_t i = 0; i < w.as.size(); ++i) {
    truth.push_back(RecordsMatch(w.as[i], w.bs[i], w.rule) ? kPairMatch
                                                           : kPairNonMatch);
  }
  const auto pairs = static_cast<int64_t>(w.as.size());
  ASSERT_NE(std::count(truth.begin(), truth.end(), kPairMatch), 0);
  ASSERT_NE(std::count(truth.begin(), truth.end(), kPairNonMatch), 0);

  CountingPlaintextOracle plain(w.rule);
  for (const auto& labels : LabelsByEntryPoint(plain, w)) {
    EXPECT_EQ(labels, truth);
  }
  EXPECT_EQ(plain.invocations(), 3 * pairs);

  for (const smc::SmcConfig& cfg : {TestSmcConfig(), PackedSmcConfig(4)}) {
    for (int threads : {1, 4}) {
      smc::SmcMatchOracle oracle(cfg, w.rule, threads);
      ASSERT_TRUE(oracle.Init().ok());
      const auto by_entry = LabelsByEntryPoint(oracle, w);
      for (size_t e = 0; e < by_entry.size(); ++e) {
        EXPECT_EQ(by_entry[e], truth) << "pack_pairs=" << cfg.pack_pairs
                                      << " threads=" << threads
                                      << " entry=" << e;
      }
      EXPECT_EQ(oracle.invocations(), 3 * pairs);
      EXPECT_EQ(oracle.pairs_quarantined(), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleEntryPointTest,
                         ::testing::Range<uint64_t>(1, 7),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// The offline phase prewarms whenever offline_pairs is set: the material
// store only loads and persists. Without one, the pool holds exactly the
// randomizers that many pairs draw once Init returns.
TEST(OfflineBudgetTest, PrewarmsWithoutAMaterialStore) {
  const Workload& w = SmallWorkload();
  smc::SmcConfig cfg = PackedSmcConfig(4);
  cfg.offline_pairs = 100;
  ASSERT_TRUE(cfg.material_dir.empty());
  const smc::RoleDraws draws = *smc::RandomizerDraws(
      cfg, smc::RuleOperands(w.rule, cfg.fp_scale), cfg.offline_pairs);
  ASSERT_GT(draws.total(), smc::kRandomizerPoolFloor);
  smc::SmcMatchOracle oracle(cfg, w.rule, 2);
  ASSERT_TRUE(oracle.Init().ok());
  EXPECT_EQ(oracle.randomizer_pool()->depth(), draws.total());
  EXPECT_EQ(oracle.randomizer_pool()->hits(), 0);
}

// The per-role counts, spelled out once by hand: three compared
// attributes, three pairs per unit (a cap of four, but three pairs decrypt
// with one CRT half at 512 bits); a plan error comes back instead.
TEST(OfflineBudgetTest, PerRoleCountsFollowTheExchange) {
  const Workload& w = SmallWorkload();
  const smc::RuleOperands operands(w.rule, 1000);
  ASSERT_EQ(operands.size(), 3u);
  smc::SmcConfig packed = PackedSmcConfig(4);
  ASSERT_EQ(*smc::PackedGroupPairs(packed, operands), 3);
  const smc::RoleDraws p = *smc::RandomizerDraws(packed, operands, 7);
  EXPECT_EQ(p.alice, 3);          // Σx² per unit
  EXPECT_EQ(p.bob, 7 * 3 + 3);    // at most a column per slot + Σy² per unit
  packed.pack_pairs = 0;
  EXPECT_EQ(smc::RandomizerDraws(packed, operands, 7).status().code(),
            StatusCode::kInvalidArgument);
}

class ExactDrawsTest : public ::testing::TestWithParam<uint64_t> {};

// Property: fault-free, a batch of any size draws exactly Σ(d·k + 2) from
// the pool at every unit size and thread count, d the distinct R rows of
// each unit and k the compared attributes. RandomizerDraws bounds it, so a
// pool prewarmed with that count never misses. MakeBatch drains R-row-major,
// as a session does, so most units repeat an R row.
TEST_P(ExactDrawsTest, PoolDrawsEqualTheExactCount) {
  const Workload& w = SmallWorkload();
  Rng rng(GetParam());
  const std::pair<const char*, smc::SmcConfig> modes[] = {
      {"4 pairs at 512 bits", PackedSmcConfig(4)},
      {"default units at 256 bits", TestSmcConfig()}};
  for (const auto& [mode, base] : modes) {
    const auto pairs = rng.NextInt(1, 300);
    const auto batch = MakeBatch(w, static_cast<size_t>(pairs));
    ASSERT_EQ(batch.size(), static_cast<size_t>(pairs));
    smc::SmcConfig cfg = base;
    cfg.offline_pairs = static_cast<int>(pairs);
    const smc::RuleOperands operands(w.rule, cfg.fp_scale);
    const auto k = static_cast<int64_t>(operands.size());
    const auto g = static_cast<size_t>(*smc::PackedGroupPairs(cfg, operands));
    int64_t want = 0;
    for (size_t begin = 0; begin < batch.size(); begin += g) {
      std::set<int64_t> rows;
      for (size_t i = begin; i < std::min(begin + g, batch.size()); ++i) {
        rows.insert(batch[i].a_id);
      }
      want += static_cast<int64_t>(rows.size()) * k + 2;
    }
    EXPECT_LE(want, smc::RandomizerDraws(cfg, operands, pairs)->total());
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(mode) + " pairs=" + std::to_string(pairs) +
                   " threads=" + std::to_string(threads));
      smc::SmcMatchOracle oracle(cfg, w.rule, threads);
      ASSERT_TRUE(oracle.Init().ok());
      auto labels = oracle.CompareBatch(batch);
      ASSERT_TRUE(labels.ok()) << labels.status().ToString();
      const crypto::RandomizerPool* pool = oracle.randomizer_pool();
      EXPECT_EQ(pool->hits() + pool->misses(), want);
      EXPECT_EQ(pool->misses(), 0);
      EXPECT_EQ(oracle.costs().encryptions, want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactDrawsTest,
                         ::testing::Range<uint64_t>(1, 7),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hprl
