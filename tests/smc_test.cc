#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "crypto/secure_random.h"
#include "obs/metrics.h"
#include "smc/channel.h"
#include "smc/parties.h"
#include "smc/protocol.h"
#include "smc/smc_oracle.h"

namespace hprl::smc {
namespace {

using crypto::BigInt;

// ---------------------------------------------------------------- channel

TEST(MessageBusTest, FifoPerRecipientAndStats) {
  MessageBus bus;
  bus.Send({"a", "b", "t1", {1, 2, 3}});
  bus.Send({"a", "b", "t2", {4}});
  bus.Send({"b", "a", "t3", {}});

  auto m1 = bus.Receive("b");
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1->tag, "t1");
  auto m2 = bus.Receive("b");
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->tag, "t2");
  EXPECT_FALSE(bus.Receive("b").ok());

  EXPECT_EQ(bus.total_messages(), 3);
  EXPECT_EQ(bus.total_bytes(), 4);
  auto it = bus.links().find({"a", "b"});
  ASSERT_NE(it, bus.links().end());
  EXPECT_EQ(it->second.messages, 2);
  EXPECT_EQ(it->second.bytes, 4);
}

TEST(MessageBusTest, ExpectEnforcesTag) {
  MessageBus bus;
  bus.Send({"a", "b", "right", {}});
  bus.Send({"a", "b", "wrong", {}});
  EXPECT_TRUE(bus.Expect("b", "right").ok());
  EXPECT_FALSE(bus.Expect("b", "right").ok());
}

TEST(SerializationTest, BigIntRoundTripsThroughPayload) {
  std::vector<uint8_t> buf;
  auto big = BigInt::FromString("123456789123456789123456789");
  ASSERT_TRUE(big.ok());
  AppendBigInt(*big, &buf);
  AppendBigInt(BigInt(0), &buf);
  AppendBigInt(BigInt(255), &buf);

  size_t off = 0;
  auto x = ConsumeBigInt(buf, &off);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(*x, *big);
  auto y = ConsumeBigInt(buf, &off);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, BigInt(0));
  auto z = ConsumeBigInt(buf, &off);
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(*z, BigInt(255));
  EXPECT_EQ(off, buf.size());
  EXPECT_FALSE(ConsumeBigInt(buf, &off).ok());  // exhausted
}

TEST(SerializationTest, TruncationDetected) {
  std::vector<uint8_t> buf;
  AppendBigInt(BigInt(1234567), &buf);
  buf.pop_back();
  size_t off = 0;
  EXPECT_FALSE(ConsumeBigInt(buf, &off).ok());
}

// ---------------------------------------------------------------- protocol

/// One categorical and one numeric attribute, both declaring the domains
/// that size their packing slots: categories [0, 8) and values [0, 100).
MatchRule MixedRule() {
  MatchRule rule;
  AttrRule cat;
  cat.attr_index = 0;
  cat.type = AttrType::kCategorical;
  cat.theta = 0.5;
  cat.name = "cat";
  cat.domain_hi = 8;
  AttrRule num;
  num.attr_index = 1;
  num.type = AttrType::kNumeric;
  num.theta = 0.1;
  num.norm = 100;  // |x-y| <= 10 matches
  num.name = "num";
  num.domain_hi = 100;
  rule.attrs = {cat, num};
  return rule;
}

SmcConfig FastConfig() {
  SmcConfig cfg;
  cfg.key_bits = 256;  // small key: fast tests; 1024 covered separately
  cfg.test_seed = 4242;
  return cfg;
}

Record Rec(int32_t cat, double num) {
  return {Value::Category(cat), Value::Numeric(num)};
}

TEST(ProtocolTest, AgreesWithPlaintextRule) {
  MatchRule rule = MixedRule();
  SecureRecordComparator cmp(FastConfig(), rule);
  ASSERT_TRUE(cmp.Init().ok());

  struct Case {
    Record a, b;
  };
  std::vector<Case> cases = {
      {Rec(1, 50), Rec(1, 55)},   // match
      {Rec(1, 50), Rec(1, 60)},   // boundary: |d|=10 <= 10 -> match
      {Rec(1, 50), Rec(1, 61)},   // numeric fail
      {Rec(1, 50), Rec(2, 50)},   // categorical fail
      {Rec(3, 1), Rec(3, 99)},    // numeric fail big
      {Rec(0, 42), Rec(0, 42)},   // identical
  };
  for (const auto& c : cases) {
    auto secure = cmp.Compare(c.a, c.b);
    ASSERT_TRUE(secure.ok()) << secure.status().ToString();
    EXPECT_EQ(*secure, RecordsMatch(c.a, c.b, rule))
        << c.a[0].category() << "," << c.a[1].num() << " vs "
        << c.b[0].category() << "," << c.b[1].num();
  }
}

TEST(ProtocolCostTest, CountsOperationsAndBytes) {
  MatchRule rule = MixedRule();
  SecureRecordComparator cmp(FastConfig(), rule);
  ASSERT_TRUE(cmp.Init().ok());
  int64_t bytes_after_init = cmp.bus().total_bytes();

  // A one-pair unit: alice encrypts the packed x² and one cross term per
  // attribute, bob the packed y², and qp decrypts once.
  ASSERT_TRUE(cmp.Compare(Rec(1, 50), Rec(1, 55)).ok());
  const SmcCosts& costs = cmp.costs();
  EXPECT_EQ(costs.invocations, 1);
  EXPECT_EQ(costs.attr_comparisons, 2);  // both attrs evaluated (match)
  EXPECT_EQ(costs.encryptions, 2 + 1 + 1);
  EXPECT_EQ(costs.decryptions, 1);
  EXPECT_EQ(costs.packed_exchanges, 1);
  EXPECT_EQ(costs.packed_pairs, 1);
  EXPECT_GT(cmp.bus().total_bytes(), bytes_after_init);

  // No early exit: a categorical mismatch still evaluates every compared
  // attribute.
  ASSERT_TRUE(cmp.Compare(Rec(1, 50), Rec(2, 50)).ok());
  EXPECT_EQ(cmp.costs().invocations, 2);
  EXPECT_EQ(cmp.costs().attr_comparisons, 4);
  EXPECT_EQ(cmp.costs().encryptions, 2 * 4);
  EXPECT_EQ(cmp.costs().decryptions, 2);
}

// Packability and each attribute's slot width are plan-time properties of
// the config and the rule's declared domains, never of the values compared.
TEST(ProtocolTest, PackedGroupPairsComesFromDeclaredDomains) {
  SmcConfig cfg = FastConfig();
  cfg.pack_pairs = 8;
  MatchRule rule = MixedRule();
  rule.attrs[0].domain_hi = 16;  // categories [0, 16): (2·16)² needs 11 bits
  rule.attrs[1].domain_lo = -50;  // [-50, 150): (2·150000)² needs 37 bits
  rule.attrs[1].domain_hi = 150;
  EXPECT_EQ(RuleOperands(rule, cfg.fp_scale).slot_widths(),
            (std::vector<int>{11, 37}));
  // 256-bit key: ⌊254 / 48⌋ pairs.
  EXPECT_EQ(*PackedGroupPairs(cfg, RuleOperands(rule, cfg.fp_scale)), 5);
  cfg.pack_pairs = 2;
  EXPECT_EQ(*PackedGroupPairs(cfg, RuleOperands(rule, cfg.fp_scale)), 2);
  cfg.pack_pairs = 8;
  cfg.pack_slot_bits = 37;  // the numeric slot exactly at the cap
  EXPECT_EQ(*PackedGroupPairs(cfg, RuleOperands(rule, cfg.fp_scale)), 5);
}

/// Status of planning `rule` under `cfg`: PackedGroupPairs', and what the
/// comparator's and the oracle's Init report for it.
Status PlanStatus(const SmcConfig& cfg, const MatchRule& rule) {
  Status planned =
      PackedGroupPairs(cfg, RuleOperands(rule, cfg.fp_scale)).status();
  SecureRecordComparator cmp(cfg, rule);
  EXPECT_EQ(cmp.Init().code(), planned.code()) << planned.ToString();
  SmcMatchOracle oracle(cfg, rule);
  EXPECT_EQ(oracle.Init().code(), planned.code()) << planned.ToString();
  return planned;
}

// Every unit is packed, so what used to fall back to scalar units is
// refused when the plan is made — by PackedGroupPairs, which the
// comparator's and the oracle's Init both report before generating a key —
// with a message naming the attribute and what to change.
TEST(ProtocolTest, PlanRefusesRulesThatCannotFormAUnit) {
  auto refused = [](const SmcConfig& cfg, const MatchRule& rule,
                    const std::string& needle) {
    Status st = PlanStatus(cfg, rule);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(needle), std::string::npos) << st.ToString();
  };
  EXPECT_TRUE(PlanStatus(FastConfig(), MixedRule()).ok());

  MatchRule no_domain = MixedRule();
  no_domain.attrs[1].domain_hi = 0;
  refused(FastConfig(), no_domain, "'num' declares no domain");

  MatchRule text = MixedRule();
  text.attrs[0].type = AttrType::kText;
  text.attrs[0].theta = 1;
  refused(FastConfig(), text, "text attribute 'cat'");

  SmcConfig unpacked = FastConfig();
  unpacked.pack_pairs = 0;
  refused(unpacked, MixedRule(), "smc_pack 0");

  SmcConfig narrow = FastConfig();
  narrow.pack_slot_bits = 35;  // num's [0, 100) takes 36 bits
  refused(narrow, MixedRule(), "raise slot_bits to at least 36");

  MatchRule wide;  // seven 36-bit slots: 252 of 254 bits fit
  wide.attrs.assign(7, MixedRule().attrs[1]);
  EXPECT_EQ(*PackedGroupPairs(FastConfig(),
                              RuleOperands(wide, FastConfig().fp_scale)),
            1);
  wide.attrs.push_back(MixedRule().attrs[0]);  // plus 9 bits: past the key
  refused(FastConfig(), wide, "do not fit a 256-bit key");

  MatchRule vacuous = MixedRule();
  vacuous.attrs.resize(1);
  vacuous.attrs[0].theta = 1.0;  // Hamming <= 1 always: nothing to compare
  refused(FastConfig(), vacuous, "compares no attribute");
}

/// The paper's §VI rule shape: age on its VGH root range [16, 112) and four
/// categoricals of 16, 14, 7 and 7 leaves, all at θ = 0.05.
MatchRule SectionSixRule() {
  MatchRule rule;
  AttrRule age;
  age.attr_index = 0;
  age.type = AttrType::kNumeric;
  age.theta = 0.05;
  age.norm = 96;
  age.domain_lo = 16;
  age.domain_hi = 112;
  rule.attrs.push_back(age);
  const int leaves[] = {16, 14, 7, 7};
  for (int i = 0; i < 4; ++i) {
    AttrRule cat;
    cat.attr_index = i + 1;
    cat.type = AttrType::kCategorical;
    cat.theta = 0.05;
    cat.domain_hi = leaves[i];
    rule.attrs.push_back(cat);
  }
  return rule;
}

Record SectionSixRec(double age, int32_t a, int32_t b, int32_t c, int32_t d) {
  return {Value::Numeric(age), Value::Category(a), Value::Category(b),
          Value::Category(c), Value::Category(d)};
}

// A §VI pair takes 36 + 11 + 10 + 8 + 8 = 73 bits: 14 fit a Paillier-1024
// plaintext and 3 fit at 256 bits. Six pairs (438 bits) are the most one
// CRT half decrypts at 1024 bits, so a cap of 7 to 11 pairs gives 6-pair
// units, while from 12 pairs on the wider unit keeps more than twice the
// pairs and wins. No 256-bit unit decrypts with one half. A slot cap below
// age's 36 bits is refused.
TEST(ProtocolTest, SectionSixRulePacksSixPairsAt1024BitsAndThreeAt256) {
  const MatchRule rule = SectionSixRule();
  SmcConfig cfg = FastConfig();
  cfg.pack_pairs = 8;
  const RuleOperands operands(rule, cfg.fp_scale);
  EXPECT_EQ(operands.slot_widths(), (std::vector<int>{36, 11, 10, 8, 8}));
  EXPECT_EQ(*PackedGroupPairs(cfg, operands), 3);
  cfg.key_bits = 1024;
  EXPECT_EQ(crypto::NarrowPlaintextBits(1024), 447);
  const std::pair<int, int> units[] = {{1, 1},   {5, 5},   {6, 6},  {7, 6},
                                       {8, 6},   {11, 6},  {12, 12},
                                       {14, 14}, {64, 14}};
  for (const auto& [cap, want] : units) {
    cfg.pack_pairs = cap;
    EXPECT_EQ(*PackedGroupPairs(cfg, operands), want) << "smc_pack " << cap;
  }
  cfg.pack_pairs = 8;
  cfg.pack_slot_bits = 35;
  EXPECT_EQ(PackedGroupPairs(cfg, operands).status().code(),
            StatusCode::kInvalidArgument);
  cfg.pack_slot_bits = 36;
  EXPECT_EQ(*PackedGroupPairs(cfg, operands), 6);

  // One 256-bit unit of three pairs at the domains' edges: ONE decryption,
  // and the plaintext rule's labels.
  SmcConfig small = FastConfig();
  small.pack_pairs = 8;
  SecureRecordComparator cmp(small, rule);
  ASSERT_EQ(cmp.unit_pairs(), 3);
  ASSERT_TRUE(cmp.Init().ok());
  const Record lo = SectionSixRec(16, 0, 0, 0, 0);
  const Record hi = SectionSixRec(111.999, 15, 13, 6, 6);
  const Record near_hi = SectionSixRec(107.2, 15, 13, 6, 6);
  const std::vector<RowPairRequest> unit = {
      {0, 1, &lo, &hi}, {2, 3, &hi, &near_hi}, {4, 5, &lo, &lo}};
  auto labels = cmp.CompareUnit(unit);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  for (size_t i = 0; i < unit.size(); ++i) {
    EXPECT_EQ((*labels)[i], RecordsMatch(*unit[i].a, *unit[i].b, rule))
        << "pair " << i;
  }
  EXPECT_EQ(*labels, (std::vector<bool>{false, true, true}));
  EXPECT_EQ(cmp.costs().decryptions, 1);
  EXPECT_EQ(cmp.costs().packed_pairs, 3);
  EXPECT_EQ(cmp.costs().encryptions, 3 * 5 + 1 + 1);
}

// A unit's plaintext is as wide as its slots: a 6-pair §VI unit needs 438
// bits, which leaves the 64-bit margin below a 1024-bit key's 512-bit p, so
// the querying party decrypts it with one CRT half; a 7-pair unit (511
// bits, in a plan of 14-pair units) takes the full CRT. Either way: one
// decryption per unit and the plaintext rule's labels.
TEST(ProtocolTest, SectionSixUnitsOfSixPairsDecryptNarrowAndSevenFull) {
  const MatchRule rule = SectionSixRule();
  crypto::SecureRandom key_rng(1066);
  auto kp = crypto::GeneratePaillierKeyPair(1024, key_rng);
  ASSERT_TRUE(kp.ok());
  // Pairs near and across the age threshold (4.8 years at θ = 0.05), at
  // the domains' edges and with differing categories.
  std::vector<Record> as, bs;
  for (int i = 0; i < 7; ++i) {
    const double age = 16 + 13.5 * i;
    as.push_back(SectionSixRec(age, 15 - i, i, i % 7, 6 - i % 7));
    bs.push_back(SectionSixRec(std::min(111.999, age + (i % 2 ? 4.5 : 5.5)),
                               15 - i, i, i % 7, i == 5 ? 0 : 6 - i % 7));
  }
  for (int pairs : {6, 7}) {
    SmcConfig cfg = FastConfig();
    cfg.key_bits = 1024;
    cfg.pack_pairs = pairs == 6 ? 6 : 14;
    SecureRecordComparator cmp(cfg, rule);
    ASSERT_EQ(cmp.unit_pairs(), cfg.pack_pairs);
    ASSERT_TRUE(cmp.InitWithKeyPair(*kp).ok());
    obs::MetricsRegistry registry;
    cmp.AttachMetrics(&registry);
    std::vector<RowPairRequest> unit;
    for (int i = 0; i < pairs; ++i) unit.push_back({i, i, &as[i], &bs[i]});
    auto labels = cmp.CompareUnit(unit);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    for (int i = 0; i < pairs; ++i) {
      EXPECT_EQ((*labels)[i], RecordsMatch(as[i], bs[i], rule))
          << pairs << " pairs, pair " << i;
    }
    EXPECT_EQ(cmp.costs().decryptions, 1) << pairs;
    EXPECT_EQ(registry.counter("paillier.decryptions")->value(), 1) << pairs;
    EXPECT_EQ(registry.counter("paillier.narrow_decryptions")->value(),
              pairs == 6 ? 1 : 0);
  }
}

/// A categorical attribute on [0, 8) and a numeric one on [-50, 50), so
/// half the numeric operands are negative.
MatchRule SignedRule() {
  MatchRule rule = MixedRule();
  rule.attrs[1].domain_lo = -50;
  rule.attrs[1].domain_hi = 50;
  return rule;
}

// Property: a unit folds its cross terms by R row, whatever the rows'
// layout in the unit — every pair on one R row, every pair on its own, two
// rows alternating, or a unit that straddles the end of one row and the
// start of the next — and labels every pair like the plaintext rule, with
// negative operands, at 256, 512 and 1024 bits. A unit of pairs over d
// distinct R rows draws exactly d·k + 2 randomizers (one encryption each),
// never more than RandomizerDraws' bound for the unit, and decrypts once.
class RowFactoredUnitTest : public ::testing::TestWithParam<int> {};

TEST_P(RowFactoredUnitTest, LabelsMatchThePlaintextRuleInEveryRowLayout) {
  const MatchRule rule = SignedRule();
  SmcConfig cfg = FastConfig();
  cfg.key_bits = GetParam();
  const RuleOperands operands(rule, cfg.fp_scale);
  const auto k = static_cast<int64_t>(operands.size());
  ASSERT_EQ(k, 2);
  SecureRecordComparator cmp(cfg, rule);
  ASSERT_TRUE(cmp.Init().ok());
  const int g = cmp.unit_pairs();
  ASSERT_GE(g, 4);
  const int64_t bound = RandomizerDraws(cfg, operands, g)->total();
  crypto::SecureRandom rng(static_cast<uint64_t>(GetParam()) + 3);
  auto below = [&](int64_t n) {
    return static_cast<int64_t>(mpz_get_si(rng.NextBelow(BigInt(n)).raw()));
  };
  // An S record near (or, one time in three, far from) its R record, so
  // both labels occur.
  auto near = [&](const Record& a) {
    const double drift = below(3) == 0 ? below(60) - 30.0 : below(21) - 10.0;
    const double num = std::clamp(a[1].num() + drift, -50.0, 49.999);
    const int32_t cat = below(4) == 0 ? static_cast<int32_t>(below(8))
                                      : a[0].category();
    return Rec(cat, num);
  };
  const int trials = GetParam() == 1024 ? 1 : 4;
  int matches = 0, pairs_seen = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const int cut = static_cast<int>(1 + below(g - 1));  // straddle point
    const std::vector<std::pair<const char*, std::function<int64_t(int)>>>
        layouts = {
            {"one row", [](int) { return 7; }},
            {"distinct", [](int j) { return 10 + j; }},
            {"alternating", [](int j) { return j % 2; }},
            {"straddling", [cut](int j) { return j < cut ? 3 : 4; }}};
    for (const auto& [name, row_of] : layouts) {
      SCOPED_TRACE(std::string(name) + " trial " + std::to_string(trial));
      std::map<int64_t, Record> r;
      std::vector<Record> s(static_cast<size_t>(g));
      std::vector<RowPairRequest> unit;
      for (int j = 0; j < g; ++j) {
        const int64_t id = row_of(j);
        if (!r.count(id)) {
          r[id] = Rec(static_cast<int32_t>(below(8)),
                      static_cast<double>(below(100000) - 50000) / 1000);
        }
        s[static_cast<size_t>(j)] = near(r[id]);
      }
      for (int j = 0; j < g; ++j) {
        unit.push_back({row_of(j), 100 + j, &r[row_of(j)],
                        &s[static_cast<size_t>(j)]});
      }
      const SmcCosts before = cmp.costs();
      auto labels = cmp.CompareUnit(unit);
      ASSERT_TRUE(labels.ok()) << labels.status().ToString();
      for (int j = 0; j < g; ++j) {
        const bool want = RecordsMatch(*unit[static_cast<size_t>(j)].a,
                                       *unit[static_cast<size_t>(j)].b, rule);
        EXPECT_EQ((*labels)[static_cast<size_t>(j)], want) << "pair " << j;
        matches += want ? 1 : 0;
      }
      pairs_seen += g;
      const auto d = static_cast<int64_t>(r.size());
      const int64_t draws = cmp.costs().encryptions - before.encryptions;
      EXPECT_EQ(draws, d * k + 2);
      EXPECT_LE(draws, bound);
      EXPECT_EQ(cmp.costs().decryptions - before.decryptions, 1);
      EXPECT_EQ(cmp.costs().scalar_muls - before.scalar_muls, d * k);
    }
  }
  EXPECT_GT(matches, 0);
  EXPECT_LT(matches, pairs_seen);
}

INSTANTIATE_TEST_SUITE_P(KeyBits, RowFactoredUnitTest,
                         ::testing::Values(256, 512, 1024));

// Pairs that name one R row must carry one record for it: the comparator
// refuses the unit rather than fold one row's operands into another's.
TEST(ProtocolTest, RefusesAUnitWhosePairsGiveOneRowTwoRecords) {
  SecureRecordComparator cmp(FastConfig(), MixedRule());
  ASSERT_TRUE(cmp.Init().ok());
  const Record a = Rec(1, 50), a_moved = Rec(1, 51), b = Rec(1, 55);
  auto same = cmp.CompareUnit({{4, 0, &a, &b}, {4, 1, &a, &b}});
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(*same, (std::vector<bool>{true, true}));
  auto refused = cmp.CompareUnit({{4, 0, &a, &b}, {4, 1, &a_moved, &b}});
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();
  // Pairs without a row id never share a group.
  auto anonymous = cmp.CompareUnit({{-1, 0, &a, &b}, {-1, 1, &a_moved, &b}});
  ASSERT_TRUE(anonymous.ok()) << anonymous.status().ToString();
  EXPECT_EQ(*anonymous, (std::vector<bool>{true, true}));
}

// Property: for random rules mixing numeric domains (most with negative
// lows) and categorical ones, every squared distance between encodings at
// the domain edges fits its attribute's slot, and a plaintext filled to its
// exact capacity with them packs and unpacks exactly.
TEST(ProtocolTest, SlotWidthsHoldEveryDistanceAtTheDomainEdges) {
  crypto::SecureRandom rng(606);
  auto below = [&](int64_t n) {
    return static_cast<int64_t>(mpz_get_si(rng.NextBelow(BigInt(n)).raw()));
  };
  for (int trial = 0; trial < 100; ++trial) {
    MatchRule rule;
    const int k = static_cast<int>(1 + below(5));
    std::vector<Record> edges(2, Record(static_cast<size_t>(k)));
    for (int i = 0; i < k; ++i) {
      AttrRule attr;
      attr.attr_index = i;
      attr.theta = 0.05;
      if (below(3) != 0) {
        attr.type = AttrType::kNumeric;
        attr.norm = 10;
        attr.domain_lo = static_cast<double>(below(2000) - 1500);
        attr.domain_hi = attr.domain_lo + static_cast<double>(1 + below(3000));
        edges[0][i] = Value::Numeric(attr.domain_lo);
        edges[1][i] = Value::Numeric(attr.domain_hi - 0.001);
      } else {
        attr.type = AttrType::kCategorical;
        attr.domain_hi = static_cast<double>(1 + below(300));
        edges[0][i] = Value::Category(0);
        edges[1][i] = Value::Category(static_cast<int32_t>(attr.domain_hi) - 1);
      }
      rule.attrs.push_back(attr);
    }
    const RuleOperands operands(rule, 1000);
    const std::vector<int>& widths = operands.slot_widths();
    ASSERT_EQ(widths.size(), static_cast<size_t>(k));
    int pair_bits = 0;
    for (int w : widths) pair_bits += w;
    const int groups = static_cast<int>(1 + below(4));
    auto layout =
        crypto::PackingLayout::Plan(groups * pair_bits + 2, widths);
    ASSERT_TRUE(layout.ok()) << layout.status().ToString();
    ASSERT_EQ(layout->groups(), groups);
    // Group g compares edge (g & 1) with edge ((g >> 1) & 1) ^ 1, so the
    // groups cover lo–hi, hi–hi, lo–lo and hi–lo.
    std::vector<BigInt> distances;
    for (int g = 0; g < groups; ++g) {
      const Record& a = edges[static_cast<size_t>(g & 1)];
      const Record& b = edges[static_cast<size_t>(((g >> 1) & 1) ^ 1)];
      for (int i = 0; i < k; ++i) {
        auto x = operands.Encode(static_cast<size_t>(i), a);
        auto y = operands.Encode(static_cast<size_t>(i), b);
        ASSERT_TRUE(x.ok() && y.ok()) << "trial " << trial;
        distances.push_back((*x - *y) * (*x - *y));
      }
    }
    std::vector<const BigInt*> in;
    for (const BigInt& d : distances) in.push_back(&d);
    BigInt scratch, packed, rest;
    ASSERT_TRUE(crypto::PackSlotsInto(in, *layout, &scratch, &packed).ok())
        << "trial " << trial;
    std::vector<BigInt> back(distances.size());
    std::vector<BigInt*> out;
    for (BigInt& d : back) out.push_back(&d);
    ASSERT_TRUE(
        crypto::UnpackSlotsInto(packed, back.size(), *layout, &rest, out).ok());
    EXPECT_EQ(back, distances) << "trial " << trial;
  }
}

// A declared domain bounds what a holder may encode: a value one encoding
// step outside it, at either end, is refused instead of riding a slot it
// could carry out of.
TEST(ProtocolTest, EncodeRefusesValuesOutsideTheDeclaredDomain) {
  MatchRule rule = MixedRule();
  rule.attrs[0].domain_hi = 4;
  rule.attrs[1].domain_lo = -10;
  rule.attrs[1].domain_hi = 90;
  const RuleOperands ops(rule, 1000);
  EXPECT_TRUE(ops.Encode(0, Rec(0, 0)).ok());
  EXPECT_TRUE(ops.Encode(0, Rec(3, 0)).ok());
  EXPECT_EQ(ops.Encode(0, Rec(4, 0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ops.Encode(1, Rec(0, -10)).ok());
  EXPECT_TRUE(ops.Encode(1, Rec(0, 89.999)).ok());
  EXPECT_EQ(ops.Encode(1, Rec(0, -10.001)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ops.Encode(1, Rec(0, 90)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, VacuousCategoricalThresholdSkipsCrypto) {
  MatchRule rule = MixedRule();
  rule.attrs[0].theta = 1.0;  // Hamming <= 1 always
  SecureRecordComparator cmp(FastConfig(), rule);
  ASSERT_TRUE(cmp.Init().ok());
  auto r = cmp.Compare(Rec(1, 50), Rec(2, 50));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);  // categories differ but the threshold is vacuous
  EXPECT_EQ(cmp.costs().attr_comparisons, 1);  // only the numeric attribute
}

TEST(ProtocolTest, RequiresInit) {
  SecureRecordComparator cmp(FastConfig(), MixedRule());
  EXPECT_FALSE(cmp.Compare(Rec(1, 1), Rec(1, 1)).ok());
}

TEST(SmcOracleTest, BehavesLikePlaintextOracleWithCosts) {
  MatchRule rule = MixedRule();
  SmcMatchOracle oracle(FastConfig(), rule);
  ASSERT_TRUE(oracle.Init().ok());
  CountingPlaintextOracle reference(rule);

  Record a = Rec(2, 30), b = Rec(2, 33), c = Rec(1, 30);
  EXPECT_EQ(*oracle.Compare(a, b), *reference.Compare(a, b));
  EXPECT_EQ(*oracle.Compare(a, c), *reference.Compare(a, c));
  EXPECT_EQ(oracle.invocations(), 2);
  EXPECT_EQ(reference.invocations(), 2);
  EXPECT_GT(oracle.costs().encryptions, 0);
}

// ---------------------------------------------------------------- parties

/// One 16-bit slot per pair in a 256-bit plaintext.
crypto::PackingLayout SixteenBitSlots() {
  return crypto::PackingLayout::Plan(256, {16}).value();
}

TEST(PartyTest, HolderRefusesToActWithoutKey) {
  DataHolder alice("alice", 5);
  MessageBus bus;
  SmcCosts costs;
  crypto::BigIntArena arena(1152);
  const crypto::PackingLayout layout = SixteenBitSlots();
  EXPECT_EQ(alice
                .SendColumns(&bus, "bob", {BigInt(7)}, {0}, layout, &arena,
                             &costs)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      alice.FoldColumns(&bus, {BigInt(7)}, {0}, layout, &arena, &costs).code(),
      StatusCode::kFailedPrecondition);
}

TEST(PartyTest, UnitRowsNumberRowsByFirstAppearance) {
  EXPECT_EQ(UnitRows({5, 5, -1, -1, 7, 5, 7}),
            (std::vector<uint32_t>{0, 0, 1, 2, 3, 0, 3}));
  EXPECT_EQ(UnitRows({9}), (std::vector<uint32_t>{0}));
  EXPECT_TRUE(UnitRows({}).empty());
}

// Alice folds a row group's columns with the operands its pairs share:
// pairs of one group that carry different operands are refused once she has
// consumed Bob's message, so nothing of the refused unit stays on the bus.
// A unit whose operands do not split evenly over its pairs is refused by
// both holders.
TEST(PartyTest, AliceRefusesARowGroupWithDifferentOperands) {
  QueryingParty qp(256, 47);
  DataHolder alice("alice", 48);
  DataHolder bob("bob", 49);
  MessageBus bus;
  SmcCosts costs;
  ASSERT_TRUE(qp.PublishKey(&bus, &costs).ok());
  ASSERT_TRUE(alice.ReceiveKey(&bus).ok());
  ASSERT_TRUE(bob.ReceiveKey(&bus).ok());
  crypto::BigIntArena arena(1152);
  const crypto::PackingLayout layout = SixteenBitSlots();
  ASSERT_TRUE(bob.SendColumns(&bus, "alice", {BigInt(3), BigInt(4)}, {5, 5},
                              layout, &arena, &costs)
                  .ok());
  EXPECT_EQ(alice
                .FoldColumns(&bus, {BigInt(10), BigInt(11)}, {5, 5}, layout,
                             &arena, &costs)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(bus.Receive("alice").ok());
  EXPECT_FALSE(bus.Receive("qp").ok());
  const std::vector<BigInt> three = {BigInt(1), BigInt(2), BigInt(3)};
  EXPECT_EQ(bob.SendColumns(&bus, "alice", three, {5, 6}, layout, &arena,
                            &costs)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      alice.FoldColumns(&bus, three, {5, 6}, layout, &arena, &costs).code(),
      StatusCode::kInvalidArgument);
}

TEST(PartyTest, ThreePartyHandshakeAndOneOnePairUnit) {
  QueryingParty qp(256, 41);
  DataHolder alice("alice", 42);
  DataHolder bob("bob", 43);
  MessageBus bus;
  SmcCosts costs;
  ASSERT_TRUE(qp.PublishKey(&bus, &costs).ok());
  ASSERT_TRUE(alice.ReceiveKey(&bus).ok());
  ASSERT_TRUE(bob.ReceiveKey(&bus).ok());

  // alice x = 10, bob y = 13: (x-y)^2 = 9 is within threshold 9 but
  // outside threshold 8 (boundary semantics are <=). One unit of one pair
  // over one attribute per threshold.
  crypto::BigIntArena arena(1152);
  const crypto::PackingLayout layout = SixteenBitSlots();
  for (int64_t threshold : {9, 8}) {
    const std::vector<BigInt> t = {BigInt(threshold)};
    ASSERT_TRUE(bob.SendColumns(&bus, "alice", {BigInt(13)}, {0}, layout,
                                &arena, &costs)
                    .ok());
    ASSERT_TRUE(
        alice.FoldColumns(&bus, {BigInt(10)}, {0}, layout, &arena, &costs)
            .ok());
    auto labels = qp.DecideUnit(&bus, t, 1, layout, &arena, &costs);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    const uint8_t want = threshold == 9 ? 1 : 0;
    EXPECT_EQ(*labels, std::vector<uint8_t>{want});
  }
}

TEST(PartyTest, ResultAnnouncementRoundTrip) {
  QueryingParty qp(256, 44);
  DataHolder alice("alice", 45);
  DataHolder bob("bob", 46);
  MessageBus bus;
  SmcCosts costs;
  ASSERT_TRUE(qp.PublishKey(&bus, &costs).ok());
  ASSERT_TRUE(alice.ReceiveKey(&bus).ok());
  ASSERT_TRUE(bob.ReceiveKey(&bus).ok());
  const std::vector<uint8_t> labels = {1, 0, 1};
  ASSERT_TRUE(qp.AnnounceResults(&bus, labels).ok());
  auto ra = alice.ReceiveResults(&bus, labels.size());
  auto rb = bob.ReceiveResults(&bus, labels.size());
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(*ra, labels);
  EXPECT_EQ(*rb, labels);
  // No further announcement pending.
  EXPECT_FALSE(alice.ReceiveResults(&bus, labels.size()).ok());
}

}  // namespace
}  // namespace hprl::smc
