#include <gtest/gtest.h>

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

MatchRule MixedRule() {
  MatchRule rule;
  AttrRule cat;
  cat.attr_index = 0;
  cat.type = AttrType::kCategorical;
  cat.theta = 0.5;
  AttrRule num;
  num.attr_index = 1;
  num.type = AttrType::kNumeric;
  num.theta = 0.1;
  num.norm = 100;  // |x-y| <= 10 matches
  rule.attrs = {cat, num};
  return rule;
}

SmcConfig FastConfig(bool reveal = true) {
  SmcConfig cfg;
  cfg.key_bits = 256;  // small key: fast tests; 1024 covered separately
  cfg.test_seed = 4242;
  cfg.reveal_distances = reveal;
  return cfg;
}

Record Rec(int32_t cat, double num) {
  return {Value::Category(cat), Value::Numeric(num)};
}

class ProtocolTest : public ::testing::TestWithParam<bool> {};

TEST_P(ProtocolTest, AgreesWithPlaintextRule) {
  MatchRule rule = MixedRule();
  SecureRecordComparator cmp(FastConfig(GetParam()), rule);
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
        << c.b[0].category() << "," << c.b[1].num()
        << " reveal=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RevealAndBlinded, ProtocolTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "RevealDistances"
                                             : "BlindedComparison";
                         });

TEST(ProtocolCostTest, CountsOperationsAndBytes) {
  MatchRule rule = MixedRule();
  SecureRecordComparator cmp(FastConfig(), rule);
  ASSERT_TRUE(cmp.Init().ok());
  int64_t bytes_after_init = cmp.bus().total_bytes();

  ASSERT_TRUE(cmp.Compare(Rec(1, 50), Rec(1, 55)).ok());
  const SmcCosts& costs = cmp.costs();
  EXPECT_EQ(costs.invocations, 1);
  EXPECT_EQ(costs.attr_comparisons, 2);       // both attrs evaluated (match)
  EXPECT_EQ(costs.encryptions, 2 * 3);        // 3 per attribute
  EXPECT_EQ(costs.decryptions, 2);
  EXPECT_GT(cmp.bus().total_bytes(), bytes_after_init);

  // No early exit: a categorical mismatch still evaluates every compared
  // attribute, as the daemons and packed units always have.
  ASSERT_TRUE(cmp.Compare(Rec(1, 50), Rec(2, 50)).ok());
  EXPECT_EQ(cmp.costs().invocations, 2);
  EXPECT_EQ(cmp.costs().attr_comparisons, 4);
  EXPECT_EQ(cmp.costs().encryptions, 4 * 3);
  EXPECT_EQ(cmp.costs().decryptions, 4);
}

// Packability is a plan-time property of the config and the rule's declared
// domains, never of the values compared.
TEST(ProtocolTest, PackedGroupPairsComesFromDeclaredDomains) {
  SmcConfig cfg = FastConfig();
  cfg.pack_pairs = 8;
  cfg.pack_slot_bits = 40;  // 256-bit key: 6 slots, 3 two-attribute pairs
  MatchRule rule = MixedRule();
  EXPECT_EQ(PackedGroupPairs(cfg, RuleOperands(rule, cfg.fp_scale)), 0)
      << "a rule without declared domains never packs";
  rule.attrs[0].domain_hi = 16;  // categories [0, 16)
  rule.attrs[1].domain_lo = -50;  // [-50, 150): |2·150000|² < 2^37
  rule.attrs[1].domain_hi = 150;
  EXPECT_EQ(PackedGroupPairs(cfg, RuleOperands(rule, cfg.fp_scale)), 3);
  cfg.pack_pairs = 2;
  EXPECT_EQ(PackedGroupPairs(cfg, RuleOperands(rule, cfg.fp_scale)), 2);
  cfg.pack_pairs = 8;
  cfg.pack_slot_bits = 36;  // (2·150000)² needs 37 bits
  EXPECT_EQ(PackedGroupPairs(cfg, RuleOperands(rule, cfg.fp_scale)), 0);
  cfg.pack_slot_bits = 40;
  cfg.reveal_distances = false;
  EXPECT_EQ(PackedGroupPairs(cfg, RuleOperands(rule, cfg.fp_scale)), 0);
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

TEST(ProtocolTest, SecureSquaredDistanceIsExact) {
  SecureRecordComparator cmp(FastConfig(), MixedRule());
  ASSERT_TRUE(cmp.Init().ok());
  auto d = cmp.SecureSquaredDistance(35.0, 36.5);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(*d, 2.25, 1e-9);
  auto zero = cmp.SecureSquaredDistance(12.5, 12.5);
  ASSERT_TRUE(zero.ok());
  EXPECT_DOUBLE_EQ(*zero, 0.0);
}

TEST(ProtocolTest, RequiresInit) {
  SecureRecordComparator cmp(FastConfig(), MixedRule());
  EXPECT_FALSE(cmp.Compare(Rec(1, 1), Rec(1, 1)).ok());
}

TEST(ProtocolTest, TextAttributesUnimplemented) {
  MatchRule rule;
  AttrRule t;
  t.attr_index = 0;
  t.type = AttrType::kText;
  t.theta = 1;
  rule.attrs = {t};
  SecureRecordComparator cmp(FastConfig(), rule);
  ASSERT_TRUE(cmp.Init().ok());
  Record a = {Value::Text("x")};
  Record b = {Value::Text("y")};
  auto r = cmp.Compare(a, b);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
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

TEST(PartyTest, HolderRefusesToActWithoutKey) {
  ProtocolParams params;
  params.key_bits = 256;
  DataHolder alice("alice", params, 5);
  MessageBus bus;
  SmcCosts costs;
  crypto::BigIntArena arena(1152);
  const UnitShape scalar;
  EXPECT_EQ(
      alice.SendUnit(&bus, "bob", {BigInt(7)}, scalar, &arena, &costs).code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(alice.FoldUnit(&bus, {BigInt(7)}, {BigInt(0)}, scalar, &arena,
                           &costs)
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(PartyTest, ThreePartyHandshakeAndOneScalarUnit) {
  ProtocolParams params;
  params.key_bits = 256;
  QueryingParty qp(params, 41);
  DataHolder alice("alice", params, 42);
  DataHolder bob("bob", params, 43);
  MessageBus bus;
  SmcCosts costs;
  ASSERT_TRUE(qp.PublishKey(&bus, &costs).ok());
  ASSERT_TRUE(alice.ReceiveKey(&bus).ok());
  ASSERT_TRUE(bob.ReceiveKey(&bus).ok());

  // alice x = 10, bob y = 13: (x-y)^2 = 9 is within threshold 9 but
  // outside threshold 8 (boundary semantics are <=). One scalar unit of
  // one pair over one attribute per threshold.
  crypto::BigIntArena arena(1152);
  const UnitShape scalar;
  for (int64_t threshold : {9, 8}) {
    const std::vector<BigInt> t = {BigInt(threshold)};
    ASSERT_TRUE(
        alice.SendUnit(&bus, "bob", {BigInt(10)}, scalar, &arena, &costs).ok());
    ASSERT_TRUE(
        bob.FoldUnit(&bus, {BigInt(13)}, t, scalar, &arena, &costs).ok());
    auto labels = qp.DecideUnit(&bus, t, 1, scalar, &arena, &costs);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    const uint8_t want = threshold == 9 ? 1 : 0;
    EXPECT_EQ(*labels, std::vector<uint8_t>{want});
  }
}

TEST(PartyTest, ResultAnnouncementRoundTrip) {
  ProtocolParams params;
  params.key_bits = 256;
  QueryingParty qp(params, 44);
  DataHolder alice("alice", params, 45);
  DataHolder bob("bob", params, 46);
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
