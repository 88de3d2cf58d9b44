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

  // A categorical mismatch short-circuits: only one attribute compared.
  ASSERT_TRUE(cmp.Compare(Rec(1, 50), Rec(2, 50)).ok());
  EXPECT_EQ(cmp.costs().invocations, 2);
  EXPECT_EQ(cmp.costs().attr_comparisons, 3);
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
  EXPECT_EQ(alice.SendAttr(&bus, "bob", BigInt(7), &costs).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      alice.FoldAndForward(&bus, BigInt(7), BigInt(0), &costs).code(),
      StatusCode::kFailedPrecondition);
}

TEST(PartyTest, ThreePartyHandshakeAndOneAttribute) {
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
  // outside threshold 8 (boundary semantics are <=).
  ASSERT_TRUE(alice.SendAttr(&bus, "bob", BigInt(10), &costs).ok());
  ASSERT_TRUE(bob.FoldAndForward(&bus, BigInt(13), BigInt(9), &costs).ok());
  auto within = qp.DecideAttr(&bus, BigInt(9), &costs);
  ASSERT_TRUE(within.ok());
  EXPECT_TRUE(*within);
  ASSERT_TRUE(alice.SendAttr(&bus, "bob", BigInt(10), &costs).ok());
  ASSERT_TRUE(bob.FoldAndForward(&bus, BigInt(13), BigInt(8), &costs).ok());
  auto outside = qp.DecideAttr(&bus, BigInt(8), &costs);
  ASSERT_TRUE(outside.ok());
  EXPECT_FALSE(*outside);
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
  ASSERT_TRUE(qp.AnnounceResult(&bus, true).ok());
  auto ra = alice.ReceiveResult(&bus);
  auto rb = bob.ReceiveResult(&bus);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_TRUE(*ra);
  EXPECT_TRUE(*rb);
  // No further announcement pending.
  EXPECT_FALSE(alice.ReceiveResult(&bus).ok());
}

}  // namespace
}  // namespace hprl::smc
