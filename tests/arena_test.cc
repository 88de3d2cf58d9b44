// Tests for the BigInt scratch arena (src/crypto/arena.h) and the in-place
// Paillier operations it feeds (src/crypto/paillier.h *Into variants): slot
// reuse and reference stability across growth, gauge publication, exact
// parity of the in-place ops against their value-returning references, and
// arena-backed packed-SMC labels bit-identical to the scalar exchange.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "crypto/arena.h"
#include "crypto/bigint.h"
#include "crypto/paillier.h"
#include "obs/metrics.h"
#include "smc/protocol.h"
#include "smc/smc_oracle.h"

namespace hprl {
namespace {

using crypto::BigInt;
using crypto::BigIntArena;

// ------------------------------------------------------------ BigIntArena

TEST(BigIntArenaTest, HandsOutDistinctSlotsAndReusesAfterReset) {
  BigIntArena arena(/*value_bits=*/256, /*block_slots=*/4);
  EXPECT_EQ(arena.capacity(), 0u);  // lazy: nothing until first Next()

  BigInt* a = &arena.Next();
  BigInt* b = &arena.Next();
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.in_use(), 2u);
  EXPECT_EQ(arena.capacity(), 4u);

  arena.Reset();
  EXPECT_EQ(arena.in_use(), 0u);
  EXPECT_EQ(arena.capacity(), 4u);  // storage retained

  // The cursor rewound: the same slots come back in the same order.
  EXPECT_EQ(&arena.Next(), a);
  EXPECT_EQ(&arena.Next(), b);
  EXPECT_EQ(arena.resets(), 1);
}

// Growth appends blocks without moving existing slots (deque-backed), so a
// reference taken before growth stays valid — the property the packed
// exchange relies on when a group overflows the first block.
TEST(BigIntArenaTest, GrowthPreservesEarlierReferences) {
  BigIntArena arena(/*value_bits=*/128, /*block_slots=*/2);
  BigInt& first = arena.Next();
  first = BigInt(123456789);
  for (int i = 0; i < 10; ++i) arena.Next();  // forces several growths
  EXPECT_GE(arena.capacity(), 11u);
  EXPECT_GT(arena.blocks(), 1);
  EXPECT_EQ(first, BigInt(123456789));  // still alive, still intact
}

TEST(BigIntArenaTest, SlotsAreWideEnoughForInPlaceOps) {
  // Slots are reserved at value_bits; a value of exactly that width must fit
  // without realloc (reserved_bytes does not move when one is stored).
  BigIntArena arena(/*value_bits=*/512, /*block_slots=*/2);
  BigInt& slot = arena.Next();
  const int64_t reserved = arena.reserved_bytes();
  slot = BigInt(1);
  for (int i = 0; i < 511; ++i) slot = slot + slot;  // 2^511: full width
  EXPECT_EQ(slot.BitLength(), 512u);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(BigIntArenaTest, PublishesGauges) {
  obs::MetricsRegistry registry;
  BigIntArena arena(/*value_bits=*/64, /*block_slots=*/4);
  arena.AttachMetrics(&registry);
  for (int i = 0; i < 5; ++i) arena.Next();  // two blocks
  arena.Reset();
  EXPECT_EQ(registry.gauge("crypto.arena.blocks")->value(), 2);
  EXPECT_GT(registry.gauge("crypto.arena.bytes")->value(), 0);
  EXPECT_EQ(registry.gauge("crypto.arena.resets")->value(), 1);
}

// -------------------------------------------------- in-place Paillier ops

class InPlaceOpsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::SecureRandom rng(1234);
    auto kp = crypto::GeneratePaillierKeyPair(256, rng);
    ASSERT_TRUE(kp.ok());
    kp_ = new crypto::PaillierKeyPair(std::move(kp).value());
  }
  static crypto::PaillierKeyPair* kp_;
};

crypto::PaillierKeyPair* InPlaceOpsTest::kp_ = nullptr;

// EncryptInto must consume the same randomness and produce the same
// ciphertext as Encrypt: two rngs with the same seed, one per path.
TEST_F(InPlaceOpsTest, EncryptIntoMatchesEncrypt) {
  const auto& pub = kp_->pub;
  crypto::SecureRandom value_rng(42), into_rng(42);
  BigInt scratch, out;
  for (int64_t m : {0, 1, 17, 99999}) {
    auto value = pub.Encrypt(BigInt(m), value_rng);
    ASSERT_TRUE(value.ok());
    ASSERT_TRUE(pub.EncryptInto(BigInt(m), into_rng, &scratch, &out).ok());
    EXPECT_EQ(out, *value) << "m=" << m;
  }
}

TEST_F(InPlaceOpsTest, EncryptSignedIntoMatchesEncryptSigned) {
  const auto& pub = kp_->pub;
  crypto::SecureRandom value_rng(7), into_rng(7);
  BigInt scratch, out;
  for (int64_t m : {-12345, -1, 0, 1, 54321}) {
    auto value = pub.EncryptSigned(BigInt(m), value_rng);
    ASSERT_TRUE(value.ok());
    ASSERT_TRUE(
        pub.EncryptSignedInto(BigInt(m), into_rng, &scratch, &out).ok());
    EXPECT_EQ(out, *value) << "m=" << m;
    // Decrypting closes the loop: in-place ciphertexts are real ciphertexts.
    auto back = kp_->priv.DecryptSigned(out);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, BigInt(m)) << "m=" << m;
  }
}

TEST_F(InPlaceOpsTest, AddIntoAndScalarMulIntoMatchValueOps) {
  const auto& pub = kp_->pub;
  crypto::SecureRandom rng(55);
  auto c1 = pub.Encrypt(BigInt(1111), rng);
  auto c2 = pub.Encrypt(BigInt(2222), rng);
  ASSERT_TRUE(c1.ok() && c2.ok());

  BigInt acc = *c1;
  pub.AddInto(&acc, *c2);
  EXPECT_EQ(acc, pub.Add(*c1, *c2));

  BigInt scratch, out;
  for (int64_t k : {-3, 0, 1, 7}) {
    pub.ScalarMulInto(*c1, BigInt(k), &scratch, &out);
    EXPECT_EQ(out, pub.ScalarMul(*c1, BigInt(k))) << "k=" << k;
  }

  // Aliasing contract: inputs may alias *out.
  BigInt aliased = *c1;
  pub.ScalarMulInto(aliased, BigInt(7), &scratch, &aliased);
  EXPECT_EQ(aliased, pub.ScalarMul(*c1, BigInt(7)));
}

// --------------------------------------------- packed exchange label parity

MatchRule TwoNumericRule() {
  MatchRule rule;
  for (int i = 0; i < 2; ++i) {
    AttrRule a;
    a.attr_index = i;
    a.type = AttrType::kNumeric;
    a.theta = 0.05;
    a.norm = 96;
    a.domain_lo = 16;  // the paper's age range, [16, 112)
    a.domain_hi = 112;
    rule.attrs.push_back(a);
  }
  return rule;
}

// The arena-backed packed exchange must label exactly like the plaintext
// rule (RecordsMatch) on a pinned-seed run, at two unit sizes — while the
// packed path actually executes (the cost counters prove it).
TEST(ArenaPackedSmcTest, PackedLabelsMatchPlaintext) {
  MatchRule rule = TwoNumericRule();
  std::vector<Record> as, bs;
  std::vector<RowPairRequest> batch;
  std::vector<uint8_t> truth;
  for (int i = 0; i < 24; ++i) {
    as.push_back({Value::Numeric(40 + i), Value::Numeric(60 + i)});
    // Drift 0, 3 or 6 against a 4.8 threshold: a mix of matches and not.
    bs.push_back(
        {Value::Numeric(40 + i + 3 * (i % 3)), Value::Numeric(60 + i)});
  }
  for (int i = 0; i < 24; ++i) {
    batch.push_back({i, i, &as[i], &bs[i]});
    truth.push_back(RecordsMatch(as[i], bs[i], rule) ? 1 : 0);
  }
  // Both label values occur, so the parity is not a constant stream.
  EXPECT_NE(std::count(truth.begin(), truth.end(), 1), 0);
  EXPECT_NE(std::count(truth.begin(), truth.end(), 0), 0);

  // 512-bit key: a cap of 3 pairs gives 2-pair units, which decrypt with
  // one CRT half (a 3-pair unit would not).
  for (const auto& [pack_pairs, unit] : {std::pair{1, 1}, std::pair{3, 2}}) {
    smc::SmcConfig cfg;
    cfg.key_bits = 512;
    cfg.test_seed = 4242;
    cfg.pack_pairs = pack_pairs;
    cfg.pack_slot_bits = 64;
    smc::SmcMatchOracle engine(cfg, rule, 2);
    ASSERT_TRUE(engine.Init().ok());
    auto labels = engine.CompareBatch(batch);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    EXPECT_EQ(*labels, truth) << "pack_pairs=" << pack_pairs;
    EXPECT_EQ(engine.costs().packed_pairs, 24) << "pack_pairs=" << pack_pairs;
    EXPECT_EQ(engine.costs().packed_exchanges, 24 / unit)
        << "pack_pairs=" << pack_pairs;
  }
}

}  // namespace
}  // namespace hprl
