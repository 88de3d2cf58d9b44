#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "crypto/arena.h"
#include "crypto/bigint.h"
#include "crypto/fixed_base.h"
#include "crypto/fixed_point.h"
#include "crypto/material.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "crypto/secure_random.h"
#include "obs/metrics.h"

namespace hprl::crypto {
namespace {

// Small keys keep the suite fast; real-size keys are covered by one test and
// the micro benches.
constexpr int kTestKeyBits = 256;

TEST(BigIntTest, BasicArithmetic) {
  BigInt a(100), b(7);
  EXPECT_EQ((a + b).ToString(), "107");
  EXPECT_EQ((a - b).ToString(), "93");
  EXPECT_EQ((a * b).ToString(), "700");
  EXPECT_EQ((a / b).ToString(), "14");
  EXPECT_EQ((a % b).ToString(), "2");
  EXPECT_EQ((-a).ToString(), "-100");
}

TEST(BigIntTest, EuclideanModOfNegative) {
  BigInt a(-5), m(7);
  EXPECT_EQ((a % m).ToString(), "2");  // mpz_mod is non-negative
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_LE(BigInt(2), BigInt(2));
  EXPECT_GT(BigInt(3), BigInt(-3));
  EXPECT_EQ(BigInt(0), BigInt());
}

TEST(BigIntTest, StringRoundTrip) {
  const std::string big = "123456789012345678901234567890123456789";
  auto x = BigInt::FromString(big);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->ToString(), big);
  EXPECT_FALSE(BigInt::FromString("12z").ok());
  EXPECT_FALSE(BigInt::FromString("").ok());
}

TEST(BigIntTest, BytesRoundTrip) {
  auto x = BigInt::FromString("987654321098765432109876543210");
  ASSERT_TRUE(x.ok());
  auto bytes = x->ToBytes();
  EXPECT_EQ(BigInt::FromBytes(bytes), *x);
  EXPECT_TRUE(BigInt(0).ToBytes().empty());
  EXPECT_EQ(BigInt::FromBytes({}), BigInt(0));
}

TEST(BigIntTest, ToInt64Bounds) {
  EXPECT_EQ(*BigInt(-42).ToInt64(), -42);
  auto huge = BigInt::FromString("99999999999999999999999999");
  ASSERT_TRUE(huge.ok());
  EXPECT_FALSE(huge->ToInt64().ok());
}

TEST(BigIntTest, PowModAndInverse) {
  BigInt base(4), exp(13), mod(497);
  EXPECT_EQ(BigInt::PowMod(base, exp, mod), BigInt(445));
  auto inv = BigInt::ModInverse(BigInt(3), BigInt(11));
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(*inv, BigInt(4));
  EXPECT_FALSE(BigInt::ModInverse(BigInt(6), BigInt(9)).ok());  // gcd 3
}

TEST(BigIntTest, GcdLcmPrime) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::Lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_TRUE(BigInt(104729).IsProbablePrime());
  EXPECT_FALSE(BigInt(104730).IsProbablePrime());
  EXPECT_EQ(BigInt(100).NextPrime(), BigInt(101));
}

TEST(SecureRandomTest, DeterministicSeedReproduces) {
  SecureRandom a(5), b(5);
  EXPECT_EQ(a.NextBits(128), b.NextBits(128));
  EXPECT_EQ(a.NextBelow(BigInt(1000000)), b.NextBelow(BigInt(1000000)));
}

TEST(SecureRandomTest, BitsBound) {
  SecureRandom rng(6);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(rng.NextBits(64).BitLength(), 64u);
  }
}

TEST(SecureRandomTest, BelowBound) {
  SecureRandom rng(7);
  BigInt bound(1000);
  for (int i = 0; i < 200; ++i) {
    BigInt x = rng.NextBelow(bound);
    EXPECT_GE(x.Sign(), 0);
    EXPECT_LT(x, bound);
  }
}

TEST(SecureRandomTest, PrimesHaveExactBitLength) {
  SecureRandom rng(8);
  for (int i = 0; i < 5; ++i) {
    BigInt p = rng.NextPrime(96);
    EXPECT_EQ(p.BitLength(), 96u);
    EXPECT_TRUE(p.IsProbablePrime());
  }
}

TEST(SecureRandomTest, OsEntropyWorks) {
  SecureRandom rng;  // real /dev/urandom
  BigInt a = rng.NextBits(128);
  BigInt b = rng.NextBits(128);
  EXPECT_NE(a, b);  // 2^-128 false-failure probability
}

class PaillierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SecureRandom rng(1234);
    auto kp = GeneratePaillierKeyPair(kTestKeyBits, rng);
    ASSERT_TRUE(kp.ok()) << kp.status().ToString();
    pub_ = kp->pub;
    priv_ = kp->priv;
  }
  SecureRandom rng_{99};
  PaillierPublicKey pub_;
  PaillierPrivateKey priv_;
};

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (int64_t m : {0LL, 1LL, 42LL, 1234567890LL}) {
    auto c = pub_.Encrypt(BigInt(m), rng_);
    ASSERT_TRUE(c.ok());
    auto d = priv_.Decrypt(*c);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, BigInt(m)) << m;
  }
}

TEST_F(PaillierTest, EncryptionIsProbabilistic) {
  auto c1 = pub_.Encrypt(BigInt(5), rng_);
  auto c2 = pub_.Encrypt(BigInt(5), rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(*c1, *c2);
  EXPECT_EQ(*priv_.Decrypt(*c1), *priv_.Decrypt(*c2));
}

TEST_F(PaillierTest, RejectsOutOfRangePlaintext) {
  EXPECT_FALSE(pub_.Encrypt(BigInt(-1), rng_).ok());
  EXPECT_FALSE(pub_.Encrypt(pub_.n(), rng_).ok());
}

TEST_F(PaillierTest, RejectsBadCiphertext) {
  EXPECT_FALSE(priv_.Decrypt(BigInt(0)).ok());
  EXPECT_FALSE(priv_.Decrypt(pub_.n_squared()).ok());
}

TEST_F(PaillierTest, HomomorphicAdd) {
  auto c1 = pub_.Encrypt(BigInt(1111), rng_);
  auto c2 = pub_.Encrypt(BigInt(2222), rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto sum = priv_.Decrypt(pub_.Add(*c1, *c2));
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, BigInt(3333));
}

TEST_F(PaillierTest, HomomorphicScalarMul) {
  auto c = pub_.Encrypt(BigInt(77), rng_);
  ASSERT_TRUE(c.ok());
  auto prod = priv_.Decrypt(pub_.ScalarMul(*c, BigInt(9)));
  ASSERT_TRUE(prod.ok());
  EXPECT_EQ(*prod, BigInt(693));
}

TEST_F(PaillierTest, SignedEncodingSurvivesArithmetic) {
  // Enc(x) +h Enc(-2x) should decode (signed) to -x.
  auto c1 = pub_.EncryptSigned(BigInt(500), rng_);
  auto c2 = pub_.EncryptSigned(BigInt(-1000), rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto d = priv_.DecryptSigned(pub_.Add(*c1, *c2));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, BigInt(-500));
}

TEST_F(PaillierTest, NegativeScalarMul) {
  auto c = pub_.EncryptSigned(BigInt(30), rng_);
  ASSERT_TRUE(c.ok());
  auto d = priv_.DecryptSigned(pub_.ScalarMul(*c, BigInt(-4)));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, BigInt(-120));
}

// A negative scalar exponentiates c's inverse by |k| instead of raising c to
// n - |k|. The ciphertext differs; its plaintext must not.
TEST_F(PaillierTest, SignedScalarMulMatchesTheFullWidthExponent) {
  const BigInt& n = pub_.n();
  std::vector<BigInt> ks = {BigInt(0),
                            BigInt(1),
                            BigInt(-1),
                            n - BigInt(1),
                            -(n - BigInt(1)),
                            n,
                            -n,
                            n + BigInt(1),
                            -(n + BigInt(1)),
                            BigInt(int64_t{1} << 41),
                            BigInt(-(int64_t{1} << 41))};
  for (int i = 0; i < 40; ++i) {
    BigInt k = rng_.NextBits(1 + i * kTestKeyBits / 40);
    ks.push_back(i % 2 == 0 ? k : -k);
  }
  for (const BigInt& k : ks) {
    auto c = pub_.EncryptSigned(rng_.NextBelow(n), rng_);
    ASSERT_TRUE(c.ok());
    BigInt full_width = BigInt::PowMod(*c, k % n, pub_.n_squared());
    BigInt scratch, into;
    pub_.ScalarMulInto(*c, k, &scratch, &into);
    BigInt value = pub_.ScalarMul(*c, k);
    EXPECT_EQ(into, value) << k.ToString();
    auto got = priv_.Decrypt(value);
    auto want = priv_.Decrypt(full_width);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(*got, *want) << k.ToString();
  }
  // A non-unit (no valid ciphertext is one) keeps the n - |k| exponent.
  EXPECT_EQ(pub_.ScalarMul(n, BigInt(-3)),
            BigInt::PowMod(n, n - BigInt(3), pub_.n_squared()));
}

TEST_F(PaillierTest, PaperSquaredDistanceIdentity) {
  // The §V-A computation: Enc(x²) +h (Enc(-2x) ×h y) +h Enc(y²) = Enc((x-y)²).
  int64_t x = 357, y = 123;
  auto cx2 = pub_.EncryptSigned(BigInt(x * x), rng_);
  auto cm2x = pub_.EncryptSigned(BigInt(-2 * x), rng_);
  auto cy2 = pub_.EncryptSigned(BigInt(y * y), rng_);
  ASSERT_TRUE(cx2.ok() && cm2x.ok() && cy2.ok());
  BigInt c = pub_.Add(pub_.Add(*cx2, pub_.ScalarMul(*cm2x, BigInt(y))), *cy2);
  auto d = priv_.DecryptSigned(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, BigInt((x - y) * (x - y)));
}

// Fresh randomness on an existing ciphertext: adding an encryption of zero
// changes the ciphertext, never the plaintext.
TEST_F(PaillierTest, AddingAnEncryptedZeroPreservesPlaintext) {
  auto c = pub_.Encrypt(BigInt(31337), rng_);
  ASSERT_TRUE(c.ok());
  auto zero = pub_.Encrypt(BigInt(0), rng_);
  ASSERT_TRUE(zero.ok());
  const BigInt c2 = pub_.Add(*c, *zero);
  EXPECT_NE(*c, c2);
  EXPECT_EQ(*priv_.Decrypt(c2), BigInt(31337));
}

TEST_F(PaillierTest, CrtDecryptMatchesReferenceOnEdgePlaintexts) {
  ASSERT_TRUE(priv_.has_crt());
  const BigInt n = pub_.n();
  const BigInt half = n / BigInt(2);
  const std::vector<BigInt> plaintexts = {
      BigInt(0),          BigInt(1),         BigInt(2),
      BigInt(424242),     half - BigInt(1),  half,
      half + BigInt(1),   n - BigInt(2),     n - BigInt(1)};
  for (const BigInt& m : plaintexts) {
    auto c = pub_.Encrypt(m, rng_);
    ASSERT_TRUE(c.ok());
    auto fast = priv_.Decrypt(*c);
    auto ref = priv_.DecryptReference(*c);
    ASSERT_TRUE(fast.ok() && ref.ok());
    EXPECT_EQ(*fast, *ref) << m.ToString();
    EXPECT_EQ(*fast, m) << m.ToString();
  }
}

TEST_F(PaillierTest, CrtSignedDecryptMatchesReference) {
  for (int64_t x : {0LL, 1LL, -1LL, 1000LL, -1000LL, 123456789LL,
                    -123456789LL}) {
    auto c = pub_.EncryptSigned(BigInt(x), rng_);
    ASSERT_TRUE(c.ok());
    auto fast = priv_.DecryptSigned(*c);
    auto ref = priv_.DecryptSignedReference(*c);
    ASSERT_TRUE(fast.ok() && ref.ok());
    EXPECT_EQ(*fast, *ref) << x;
    EXPECT_EQ(*fast, BigInt(x)) << x;
  }
}

TEST_F(PaillierTest, CrtSurvivesHomomorphicArithmetic) {
  // Homomorphic results are the ciphertexts the SMC protocol actually
  // decrypts — check the fast path on those, not just fresh encryptions.
  int64_t x = 357, y = 123;
  auto cx2 = pub_.EncryptSigned(BigInt(x * x), rng_);
  auto cm2x = pub_.EncryptSigned(BigInt(-2 * x), rng_);
  auto cy2 = pub_.EncryptSigned(BigInt(y * y), rng_);
  ASSERT_TRUE(cx2.ok() && cm2x.ok() && cy2.ok());
  BigInt c = pub_.Add(pub_.Add(*cx2, pub_.ScalarMul(*cm2x, BigInt(y))), *cy2);
  auto fast = priv_.DecryptSigned(c);
  auto ref = priv_.DecryptSignedReference(c);
  ASSERT_TRUE(fast.ok() && ref.ok());
  EXPECT_EQ(*fast, *ref);
  EXPECT_EQ(*fast, BigInt((x - y) * (x - y)));
}

TEST(PaillierCrtTest, ReferenceOnlyKeyStillDecrypts) {
  // A key built through the legacy (n, lambda, mu) ctor has no CRT data and
  // must transparently fall back to the reference path.
  SecureRandom rng(4321);
  BigInt p = rng.NextPrime(128);
  BigInt q = rng.NextPrime(128);
  while (q == p) q = rng.NextPrime(128);
  BigInt n = p * q;
  BigInt lambda = BigInt::Lcm(p - BigInt(1), q - BigInt(1));
  auto mu = BigInt::ModInverse(lambda, n);  // g = n+1 ⇒ L(g^λ) = λ mod n
  ASSERT_TRUE(mu.ok());
  PaillierPublicKey pub(n);
  PaillierPrivateKey priv(n, lambda, *mu);
  EXPECT_FALSE(priv.has_crt());

  auto crt = PaillierPrivateKey::FromPrimes(p, q);
  ASSERT_TRUE(crt.ok());
  EXPECT_TRUE(crt->has_crt());

  SecureRandom enc_rng(55);
  for (int64_t m : {0LL, 7LL, 31337LL}) {
    auto c = pub.Encrypt(BigInt(m), enc_rng);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*priv.Decrypt(*c), BigInt(m));
    EXPECT_EQ(*crt->Decrypt(*c), BigInt(m));
  }
}

TEST(PaillierCrtTest, FromPrimesRejectsBadModulus) {
  // p == q gives gcd(n, λ) != 1 — FromPrimes must refuse it.
  BigInt p(104729);
  EXPECT_FALSE(PaillierPrivateKey::FromPrimes(p, p).ok());
}

class RandomizerPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SecureRandom rng(2024);
    auto kp = GeneratePaillierKeyPair(kTestKeyBits, rng);
    ASSERT_TRUE(kp.ok()) << kp.status().ToString();
    pub_ = kp->pub;
    priv_ = kp->priv;
  }
  SecureRandom rng_{7};
  PaillierPublicKey pub_;
  PaillierPrivateKey priv_;
};

TEST_F(RandomizerPoolTest, PooledEncryptionRoundTrips) {
  RandomizerPool pool(pub_, /*target_depth=*/8, /*test_seed=*/99);
  ASSERT_TRUE(pool.Prewarm(8).ok());
  EXPECT_EQ(pool.depth(), 8);
  pub_.AttachRandomizerPool(&pool);
  for (int64_t m : {0LL, 1LL, 123456LL}) {
    auto c = pub_.Encrypt(BigInt(m), rng_);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*priv_.Decrypt(*c), BigInt(m)) << m;
  }
  auto cs = pub_.EncryptSigned(BigInt(-777), rng_);
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(*priv_.DecryptSigned(*cs), BigInt(-777));
  EXPECT_GT(pool.hits(), 0);
  EXPECT_EQ(pool.misses(), 0);
}

TEST_F(RandomizerPoolTest, DrainedPoolFallsBackInline) {
  RandomizerPool pool(pub_, 2, 11);
  ASSERT_TRUE(pool.Prewarm(2).ok());
  pub_.AttachRandomizerPool(&pool);
  for (int i = 0; i < 5; ++i) {
    auto c = pub_.Encrypt(BigInt(i), rng_);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*priv_.Decrypt(*c), BigInt(i));
  }
  EXPECT_EQ(pool.hits(), 2);
  EXPECT_EQ(pool.misses(), 3);
}

TEST_F(RandomizerPoolTest, BackgroundFillerServesTakes) {
  // Exercises the filler thread / Take() handoff (TSan covers the races).
  RandomizerPool pool(pub_, 6, 13);
  pool.Start();
  for (int i = 0; i < 20; ++i) {
    BigInt rn = pool.Take();
    // Every value must be a valid unit r^n mod n²: decrypting it as a
    // ciphertext of 0 must give 0.
    EXPECT_EQ(*priv_.Decrypt(rn), BigInt(0));
  }
  pool.Stop();
  EXPECT_EQ(pool.hits() + pool.misses(), 20);
}

TEST_F(RandomizerPoolTest, MetricsStreamHitsMissesDepth) {
  obs::MetricsRegistry registry;
  RandomizerPool pool(pub_, 3, 17);
  pool.AttachMetrics(&registry);
  ASSERT_TRUE(pool.Prewarm(3).ok());
  pub_.AttachRandomizerPool(&pool);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pub_.Encrypt(BigInt(i), rng_).ok());
  }
  auto counters = registry.CounterValues();
  EXPECT_EQ(counters.at("paillier.randomizer_pool_hits"), 3);
  EXPECT_EQ(counters.at("paillier.randomizer_pool_misses"), 1);
  EXPECT_EQ(registry.GaugeValues().at("paillier.randomizer_pool_depth"), 0);
}

TEST(PaillierKeyGenTest, RejectsTinyModulus) {
  SecureRandom rng(1);
  EXPECT_FALSE(GeneratePaillierKeyPair(32, rng).ok());
}

TEST(PaillierKeyGenTest, PaperSize1024Works) {
  SecureRandom rng(77);
  auto kp = GeneratePaillierKeyPair(1024, rng);
  ASSERT_TRUE(kp.ok());
  EXPECT_GE(kp->pub.modulus_bits(), 1023);
  SecureRandom enc_rng(78);
  auto c = kp->pub.Encrypt(BigInt(424242), enc_rng);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*kp->priv.Decrypt(*c), BigInt(424242));
}

TEST(FixedPointTest, RoundTripAndSquares) {
  FixedPointCodec codec(1000);
  EXPECT_EQ(codec.Encode(1.5), BigInt(1500));
  EXPECT_EQ(codec.Encode(-2.5), BigInt(-2500));
  EXPECT_DOUBLE_EQ(codec.Decode(BigInt(1500)), 1.5);
  EXPECT_DOUBLE_EQ(codec.DecodeSquared(BigInt(2250000)), 2.25);  // 1.5^2
}

// The comb at every exponent width up to its maximum, for shapes from one
// row of one bit (max 1) through 9 one-bit rows (max 9), short last blocks
// (24: 10 rows of 3 bits, 3 blocks of 1; 64: 7-bit rows, 4 blocks of 2),
// the §VI exponent (512: 10 rows of 52 bits, 4 blocks of 13) and a last row
// that is 7 bits short (513): a random and an all-ones exponent of each
// width raise the base like PowMod, and one bit more is refused.
TEST(FixedBaseTest, MatchesPowModAtEveryExponentWidth) {
  SecureRandom rng(314);
  BigInt modulus = rng.NextPrime(192) * rng.NextPrime(192);
  BigInt base = rng.NextBelow(modulus - BigInt(2)) + BigInt(2);
  for (int max_bits : {1, 9, 24, 64, 200, 512, 513}) {
    FixedBaseTable table(base, modulus, max_bits);
    ASSERT_TRUE(table.ready()) << max_bits;
    for (int width = 0; width <= max_bits; ++width) {
      BigInt random = width == 0 ? BigInt(0) : rng.NextBits(width);
      if (width > 0) mpz_setbit(random.raw(), width - 1);  // exactly `width`
      BigInt ones(0);
      for (int bit = 0; bit < width; ++bit) mpz_setbit(ones.raw(), bit);
      for (const BigInt& exp : {random, ones}) {
        auto got = table.Pow(exp);
        ASSERT_TRUE(got.ok())
            << max_bits << " bits: " << got.status().ToString();
        EXPECT_EQ(*got, BigInt::PowMod(base, exp, modulus))
            << max_bits << " bits, exponent " << exp.ToString(16);
      }
    }
    BigInt wider(0);
    mpz_setbit(wider.raw(), max_bits);  // max_bits + 1 wide
    EXPECT_FALSE(table.Pow(wider).ok()) << max_bits;
  }
}

TEST(FixedBaseTest, EdgeExponents) {
  BigInt base(7), modulus(1000003);
  FixedBaseTable table(base, modulus, /*max_exp_bits=*/64);
  ASSERT_TRUE(table.ready());
  EXPECT_EQ(*table.Pow(BigInt(0)), BigInt(1));
  EXPECT_EQ(*table.Pow(BigInt(1)), base);
  // Exactly max_exp_bits wide (2^64 - 1) must still be accepted.
  BigInt max_exp = *BigInt::FromString("18446744073709551615");
  EXPECT_EQ(*table.Pow(max_exp), BigInt::PowMod(base, max_exp, modulus));
}

TEST(FixedBaseTest, RejectsBadExponentsAndUnreadyTable) {
  BigInt base(5), modulus(104729);
  FixedBaseTable table(base, modulus, /*max_exp_bits=*/32);
  ASSERT_TRUE(table.ready());
  EXPECT_FALSE(table.Pow(BigInt(-1)).ok());
  EXPECT_FALSE(table.Pow(BigInt(1LL << 32)).ok());  // 33 bits wide
  FixedBaseTable empty;
  EXPECT_FALSE(empty.ready());
  EXPECT_FALSE(empty.Pow(BigInt(3)).ok());
}

// Value-returning wrappers over the slot codec (PackSlotsInto /
// UnpackSlotsInto), so the tests below read as packing arithmetic.
Result<BigInt> PackSlots(const std::vector<BigInt>& values,
                         const PackingLayout& layout) {
  std::vector<const BigInt*> in;
  for (const BigInt& v : values) in.push_back(&v);
  BigInt scratch, packed;
  HPRL_RETURN_IF_ERROR(PackSlotsInto(in, layout, &scratch, &packed));
  return packed;
}

Result<std::vector<BigInt>> UnpackSlots(const BigInt& packed, size_t count,
                                        const PackingLayout& layout) {
  std::vector<BigInt> values(count);
  std::vector<BigInt*> out;
  for (BigInt& v : values) out.push_back(&v);
  BigInt rest;
  HPRL_RETURN_IF_ERROR(UnpackSlotsInto(packed, count, layout, &rest, out));
  return values;
}

// 2^bits, the first value too wide for a slot of `bits` bits.
BigInt Pow2(uint64_t bits) {
  BigInt v;
  mpz_setbit(v.raw(), bits);
  return v;
}

// The widths a §VI pair's compared attributes take (age, then four
// categoricals): 73 bits per pair.
const std::vector<int> kSectionSixWidths = {36, 11, 10, 8, 8};

TEST(PackingTest, PlanLaysOutPerSlotWidths) {
  auto layout = PackingLayout::Plan(/*modulus_bits=*/256, kSectionSixWidths);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  EXPECT_EQ(layout->groups(), 3);  // (256 - 2) / 73
  EXPECT_EQ(layout->num_slots(), 15u);
  EXPECT_EQ(layout->SlotOffset(0), 0u);
  EXPECT_EQ(layout->SlotOffset(1), 36u);
  EXPECT_EQ(layout->SlotOffset(4), 65u);
  EXPECT_EQ(layout->SlotOffset(5), 73u);   // the second group's first slot
  EXPECT_EQ(layout->SlotOffset(14), 211u);
  EXPECT_EQ(layout->SlotWidth(7), 10);
  EXPECT_EQ(PackingLayout::Plan(1024, kSectionSixWidths)->groups(), 14);
  EXPECT_EQ(PackingLayout::Plan(256, {64})->groups(), 3);
  EXPECT_FALSE(PackingLayout::Plan(256, {}).ok());         // no slot
  EXPECT_FALSE(PackingLayout::Plan(256, {8, 0}).ok());     // a zero width
  EXPECT_FALSE(PackingLayout::Plan(256, {-3}).ok());
  EXPECT_FALSE(PackingLayout::Plan(32, {64}).ok());        // no group fits
  EXPECT_FALSE(PackingLayout::Plan(74, kSectionSixWidths).ok());
  EXPECT_EQ(PackingLayout::Plan(75, kSectionSixWidths)->groups(), 1);  // fits
  EXPECT_EQ(PackingLayout{}.num_slots(), 0u);              // unplanned
}

TEST(PackingTest, PackUnpackRoundTrip) {
  auto layout = PackingLayout::Plan(256, kSectionSixWidths);
  ASSERT_TRUE(layout.ok());
  std::vector<BigInt> values = {BigInt(0),           Pow2(11) - BigInt(1),
                                BigInt(513),         BigInt(0),
                                Pow2(8) - BigInt(1), Pow2(36) - BigInt(1)};
  auto packed = PackSlots(values, *layout);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  auto back = UnpackSlots(*packed, values.size(), *layout);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, values);
  // Unpacking fewer slots than were packed leaves a nonzero residue.
  EXPECT_FALSE(UnpackSlots(*packed, 5, *layout).ok());
  EXPECT_FALSE(UnpackSlots(*packed, 1, PackingLayout{}).ok());
}

TEST(PackingTest, RejectsOverflowNegativeAndTooMany) {
  auto layout = PackingLayout::Plan(256, kSectionSixWidths);
  ASSERT_TRUE(layout.ok());
  EXPECT_TRUE(PackSlots({Pow2(36) - BigInt(1)}, *layout).ok());
  EXPECT_FALSE(PackSlots({Pow2(36)}, *layout).ok());
  // Slot 1 is 11 bits wide: a value that fits slot 0 does not fit it.
  EXPECT_FALSE(PackSlots({BigInt(0), Pow2(11)}, *layout).ok());
  EXPECT_FALSE(PackSlots({BigInt(-1)}, *layout).ok());
  EXPECT_FALSE(PackSlots(std::vector<BigInt>(16, BigInt(1)), *layout).ok());
  EXPECT_FALSE(PackSlots({BigInt(1)}, PackingLayout{}).ok());
  EXPECT_FALSE(UnpackSlots(BigInt(-5), 1, *layout).ok());
  EXPECT_FALSE(UnpackSlots(BigInt(7), 16, *layout).ok());
}

// Property: random widths of 1–64 bits, on a modulus either random or
// exactly filled by whole groups, pack and unpack exactly with every slot at
// 0, at its top value 2^w − 1 or random in between; a value one bit too
// wide for its slot is rejected wherever it sits.
TEST(PackingTest, RandomWidthsRoundTripAndRejectOneBitTooWide) {
  SecureRandom rng(2024);
  auto below = [&](uint64_t n) {
    return static_cast<uint64_t>(mpz_get_ui(rng.NextBelow(
        BigInt(static_cast<int64_t>(n))).raw()));
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> widths(1 + below(6));
    int group_bits = 0;
    for (int& w : widths) {
      w = static_cast<int>(1 + below(64));
      group_bits += w;
    }
    const int groups = static_cast<int>(1 + below(5));
    // Even trials leave exactly no spare bit; odd ones up to a group's worth.
    const int modulus_bits =
        groups * group_bits + 2 +
        (trial % 2 == 0 ? 0 : static_cast<int>(below(group_bits)));
    auto layout = PackingLayout::Plan(modulus_bits, widths);
    ASSERT_TRUE(layout.ok()) << layout.status().ToString();
    ASSERT_EQ(layout->groups(), groups) << "trial " << trial;
    const size_t slots = layout->num_slots();
    std::vector<BigInt> values(slots);
    for (size_t s = 0; s < slots; ++s) {
      const int w = layout->SlotWidth(s);
      switch ((s + static_cast<size_t>(trial)) % 3) {
        case 0: values[s] = BigInt(0); break;
        case 1: values[s] = Pow2(static_cast<uint64_t>(w)) - BigInt(1); break;
        default: values[s] = rng.NextBits(w); break;
      }
    }
    auto packed = PackSlots(values, *layout);
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    EXPECT_LE(packed->BitLength(), static_cast<size_t>(modulus_bits - 2));
    auto back = UnpackSlots(*packed, slots, *layout);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, values) << "trial " << trial;
    const size_t s = below(slots);
    std::vector<BigInt> wide = values;
    wide[s] = Pow2(static_cast<uint64_t>(layout->SlotWidth(s)));
    EXPECT_EQ(PackSlots(wide, *layout).status().code(),
              StatusCode::kInvalidArgument)
        << "trial " << trial << " slot " << s;
  }
}

// The largest M with (2·M)² < 2^bits: a slot of `bits` bits holds (x - y)²
// for every |x|, |y| <= M.
BigInt SlotBound(int bits) {
  BigInt m = Pow2(static_cast<uint64_t>(bits)) - BigInt(1);
  mpz_sqrt(m.raw(), m.raw());
  mpz_fdiv_q_2exp(m.raw(), m.raw(), 1);
  return m;
}

TEST_F(PaillierTest, PackedFoldMatchesScalarSquaredDistances) {
  // Pack the x² vector, fold in Enc(-2x_i)·(y_i·W_i) and the packed y²
  // vector homomorphically, decrypt ONCE, unpack — every slot must equal the
  // scalar (x_i - y_i)², including at the extremes where (2·M_i)² nearly
  // fills slot i.
  auto layout = PackingLayout::Plan(pub_.modulus_bits(), kSectionSixWidths);
  ASSERT_TRUE(layout.ok());
  const size_t k = layout->num_slots();
  ASSERT_EQ(k, 15u);
  SecureRandom vals(31);
  for (int round = 0; round < 6; ++round) {
    std::vector<BigInt> xs(k), ys(k);
    for (size_t i = 0; i < k; ++i) {
      const BigInt m = SlotBound(layout->SlotWidth(i));
      if (round == 0) {
        // Extremes: the carry-safety boundary, alternating signs.
        xs[i] = i % 2 == 0 ? m : -m;
        ys[i] = -xs[i];
      } else {
        xs[i] = vals.NextBelow(m + BigInt(1)) - vals.NextBelow(m + BigInt(1));
        ys[i] = vals.NextBelow(m + BigInt(1)) - vals.NextBelow(m + BigInt(1));
      }
    }
    std::vector<BigInt> x2(k), y2(k);
    for (size_t i = 0; i < k; ++i) {
      x2[i] = xs[i] * xs[i];
      y2[i] = ys[i] * ys[i];
    }
    auto px2 = PackSlots(x2, *layout);
    auto py2 = PackSlots(y2, *layout);
    ASSERT_TRUE(px2.ok() && py2.ok());
    auto cx2 = pub_.Encrypt(*px2, rng_);
    auto cy2 = pub_.Encrypt(*py2, rng_);
    ASSERT_TRUE(cx2.ok() && cy2.ok());
    BigInt acc = pub_.Add(*cx2, *cy2);
    for (size_t i = 0; i < k; ++i) {
      auto cm2x = pub_.EncryptSigned(BigInt(-2) * xs[i], rng_);
      ASSERT_TRUE(cm2x.ok());
      acc = pub_.Add(acc,
                     pub_.ScalarMul(*cm2x, ys[i] * Pow2(layout->SlotOffset(i))));
    }
    auto packed = priv_.Decrypt(acc);
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    auto slots = UnpackSlots(*packed, k, *layout);
    ASSERT_TRUE(slots.ok()) << slots.status().ToString();
    for (size_t i = 0; i < k; ++i) {
      BigInt d = xs[i] - ys[i];
      EXPECT_EQ((*slots)[i], d * d) << "round " << round << " slot " << i;
    }
  }
}

// The holder that encrypts a cross term pre-weights it into its slot,
// Enc(-2x_i·W_i) with W_i = 2^offset(i), so the folding holder exponentiates
// by its bare operand y_i. The packed
// plaintext must equal both Σ(x_i - y_i)²·W_i and the slot-weighted-exponent
// form Enc(-2x_i) ×h (y_i·W_i), kept here as the reference — over the §VI
// per-attribute widths filled to the key's capacity, for random signed
// values within each slot's bound and for the extremes (carry boundary,
// zero, one side at the bound) rotated through every slot index.
class PreWeightedFoldTest : public ::testing::TestWithParam<int> {};

TEST_P(PreWeightedFoldTest, MatchesSlotWeightedExponentAndSquaredDistances) {
  const int key_bits = GetParam();
  SecureRandom key_rng(static_cast<uint64_t>(key_bits) + 77);
  auto kp = GeneratePaillierKeyPair(key_bits, key_rng);
  ASSERT_TRUE(kp.ok()) << kp.status().ToString();
  const PaillierPublicKey& pub = kp->pub;
  const PaillierPrivateKey& priv = kp->priv;
  auto layout = PackingLayout::Plan(pub.modulus_bits(), kSectionSixWidths);
  ASSERT_TRUE(layout.ok());
  const size_t k = layout->num_slots();
  // 6 pairs at 512 bits; 13 or 14 at 1024, as n has 1023 or 1024 bits.
  ASSERT_EQ(k, 5u * static_cast<size_t>((pub.modulus_bits() - 2) / 73));
  ASSERT_GE(k, 30u);

  // Each extreme scales slot i's bound M_i: x = a·M_i, y = b·M_i.
  const std::vector<std::pair<int, int>> extremes = {
      {1, -1}, {-1, 1}, {0, 0}, {1, 0}, {0, -1}, {1, 1}};
  const size_t kinds = extremes.size() + 1;  // the last kind is random
  SecureRandom rng(17), vals(static_cast<uint64_t>(key_bits));
  for (size_t round = 0; round < kinds; ++round) {
    std::vector<BigInt> xs(k), ys(k), d2(k);
    for (size_t i = 0; i < k; ++i) {
      const BigInt m = SlotBound(layout->SlotWidth(i));
      const size_t kind = (i + round) % kinds;
      if (kind < extremes.size()) {
        xs[i] = m * BigInt(extremes[kind].first);
        ys[i] = m * BigInt(extremes[kind].second);
      } else {
        xs[i] = vals.NextBelow(m + BigInt(1)) - vals.NextBelow(m + BigInt(1));
        ys[i] = vals.NextBelow(m + BigInt(1)) - vals.NextBelow(m + BigInt(1));
      }
      d2[i] = (xs[i] - ys[i]) * (xs[i] - ys[i]);
    }
    std::vector<BigInt> x2(k), y2(k);
    for (size_t i = 0; i < k; ++i) {
      x2[i] = xs[i] * xs[i];
      y2[i] = ys[i] * ys[i];
    }
    auto px2 = PackSlots(x2, *layout);
    auto py2 = PackSlots(y2, *layout);
    auto expected = PackSlots(d2, *layout);
    ASSERT_TRUE(px2.ok() && py2.ok() && expected.ok());
    auto cx2 = pub.Encrypt(*px2, rng);
    auto cy2 = pub.Encrypt(*py2, rng);
    ASSERT_TRUE(cx2.ok() && cy2.ok());
    BigInt pre_weighted = pub.Add(*cx2, *cy2);
    BigInt reference = pre_weighted;
    for (size_t i = 0; i < k; ++i) {
      const BigInt w = Pow2(layout->SlotOffset(i));
      auto c_m2xw = pub.EncryptSigned(BigInt(-2) * xs[i] * w, rng);
      auto c_m2x = pub.EncryptSigned(BigInt(-2) * xs[i], rng);
      ASSERT_TRUE(c_m2xw.ok() && c_m2x.ok());
      pre_weighted = pub.Add(pre_weighted, pub.ScalarMul(*c_m2xw, ys[i]));
      reference = pub.Add(reference, pub.ScalarMul(*c_m2x, ys[i] * w));
    }
    auto got = priv.Decrypt(pre_weighted);
    auto want = priv.Decrypt(reference);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(*got, *expected) << "round " << round;
    EXPECT_EQ(*got, *want) << "round " << round;
    auto slots = UnpackSlots(*got, k, *layout);
    ASSERT_TRUE(slots.ok()) << slots.status().ToString();
    EXPECT_EQ(*slots, d2) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(KeyBits, PreWeightedFoldTest,
                         ::testing::Values(512, 1024));

// ProductOfPowersInto is Alice's whole packed fold in one simultaneous
// exponentiation. Property: it leaves exactly the integer the chain
// `ScalarMulInto; AddInto` leaves, for random unit bases and for exponents
// 0, ±1, the §VI operand widths (17/5/4/3/3 bits), negatives, values wider
// than 64 bits and values of n or more; for one base; for no base; for a
// non-unit base under negative and positive exponents; and for more bases
// than one stack run holds. Each base counts one scalar mul and one add.
class ProductOfPowersTest : public ::testing::TestWithParam<int> {};

TEST_P(ProductOfPowersTest, EqualsTheChainedFoldBitForBit) {
  const int key_bits = GetParam();
  SecureRandom key_rng(static_cast<uint64_t>(key_bits) + 5);
  auto kp = GeneratePaillierKeyPair(key_bits, key_rng);
  ASSERT_TRUE(kp.ok()) << kp.status().ToString();
  PaillierPublicKey pub = kp->pub;
  obs::MetricsRegistry registry;
  pub.AttachMetrics(&registry);
  const BigInt& n = pub.n();
  SecureRandom rng(static_cast<uint64_t>(key_bits));
  BigIntArena arena(static_cast<size_t>(key_bits) * 4 + 128);

  auto unit = [&] {
    auto c = pub.Encrypt(rng.NextBelow(n), rng);
    EXPECT_TRUE(c.ok());
    return std::move(c).value();
  };
  auto signed_bits = [&](int bits) {
    BigInt k = rng.NextBits(bits);
    return rng.NextBits(1).IsZero() ? k : -k;
  };
  // The fixed exponents, then random ones of every kind.
  std::vector<BigInt> pool = {BigInt(0),     BigInt(1),     BigInt(-1),
                              n,             -n,            n + BigInt(5),
                              -(n + BigInt(5)), n - BigInt(1)};
  for (int bits : {17, 5, 4, 3, 3, 17, 41, 64, 65, 100, 200}) {
    pool.push_back(rng.NextBits(bits));
    pool.push_back(-rng.NextBits(bits));
  }
  for (int i = 0; i < 20; ++i) pool.push_back(signed_bits(1 + i * 7));

  struct Case {
    std::vector<BigInt> bases;
    std::vector<BigInt> exponents;
  };
  std::vector<Case> cases;
  cases.push_back({});                                  // no base
  cases.push_back({{unit()}, {BigInt(123457)}});        // one base
  cases.push_back({{unit()}, {BigInt(-77)}});           // one, negative
  cases.push_back({{n, unit(), n}, {BigInt(-3), BigInt(9), BigInt(4)}});
  Case every;  // every exponent of the pool, each on its own unit base
  for (const BigInt& k : pool) {
    every.bases.push_back(unit());
    every.exponents.push_back(k);
  }
  cases.push_back(every);
  Case section_six;  // one 8-pair §VI unit of one holder's operands
  for (int pair = 0; pair < 8; ++pair) {
    for (int64_t domain : {96000, 16, 14, 7, 7}) {
      section_six.bases.push_back(unit());
      section_six.exponents.push_back(
          domain == 96000 ? rng.NextBelow(BigInt(domain)) + BigInt(16000)
                          : rng.NextBelow(BigInt(domain)));
    }
  }
  cases.push_back(section_six);
  Case runs;  // past one 128-base run, with zero exponents mixed in
  for (int i = 0; i < 131; ++i) {
    runs.bases.push_back(unit());
    runs.exponents.push_back(i % 9 == 0 ? BigInt(0) : signed_bits(1 + i % 23));
  }
  cases.push_back(runs);
  Case zeros;  // every term 1
  for (int i = 0; i < 3; ++i) {
    zeros.bases.push_back(unit());
    zeros.exponents.push_back(BigInt(0));
  }
  cases.push_back(zeros);

  obs::Counter* muls = registry.counter("paillier.scalar_muls");
  obs::Counter* adds = registry.counter("paillier.homomorphic_adds");
  for (size_t c = 0; c < cases.size(); ++c) {
    const Case& fold = cases[c];
    const BigInt start = c == 0 ? BigInt(1) : unit();
    BigInt chained = start, scratch, term;
    for (size_t i = 0; i < fold.bases.size(); ++i) {
      pub.ScalarMulInto(fold.bases[i], fold.exponents[i], &scratch, &term);
      pub.AddInto(&chained, term);
    }
    std::vector<const BigInt*> bases, exponents;
    for (const BigInt& b : fold.bases) bases.push_back(&b);
    for (const BigInt& k : fold.exponents) exponents.push_back(&k);
    const int64_t muls_before = muls->value();
    const int64_t adds_before = adds->value();
    arena.Reset();
    BigInt product = start;
    pub.ProductOfPowersInto(bases, exponents, &arena, &product);
    EXPECT_EQ(product, chained) << "case " << c;
    const auto count = static_cast<int64_t>(fold.bases.size());
    EXPECT_EQ(muls->value() - muls_before, count) << "case " << c;
    EXPECT_EQ(adds->value() - adds_before, count) << "case " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(KeyBits, ProductOfPowersTest,
                         ::testing::Values(512, 1024));

// DecryptBelow decrypts with the p half of the CRT alone when the plaintext
// width leaves 64 bits of margin below |p| - 1, and with the full CRT
// otherwise; both equal Decrypt on every plaintext below 2^bits.
TEST(DecryptBelowTest, HalfPathAtPMinus65FullPathAtPMinus64) {
  SecureRandom rng(8080);
  const BigInt p = rng.NextPrime(128);
  BigInt q = rng.NextPrime(128);
  while (q == p) q = rng.NextPrime(128);
  auto priv = PaillierPrivateKey::FromPrimes(p, q);
  ASSERT_TRUE(priv.ok());
  PaillierPublicKey pub(priv->n());
  obs::MetricsRegistry registry;
  priv->AttachMetrics(&registry);
  obs::Counter* decryptions = registry.counter("paillier.decryptions");
  obs::Counter* narrow = registry.counter("paillier.narrow_decryptions");
  const size_t p_bits = p.BitLength();
  for (size_t bits : {p_bits - 65, p_bits - 64}) {
    const bool half = bits == p_bits - 65;
    std::vector<BigInt> plaintexts = {BigInt(0), Pow2(bits) - BigInt(1)};
    for (int i = 0; i < 8; ++i) plaintexts.push_back(rng.NextBits(bits));
    for (const BigInt& m : plaintexts) {
      auto c = pub.Encrypt(m, rng);
      ASSERT_TRUE(c.ok());
      const int64_t decrypted = decryptions->value();
      const int64_t narrowed = narrow->value();
      auto below = priv->DecryptBelow(*c, bits);
      ASSERT_TRUE(below.ok());
      EXPECT_EQ(decryptions->value() - decrypted, 1);
      EXPECT_EQ(narrow->value() - narrowed, half ? 1 : 0) << bits;
      EXPECT_EQ(*below, m) << bits;
      EXPECT_EQ(*below, *priv->Decrypt(*c)) << bits;
    }
  }
  EXPECT_FALSE(priv->DecryptBelow(BigInt(0), p_bits - 65).ok());
  EXPECT_FALSE(priv->DecryptBelow(pub.n_squared(), p_bits - 65).ok());

  // A key without CRT data has no p half: the full reference path.
  const BigInt lambda = BigInt::Lcm(p - BigInt(1), q - BigInt(1));
  auto mu = BigInt::ModInverse(lambda, priv->n());
  ASSERT_TRUE(mu.ok());
  PaillierPrivateKey reference(priv->n(), lambda, *mu);
  reference.AttachMetrics(&registry);
  const int64_t narrowed = narrow->value();
  const BigInt m = rng.NextBits(p_bits - 65);
  auto c = pub.Encrypt(m, rng);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*reference.DecryptBelow(*c, p_bits - 65), m);
  EXPECT_EQ(narrow->value(), narrowed);
}

// The margin is what keeps a damaged packed ciphertext visible: any value
// that is not an encryption of a plaintext below 2^bits decrypts on the
// half path to a residue mod p that the unpack rejects. 200 random
// ciphertexts through a 6-pair §VI unit (438 bits of a 1024-bit key's
// 512-bit p) must all fail UnpackSlotsInto.
TEST(DecryptBelowTest, RandomCiphertextsOfASixPairUnitFailTheUnpack) {
  SecureRandom key_rng(1024 + 77);
  auto kp = GeneratePaillierKeyPair(1024, key_rng);
  ASSERT_TRUE(kp.ok());
  obs::MetricsRegistry registry;
  kp->priv.AttachMetrics(&registry);
  auto layout = PackingLayout::Plan(kp->pub.modulus_bits(), kSectionSixWidths);
  ASSERT_TRUE(layout.ok());
  const size_t slots = 6 * kSectionSixWidths.size();
  const size_t bits =
      layout->SlotOffset(slots - 1) + layout->SlotWidth(slots - 1);
  ASSERT_EQ(bits, 438u);
  SecureRandom rng(5150);
  const int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    BigInt c;
    do {
      c = rng.NextBelow(kp->pub.n_squared());
    } while (c.IsZero());
    auto plain = kp->priv.DecryptBelow(c, bits);
    ASSERT_TRUE(plain.ok());
    EXPECT_FALSE(UnpackSlots(*plain, slots, *layout).ok()) << "trial " << i;
  }
  EXPECT_EQ(registry.counter("paillier.narrow_decryptions")->value(), kTrials);
}

TEST_F(RandomizerPoolTest, FixedBaseRandomizersAreValidUnits) {
  RandomizerPool pool(pub_, 4, 21);
  ASSERT_TRUE(pool.Prewarm(4).ok());
  for (int i = 0; i < 5; ++i) {
    // A valid randomizer is a unit r^n mod n²: it decrypts (as a ciphertext)
    // to 0, whether prefilled or (the fifth) computed inline.
    EXPECT_EQ(*priv_.Decrypt(pool.Take()), BigInt(0));
  }
  EXPECT_EQ(pool.misses(), 1);
}

uint64_t HashRandomizers(const std::vector<BigInt>& values) {
  uint64_t h = kFnv64OffsetBasis;
  for (const BigInt& v : values) {
    const std::vector<uint8_t> bytes = v.ToBytes();
    h = Fnv1a64(bytes.data(), bytes.size(), h);
  }
  return h;
}

TEST_F(RandomizerPoolTest, PrewarmIsThreadCountInvariant) {
  // FNV-64 over the prewarmed randomizers and over the first inline draw
  // after them, recorded from one-at-a-time generation at this key and pool
  // seed. Parallel prewarm must reproduce both: same values in the same
  // order, and the RNG left exactly where the serial loop leaves it.
  constexpr int kCount = 24;
  constexpr uint64_t kPrewarmGolden = 0x0692d70f53f3c032;
  constexpr uint64_t kNextDrawGolden = 0xca1323c0d16c11be;
  for (int threads : {1, 2, 4, kCount + 3}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    RandomizerPool pool(pub_, /*target_depth=*/1, /*test_seed=*/31);
    auto generated = pool.Prewarm(kCount, threads);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    EXPECT_EQ(*generated, kCount);
    const CryptoMaterial m = pool.ExportMaterial();
    ASSERT_EQ(m.randomizers.size(), static_cast<size_t>(kCount));
    EXPECT_EQ(HashRandomizers(m.randomizers), kPrewarmGolden);
    for (int i = 0; i < kCount; ++i) {
      EXPECT_EQ(pool.Take(), m.randomizers[static_cast<size_t>(i)]) << i;
    }
    EXPECT_EQ(HashRandomizers({pool.Take()}), kNextDrawGolden);
    EXPECT_EQ(pool.misses(), 1);
    // A count the pool already meets draws nothing.
    EXPECT_EQ(*pool.Prewarm(0, threads), 0);
  }
}

TEST_F(RandomizerPoolTest, FillerRestoresTheOfflineLevelAndNeverPassesIt) {
  // The offline phase leaves the pool above its configured depth, by
  // Prewarm or by adopting persisted material; once k draws have stopped,
  // the filler must bring it back to exactly that level, never higher.
  constexpr int kDepth = 4;
  constexpr int kLevel = 40;
  constexpr int kDraws = 25;
  RandomizerPool source(pub_, kDepth, 41);
  ASSERT_TRUE(source.Prewarm(kLevel).ok());
  const CryptoMaterial material = source.ExportMaterial();
  for (const bool adopt : {false, true}) {
    SCOPED_TRACE(adopt ? "adopted material" : "prewarmed");
    RandomizerPool pool(pub_, kDepth, 43);
    if (adopt) {
      ASSERT_TRUE(pool.AdoptMaterial(material).ok());
    } else {
      ASSERT_TRUE(pool.Prewarm(kLevel).ok());
    }
    ASSERT_EQ(pool.depth(), kLevel);
    pool.Start();
    for (int i = 0; i < kDraws; ++i) pool.Take();
    EXPECT_EQ(pool.misses(), 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    int depth = pool.depth();
    while (depth < kLevel && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      depth = pool.depth();
    }
    EXPECT_EQ(depth, kLevel);
    // Settled: the filler idles at the level instead of topping past it.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(pool.depth(), kLevel);
    pool.Stop();
  }
}

TEST_F(RandomizerPoolTest, HitRateGaugeTracksServedFraction) {
  obs::MetricsRegistry registry;
  RandomizerPool pool(pub_, 3, 23);
  pool.AttachMetrics(&registry);
  ASSERT_TRUE(pool.Prewarm(3).ok());
  pub_.AttachRandomizerPool(&pool);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pub_.Encrypt(BigInt(i), rng_).ok());
  }
  // 3 hits, 1 miss -> 75% served from the pool.
  EXPECT_DOUBLE_EQ(registry.GaugeValues().at("crypto.pool_hit_rate"), 0.75);
}

}  // namespace
}  // namespace hprl::crypto
