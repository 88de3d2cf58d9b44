// Microbenchmarks for the cryptographic substrate: Paillier primitive costs
// at the paper's 1024-bit key size (and 2048 for context). These are the
// per-operation costs behind the paper's 0.43 s/value figure.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "crypto/arena.h"
#include "crypto/fixed_base.h"
#include "crypto/paillier.h"

namespace hprl::crypto {
namespace {

struct KeyFixture {
  PaillierKeyPair kp;
  SecureRandom rng{12345};

  explicit KeyFixture(int bits) {
    SecureRandom keyrng(777);
    auto r = GeneratePaillierKeyPair(bits, keyrng);
    if (!r.ok()) std::abort();
    kp = std::move(r).value();
  }
};

KeyFixture& Fixture(int bits) {
  static KeyFixture* k1024 = new KeyFixture(1024);
  static KeyFixture* k2048 = new KeyFixture(2048);
  return bits == 2048 ? *k2048 : *k1024;
}

void BM_PaillierKeyGen(benchmark::State& state) {
  SecureRandom rng(1);
  for (auto _ : state) {
    auto kp = GeneratePaillierKeyPair(static_cast<int>(state.range(0)), rng);
    benchmark::DoNotOptimize(kp);
  }
}
BENCHMARK(BM_PaillierKeyGen)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_PaillierEncrypt(benchmark::State& state) {
  KeyFixture& f = Fixture(static_cast<int>(state.range(0)));
  BigInt m(123456789);
  for (auto _ : state) {
    auto c = f.kp.pub.Encrypt(m, f.rng);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_PaillierDecrypt(benchmark::State& state) {
  KeyFixture& f = Fixture(static_cast<int>(state.range(0)));
  auto c = f.kp.pub.Encrypt(BigInt(987654321), f.rng);
  if (!c.ok()) std::abort();
  for (auto _ : state) {
    auto m = f.kp.priv.Decrypt(*c);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PaillierDecrypt)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

// A narrow plaintext (one 6-pair §VI unit: 6 × 73 = 438 bits) through
// DecryptBelow's single CRT half, next to BM_PaillierDecryptCrt's two.
void BM_PaillierDecryptNarrow(benchmark::State& state) {
  KeyFixture& f = Fixture(static_cast<int>(state.range(0)));
  constexpr size_t kBits = 6 * 73;
  auto c = f.kp.pub.Encrypt(f.rng.NextBits(kBits), f.rng);
  if (!c.ok()) std::abort();
  for (auto _ : state) {
    auto m = f.kp.priv.DecryptBelow(*c, kBits);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PaillierDecryptNarrow)->Arg(1024)->Unit(benchmark::kMillisecond);

// The CRT fast path vs the reference lambda/mu path on the same key and
// ciphertext — the before/after pair behind docs/PERFORMANCE.md.
void BM_PaillierDecryptCrt(benchmark::State& state) {
  KeyFixture& f = Fixture(static_cast<int>(state.range(0)));
  if (!f.kp.priv.has_crt()) std::abort();
  auto c = f.kp.pub.Encrypt(BigInt(987654321), f.rng);
  if (!c.ok()) std::abort();
  for (auto _ : state) {
    auto m = f.kp.priv.Decrypt(*c);  // dispatches to the CRT path
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PaillierDecryptCrt)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_PaillierDecryptReference(benchmark::State& state) {
  KeyFixture& f = Fixture(static_cast<int>(state.range(0)));
  auto c = f.kp.pub.Encrypt(BigInt(987654321), f.rng);
  if (!c.ok()) std::abort();
  for (auto _ : state) {
    auto m = f.kp.priv.DecryptReference(*c);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PaillierDecryptReference)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// Encryption with the r^n mod n² factor served by a prefilled randomizer
// pool: the latency left on the critical path once precomputation is moved
// to idle time. The per-iteration Prewarm runs outside the timed region.
void BM_PaillierEncryptPooled(benchmark::State& state) {
  KeyFixture& f = Fixture(static_cast<int>(state.range(0)));
  PaillierPublicKey pub = f.kp.pub;  // local copy: attachment stays local
  RandomizerPool pool(pub, /*target_depth=*/1, /*test_seed=*/42);
  pub.AttachRandomizerPool(&pool);
  BigInt m(123456789);
  for (auto _ : state) {
    state.PauseTiming();
    (void)pool.Prewarm(1);
    state.ResumeTiming();
    auto c = pub.Encrypt(m, f.rng);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_PaillierEncryptPooled)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// The randomizer pool's fixed base h_n = (h² mod n)^n mod n² for a random h
// coprime to n, and its short exponent width, as RandomizerPool draws them.
struct RandomizerBase {
  BigInt hn;
  int short_bits = 0;
};

RandomizerBase MakeRandomizerBase(const BigInt& n, const BigInt& n2,
                                  SecureRandom& rng) {
  BigInt h;
  do {
    h = rng.NextBelow(n);
  } while (h.IsZero() || BigInt::Gcd(h, n) != BigInt(1));
  return {BigInt::PowMod((h * h) % n, n, n2),
          std::max(128, static_cast<int>(n.BitLength()) / 2)};
}

// The randomizer hot path, both ways: drawing r^n mod n² as h_n^s with a
// short exponent through the fixed-base comb table, vs the reference
// square-and-multiply PowMod(r, n, n²). This pair is the per-randomizer cost
// behind the RandomizerPool's fast refill. The counters are the comb's
// table entries and the products mod n² one Pow costs at most.
void BM_RandomizerFixedBasePow(benchmark::State& state) {
  KeyFixture& f = Fixture(static_cast<int>(state.range(0)));
  const BigInt& n2 = f.kp.pub.n_squared();
  SecureRandom rng(99);
  const RandomizerBase rb = MakeRandomizerBase(f.kp.pub.n(), n2, rng);
  FixedBaseTable table(rb.hn, n2, rb.short_bits);
  if (!table.ready()) std::abort();
  BigInt s = rng.NextBits(rb.short_bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Pow(s));
  }
  state.counters["table_entries"] =
      static_cast<double>(table.table_entries());
  state.counters["max_products"] = table.shape().max_products();
}
BENCHMARK(BM_RandomizerFixedBasePow)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// Building the comb table for the pool's base, serially: the per-key setup
// every RandomizerPool pays before its first randomizer.
void BM_FixedBaseTableBuild(benchmark::State& state) {
  KeyFixture& f = Fixture(static_cast<int>(state.range(0)));
  const BigInt& n2 = f.kp.pub.n_squared();
  SecureRandom rng(99);
  const RandomizerBase rb = MakeRandomizerBase(f.kp.pub.n(), n2, rng);
  for (auto _ : state) {
    FixedBaseTable table(rb.hn, n2, rb.short_bits);
    benchmark::DoNotOptimize(table.ready());
  }
}
BENCHMARK(BM_FixedBaseTableBuild)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_RandomizerReferencePowMod(benchmark::State& state) {
  KeyFixture& f = Fixture(static_cast<int>(state.range(0)));
  const BigInt& n = f.kp.pub.n();
  const BigInt& n2 = f.kp.pub.n_squared();
  SecureRandom rng(99);
  BigInt r;
  do {
    r = rng.NextBelow(n);
  } while (r.IsZero());
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::PowMod(r, n, n2));
  }
}
BENCHMARK(BM_RandomizerReferencePowMod)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_PaillierHomomorphicAdd(benchmark::State& state) {
  KeyFixture& f = Fixture(1024);
  auto c1 = f.kp.pub.Encrypt(BigInt(111), f.rng);
  auto c2 = f.kp.pub.Encrypt(BigInt(222), f.rng);
  if (!c1.ok() || !c2.ok()) std::abort();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.kp.pub.Add(*c1, *c2));
  }
}
BENCHMARK(BM_PaillierHomomorphicAdd);

void BM_PaillierScalarMul(benchmark::State& state) {
  KeyFixture& f = Fixture(1024);
  auto c = f.kp.pub.Encrypt(BigInt(333), f.rng);
  if (!c.ok()) std::abort();
  BigInt scalar(1234567);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.kp.pub.ScalarMul(*c, scalar));
  }
}
BENCHMARK(BM_PaillierScalarMul)->Unit(benchmark::kMicrosecond);

// The blinded comparison's fold, Enc(d) ×h (-rho) with a 41-bit rho:
// ScalarMul inverts c and exponentiates by |k|. The reference raises c to
// the full-width n - |k|, what ScalarMul computed before.
void BM_PaillierScalarMulNegative41(benchmark::State& state) {
  KeyFixture& f = Fixture(1024);
  auto c = f.kp.pub.Encrypt(BigInt(333), f.rng);
  if (!c.ok()) std::abort();
  const BigInt scalar = -(f.rng.NextBits(40) + BigInt(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.kp.pub.ScalarMul(*c, scalar));
  }
}
BENCHMARK(BM_PaillierScalarMulNegative41)->Unit(benchmark::kMicrosecond);

void BM_PaillierScalarMulNegative41FullWidth(benchmark::State& state) {
  KeyFixture& f = Fixture(1024);
  auto c = f.kp.pub.Encrypt(BigInt(333), f.rng);
  if (!c.ok()) std::abort();
  const BigInt scalar = -(f.rng.NextBits(40) + BigInt(1));
  const BigInt& n2 = f.kp.pub.n_squared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::PowMod(*c, scalar % f.kp.pub.n(), n2));
  }
}
BENCHMARK(BM_PaillierScalarMulNegative41FullWidth)
    ->Unit(benchmark::kMicrosecond);

// Alice's fold of one §VI unit of range(0) pairs (8 in BENCH_hotpath.json)
// at 1024 bits whose pairs all compare different R rows: 5 column
// ciphertexts per pair raised to her operands — age in [16000, 112000) (17
// bits at fp_scale 1000) and categories below 16, 14, 7 and 7 leaves — and
// added into the packed x² + y² ciphertext.
// Product is the production fold, one simultaneous exponentiation;
// Chained, the reference, is the per-slot ScalarMulInto + AddInto loop it
// replaced.
struct FoldFixture {
  std::vector<BigInt> bases;
  std::vector<const BigInt*> base_ptrs;
  std::vector<BigInt> exponents;
  std::vector<const BigInt*> exponent_ptrs;
  BigInt start;

  explicit FoldFixture(int64_t pairs) {
    KeyFixture& f = Fixture(1024);
    SecureRandom rng(8);
    const int64_t domains[] = {96000, 16, 14, 7, 7};
    for (int64_t pair = 0; pair < pairs; ++pair) {
      for (int64_t domain : domains) {
        BigInt y = rng.NextBelow(BigInt(domain));
        if (domain == 96000) y = y + BigInt(16000);
        exponents.push_back(std::move(y));
      }
    }
    for (size_t i = 0; i < exponents.size() + 1; ++i) {
      auto c = f.kp.pub.Encrypt(rng.NextBits(1000), f.rng);
      if (!c.ok()) std::abort();
      bases.push_back(std::move(c).value());
    }
    start = bases.back();
    bases.pop_back();
    for (const BigInt& b : bases) base_ptrs.push_back(&b);
    for (const BigInt& k : exponents) exponent_ptrs.push_back(&k);
  }
};

void BM_PackedFoldChained(benchmark::State& state) {
  const PaillierPublicKey& pub = Fixture(1024).kp.pub;
  FoldFixture fold(state.range(0));
  BigInt acc, scratch, term;
  for (auto _ : state) {
    acc = fold.start;
    for (size_t i = 0; i < fold.bases.size(); ++i) {
      pub.ScalarMulInto(fold.bases[i], fold.exponents[i], &scratch, &term);
      pub.AddInto(&acc, term);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PackedFoldChained)
    ->Arg(1)
    ->Arg(3)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_PackedFoldProduct(benchmark::State& state) {
  const PaillierPublicKey& pub = Fixture(1024).kp.pub;
  FoldFixture fold(state.range(0));
  BigIntArena arena(4 * 1024 + 128);
  BigInt acc;
  for (auto _ : state) {
    arena.Reset();
    acc = fold.start;
    pub.ProductOfPowersInto(fold.base_ptrs, fold.exponent_ptrs, &arena, &acc);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PackedFoldProduct)
    ->Arg(1)
    ->Arg(3)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_PrimeGeneration(benchmark::State& state) {
  SecureRandom rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextPrime(static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_PrimeGeneration)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hprl::crypto

BENCHMARK_MAIN();
