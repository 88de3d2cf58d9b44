// Robustness of the persistent offline-material cache (crypto/material.h):
// a valid file round-trips bit-exactly; a file filed under the wrong
// keypair, or written by the version-1 or version-2 codec, is rejected
// (never trusted, never fatal) and the caller regenerates, producing labels
// identical to a cold run. The offline phase (RunOfflinePhase) generates
// only what an adopted bank lacks, and a warm pool never hands out a
// randomizer twice. Truncation and bit-flip damage, and the pinned on-disk
// bytes, are covered with the journals by tests/durable_file_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "core/experiment.h"
#include "crypto/fixed_base.h"
#include "crypto/material.h"
#include "crypto/paillier.h"
#include "crypto/secure_random.h"
#include "obs/metrics.h"
#include "smc/protocol.h"
#include "smc/smc_oracle.h"

namespace hprl::crypto {
namespace {

constexpr int kTestKeyBits = 256;

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "hprl_material_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = ::mkdtemp(buf.data());
  EXPECT_NE(got, nullptr);
  return std::string(buf.data());
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A small keypair plus a pool with a few prewarmed randomizers — the
/// material every test serializes, damages, and reloads.
struct Fixture {
  PaillierKeyPair kp;
  CryptoMaterial material;
};

Fixture MakeFixture(uint64_t seed, int randomizers) {
  Fixture f;
  SecureRandom rng(seed);
  auto kp = GeneratePaillierKeyPair(kTestKeyBits, rng);
  EXPECT_TRUE(kp.ok()) << kp.status().ToString();
  f.kp = *kp;
  RandomizerPool pool(f.kp.pub, /*target_depth=*/randomizers, seed);
  auto generated = pool.Prewarm(randomizers);
  EXPECT_TRUE(generated.ok() && *generated == randomizers);
  f.material = pool.ExportMaterial();
  EXPECT_EQ(f.material.randomizers.size(),
            static_cast<size_t>(randomizers));
  return f;
}

TEST(KeyFingerprintTest, StableAndKeyDependent) {
  SecureRandom rng1(7), rng2(8);
  auto kp1 = GeneratePaillierKeyPair(kTestKeyBits, rng1);
  auto kp2 = GeneratePaillierKeyPair(kTestKeyBits, rng2);
  ASSERT_TRUE(kp1.ok() && kp2.ok());
  EXPECT_EQ(KeyFingerprint(kp1->pub.n()), KeyFingerprint(kp1->pub.n()));
  EXPECT_NE(KeyFingerprint(kp1->pub.n()), KeyFingerprint(kp2->pub.n()));
}

TEST(MaterialStoreTest, SaveLoadRoundTripIsExact) {
  const std::string dir = MakeTempDir();
  Fixture f = MakeFixture(41, 6);
  MaterialStore store(dir);
  ASSERT_TRUE(store.Save(f.material).ok());

  MaterialStore reader(dir);  // fresh stats
  auto loaded = reader.Load(f.material.fingerprint, f.material.modulus_bits);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, f.material.fingerprint);
  EXPECT_EQ(loaded->modulus_bits, f.material.modulus_bits);
  ASSERT_EQ(loaded->randomizers.size(), f.material.randomizers.size());
  for (size_t i = 0; i < loaded->randomizers.size(); ++i) {
    EXPECT_EQ(loaded->randomizers[i], f.material.randomizers[i]) << i;
  }
  EXPECT_EQ(reader.stats().hits, 1);
  EXPECT_EQ(reader.stats().misses, 0);
  EXPECT_EQ(reader.stats().rejected, 0);
  EXPECT_GT(reader.stats().bytes, 0);
}

TEST(MaterialStoreTest, AbsentFileIsAMissNotARejection) {
  MaterialStore store(MakeTempDir());
  auto loaded = store.Load(0xDEAD, kTestKeyBits);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().misses, 1);
  EXPECT_EQ(store.stats().rejected, 0);
}

TEST(MaterialStoreTest, StaleFingerprintIsRejected) {
  const std::string dir = MakeTempDir();
  Fixture f = MakeFixture(44, 4);
  MaterialStore store(dir);
  ASSERT_TRUE(store.Save(f.material).ok());

  // Refile key A's material under key B's cache path — as if an operator
  // copied a store between deployments. The header fingerprint disagrees
  // with the requested key, so the load MUST reject it: randomizers from
  // another keypair would silently corrupt every ciphertext.
  const uint64_t other_fp = f.material.fingerprint + 1;
  const std::vector<uint8_t> bytes = ReadFileBytes(
      store.PathFor(f.material.fingerprint, f.material.modulus_bits));
  WriteFileBytes(store.PathFor(other_fp, f.material.modulus_bits), bytes);
  auto loaded = store.Load(other_fp, f.material.modulus_bits);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().rejected, 1);
}

// Version 2 filed the same bank after a u32 exponent width and a
// length-prefixed fixed-base table; version 1 also carried a u32 slot
// layout before them. Such files, well formed and checksummed, are stale:
// a counted miss and rejection, never trusted, and the next save replaces
// them.
TEST(MaterialStoreTest, OlderVersionFilesAreRejectedMisses) {
  const std::string dir = MakeTempDir();
  Fixture f = MakeFixture(46, 3);
  MaterialStore store(dir);
  ASSERT_TRUE(store.Save(f.material).ok());
  const std::string path =
      store.PathFor(f.material.fingerprint, f.material.modulus_bits);
  const std::vector<uint8_t> v3 = ReadFileBytes(path);
  ASSERT_EQ(v3[8], 3);  // little-endian u32 version after the 8-byte magic

  // magic | version | fingerprint u64 | modulus bits u32 | ... | FNV-1a-64.
  const size_t after_bits = 8 + 4 + 8 + 4;
  auto older = [&](uint8_t version) {
    std::vector<uint8_t> old(v3.begin(), v3.end() - 8);
    old[8] = version;
    // Exponent width 128, then a 3-byte table blob.
    std::vector<uint8_t> table = {128, 0, 0, 0, 3, 0, 0, 0, 9, 8, 7};
    if (version == 1) table.insert(table.begin(), {64, 0, 0, 0});
    old.insert(old.begin() + after_bits, table.begin(), table.end());
    const uint64_t sum = Fnv1a64(old.data(), old.size());
    for (int i = 0; i < 8; ++i) {
      old.push_back(static_cast<uint8_t>(sum >> (8 * i)));
    }
    return old;
  };
  for (uint8_t version : {1, 2}) {
    WriteFileBytes(path, older(version));
    MaterialStore reader(dir);
    auto loaded = reader.Load(f.material.fingerprint, f.material.modulus_bits);
    EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound) << int{version};
    EXPECT_EQ(reader.stats().misses, 1) << int{version};
    EXPECT_EQ(reader.stats().rejected, 1) << int{version};

    ASSERT_TRUE(reader.Save(f.material).ok());
    EXPECT_EQ(ReadFileBytes(path), v3);
    EXPECT_TRUE(
        reader.Load(f.material.fingerprint, f.material.modulus_bits).ok());
  }
}

TEST(RandomizerPoolTest, AdoptionIsConsumeOnlyAndPreStartOnly) {
  Fixture f = MakeFixture(45, 5);

  RandomizerPool pool(f.kp.pub, /*target_depth=*/2, /*test_seed=*/45);
  ASSERT_TRUE(pool.AdoptMaterial(f.material).ok());
  EXPECT_EQ(pool.adopted(), 5);
  EXPECT_EQ(pool.depth(), 5);  // above target: consume-only until spent

  // Adopted values are handed out before anything new is generated, and
  // each exactly once.
  for (int i = 0; i < 5; ++i) {
    BigInt r = pool.Take();
    EXPECT_EQ(r, f.material.randomizers[static_cast<size_t>(i)]) << i;
  }
  EXPECT_EQ(pool.hits(), 5);

  // After Start the filler owns the queue; adoption must be refused.
  pool.Start();
  Status late = pool.AdoptMaterial(f.material);
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  pool.Stop();

  // Out-of-range randomizers are refused atomically (pool untouched).
  RandomizerPool fresh(f.kp.pub, 2, 45);
  CryptoMaterial bad = f.material;
  bad.randomizers.push_back(BigInt(0));
  EXPECT_EQ(fresh.AdoptMaterial(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.adopted(), 0);
  EXPECT_EQ(fresh.depth(), 0);
}

// A warm pool is built at the seed the bank was saved under, so its stream
// starts with the bank's values. Every randomizer it hands out must still
// be distinct — the adopted ones, a top-up, filler refills and inline
// misses — or two ciphertexts under one key share r^n and their quotient
// reveals the plaintext difference to anyone holding the public key.
TEST(RandomizerPoolTest, WarmPoolNeverHandsOutARandomizerTwice) {
  Fixture f = MakeFixture(47, 40);  // the bank: a cold pool at seed 47
  RandomizerPool pool(f.kp.pub, /*target_depth=*/8, /*test_seed=*/47);
  ASSERT_TRUE(pool.AdoptMaterial(f.material).ok());
  auto topped = pool.Prewarm(50);
  ASSERT_TRUE(topped.ok());
  EXPECT_EQ(*topped, 10);

  std::set<std::string> seen;
  int64_t takes = 0;
  auto take = [&](int n) {
    for (int i = 0; i < n; ++i, ++takes) {
      EXPECT_TRUE(seen.insert(pool.Take().ToString(16)).second)
          << "take " << takes << " repeats an earlier randomizer";
    }
  };
  take(50);  // the adopted bank, then the top-up
  pool.Start();
  for (int round = 0; round < 2; ++round) {
    // Let the filler restore the level, then drain it again.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (pool.depth() < 50 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(pool.depth(), 50) << "the filler never restored the level";
    take(50);
  }
  pool.Stop();
  take(pool.depth() + 10);  // whatever the filler left, then inline misses
  EXPECT_EQ(pool.misses(), 10);
  EXPECT_EQ(static_cast<int64_t>(seen.size()), takes);
}

// The offline phase adopts a bank, generates only what it lacks and saves
// the grown bank, whose new values follow the adopted ones without
// repeating them; a bank that already covers the count is not rewritten.
TEST(OfflinePhaseTest, WarmPhaseGeneratesOnlyWhatTheBankLacks) {
  const std::string dir = MakeTempDir();
  SecureRandom rng(48);
  auto kp = GeneratePaillierKeyPair(kTestKeyBits, rng);
  ASSERT_TRUE(kp.ok());
  const uint64_t fp = KeyFingerprint(kp->pub.n());
  const auto bits = static_cast<uint32_t>(kp->pub.n().BitLength());
  MaterialStore store(dir);

  RandomizerPool cold(kp->pub, 4, 48);
  auto phase = RunOfflinePhase(cold, &store, 12, 2);
  ASSERT_TRUE(phase.ok()) << phase.status().ToString();
  EXPECT_FALSE(phase->warm);
  EXPECT_EQ(phase->generated, 12);
  cold.Stop();
  auto bank = store.Load(fp, bits);
  ASSERT_TRUE(bank.ok());
  ASSERT_EQ(bank->randomizers.size(), 12u);

  RandomizerPool grown(kp->pub, 4, 48);
  phase = RunOfflinePhase(grown, &store, 20, 2);
  ASSERT_TRUE(phase.ok());
  EXPECT_TRUE(phase->warm);
  EXPECT_EQ(phase->generated, 8);
  grown.Stop();
  auto bigger = store.Load(fp, bits);
  ASSERT_TRUE(bigger.ok());
  ASSERT_EQ(bigger->randomizers.size(), 20u);
  std::set<std::string> distinct;
  for (size_t i = 0; i < 20; ++i) {
    if (i < 12) {
      EXPECT_EQ(bigger->randomizers[i], bank->randomizers[i]) << i;
    }
    distinct.insert(bigger->randomizers[i].ToString(16));
  }
  EXPECT_EQ(distinct.size(), 20u);

  const int64_t bytes_before = store.stats().bytes;
  RandomizerPool covered(kp->pub, 4, 48);
  phase = RunOfflinePhase(covered, &store, 20, 2);
  ASSERT_TRUE(phase.ok());
  EXPECT_TRUE(phase->warm);
  EXPECT_EQ(phase->generated, 0);
  covered.Stop();
  // One load, no save.
  MaterialStore reader(dir);
  ASSERT_TRUE(reader.Load(fp, bits).ok());
  EXPECT_EQ(store.stats().bytes - bytes_before, reader.stats().bytes);
}

// ---------------------------------------------------------------------------
// Engine-level acceptance: cold run, warm run, and a run whose cache was
// corrupted in place must all produce bit-identical labels; only the
// material accounting distinguishes them.

struct Workload {
  ExperimentData data;
  MatchRule rule;
};

const Workload& SmallWorkload() {
  static const Workload* w = [] {
    auto data = PrepareAdultData(40, 91);
    EXPECT_TRUE(data.ok());
    std::vector<VghPtr> vghs;
    for (const auto& n : adult::AdultQidNames()) {
      vghs.push_back(data->hierarchies.ByName(n));
    }
    auto rule =
        MakeUniformRule(data->schema, adult::AdultQidNames(), vghs, 3, 0.05);
    EXPECT_TRUE(rule.ok());
    return new Workload{std::move(data).value(), std::move(rule).value()};
  }();
  return *w;
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

smc::SmcConfig MaterialSmcConfig(const std::string& dir) {
  smc::SmcConfig cfg;
  cfg.key_bits = kTestKeyBits;
  cfg.test_seed = 11;  // material only ever hits at a pinned seed
  cfg.material_dir = dir;
  cfg.offline_pairs = 8;
  return cfg;
}

TEST(MaterialEngineTest, WarmAndRepairedRunsMatchColdBitForBit) {
  const Workload& w = SmallWorkload();
  const std::string dir = MakeTempDir();
  const auto batch = MakeBatch(w, 24);

  // Cold: empty store — miss, prewarm, save for the next run.
  // Only a miss generates randomizers in the offline phase.
  obs::MetricsRegistry cold_reg, warm_reg;
  smc::SmcMatchOracle cold(MaterialSmcConfig(dir), w.rule, 2);
  cold.AttachMetrics(&cold_reg);
  ASSERT_TRUE(cold.Init().ok());
  EXPECT_FALSE(cold.material_warm());
  EXPECT_EQ(cold.material_stats().hits, 0);
  EXPECT_GE(cold.material_stats().misses, 1);
  const smc::SmcConfig cfg = MaterialSmcConfig(dir);
  EXPECT_EQ(cold_reg.counter("crypto.material.generated")->value(),
            smc::RandomizerDraws(cfg, smc::RuleOperands(w.rule, cfg.fp_scale),
                                 cfg.offline_pairs)
                ->total());
  auto cold_labels = cold.CompareBatch(batch);
  ASSERT_TRUE(cold_labels.ok());

  // Warm: the persisted material is adopted; labels must not change.
  smc::SmcMatchOracle warm(MaterialSmcConfig(dir), w.rule, 2);
  warm.AttachMetrics(&warm_reg);
  ASSERT_TRUE(warm.Init().ok());
  EXPECT_TRUE(warm.material_warm());
  EXPECT_EQ(warm.material_stats().hits, 1);
  EXPECT_EQ(warm.material_stats().rejected, 0);
  EXPECT_EQ(warm_reg.counter("crypto.material.generated")->value(), 0);
  auto warm_labels = warm.CompareBatch(batch);
  ASSERT_TRUE(warm_labels.ok());
  EXPECT_EQ(*warm_labels, *cold_labels);

  // Corrupt the cache file in place: the next engine must reject it,
  // regenerate as if cold, overwrite the bad file, and still produce the
  // same labels. Silent acceptance of the flipped bit would surface here
  // as either an Init failure or a label diff.
  crypto::MaterialStore probe(dir);
  const auto exported = warm.randomizer_pool()->ExportMaterial();
  const std::string path =
      probe.PathFor(exported.fingerprint, exported.modulus_bits);
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x04;
  WriteFileBytes(path, bytes);

  smc::SmcMatchOracle repaired(MaterialSmcConfig(dir), w.rule, 2);
  ASSERT_TRUE(repaired.Init().ok());
  EXPECT_FALSE(repaired.material_warm());
  EXPECT_EQ(repaired.material_stats().rejected, 1);
  auto repaired_labels = repaired.CompareBatch(batch);
  ASSERT_TRUE(repaired_labels.ok());
  EXPECT_EQ(*repaired_labels, *cold_labels);

  // ... and the rewrite healed the store: a fourth engine is warm again.
  smc::SmcMatchOracle healed(MaterialSmcConfig(dir), w.rule, 2);
  ASSERT_TRUE(healed.Init().ok());
  EXPECT_TRUE(healed.material_warm());
}

// Every entry of a comb table Pow can reach, block by block: G[j][u] for
// each block j and index u ∈ [1, 2^h) whose exponent
// Σ_{i ∈ bits(u)} 2^{i·a + j·b} fits max_exp_bits. That exponent sets only
// bit 0 of block j, so Pow returns the entry itself, with no product.
std::vector<BigInt> EveryEntry(const FixedBaseTable& table) {
  const CombShape& comb = table.shape();
  std::vector<BigInt> entries;
  for (int j = 0; j < comb.blocks; ++j) {
    for (int u = 1; u < (1 << comb.rows); ++u) {
      BigInt exp(0);
      for (int i = 0; i < comb.rows; ++i) {
        if ((u >> i) & 1) {
          mpz_setbit(exp.raw(), i * comb.row_bits + j * comb.block_bits);
        }
      }
      if (static_cast<int>(exp.BitLength()) > table.max_exp_bits()) continue;
      auto entry = table.Pow(exp);
      EXPECT_TRUE(entry.ok()) << "block " << j << " index " << u;
      entries.push_back(entry.ok() ? *entry : BigInt(0));
    }
  }
  return entries;
}

// The comb's single-bit entries come from one serial squaring chain and its
// blocks fill on worker threads: every entry is the same at any thread
// count, at the §VI key size, and the table raises the base like PowMod.
TEST(FixedBaseTableTest, ThreadedBuildHasTheSameEntriesAtEveryThreadCount) {
  SecureRandom rng(1066);
  auto kp = GeneratePaillierKeyPair(1024, rng);
  ASSERT_TRUE(kp.ok()) << kp.status().ToString();
  const BigInt& n2 = kp->pub.n_squared();
  const BigInt base = rng.NextBelow(n2);
  const FixedBaseTable serial(base, n2, 512, 1);
  ASSERT_TRUE(serial.ready());
  // 10 rows of 52 bits, 4 blocks of 13: 4 × 1023 entries, at most 12
  // squarings plus 52 multiplies per Pow.
  EXPECT_EQ(serial.shape().rows, 10);
  EXPECT_EQ(serial.shape().row_bits, 52);
  EXPECT_EQ(serial.shape().blocks, 4);
  EXPECT_EQ(serial.shape().block_bits, 13);
  EXPECT_EQ(serial.table_entries(), 4u * 1023u);
  EXPECT_EQ(serial.shape().max_products(), 64);
  const std::vector<BigInt> entries = EveryEntry(serial);
  ASSERT_EQ(entries.size(), 4u * 1023u);  // bit 507 is the highest reached
  EXPECT_EQ(entries[0], base % n2);
  for (int threads : {2, 4, 8}) {
    const FixedBaseTable threaded(base, n2, 512, threads);
    EXPECT_EQ(EveryEntry(threaded), entries) << threads << " threads";
  }
  // More threads than blocks (24 bits: 3 blocks): the extra workers are
  // never started.
  EXPECT_EQ(EveryEntry(FixedBaseTable(base, n2, 24, 8)),
            EveryEntry(FixedBaseTable(base, n2, 24, 1)));
  for (int i = 0; i < 4; ++i) {
    const BigInt e = rng.NextBits(512);
    auto got = serial.Pow(e);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, BigInt::PowMod(base, e, n2));
  }
  // A pool builds its table on the threads it is given: same randomizers.
  RandomizerPool one(kp->pub, 4, 77, 1);
  RandomizerPool four(kp->pub, 4, 77, 4);
  ASSERT_TRUE(one.Prewarm(4, 1).ok());
  ASSERT_TRUE(four.Prewarm(4, 4).ok());
  EXPECT_EQ(one.ExportMaterial().randomizers,
            four.ExportMaterial().randomizers);
}

TEST(MaterialEngineTest, ColdMaterialBytesDoNotDependOnThreadCount) {
  // The cold prewarm runs on the engine's smc_threads workers, but the
  // randomizers are drawn in one fixed order, so the saved file is the same
  // byte for byte at any worker count.
  const Workload& w = SmallWorkload();
  std::vector<std::vector<uint8_t>> files;
  for (int threads : {1, 4}) {
    const std::string dir = MakeTempDir();
    smc::SmcMatchOracle engine(MaterialSmcConfig(dir), w.rule, threads);
    ASSERT_TRUE(engine.Init().ok());
    EXPECT_FALSE(engine.material_warm());
    const auto exported = engine.randomizer_pool()->ExportMaterial();
    files.push_back(ReadFileBytes(
        MaterialStore(dir).PathFor(exported.fingerprint, exported.modulus_bits)));
    ASSERT_FALSE(files.back().empty());
  }
  EXPECT_EQ(files[0], files[1]);
}

}  // namespace
}  // namespace hprl::crypto
