// The shared durable-file codec (common/durable_file.h), its hashes
// (common/hash.h), and one corruption matrix run over every format built on
// it: the session journal (HPRLJNL1), the serve journal (HPRLSRV1) and the
// offline-material store (HPRLMAT1).
//
// The invariant under test is "reject, never resume wrong": a file cut at
// ANY length, with ANY single bit flipped, with a byte appended, or written
// by another format version is refused whole, with an error naming the
// artifact; and a save that fails part-way (a full disk) reports IOError
// and leaves the last good file loadable and unchanged.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/hash.h"
#include "core/journal.h"
#include "crypto/material.h"

namespace hprl {
namespace {

// --- Hashes ---------------------------------------------------------------

TEST(HashTest, Fnv1aKnownAnswers) {
  // The published FNV-1a test vectors for "" and "a".
  EXPECT_EQ(Fnv1a32("", 0), 0x811c9dc5u);
  EXPECT_EQ(Fnv1a32("a", 1), 0xe40c292cu);
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

TEST(HashTest, Fnv1a64ContinuesOverSplitInput) {
  EXPECT_EQ(Fnv1a64("bc", 2, Fnv1a64("a", 1)), Fnv1a64("abc"));
}

TEST(HashTest, KeyFingerprintIsUnchanged) {
  // Material file names embed this value; it must never drift.
  auto n = crypto::BigInt::FromString("123456789012345678901234567890123456789");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(crypto::KeyFingerprint(*n), 0xf6b73e62a32c2962ull);
}

// --- Byte codec -----------------------------------------------------------

TEST(ByteCodecTest, RoundTripsLittleEndian) {
  ByteWriter w;
  w.U32(0x01020304u);
  w.I64(-2);
  w.Blob("hi", 2);
  const std::vector<uint8_t> expect = {4, 3, 2, 1, 0xfe, 0xff, 0xff, 0xff,
                                       0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0,
                                       'h', 'i'};
  EXPECT_EQ(w.bytes(), expect);

  ByteReader in(w.bytes());
  uint32_t u = 0;
  int64_t i = 0;
  std::string s;
  ASSERT_TRUE(in.U32(&u) && in.I64(&i) && in.String(16, &s));
  EXPECT_EQ(u, 0x01020304u);
  EXPECT_EQ(i, -2);
  EXPECT_EQ(s, "hi");
  EXPECT_TRUE(in.done());
  EXPECT_FALSE(in.U32(&u));
}

TEST(ByteCodecTest, ReadsAreBoundedAndConsumeNothingOnFailure) {
  ByteWriter w;
  w.Blob("abcdef", 6);
  ByteReader capped(w.bytes());
  std::vector<uint8_t> blob;
  EXPECT_FALSE(capped.Blob(5, &blob));  // longer than the cap
  EXPECT_TRUE(capped.Blob(6, &blob));
  EXPECT_TRUE(capped.done());

  ByteReader shortened(w.bytes().data(), w.size() - 1);
  EXPECT_FALSE(shortened.Blob(64, &blob));  // prefix promises more bytes
  uint32_t len = 0;
  EXPECT_TRUE(shortened.U32(&len));  // ...and the failed read took nothing
  EXPECT_EQ(len, 6u);
  uint64_t wide = 0;
  EXPECT_FALSE(shortened.U64(&wide));
}

// --- One corruption matrix over every durable format ----------------------

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

SessionJournal SampleSessionJournal() {
  SessionJournal j;
  j.fingerprint = 0xFEEDFACECAFEBEEFull;
  j.epoch = 7;
  j.pairs_done = 1200;
  j.smc_matched = 61;
  j.quarantined = 3;
  j.shards = {{0, 20, 640}, {1, 18, 560}};
  j.matched_row_pairs = {{4, 9}, {17, 2}, {100000, 424242}};
  return j;
}

bool SameSessionJournal(const SessionJournal& a, const SessionJournal& b) {
  auto same_shard = [](const ShardDisposition& x, const ShardDisposition& y) {
    return x.shard == y.shard && x.batches_done == y.batches_done &&
           x.pairs_done == y.pairs_done;
  };
  return a.fingerprint == b.fingerprint && a.epoch == b.epoch &&
         a.pairs_done == b.pairs_done && a.smc_matched == b.smc_matched &&
         a.quarantined == b.quarantined &&
         std::equal(a.shards.begin(), a.shards.end(), b.shards.begin(),
                    b.shards.end(), same_shard) &&
         a.matched_row_pairs == b.matched_row_pairs;
}

ServeJournal SampleServeJournal() {
  ServeJournal j;
  j.fingerprint = 0xFEEDFACE12345678ull;
  j.epoch = 3;
  j.settled_deltas = 41;
  j.quarantined = 2;
  j.tenants = {{"acme", 17, 83, {{0, 4}, {2, 2}, {9, 1}}},
               {"globex", 0, 100, {}}};
  return j;
}

bool SameServeJournal(const ServeJournal& a, const ServeJournal& b) {
  if (a.fingerprint != b.fingerprint || a.epoch != b.epoch ||
      a.settled_deltas != b.settled_deltas ||
      a.quarantined != b.quarantined || a.tenants.size() != b.tenants.size()) {
    return false;
  }
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    const ServeTenantState& x = a.tenants[i];
    const ServeTenantState& y = b.tenants[i];
    if (x.name != y.name || x.allowance_remaining != y.allowance_remaining ||
        x.smc_pairs_spent != y.smc_pairs_spent || x.links != y.links) {
      return false;
    }
  }
  return true;
}

/// Hand-built (not key-generated) material: a short fixed bank keeps
/// every-bit-flip runs small.
crypto::CryptoMaterial SampleMaterial() {
  crypto::CryptoMaterial m;
  m.fingerprint = 0x0123456789ABCDEFull;
  m.modulus_bits = 256;
  m.randomizers.emplace_back(1);
  m.randomizers.emplace_back(0x7FFFFFFFFFFFll);
  m.randomizers.push_back(
      *crypto::BigInt::FromString("123456789012345678901234567890123456789"));
  return m;
}

bool SameMaterial(const crypto::CryptoMaterial& a,
                  const crypto::CryptoMaterial& b) {
  return a.fingerprint == b.fingerprint && a.modulus_bits == b.modulus_bits &&
         a.randomizers == b.randomizers;
}

TEST(MaterialFormatTest, SavedBytesAreUnchanged) {
  // Pins the on-disk bytes of one fixed material: files written by earlier
  // builds of this version must keep loading, and a warm store must stay
  // warm across upgrades. The expected hash was taken from the version-3
  // HPRLMAT1 codec, whose body is the randomizer bank alone: version 2's
  // exponent width and fixed-base table are gone.
  const crypto::CryptoMaterial m = SampleMaterial();
  const std::string dir =
      ::testing::TempDir() + "/durable_golden_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  crypto::MaterialStore store(dir);
  ASSERT_TRUE(store.Save(m).ok());
  const std::vector<uint8_t> bytes =
      ReadBytes(store.PathFor(m.fingerprint, m.modulus_bits));
  EXPECT_EQ(bytes.size(), 71u);
  EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), 0x470f25dd706976f3ull);
  EXPECT_EQ(store.stats().bytes, 71);
  std::filesystem::remove_all(dir);
}

/// One durable format as the matrix sees it. `load` returns OK only for a
/// file that reads back exactly as the sample `save` wrote; for damage it
/// returns the format's own refusal.
struct Format {
  std::string name;
  std::string artifact;      ///< every damage message starts with this
  uint32_t version;          ///< the version this build writes
  StatusCode damage_code;    ///< what a damaged file loads as
  std::function<std::string(const std::string& dir)> path;
  std::function<Status(const std::string& dir)> save;
  std::function<Status(const std::string& dir)> load;
};

std::vector<Format> AllFormats() {
  const auto journal_path = [](const std::string& dir) {
    return dir + "/run.jnl";
  };
  const auto material_path = [](const std::string& dir) {
    const crypto::CryptoMaterial m = SampleMaterial();
    return crypto::MaterialStore(dir).PathFor(m.fingerprint, m.modulus_bits);
  };
  return {
      {"SessionJournal", "session journal", 2,
       StatusCode::kFailedPrecondition, journal_path,
       [=](const std::string& dir) {
         return SaveSessionJournal(journal_path(dir), SampleSessionJournal());
       },
       [=](const std::string& dir) -> Status {
         auto j = LoadSessionJournal(journal_path(dir));
         if (!j.ok()) return j.status();
         return SameSessionJournal(*j, SampleSessionJournal())
                    ? Status::OK()
                    : Status::Internal("resumed with different values");
       }},
      {"ServeJournal", "serve journal", 2, StatusCode::kFailedPrecondition,
       journal_path,
       [=](const std::string& dir) {
         return SaveServeJournal(journal_path(dir), SampleServeJournal());
       },
       [=](const std::string& dir) -> Status {
         auto j = LoadServeJournal(journal_path(dir));
         if (!j.ok()) return j.status();
         return SameServeJournal(*j, SampleServeJournal())
                    ? Status::OK()
                    : Status::Internal("resumed with different values");
       }},
      {"Material", "material", 3, StatusCode::kNotFound, material_path,
       [](const std::string& dir) {
         return crypto::MaterialStore(dir).Save(SampleMaterial());
       },
       [](const std::string& dir) -> Status {
         const crypto::CryptoMaterial want = SampleMaterial();
         crypto::MaterialStore store(dir);
         auto m = store.Load(want.fingerprint, want.modulus_bits);
         if (m.ok()) {
           return SameMaterial(*m, want)
                      ? Status::OK()
                      : Status::Internal("loaded different values");
         }
         // Damage is never fatal, but it must be counted: this stat is the
         // crypto.material.rejected counter.
         if (store.stats().rejected != 1) {
           return Status::Internal("damage not counted as a rejection: " +
                                   m.status().message());
         }
         return m.status();
       }},
  };
}

void PrintTo(const Format& format, std::ostream* os) { *os << format.name; }

class DurableFormatTest : public ::testing::TestWithParam<Format> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/durable_" + GetParam().name + "_" +
           std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = GetParam().path(dir_);
    ASSERT_TRUE(GetParam().save(dir_).ok());
    good_ = ReadBytes(path_);
    ASSERT_GT(good_.size(), 20u);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `bytes` over the file and expects the load to refuse it.
  void ExpectRejected(const std::vector<uint8_t>& bytes,
                      const std::string& what) {
    WriteBytes(path_, bytes);
    const Status st = GetParam().load(dir_);
    ASSERT_EQ(st.code(), GetParam().damage_code) << what << ": "
                                                 << st.ToString();
    EXPECT_EQ(st.message().rfind(GetParam().artifact + " ", 0), 0u)
        << what << ": message does not name the artifact: " << st.message();
  }

  std::string dir_;
  std::string path_;
  std::vector<uint8_t> good_;
};

TEST_P(DurableFormatTest, IntactFileRoundTrips) {
  EXPECT_TRUE(GetParam().load(dir_).ok());
}

TEST_P(DurableFormatTest, EveryTruncationIsRejected) {
  for (size_t n = 0; n < good_.size(); ++n) {
    ExpectRejected({good_.begin(), good_.begin() + static_cast<long>(n)},
                   "truncated to " + std::to_string(n) + " bytes");
  }
}

TEST_P(DurableFormatTest, EverySingleBitFlipIsRejected) {
  for (size_t i = 0; i < good_.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = good_;
      bad[i] ^= static_cast<uint8_t>(1u << bit);
      ExpectRejected(bad, "bit " + std::to_string(bit) + " of byte " +
                              std::to_string(i) + " flipped");
    }
  }
}

TEST_P(DurableFormatTest, OneTrailingByteIsRejected) {
  std::vector<uint8_t> longer = good_;
  longer.push_back(0);
  ExpectRejected(longer, "one trailing byte");
}

TEST_P(DurableFormatTest, OtherVersionIsRejected) {
  // A well-formed envelope, checksum and all, from the previous version.
  ByteWriter old;
  old.Raw(good_.data(), 8);  // magic
  old.U32(GetParam().version - 1);
  old.Raw(good_.data() + 12, good_.size() - 12 - 8);  // body
  old.U64(Fnv1a64(old.bytes().data(), old.size()));
  ExpectRejected(old.bytes(),
                 "version " + std::to_string(GetParam().version - 1));
}

TEST_P(DurableFormatTest, FullDiskKeepsTheLastGoodFile) {
  // Writes to /dev/full succeed into the stream buffer and fail only when
  // flushed: a save that skipped the flush check would rename the torn tmp
  // file over the good one.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string tmp = path_ + ".tmp";
  std::filesystem::create_symlink("/dev/full", tmp);
  const Status st = GetParam().save(dir_);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_FALSE(std::filesystem::is_symlink(tmp)) << "tmp file left behind";
  // A save that renamed the tmp link into place left /dev/full there, which
  // reads zeros forever.
  ASSERT_FALSE(std::filesystem::is_symlink(path_)) << "torn file installed";
  EXPECT_EQ(ReadBytes(path_), good_);
  EXPECT_TRUE(GetParam().load(dir_).ok());
}

INSTANTIATE_TEST_SUITE_P(AllFormats, DurableFormatTest,
                         ::testing::ValuesIn(AllFormats()),
                         [](const auto& info) { return info.param.name; });

// Version 1 of both journals predates the envelope: a big-endian body under
// a big-endian FNV-1a-32 trailer. Such a file fails the envelope's checksum
// before its version is read, and is refused like any other damage.

void PutBigEndian(uint64_t v, int bytes, std::vector<uint8_t>* out) {
  for (int i = bytes - 1; i >= 0; --i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

/// A version-1 journal holding `magic`, the fingerprint/epoch/two counts
/// header every v1 journal starts with, and an empty trailing list.
std::vector<uint8_t> VersionOneJournal(const char (&magic)[9]) {
  std::vector<uint8_t> f(magic, magic + 8);
  PutBigEndian(1, 4, &f);                      // version
  PutBigEndian(0xFEEDFACECAFEBEEFull, 8, &f);  // fingerprint
  PutBigEndian(7, 8, &f);                      // epoch
  PutBigEndian(12, 8, &f);                     // pairs_done / settled_deltas
  PutBigEndian(0, 8, &f);                      // smc_matched / quarantined
  return f;
}

std::vector<uint8_t> SealVersionOne(std::vector<uint8_t> f) {
  PutBigEndian(Fnv1a32(f.data(), f.size()), 4, &f);
  return f;
}

TEST(JournalVersionTest, VersionOneFilesAreRefusedAsDamage) {
  const std::string dir =
      ::testing::TempDir() + "/durable_v1_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/run.jnl";

  std::vector<uint8_t> session = VersionOneJournal("HPRLJNL1");
  PutBigEndian(0, 8, &session);  // quarantined
  PutBigEndian(0, 4, &session);  // no shards
  PutBigEndian(0, 4, &session);  // no matched pairs
  WriteBytes(path, SealVersionOne(session));
  Status st = LoadSessionJournal(path).status();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_EQ(st.message(),
            "session journal " + path + " rejected: checksum mismatch");

  std::vector<uint8_t> serve = VersionOneJournal("HPRLSRV1");
  PutBigEndian(0, 4, &serve);  // no tenants
  WriteBytes(path, SealVersionOne(serve));
  st = LoadServeJournal(path).status();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_EQ(st.message(),
            "serve journal " + path + " rejected: checksum mismatch");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hprl
