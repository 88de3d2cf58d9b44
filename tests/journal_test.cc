// Round trips of the session journal (src/core/journal.h). Its damage
// matrix — every truncation, every bit flip, a trailing byte, an old
// version, a full disk — runs with the other durable formats in
// tests/durable_file_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/journal.h"

namespace hprl {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

SessionJournal MakeJournal() {
  SessionJournal j;
  j.fingerprint = 0xFEEDFACECAFEBEEFull;
  j.epoch = 7;
  j.pairs_done = 1200;
  j.smc_matched = 61;
  j.quarantined = 3;
  j.shards.push_back({0, 20, 640});
  j.shards.push_back({1, 18, 560});
  j.matched_row_pairs = {{4, 9}, {17, 2}, {100000, 424242}};
  return j;
}

bool SameJournal(const SessionJournal& a, const SessionJournal& b) {
  if (a.fingerprint != b.fingerprint || a.epoch != b.epoch ||
      a.pairs_done != b.pairs_done || a.smc_matched != b.smc_matched ||
      a.quarantined != b.quarantined ||
      a.matched_row_pairs != b.matched_row_pairs ||
      a.shards.size() != b.shards.size()) {
    return false;
  }
  for (size_t i = 0; i < a.shards.size(); ++i) {
    if (a.shards[i].shard != b.shards[i].shard ||
        a.shards[i].batches_done != b.shards[i].batches_done ||
        a.shards[i].pairs_done != b.shards[i].pairs_done) {
      return false;
    }
  }
  return true;
}

TEST(SessionJournalTest, RoundTripsEveryField) {
  const std::string path = TempPath("journal_roundtrip.jnl");
  const SessionJournal j = MakeJournal();
  ASSERT_TRUE(SaveSessionJournal(path, j).ok());
  auto back = LoadSessionJournal(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(SameJournal(*back, j));
  std::remove(path.c_str());
}

TEST(SessionJournalTest, MissingFileIsNotFoundNeverAnError) {
  auto missing = LoadSessionJournal(TempPath("no_such_journal.jnl"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SessionJournalTest, EmptyJournalRoundTrips) {
  const std::string path = TempPath("journal_empty.jnl");
  SessionJournal j;
  j.fingerprint = 1;
  ASSERT_TRUE(SaveSessionJournal(path, j).ok());
  auto back = LoadSessionJournal(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(SameJournal(*back, j));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hprl
