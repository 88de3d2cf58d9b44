// Streaming incremental linkage service (src/serve): property tests that the
// incremental blocker and the service reproduce from-scratch results at every
// step of randomized insert/update/delete walks, plus admission-control,
// crash-replay and serve-journal durability checks (docs/SERVICE.md).

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adult/adult.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/journal.h"
#include "linkage/match_rule.h"
#include "linkage/oracle.h"
#include "linkage/slack.h"
#include "serve/generalize.h"
#include "serve/incremental_blocker.h"
#include "serve/service.h"

namespace hprl {
namespace {

using serve::AffectedPair;
using serve::DeltaOp;
using serve::DeltaStatus;
using serve::IncrementalBlocker;
using serve::LinkageService;
using serve::RecordDelta;
using serve::ServiceOptions;
using serve::Side;
using serve::TenantSnapshot;

constexpr int kQids = 5;

struct ServeFixture {
  adult::AdultHierarchies h;
  Table source;
  MatchRule rule;
  std::vector<VghPtr> hierarchies;

  explicit ServeFixture(int rows = 200, uint64_t seed = 21)
      : h(adult::BuildAdultHierarchies()),
        source(adult::GenerateAdult(rows, seed, h)) {
    std::vector<VghPtr> all;
    for (const auto& n : adult::AdultQidNames()) all.push_back(h.ByName(n));
    auto r = MakeUniformRule(source.schema(), adult::AdultQidNames(), all,
                             kQids, 0.05);
    HPRL_CHECK(r.ok());
    rule = std::move(r).value();
    hierarchies.assign(all.begin(), all.begin() + kQids);
  }

  GenSequence Gen(int64_t row, int level = 1) const {
    auto seq = serve::GeneralizeRecord(source.row(row), rule, hierarchies,
                                       level);
    HPRL_CHECK(seq.ok());
    return std::move(seq).value();
  }
};

// ---------------------------------------------------------------------------
// IncrementalBlocker: the memoized incremental state must be bit-identical to
// the from-scratch slack decision at EVERY step of a random mutation walk.

/// One shadow side of the walk: row id -> the sequence the blocker holds.
using ShadowSide = std::map<int64_t, GenSequence>;

void ExpectMatrixMatchesScratch(IncrementalBlocker& blocker,
                                const ShadowSide& shadow_r,
                                const ShadowSide& shadow_s,
                                const MatchRule& rule) {
  ASSERT_EQ(blocker.live_rows(Side::kR),
            static_cast<int64_t>(shadow_r.size()));
  ASSERT_EQ(blocker.live_rows(Side::kS),
            static_cast<int64_t>(shadow_s.size()));
  // Preview never mutates row bookkeeping or memoized verdicts, so reading
  // the full matrix through it is exactly "what would the blocker say now".
  for (const auto& [r_id, r_seq] : shadow_r) {
    std::vector<AffectedPair> row =
        blocker.Preview(Side::kR, r_id, r_seq);
    ASSERT_EQ(row.size(), shadow_s.size());
    size_t i = 0;
    for (const auto& [s_id, s_seq] : shadow_s) {
      ASSERT_EQ(row[i].r_id, r_id);
      // Other-side ids ascend (std::map order), pairs in (r, s) orientation.
      ASSERT_EQ(row[i].s_id, s_id);
      EXPECT_EQ(row[i].label, SlackDecide(r_seq, s_seq, rule))
          << "pair (" << r_id << "," << s_id << ")";
      ++i;
    }
  }
}

TEST(IncrementalBlockerProperty, RandomWalksMatchScratchAtEveryStep) {
  ServeFixture fx;
  for (uint64_t seed : {3u, 17u, 92u}) {
    Rng rng(seed);
    IncrementalBlocker blocker(fx.rule);
    ShadowSide shadow[2];
    int64_t next_id[2] = {0, 0};
    for (int step = 0; step < 70; ++step) {
      const int side_i = static_cast<int>(rng.NextBounded(2));
      Side side = side_i == 0 ? Side::kR : Side::kS;
      ShadowSide& mine = shadow[side_i];
      const double roll = rng.NextDouble();
      if (roll < 0.2 && !mine.empty()) {  // delete
        auto it = mine.begin();
        std::advance(it, rng.NextBounded(mine.size()));
        blocker.Erase(side, it->first);
        mine.erase(it);
      } else {
        int64_t id;
        if (roll < 0.4 && !mine.empty()) {  // update: reuse a live id
          auto it = mine.begin();
          std::advance(it, rng.NextBounded(mine.size()));
          id = it->first;
        } else {  // insert
          id = next_id[side_i]++;
        }
        GenSequence seq =
            fx.Gen(rng.NextBounded(fx.source.num_rows()));
        std::vector<AffectedPair> pairs = blocker.Upsert(side, id, seq);
        mine[id] = seq;
        // The upsert's own affected pairs are the delta row against every
        // live other-side row, already in final orientation.
        const ShadowSide& other = shadow[1 - side_i];
        ASSERT_EQ(pairs.size(), other.size());
        for (const AffectedPair& p : pairs) {
          const GenSequence& r_seq =
              side == Side::kR ? seq : shadow[0].at(p.r_id);
          const GenSequence& s_seq =
              side == Side::kS ? seq : shadow[1].at(p.s_id);
          EXPECT_EQ(p.label, SlackDecide(r_seq, s_seq, fx.rule));
        }
      }
      ExpectMatrixMatchesScratch(blocker, shadow[0], shadow[1], fx.rule);
    }
  }
}

TEST(IncrementalBlockerProperty, PreviewIsUnobservable) {
  ServeFixture fx;
  IncrementalBlocker blocker(fx.rule);
  blocker.Upsert(Side::kS, 0, fx.Gen(0));
  blocker.Upsert(Side::kS, 1, fx.Gen(1));

  GenSequence probe = fx.Gen(2);
  std::vector<AffectedPair> preview = blocker.Preview(Side::kR, 7, probe);
  EXPECT_EQ(blocker.live_rows(Side::kR), 0);  // not committed
  // Committing afterwards yields the very labels the preview promised.
  std::vector<AffectedPair> committed = blocker.Upsert(Side::kR, 7, probe);
  ASSERT_EQ(preview.size(), committed.size());
  for (size_t i = 0; i < preview.size(); ++i) {
    EXPECT_EQ(preview[i].r_id, committed[i].r_id);
    EXPECT_EQ(preview[i].s_id, committed[i].s_id);
    EXPECT_EQ(preview[i].label, committed[i].label);
  }
}

// ---------------------------------------------------------------------------
// LinkageService: at every step of a randomized multi-tenant walk, the
// settled link set must equal the exact plaintext linkage over the live
// records — M pairs by soundness, U pairs through the (exact) oracle.

struct WalkState {
  // (tenant, side) -> row id -> source row driving the record.
  std::map<std::pair<std::string, int>, std::map<int64_t, int64_t>> live;
  std::map<std::pair<std::string, int>, int64_t> next_id;
};

RecordDelta MakeUpsert(const ServeFixture& fx, const std::string& tenant,
                       Side side, int64_t row_id, int64_t source_row) {
  RecordDelta d;
  d.op = DeltaOp::kUpsert;
  d.side = side;
  d.tenant = tenant;
  d.row_id = row_id;
  d.record = fx.source.row(source_row);
  return d;
}

std::set<serve::Link> ExpectedLinks(const ServeFixture& fx,
                                    const WalkState& st,
                                    const std::string& tenant) {
  std::set<serve::Link> expect;
  auto r_it = st.live.find({tenant, 0});
  auto s_it = st.live.find({tenant, 1});
  if (r_it == st.live.end() || s_it == st.live.end()) return expect;
  for (const auto& [r_id, r_row] : r_it->second) {
    for (const auto& [s_id, s_row] : s_it->second) {
      if (RecordsMatch(fx.source.row(r_row), fx.source.row(s_row), fx.rule)) {
        expect.insert({r_id, s_id});
      }
    }
  }
  return expect;
}

TEST(LinkageServiceProperty, WalkLinksEqualExactPlaintextLinkage) {
  ServeFixture fx;
  ServiceOptions opts;
  opts.rule = fx.rule;
  opts.hierarchies = fx.hierarchies;
  opts.gen_level = 1;
  opts.tenant_allowance = 1'000'000;
  opts.smc_batch_pairs = 3;  // exercise CompareBatch chunking
  const std::vector<std::string> tenants = {"acme", "globex"};

  for (uint64_t seed : {5u, 41u}) {
    CountingPlaintextOracle oracle(fx.rule);
    LinkageService svc(opts, &oracle);
    Rng rng(seed);
    WalkState st;
    for (int step = 0; step < 60; ++step) {
      const std::string& tenant = tenants[step % tenants.size()];
      const int side_i = static_cast<int>(rng.NextBounded(2));
      Side side = side_i == 0 ? Side::kR : Side::kS;
      auto& mine = st.live[{tenant, side_i}];
      const double roll = rng.NextDouble();
      RecordDelta d;
      if (roll < 0.18 && !mine.empty()) {
        auto it = mine.begin();
        std::advance(it, rng.NextBounded(mine.size()));
        d.op = DeltaOp::kErase;
        d.side = side;
        d.tenant = tenant;
        d.row_id = it->first;
        mine.erase(it);
      } else {
        int64_t id;
        if (roll < 0.36 && !mine.empty()) {
          auto it = mine.begin();
          std::advance(it, rng.NextBounded(mine.size()));
          id = it->first;
        } else {
          id = st.next_id[{tenant, side_i}]++;
        }
        int64_t src = rng.NextBounded(fx.source.num_rows());
        d = MakeUpsert(fx, tenant, side, id, src);
        mine[id] = src;
      }
      auto r = svc.Apply(d);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->status, DeltaStatus::kApplied);

      for (const TenantSnapshot& snap : svc.Snapshot()) {
        std::set<serve::Link> got(snap.links.begin(), snap.links.end());
        EXPECT_EQ(got, ExpectedLinks(fx, st, snap.name))
            << "tenant " << snap.name << " at step " << step;
      }
    }
    EXPECT_EQ(svc.settled_deltas(), 60);
  }
}

// ---------------------------------------------------------------------------
// Admission control: exhaustion queues or rejects with a distinct status —
// never a silent drop — and TopUp drains the queue FIFO.

TEST(LinkageServiceAdmission, ExhaustionQueuesThenTopUpDrains) {
  ServeFixture fx;
  ServiceOptions opts;
  opts.rule = fx.rule;
  opts.hierarchies = fx.hierarchies;
  opts.tenant_allowance = 0;  // every straddling pair is inadmissible
  opts.max_queued = 2;
  CountingPlaintextOracle oracle(fx.rule);
  LinkageService svc(opts, &oracle);

  // Seed an S row so R inserts produce at least one affected pair. The same
  // source row on both sides guarantees the pair is not a slack mismatch.
  ASSERT_TRUE(svc.Apply(MakeUpsert(fx, "t", Side::kS, 0, 3)).ok());

  std::vector<DeltaStatus> seen;
  for (int i = 0; i < 4; ++i) {
    auto r = svc.Apply(MakeUpsert(fx, "t", Side::kR, i, 3));
    ASSERT_TRUE(r.ok());
    seen.push_back(r->status);
  }
  // The identical-record pair straddles or matches; with zero allowance a
  // U preview queues until the queue cap, then rejects.
  int64_t queued = 0, rejected = 0, applied = 0;
  for (DeltaStatus s : seen) {
    queued += s == DeltaStatus::kQueued;
    rejected += s == DeltaStatus::kRejectedQueue;
    applied += s == DeltaStatus::kApplied;
  }
  EXPECT_EQ(queued, 2);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(applied, 0);
  EXPECT_EQ(svc.settled_deltas(), 5);  // every outcome settled, none lost

  auto drained = svc.TopUp("t", 1'000);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->status, DeltaStatus::kApplied);
  std::vector<TenantSnapshot> snaps = svc.Snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].queued, 0);
  // Both queued R rows linked against the identical S row.
  EXPECT_EQ(snaps[0].links.size(), 2u);
}

TEST(LinkageServiceAdmission, ZeroQueueRejectsWithAllowanceStatus) {
  ServeFixture fx;
  ServiceOptions opts;
  opts.rule = fx.rule;
  opts.hierarchies = fx.hierarchies;
  opts.tenant_allowance = 0;
  opts.max_queued = 0;
  CountingPlaintextOracle oracle(fx.rule);
  LinkageService svc(opts, &oracle);
  ASSERT_TRUE(svc.Apply(MakeUpsert(fx, "t", Side::kS, 0, 3)).ok());
  auto r = svc.Apply(MakeUpsert(fx, "t", Side::kR, 0, 3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, DeltaStatus::kRejectedAllowance);
}

// ---------------------------------------------------------------------------
// Crash replay: replaying the settled prefix against the journaled link sets
// reproduces the pre-crash state without spending a single oracle call, and
// the continued run is indistinguishable from the uninterrupted one.

TEST(LinkageServiceReplay, ReplayReproducesStateWithoutOracleSpend) {
  ServeFixture fx;
  ServiceOptions opts;
  opts.rule = fx.rule;
  opts.hierarchies = fx.hierarchies;
  opts.tenant_allowance = 1'000'000;

  // A deterministic delta stream with links in it.
  std::vector<RecordDelta> deltas;
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    int64_t src = rng.NextBounded(fx.source.num_rows());
    Side side = i % 2 == 0 ? Side::kR : Side::kS;
    deltas.push_back(MakeUpsert(fx, "t", side, i / 2, src));
    if (i % 7 == 3) {  // identical record on the other side: a sure link
      deltas.push_back(MakeUpsert(fx, "t",
                                  side == Side::kR ? Side::kS : Side::kR,
                                  1000 + i, src));
    }
  }
  const size_t cut = deltas.size() / 2;

  CountingPlaintextOracle oracle1(fx.rule);
  LinkageService uninterrupted(opts, &oracle1);
  for (const RecordDelta& d : deltas) {
    ASSERT_TRUE(uninterrupted.Apply(d).ok());
  }

  // "Crash" after `cut` deltas: capture the journaled state at the cut by
  // running a fresh service over the prefix.
  CountingPlaintextOracle oracle2(fx.rule);
  LinkageService pre_crash(opts, &oracle2);
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(pre_crash.Apply(deltas[i]).ok());
  }
  std::map<std::string, std::set<serve::Link>> journaled;
  std::vector<TenantSnapshot> cut_snaps = pre_crash.Snapshot();
  for (const TenantSnapshot& t : cut_snaps) {
    journaled[t.name] =
        std::set<serve::Link>(t.links.begin(), t.links.end());
  }

  // The resumed incarnation replays the prefix from the journal…
  CountingPlaintextOracle oracle3(fx.rule);
  LinkageService resumed(opts, &oracle3);
  resumed.BeginReplay(journaled);
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(resumed.Apply(deltas[i]).ok());
  }
  resumed.EndReplay();
  EXPECT_EQ(oracle3.invocations(), 0) << "replay must not spend the oracle";

  // …reproducing allowance/spend/links exactly…
  std::vector<TenantSnapshot> resumed_snaps = resumed.Snapshot();
  ASSERT_EQ(resumed_snaps.size(), cut_snaps.size());
  for (size_t i = 0; i < cut_snaps.size(); ++i) {
    EXPECT_EQ(resumed_snaps[i].name, cut_snaps[i].name);
    EXPECT_EQ(resumed_snaps[i].allowance_remaining,
              cut_snaps[i].allowance_remaining);
    EXPECT_EQ(resumed_snaps[i].smc_pairs_spent, cut_snaps[i].smc_pairs_spent);
    EXPECT_EQ(resumed_snaps[i].links, cut_snaps[i].links);
  }

  // …and the continued run converges to the uninterrupted one bit for bit.
  for (size_t i = cut; i < deltas.size(); ++i) {
    ASSERT_TRUE(resumed.Apply(deltas[i]).ok());
  }
  std::vector<TenantSnapshot> a = resumed.Snapshot();
  std::vector<TenantSnapshot> b = uninterrupted.Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].links, b[i].links);
    EXPECT_EQ(a[i].allowance_remaining, b[i].allowance_remaining);
    EXPECT_EQ(a[i].smc_pairs_spent, b[i].smc_pairs_spent);
  }
}

// ---------------------------------------------------------------------------
// ServeJournal round trips. Damage (truncation, bit flips, a full disk) is
// covered with the other durable formats in tests/durable_file_test.cc.

class ServeJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("serve_jnl_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "serve.jnl").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static ServeJournal Sample() {
    ServeJournal j;
    j.fingerprint = 0xFEEDFACE12345678ull;
    j.epoch = 3;
    j.settled_deltas = 41;
    j.quarantined = 2;
    ServeTenantState a;
    a.name = "acme";
    a.allowance_remaining = 17;
    a.smc_pairs_spent = 83;
    a.links = {{0, 4}, {2, 2}, {9, 1}};
    ServeTenantState b;
    b.name = "globex";
    b.allowance_remaining = 0;
    b.smc_pairs_spent = 100;
    j.tenants = {a, b};
    return j;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(ServeJournalTest, RoundTrip) {
  ServeJournal j = Sample();
  ASSERT_TRUE(SaveServeJournal(path_, j).ok());
  auto loaded = LoadServeJournal(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, j.fingerprint);
  EXPECT_EQ(loaded->epoch, j.epoch);
  EXPECT_EQ(loaded->settled_deltas, j.settled_deltas);
  EXPECT_EQ(loaded->quarantined, j.quarantined);
  ASSERT_EQ(loaded->tenants.size(), 2u);
  EXPECT_EQ(loaded->tenants[0].name, "acme");
  EXPECT_EQ(loaded->tenants[0].links, j.tenants[0].links);
  EXPECT_EQ(loaded->tenants[1].smc_pairs_spent, 100);
}

TEST_F(ServeJournalTest, MissingFileIsNotFound) {
  auto loaded = LoadServeJournal(path_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace hprl
