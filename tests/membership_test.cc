// Property tests for the comparator-fleet membership machinery
// (src/net/membership.h) and the typed ctl verbs (src/net/frame.h):
//
//  - the replica state machine only ever takes valid edges — in particular
//    a replica is NEVER moved Alive -> Dead without passing Suspect, and
//    Dead is sticky — under arbitrary interleavings of acks, probe misses
//    and link losses;
//  - incarnation numbers are monotone per replica (stale acks are counted,
//    never applied);
//  - the shard scheduler preserves the batch multiset across any
//    Assign/Complete/Drain interleaving: every batch is completed or
//    drained exactly once, and per-shard inflight accounting returns to
//    zero;
//  - every CtlVerb round-trips through its wire tag and inbox, and
//    CtlRequest/CtlResponse encode/decode are inverses.
//
// The random walks are seeded, so a failure reproduces exactly.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <vector>

#include "net/frame.h"
#include "net/membership.h"

namespace hprl::net {
namespace {

bool ValidEdge(ReplicaState from, ReplicaState to) {
  switch (from) {
    case ReplicaState::kUnknown:
      // First ack brings a replica up; a link loss before any ack suspects
      // it (and the machine may then kill it, via the Suspect edge below).
      return to == ReplicaState::kAlive || to == ReplicaState::kSuspect;
    case ReplicaState::kAlive:
      return to == ReplicaState::kSuspect;  // never straight to Dead
    case ReplicaState::kSuspect:
      return to == ReplicaState::kAlive || to == ReplicaState::kDead;
    case ReplicaState::kDead:
      // Sticky against every passive signal; the one legal resurrection is
      // the explicit rejoin handshake (OnRejoin, strictly-higher
      // incarnation).
      return to == ReplicaState::kAlive;
  }
  return false;
}

TEST(MembershipPropertyTest, RandomWalkTakesOnlyValidEdges) {
  for (uint64_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    std::mt19937_64 rng(seed);
    MembershipOptions opts;
    opts.suspect_after_misses = 1 + static_cast<int>(rng() % 3);
    opts.dead_after_misses =
        opts.suspect_after_misses + 1 + static_cast<int>(rng() % 3);
    MembershipTable table(opts);
    const std::vector<std::string> replicas = {"alice#0", "bob#0", "qp#0",
                                               "alice#1", "bob#1", "qp#1"};
    for (const auto& r : replicas) table.Register(r);

    std::map<std::string, uint64_t> incarnation;
    std::map<std::string, uint64_t> last_seen;
    for (int step = 0; step < 2000; ++step) {
      const std::string& r = replicas[rng() % replicas.size()];
      switch (rng() % 5) {
        case 0:  // fresh ack (daemon-side incarnation only ever grows)
          incarnation[r] += rng() % 2;
          table.OnAck(r, incarnation[r]);
          break;
        case 1:  // stale ack (must be ignored, never rewind)
          table.OnAck(r, incarnation[r] > 0 ? incarnation[r] - 1 : 0);
          break;
        case 2:
          table.OnProbeMiss(r);
          break;
        case 3:
          table.OnLinkDown(r);
          break;
        case 4: {  // rejoin handshake: half fresh, half a replayed stale one
          const uint64_t inc =
              (rng() % 2) ? incarnation[r] + 1 : incarnation[r];
          const ReplicaState before = table.state(r);
          const bool admitted = table.OnRejoin(r, inc);
          // Admitted iff dead + strictly higher — never from any other
          // state, never at the stored incarnation.
          EXPECT_EQ(admitted, before == ReplicaState::kDead &&
                                  inc > last_seen[r])
              << "seed " << seed << " step " << step;
          if (admitted) incarnation[r] = inc;
          break;
        }
      }
      // The recorded incarnation never rewinds, whatever the ack order.
      EXPECT_GE(table.incarnation(r), last_seen[r])
          << "seed " << seed << " step " << step;
      last_seen[r] = table.incarnation(r);
    }

    // Every recorded transition is one of the legal edges; replaying them
    // per replica reproduces each replica's final state.
    std::map<std::string, ReplicaState> replay;
    for (const auto& r : replicas) replay[r] = ReplicaState::kUnknown;
    for (const MembershipTransition& t : table.transitions()) {
      EXPECT_TRUE(ValidEdge(t.from, t.to))
          << "seed " << seed << ": illegal edge "
          << ReplicaStateName(t.from) << " -> " << ReplicaStateName(t.to);
      EXPECT_EQ(replay[t.replica], t.from)
          << "seed " << seed << ": transition log out of order for "
          << t.replica;
      replay[t.replica] = t.to;
    }
    for (const auto& r : replicas) {
      EXPECT_EQ(replay[r], table.state(r)) << "seed " << seed;
    }
  }
}

TEST(MembershipPropertyTest, DeadIsStickyAndStaleAcksAreCounted) {
  MembershipTable table;
  table.Register("bob#1");
  table.OnAck("bob#1", 3);
  EXPECT_EQ(table.state("bob#1"), ReplicaState::kAlive);
  table.OnLinkDown("bob#1");
  EXPECT_EQ(table.state("bob#1"), ReplicaState::kDead);

  // Acks (even with a higher incarnation) never revive the dead.
  table.OnAck("bob#1", 9);
  EXPECT_EQ(table.state("bob#1"), ReplicaState::kDead);
  EXPECT_EQ(table.incarnation("bob#1"), 3u);
  EXPECT_EQ(table.stale_acks(), 1);

  // The link-down above must have recorded BOTH edges.
  ASSERT_EQ(table.transitions().size(), 3u);
  EXPECT_EQ(table.transitions()[1].from, ReplicaState::kAlive);
  EXPECT_EQ(table.transitions()[1].to, ReplicaState::kSuspect);
  EXPECT_EQ(table.transitions()[2].from, ReplicaState::kSuspect);
  EXPECT_EQ(table.transitions()[2].to, ReplicaState::kDead);
}

TEST(MembershipPropertyTest, RejoinIsTheOnlyResurrectionAndIsGated) {
  MembershipTable table;
  table.Register("alice#0");
  table.OnAck("alice#0", 5);
  // Rejoin from a living replica is a stale offer echo: rejected.
  EXPECT_FALSE(table.OnRejoin("alice#0", 6));
  EXPECT_EQ(table.state("alice#0"), ReplicaState::kAlive);
  EXPECT_EQ(table.rejected_rejoins(), 1);

  table.OnLinkDown("alice#0");
  ASSERT_EQ(table.state("alice#0"), ReplicaState::kDead);

  // A replayed frame from the dead process image presents at most the
  // incarnation the coordinator already saw: rejected, still dead.
  EXPECT_FALSE(table.OnRejoin("alice#0", 5));
  EXPECT_EQ(table.state("alice#0"), ReplicaState::kDead);
  EXPECT_EQ(table.rejected_rejoins(), 2);

  // The restarted daemon bumps past everything it ever presented: admitted,
  // and the transition log records the explicit Dead -> Alive edge.
  EXPECT_TRUE(table.OnRejoin("alice#0", 6));
  EXPECT_EQ(table.state("alice#0"), ReplicaState::kAlive);
  EXPECT_EQ(table.incarnation("alice#0"), 6u);
  EXPECT_EQ(table.rejoins(), 1);
  const auto& log = table.transitions();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back().from, ReplicaState::kDead);
  EXPECT_EQ(log.back().to, ReplicaState::kAlive);

  // Unknown replicas cannot "rejoin" into existence.
  EXPECT_FALSE(table.OnRejoin("ghost#9", 1));
}

TEST(MembershipPropertyTest, SuspectRecoversOnAckAndMissCounterResets) {
  MembershipOptions opts;
  opts.suspect_after_misses = 2;
  opts.dead_after_misses = 4;
  MembershipTable table(opts);
  table.Register("qp#2");
  table.OnAck("qp#2", 1);

  table.OnProbeMiss("qp#2");
  EXPECT_EQ(table.state("qp#2"), ReplicaState::kAlive);
  table.OnProbeMiss("qp#2");
  EXPECT_EQ(table.state("qp#2"), ReplicaState::kSuspect);

  // Recovery clears the miss budget completely: it takes the full
  // suspect_after_misses again to re-suspect.
  table.OnAck("qp#2", 1);
  EXPECT_EQ(table.state("qp#2"), ReplicaState::kAlive);
  table.OnProbeMiss("qp#2");
  EXPECT_EQ(table.state("qp#2"), ReplicaState::kAlive);
  table.OnProbeMiss("qp#2");
  EXPECT_EQ(table.state("qp#2"), ReplicaState::kSuspect);
  table.OnProbeMiss("qp#2");
  table.OnProbeMiss("qp#2");
  EXPECT_EQ(table.state("qp#2"), ReplicaState::kDead);
}

TEST(MembershipPropertyTest, UnknownNeverBecomesSuspectByMissesAlone) {
  // A replica that never acked is not "suspected" — there is nothing to
  // suspect; it simply stays Unknown until its first ack or a link loss.
  MembershipTable table;
  table.Register("alice#3");
  for (int i = 0; i < 10; ++i) table.OnProbeMiss("alice#3");
  EXPECT_EQ(table.state("alice#3"), ReplicaState::kUnknown);
  EXPECT_TRUE(table.transitions().empty());
}

// ---------------------------------------------------------------------------

TEST(SchedulerPropertyTest, MultisetPreservedAcrossRandomDrains) {
  for (uint64_t seed : {3u, 17u, 2718u, 31337u}) {
    std::mt19937_64 rng(seed);
    const int num_shards = 2 + static_cast<int>(rng() % 4);
    ShardScheduler sched(num_shards);

    std::set<uint64_t> outstanding;
    std::multiset<uint64_t> completed, drained;
    uint64_t next_id = 1;
    int64_t assigned_count = 0;

    for (int step = 0; step < 3000; ++step) {
      switch (rng() % 8) {
        case 0:
        case 1:
        case 2: {  // assign
          const uint64_t id = next_id++;
          const int64_t pairs = 1 + static_cast<int64_t>(rng() % 32);
          const int shard = sched.Assign(id, pairs, /*max_inflight*/ 0);
          if (shard >= 0) {
            EXPECT_TRUE(sched.usable(shard));
            EXPECT_EQ(sched.shard_of(id), shard);
            outstanding.insert(id);
            ++assigned_count;
          } else {
            EXPECT_EQ(sched.UsableCount(), 0);
          }
          break;
        }
        case 3:
        case 4: {  // complete a random outstanding batch
          if (outstanding.empty()) break;
          auto it = outstanding.begin();
          std::advance(it, static_cast<long>(rng() % outstanding.size()));
          completed.insert(*it);
          sched.Complete(*it);
          EXPECT_EQ(sched.shard_of(*it), -1);
          outstanding.erase(it);
          break;
        }
        case 5: {  // retire a shard: drain everything it carries
          const int shard = static_cast<int>(rng() % num_shards);
          sched.SetUsable(shard, false);
          for (uint64_t id : sched.Drain(shard)) {
            ASSERT_TRUE(outstanding.count(id))
                << "seed " << seed << ": drained unknown batch " << id;
            drained.insert(id);
            outstanding.erase(id);
          }
          EXPECT_EQ(sched.inflight_pairs(shard), 0);
          EXPECT_EQ(sched.inflight_batches(shard), 0);
          break;
        }
        case 6: {  // recover a shard
          sched.SetUsable(static_cast<int>(rng() % num_shards), true);
          break;
        }
        case 7: {  // draining an empty/healthy shard is a no-op
          const int shard = static_cast<int>(rng() % num_shards);
          if (sched.inflight_batches(shard) == 0) {
            EXPECT_TRUE(sched.Drain(shard).empty());
          }
          break;
        }
      }
    }

    // assigned = completed + drained + still outstanding — nothing lost,
    // nothing duplicated.
    EXPECT_EQ(assigned_count,
              static_cast<int64_t>(completed.size() + drained.size() +
                                   outstanding.size()))
        << "seed " << seed;
    for (uint64_t id : completed) EXPECT_EQ(drained.count(id), 0u);

    // Settling the leftovers zeroes every shard's accounting.
    for (uint64_t id : outstanding) sched.Complete(id);
    for (int s = 0; s < num_shards; ++s) {
      EXPECT_EQ(sched.inflight_pairs(s), 0) << "seed " << seed;
      EXPECT_EQ(sched.inflight_batches(s), 0) << "seed " << seed;
    }
  }
}

TEST(SchedulerPropertyTest, AssignPrefersLeastLoadedAndHonorsWindow) {
  ShardScheduler sched(3);
  EXPECT_EQ(sched.Assign(1, 10), 0);  // all empty: lowest index wins
  EXPECT_EQ(sched.Assign(2, 1), 1);
  EXPECT_EQ(sched.Assign(3, 1), 2);
  EXPECT_EQ(sched.Assign(4, 1), 1);  // 1 and 2 tie at 1 pair: lowest index
  EXPECT_EQ(sched.Assign(5, 1, /*max_inflight_batches=*/2), 2);
  // Shard 0 still holds a single (pair-heavy) batch: the batch window
  // admits it even though it carries the most pairs.
  EXPECT_EQ(sched.Assign(6, 1, /*max_inflight_batches=*/2), 0);
  // Every shard now holds 2 batches; a window of 2 refuses the next one.
  EXPECT_EQ(sched.Assign(7, 1, /*max_inflight_batches=*/2), -1);
  EXPECT_EQ(sched.Assign(7, 1), 1);  // uncapped: 1 and 2 tie at 2 pairs
  sched.SetUsable(1, false);
  EXPECT_EQ(sched.Assign(8, 1), 2);  // unusable shards never chosen
}

TEST(SchedulerPropertyTest, DrainReturnsAssignmentOrder) {
  ShardScheduler sched(2);
  // Interleave shards so ids on shard 0 are not contiguous. Loads steer
  // the least-loaded choice deterministically.
  ASSERT_EQ(sched.Assign(10, 5), 0);
  ASSERT_EQ(sched.Assign(11, 1), 1);
  ASSERT_EQ(sched.Assign(12, 1), 1);
  ASSERT_EQ(sched.Assign(13, 1), 1);
  ASSERT_EQ(sched.Assign(14, 10), 1);
  ASSERT_EQ(sched.Assign(15, 1), 0);
  sched.SetUsable(1, false);
  EXPECT_EQ(sched.Drain(1), (std::vector<uint64_t>{11, 12, 13, 14}));
}

// ---------------------------------------------------------------------------

TEST(CtlVerbTest, EveryVerbRoundTripsThroughItsTag) {
  for (int v = 0; v < int{kCtlVerbCount}; ++v) {
    const CtlVerb verb = static_cast<CtlVerb>(v);
    const char* tag = CtlVerbTag(verb);
    ASSERT_NE(tag, nullptr);
    auto back = CtlVerbFromTag(tag);
    ASSERT_TRUE(back.ok()) << tag;
    EXPECT_EQ(*back, verb) << tag;
  }
  EXPECT_FALSE(CtlVerbFromTag("no_such_verb").ok());
  EXPECT_FALSE(CtlVerbFromTag("").ok());
}

TEST(CtlVerbTest, HeartbeatRoutesToItsOwnSubInbox) {
  // Heartbeats must bypass the command inbox (and the flush barrier's
  // exemption list matches these suffixes — see socket_bus.cc).
  EXPECT_EQ(CtlInbox("bob", CtlVerb::kHeartbeat), "bob:hb");
  for (int v = 0; v < int{kCtlVerbCount}; ++v) {
    const CtlVerb verb = static_cast<CtlVerb>(v);
    if (verb == CtlVerb::kHeartbeat) continue;
    EXPECT_EQ(CtlInbox("bob", verb), "bob:ctl") << CtlVerbTag(verb);
  }
}

TEST(CtlVerbTest, RequestAndResponseAreInverses) {
  CtlRequest req;
  req.verb = CtlVerb::kPairBatch;
  req.epoch = 0x0102030405060708ull;
  req.body = {1, 2, 3, 250};
  smc::Message msg = EncodeCtlRequest("coord", "bob", req);
  EXPECT_EQ(msg.to, "bob:ctl");
  EXPECT_EQ(msg.tag, CtlVerbTag(CtlVerb::kPairBatch));
  // Wire v5: the session-epoch fencing token leads every request payload.
  std::vector<uint8_t> want;
  AppendU64(req.epoch, &want);
  want.insert(want.end(), req.body.begin(), req.body.end());
  EXPECT_EQ(msg.payload, want);
  size_t off = 0;
  auto epoch = ConsumeU64(msg.payload, &off);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, req.epoch);

  CtlResponse resp;
  resp.role = "bob";
  resp.verb = CtlVerb::kPairBatch;
  resp.id = 0x1122334455667788ull;
  resp.epoch = 42;
  resp.code = StatusCode::kNotFound;
  resp.detail = "late";
  resp.extra = {9, 8, 7};
  std::vector<uint8_t> wire;
  AppendCtlResponse(resp, &wire);
  auto parsed = ParseCtlResponse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->role, resp.role);
  EXPECT_EQ(parsed->verb, resp.verb);
  EXPECT_EQ(parsed->id, resp.id);
  EXPECT_EQ(parsed->epoch, resp.epoch);
  EXPECT_EQ(parsed->code, resp.code);
  EXPECT_EQ(parsed->detail, resp.detail);
  EXPECT_EQ(parsed->extra, resp.extra);

  // Corrupt the verb past the enum: the decoder must refuse, not cast.
  std::vector<uint8_t> bad = wire;
  const size_t verb_off = 4 + resp.role.size();  // u32 len + role bytes
  bad[verb_off] = kCtlVerbCount;
  EXPECT_FALSE(ParseCtlResponse(bad).ok());
}

}  // namespace
}  // namespace hprl::net
