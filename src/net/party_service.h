#ifndef HPRL_NET_PARTY_SERVICE_H_
#define HPRL_NET_PARTY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/material.h"
#include "net/frame.h"
#include "net/socket_bus.h"
#include "obs/metrics.h"
#include "smc/costs.h"
#include "smc/parties.h"

namespace hprl::net {

// ---------------------------------------------------------------------------
// Coordination (ctl) plane shared by the daemons and the coordinator.
//
// The coordinator ("coord") drives the three party daemons over the same
// socket mesh the protocol runs on. Commands are typed CtlVerb messages
// (net/frame.h): ordinary verbs arrive on the "<role>:ctl" sub-inbox,
// heartbeat probes on "<role>:hb" (kept separate — and flush-exempt — so a
// purge barrier can never swallow a membership probe). Each command is
// acknowledged with a CtlResponse under the kCtlReply tag to "coord". The
// protocol proper (pubkey / bob_pk / alice_pk / results) flows directly
// between the party daemons, never through the coordinator.
//
// In a sharded deployment (docs/CLUSTER.md) every comparator shard is one
// complete, independent alice/bob/qp mesh on its own ports; the coordinator
// runs one bus per shard. Inside a shard the party names stay the bare
// "alice"/"bob"/"qp" — the shard-qualified labels ("alice#1") exist only in
// the coordinator's membership table and stats.

inline constexpr char kCoordName[] = "coord";
inline constexpr char kCtlSuffix[] = ":ctl";
inline constexpr char kHbSuffix[] = ":hb";
inline constexpr char kCtlReply[] = "ctl_re";  ///< every command's ack tag
/// How often a daemon blocked in a receive answers queued heartbeat probes
/// (well inside the coordinator's default 250 ms probe interval).
inline constexpr int kHeartbeatPollMs = 20;

/// Per-pair outcome inside a kPairBatch reply. The batch ack's `extra`
/// carries one slot per dispatched pair (u32 count, then per slot u64
/// pair_index, u8 code, u8 label), which is what gives the coordinator
/// per-pair retry/quarantine granularity within a batch: slot codes are the
/// unit of failure, not the batch.
struct PairSlot {
  uint64_t pair_index = 0;
  StatusCode code = StatusCode::kOk;
  uint8_t label = 0;  ///< from qp: 1 = match (valid only when code is kOk)
};

void AppendPairSlots(const std::vector<PairSlot>& slots,
                     std::vector<uint8_t>* out);
Result<std::vector<PairSlot>> ParsePairSlots(const std::vector<uint8_t>& extra,
                                             size_t* off);

/// One party's cost/traffic counters as reported by kStats. Serialized as
/// positional i64s — costs in declaration order (offline attribution
/// included), bus accounting, socket stats, the material-store sweep, then
/// the offline phase's generated count — so AppendPartyStats/ParsePartyStats
/// must change in lockstep (guarded by the wire version).
struct PartyStats {
  smc::SmcCosts costs;
  int64_t bus_bytes = 0;     ///< MessageBus wire-size accounting
  int64_t bus_messages = 0;
  SocketBus::NetStats net;   ///< socket-level truth
  crypto::MaterialStats material;  ///< offline material cache accounting
  /// Randomizers the holder's offline phase generated beyond the bank it
  /// adopted (crypto::OfflinePhase::generated; 0 on qp).
  int64_t material_generated = 0;
};

void AppendPartyStats(const PartyStats& s, std::vector<uint8_t>* out);
Result<PartyStats> ParsePartyStats(const std::vector<uint8_t>& extra,
                                   size_t* off);

/// The three daemons' advertised endpoints (one shard's mesh).
struct MeshEndpoints {
  PeerAddress alice;
  PeerAddress bob;
  PeerAddress qp;
};

/// Bus topology for one mesh member. Ranked dialing keeps the mesh free of
/// crossed simultaneous connects: alice (rank 0) only listens; bob dials
/// alice; qp dials alice and bob; coord dials all three. Everyone accepts
/// from every higher rank.
SocketBusOptions MeshBusOptions(const std::string& role,
                                const MeshEndpoints& endpoints,
                                int connect_timeout_ms,
                                int receive_timeout_ms);

// ---------------------------------------------------------------------------

struct PartyServiceOptions {
  std::string role;  ///< "alice", "bob" or "qp"
  MeshEndpoints endpoints;
  int connect_timeout_ms = 10000;
  int receive_timeout_ms = 4000;
  obs::MetricsRegistry* metrics = nullptr;  ///< not owned; may be null
  /// A socket already listening on this role's endpoint port, adopted
  /// instead of binding it (-1 = bind); see SocketBusOptions::listen_fd.
  int listen_fd = -1;
};

/// One party daemon: hosts the real party object (QueryingParty or
/// DataHolder, smc/parties.h) behind a SocketBus and executes its side of
/// the §V-A exchange for every pair the coordinator dispatches. The party's
/// secrets — the private key on qp, cleartext attribute encodings in flight —
/// exist only inside this process; what crosses the wire is exactly what the
/// in-process protocol puts on the bus, plus the ctl plane.
///
/// kConfigure carries the public plan: the thresholds and the unit size
/// (smc::PackedGroupPairs, computed by the coordinator). A kPairBatch frame
/// is self-contained: a holder's frame carries every row of its own side
/// that its pairs name, and the daemon keeps none of them after the frame.
/// Every daemon splits the frame's pairs into the same units and runs its
/// role's unit step on each — the very step the in-process comparator
/// runs — without waiting on the coordinator: bob sends each unit's
/// columns, grouped by the pairs' R-row ids, alice folds them, qp decides
/// the unit (one decryption per packed unit) and announces its labels. A
/// transient fault anywhere
/// surfaces as failed slots in the batch reply; the coordinator purges the
/// mesh with a kPurge barrier and re-batches the failed pairs, mirroring
/// the in-process RetryExchange.
///
/// Membership: the daemon answers heartbeat probes on "<role>:hb" with its
/// incarnation number (bumped on every kConfigure) while idle in the serve
/// loop, between the units of a long batch, and every kHeartbeatPollMs
/// while blocked in a protocol receive, so a busy shard never reads as a
/// dead one.
class PartyService {
 public:
  explicit PartyService(PartyServiceOptions opts);
  ~PartyService();

  /// Establishes the mesh (Unavailable when peers cannot be reached).
  Status Start();

  /// Serves ctl commands until kShutdown or RequestStop(). Returns OK on
  /// an orderly shutdown; the bus error that broke the loop otherwise.
  Status Serve();

  /// Asks a Serve() running on another thread to exit at its next poll.
  void RequestStop() { stop_requested_.store(true); }

  SocketBus& bus() { return *bus_; }
  const smc::SmcCosts& costs() const { return costs_; }
  uint64_t incarnation() const { return incarnation_; }
  uint64_t epoch() const { return epoch_; }
  int64_t fenced_requests() const { return fenced_requests_; }

 private:
  Status Dispatch(CtlVerb verb, uint64_t epoch, const smc::Message& msg);
  /// Whether `verb` at request-header `epoch` must be refused unexecuted.
  /// Work verbs run only under the exact adopted epoch; kConfigure/kRejoin
  /// adopt epochs and the management verbs stay observable across them.
  bool EpochFenced(CtlVerb verb, uint64_t epoch) const;
  Status HandleConfigure(const std::vector<uint8_t>& payload);
  Status HandleKeygen();
  /// Consumes qp's public key, then runs the offline phase on a fresh
  /// randomizer pool: crypto::RunOfflinePhase, the one SmcMatchOracle::Init
  /// runs, over this role's store on every core. It prewarms `randomizers`
  /// (this role's smc::RandomizerDraws), saves a bank it grew and starts the
  /// pool's filler. Holders only; qp's offline work is keygen itself.
  Status HandleRecvKey(uint32_t randomizers);
  /// Runs this role's step (smc/parties.h) on the unit of pairs
  /// [begin, end) of `pairs`; fills the unit's labels on qp. A holder reads
  /// its side of each pair from `rows` (the frame's own rows, one per pair,
  /// in pair order; empty on qp) and groups the unit's cross terms by the
  /// pairs' a_ids (smc::UnitRows). Only HandlePairBatch calls it, after the
  /// cfg check.
  Status RunUnit(size_t begin, size_t end,
                 const std::vector<PairEntry>& pairs,
                 const std::vector<const std::vector<crypto::BigInt>*>& rows,
                 std::vector<PairSlot>* slots);
  /// Resolves a holder's side of every pair from the frame's own rows,
  /// then splits the pairs positionally into units of the configured size
  /// and runs them in order, one slot per pair. A pair naming a row absent
  /// from the frame, or a row not as wide as the rule, fails the whole
  /// batch with InvalidArgument before any unit runs: the frame itself is
  /// malformed, and no retry of it can heal. A failed unit fails all of its
  /// slots, and the rest of the batch is skipped — the three daemons run
  /// their batch sides positionally, so pressing on after a desynchronizing
  /// fault would misalign every later unit. Returns Unavailable only when
  /// the transport itself died.
  Status HandlePairBatch(const PairBatchBody& batch,
                         std::vector<PairSlot>* slots);
  /// Answers every queued probe on "<role>:hb" without blocking.
  void DrainHeartbeats();
  void Reply(CtlVerb verb, uint64_t id, const Status& st,
             std::vector<uint8_t> extra);

  PartyServiceOptions opts_;
  std::unique_ptr<SocketBus> bus_;
  std::atomic<bool> stop_requested_{false};

  int key_bits_ = 0;  // kConfigure
  bool configured_ = false;
  uint64_t test_seed_ = 0;
  /// Bumped on every kConfigure and jumped past the coordinator's last-seen
  /// value by kRejoin; echoed in cfg/rejoin/heartbeat acks so the
  /// coordinator's membership table can drop acks from a superseded
  /// configuration and gate the dead->alive rejoin edge.
  uint64_t incarnation_ = 0;
  /// Session epoch adopted from the last successful kConfigure/kRejoin and
  /// stamped into every reply; work verbs under any other epoch are fenced.
  uint64_t epoch_ = 0;
  /// Requests refused by the epoch fence (diagnostics only).
  int64_t fenced_requests_ = 0;
  /// kConfigure knob: sleep this long at the start of every pair, emulating
  /// a network/compute latency window. 0 in production; the sharded bench
  /// uses it to make the SMC stage latency-bound (docs/CLUSTER.md).
  uint32_t emulated_latency_micros_ = 0;
  /// kConfigure knob: the on-disk material store directory. Empty disables
  /// the store.
  std::string material_dir_;
  // Exactly one of these is live, by role.
  std::unique_ptr<smc::QueryingParty> qp_;
  std::unique_ptr<smc::DataHolder> holder_;
  // Holder-side randomizer pool, built and prewarmed when the public key
  // arrives (HandleRecvKey), before the first batch.
  std::unique_ptr<crypto::RandomizerPool> pool_;
  // Holder-side material store (material_dir_ non-empty).
  std::unique_ptr<crypto::MaterialStore> material_store_;
  // What the holder's offline phase did (HandleRecvKey).
  crypto::OfflinePhase offline_;

  /// From kConfigure: the rule's scaled thresholds (one per compared
  /// attribute), the pairs per unit and the unit's slot layout.
  std::vector<crypto::BigInt> thresholds_;
  size_t unit_pairs_ = 1;
  crypto::PackingLayout layout_;
  /// Scratch for the role steps, sized at kConfigure to the key.
  std::unique_ptr<crypto::BigIntArena> arena_;

  smc::SmcCosts costs_;
  uint32_t fail_next_pairs_ = 0;  // kInjectFail: units left to fail
  bool crash_on_fault_ = false;   // kInjectFail crash flag: die, don't fail
};

}  // namespace hprl::net

#endif  // HPRL_NET_PARTY_SERVICE_H_
