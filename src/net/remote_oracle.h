#ifndef HPRL_NET_REMOTE_ORACLE_H_
#define HPRL_NET_REMOTE_ORACLE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "linkage/oracle.h"
#include "net/membership.h"
#include "net/party_service.h"
#include "net/socket_bus.h"
#include "smc/operands.h"
#include "smc/protocol.h"

namespace hprl::net {

struct RemoteOracleOptions {
  smc::SmcConfig config;  ///< fault_plan is ignored: faults here are real
  MatchRule rule;

  /// The comparator shards, one complete alice/bob/qp mesh each
  /// (docs/CLUSTER.md). The coordinator runs one bus per shard and
  /// schedules batches across them; a single mesh is one shard.
  std::vector<MeshEndpoints> shard_endpoints;

  int connect_timeout_ms = 10000;
  int receive_timeout_ms = 4000;

  /// Pairs per kPairBatch frame. CompareBatch ships pairs to the daemons
  /// in batches of this size, one ctl round trip per batch
  /// (O(pairs / rpc_batch_pairs)), rounded down to whole packed units when
  /// it holds one. <= 1 ships one pair per frame: one round trip per pair,
  /// same labels.
  int rpc_batch_pairs = 32;

  /// Batches kept in flight per shard (the pipeline window). The coordinator
  /// streams up to this many unacknowledged batches to each shard before
  /// holding back, hiding the mesh round-trip latency behind daemon compute.
  /// 1 = stop-and-wait per shard.
  int rpc_window = 4;

  /// Membership probe cadence during a batch drain. Every interval the
  /// coordinator probes each non-dead replica on its ":hb" sub-inbox; a
  /// probe still unanswered when the next one is due counts as a miss.
  /// Dead replicas are offered a kRejoin handshake on the same cadence.
  int hb_interval_ms = 250;
  MembershipOptions membership;

  /// Session-epoch fencing token stamped into every ctl request (wire v5).
  /// Daemons adopt it on kConfigure/kRejoin and refuse work verbs carrying
  /// any other epoch, so a relaunched coordinator (which resumes at a
  /// strictly higher epoch) is safe against frames its crashed predecessor
  /// left in flight. Must be >= 1: the daemons boot at epoch 0.
  uint64_t session_epoch = 1;

  /// Forwarded to the daemons in kConfigure: sleep this long at the start
  /// of every pair, emulating a per-pair latency window. 0 in production;
  /// the sharded bench uses it to make the SMC stage latency-bound so shard
  /// scaling measures overlap, not core count (docs/CLUSTER.md).
  uint32_t emulated_latency_micros = 0;
};

/// Mesh-wide traffic and cost totals collected from the daemons at the end
/// of a run (kStats) plus the coordinator's own buses. Each byte is counted
/// once, at its sender, so wire_bytes_sent summed over the processes is
/// the total traffic the deployment put on the network. Collection is
/// best-effort: a dead replica simply contributes nothing.
struct MeshStats {
  smc::SmcCosts costs;  ///< party-side crypto ops + coordinator invocations
  int64_t wire_bytes_sent = 0;      ///< socket-measured, all processes
  int64_t wire_bytes_received = 0;
  int64_t bus_bytes = 0;     ///< MessageBus accounting, all processes
  int64_t bus_messages = 0;
  int64_t connects = 0;
  int64_t reconnects = 0;
  int64_t stale_dropped = 0;
  int64_t send_errors = 0;
  /// Material-store accounting and offline-generated randomizers summed
  /// over the holder daemons (crypto.material.* in the coordinator's
  /// registry).
  crypto::MaterialStats material;
  int64_t material_generated = 0;
  /// Keyed by replica label: bare role names in a single-shard mesh,
  /// "alice#1"-style labels in a fleet.
  std::map<std::string, PartyStats> per_party;
};

/// MatchOracle that runs the §V-A protocol across process boundaries: the
/// three parties live in hprl_party daemons — N independent shard meshes of
/// them in a fleet — and this coordinator ships pairs over the ctl plane in
/// kPairBatch frames, then waits for the batch acknowledgements (one slot
/// per pair; the querying party's slots carry the labels). Compare and
/// CompareRows are MatchOracle's one-pair batches. Rows are encoded
/// through smc::RuleOperands, as the in-process comparator encodes them.
///
/// One exchange step (wire v13): kConfigure hands every daemon the public
/// plan — smc::PackedGroupPairs' unit size, each attribute's slot width and
/// the rule's thresholds — so each daemon splits a frame's pairs into the
/// packed units the in-process oracle would form and lays them out the same
/// way. Labels never depend on the units.
///
/// Operands (wire v12): every frame is self-contained. Alice's frame
/// carries each distinct R row its pairs name, once; bob's each distinct S
/// row; qp's none. CompareBatch encodes each distinct row once per call,
/// and a daemon keeps no row past the frame, so a retry, a rebalance onto
/// another shard, a rejoined shard and a serve update all need no row
/// bookkeeping: the next frame carries what it needs.
///
/// Scheduling: CompareBatch feeds a work queue; batches go to the
/// least-loaded usable shard, up to rpc_window in flight per shard. A shard
/// is usable while all three of its replicas are alive in the membership
/// table (alive -> suspect -> dead, driven by ":hb" probes and link state).
/// When a shard turns suspect or dead its in-flight batches are drained and
/// re-dispatched on healthy shards without burning retry budget; pairs are
/// quarantined only when no usable shard remains. Because every label is an
/// exact decrypt-and-compare, where a pair runs never changes its label —
/// a fleet run, a single-daemon run and an in-process run are bit-identical
/// at a pinned config.test_seed, killed replica or not.
///
/// Resurrection: a dead replica is offered a kRejoin handshake on the
/// heartbeat cadence (delivered once its restarted process listens again —
/// the bus re-dials on send). A valid rejoin ack carries a strictly-higher
/// incarnation, takes the membership table's only dead -> alive edge, and —
/// once every replica of the shard is back — the coordinator replays the
/// full setup handshake (cfg/keygen/recvkey, the holders' offline phase
/// included; safe mid-run because the keys are seed-derived) and re-admits
/// the shard to the scheduler.
///
/// Fault handling within a shard mirrors the in-process stack (protocol.cc
/// RetryExchange + smc_oracle.cc supervision, one fault taxonomy in
/// smc/fault.h), but over real sockets: a transient fault on any hop fails
/// the attempt, the coordinator flushes that shard's mesh with a kPurge
/// barrier, and the attempt is re-dispatched up to config.max_retries times.
///
/// Deployment note (documented limitation): the coordinator encodes both
/// holders' cleartext rows and ships each to its holder daemon, which
/// models the paper's deployment only when the coordinator is co-located
/// with the respective data holders. Loading holder-side tables directly
/// into the daemons is future work; the wire protocol between the parties
/// is already the real one.
///
/// Prefer obtaining one of these through net::SmcBackend (net/backend.h)
/// rather than constructing it directly: the backend owns transport
/// selection, daemon spawning and endpoint parsing.
class RemoteSmcOracle : public MatchOracle {
 public:
  explicit RemoteSmcOracle(RemoteOracleOptions opts);
  ~RemoteSmcOracle() override;

  /// Connects every shard mesh and runs the setup handshake on each: cfg to
  /// all replicas, keygen on the qps (which broadcast the public key inside
  /// their shard), recvkey on the holders. Registers every replica alive.
  Status Init();

  /// Collects final stats from the daemons and, when `stop_daemons`, sends
  /// kShutdown to every replica. Safe to call more than once.
  Status Shutdown(bool stop_daemons);

  /// Refuses two different records under one (side, row id) in one call
  /// with InvalidArgument.
  Result<std::vector<uint8_t>> CompareBatch(
      const std::vector<RowPairRequest>& batch) override;
  int64_t invocations() const override { return invocations_; }
  /// Settled work per shard (session-journal bookkeeping): batches settled
  /// and pairs definitively labeled on each comparator shard so far.
  std::vector<ShardDisposition> ShardDispositions() const override;
  void AttachMetrics(obs::MetricsRegistry* registry) override;

  /// Pulls kStats from every reachable daemon, aggregates with the
  /// coordinator's own counters, streams the net.* totals into the attached
  /// registry, and caches the result (also returned by mesh_stats()
  /// afterwards). Dead replicas are skipped, not errors.
  Result<MeshStats> CollectStats();
  const MeshStats& mesh_stats() const { return mesh_stats_; }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const MembershipTable& membership() const { return membership_; }
  uint64_t session_epoch() const { return opts_.session_epoch; }
  int64_t pairs_quarantined() const { return pairs_quarantined_; }
  int64_t retries() const { return retries_; }
  /// Pairs re-dispatched onto another shard after theirs turned
  /// suspect/dead. Distinct from retries: the pair never failed.
  int64_t rebalanced_pairs() const { return rebalanced_pairs_; }
  /// Ctl dispatches the coordinator has waited on — the latency unit of the
  /// ctl plane: one per kPairBatch frame, retry batches included. Also
  /// streamed as the net.ctl_round_trips counter.
  int64_t ctl_round_trips() const { return ctl_round_trips_; }
  /// Shard 0's coordinator bus (kept for single-shard callers).
  const SocketBus& bus() const { return *buses_[0]; }

  /// Test hook: the next `count` units `replica` runs fail with an
  /// injected IOError before running (every pair of the unit), exercising
  /// the purge-and-retry path over real sockets. `replica` is a replica
  /// label ("bob", or "bob#2" in a fleet). With `crash`, the injected fault
  /// instead stops the daemon's bus mid-protocol without a reply — a
  /// simulated process death.
  Status InjectFailures(const std::string& replica, uint32_t count,
                        bool crash = false);

 private:
  /// (side, row id): side 0 is R, 1 is S.
  using RowKey = std::pair<int, int64_t>;
  /// One CompareBatch call's rows by key: the record first staged under
  /// the key and its encoding.
  struct StagedRow {
    const Record* record = nullptr;
    std::vector<crypto::BigInt> values;
  };
  using StagedRows = std::map<RowKey, StagedRow>;
  /// One pair of the pipelined batch path, carried across retry rounds.
  struct BatchPair {
    size_t batch_pos = 0;       ///< index into CompareBatch's input/labels
    uint64_t pair_index = 0;    ///< wire id, fresh per dispatch
    int64_t a_id = -1;
    int64_t b_id = -1;
    int attempts = 0;           ///< failed transient rounds so far
  };

  /// Encodes a row over the compared attributes: what its side's holder
  /// daemon (alice for R, bob for S) receives in a frame.
  Result<std::vector<crypto::BigInt>> EncodeRow(const Record& record) const;
  /// Encodes one batch row into `rows` the first time its key is seen; a
  /// second, different record under one key is InvalidArgument.
  Status StageRow(int side, int64_t row_id, const Record& record,
                  StagedRows* rows) const;

  /// One pipelined dispatch round over `pending`: schedules the pairs across
  /// the usable shards in kPairBatch frames (each carrying its pairs' rows
  /// from `rows`), pumps heartbeats and membership, rebalances off failing
  /// shards, applies the per-slot accept rule, fills `labels`, and rewrites
  /// `pending` to the transiently failed pairs that should be re-batched.
  /// Quarantines pairs only when no usable shard remains. Returns a
  /// semantic error verbatim.
  Status RunBatchRound(const StagedRows& rows,
                       std::vector<BatchPair>* pending,
                       std::vector<uint8_t>* labels);

  std::vector<std::string> ShardRoles(int shard) const;
  std::string ReplicaLabel(int shard, const std::string& role) const;
  bool ShardAllAlive(int shard) const;
  int FirstUsableShard() const;
  void SendCtl(int shard, const std::string& role, CtlVerb verb,
               std::vector<uint8_t> payload);
  /// The kConfigure body (protocol params, seeds, material knobs and the
  /// public plan: unit size, slot bits, thresholds).
  std::vector<uint8_t> BuildConfigPayload() const;
  /// Runs the full setup handshake on `shard_ids`, fanned out phase by
  /// phase so the shards work concurrently: cfg to every replica, keygen on
  /// the qps, then recvkey on the holders, each carrying its role's
  /// randomizer count for the offline phase it runs there. Init() runs it
  /// over every shard; the rejoin path replays it on a single recovered
  /// shard.
  Status SetupShards(const std::vector<int>& shard_ids);
  /// Records a heartbeat ack in the membership table.
  void HandleHbAck(int shard, const CtlResponse& r);
  /// Applies a kRejoin ack: takes the dead -> alive edge when the daemon's
  /// new incarnation is strictly higher, then — once the whole shard is
  /// back — replays the setup handshake and re-admits it to the scheduler.
  void HandleRejoinAck(int shard, const CtlResponse& r);
  /// Waits on `shard`'s bus for a CtlResponse per role matching (verb, id).
  /// OK once all arrived (their codes may still be errors);
  /// NotFound on deadline with every missing link alive, Unavailable
  /// otherwise. Heartbeat acks consumed along the way still reach the
  /// membership table.
  Status CollectReplies(int shard, CtlVerb verb, uint64_t id,
                        const std::vector<std::string>& roles, int deadline_ms,
                        std::map<std::string, CtlResponse>* out);
  /// Flushes every usable shard's mesh between attempts (a kPurge barrier
  /// per shard), retiring shards whose purge fails.
  /// Unavailable when no usable shard remains afterwards.
  Status PurgeUsableShards();
  /// Receives one ctl reply from any shard's bus within `timeout_ms`
  /// (NotFound on expiry). Round-robins across buses in short slices.
  Status PumpReceive(int timeout_ms, int* shard, CtlResponse* out);
  void StreamMembershipMetrics();

  RemoteOracleOptions opts_;
  smc::RuleOperands operands_;
  /// smc::PackedGroupPairs(config, operands_), planned at Init: the pairs
  /// of a unit. Sent in cfg; frames hold whole units.
  int group_pairs_ = 0;
  std::vector<MeshEndpoints> shards_;
  std::vector<std::unique_ptr<SocketBus>> buses_;  ///< one per shard
  MembershipTable membership_;
  ShardScheduler sched_;
  bool initialized_ = false;
  bool shut_down_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null

  /// Heartbeat bookkeeping per replica label.
  struct Probe {
    uint64_t seq = 0;
    bool answered = true;
  };
  std::map<std::string, Probe> probes_;
  uint64_t next_probe_seq_ = 0;
  /// Next heartbeat/rejoin-offer due time; persists across batch rounds so
  /// short rounds still hit the hb_interval_ms cadence (epoch start = the
  /// first round probes immediately).
  std::chrono::steady_clock::time_point next_hb_{};
  size_t pump_rotor_ = 0;       ///< PumpReceive round-robin cursor
  size_t transitions_seen_ = 0; ///< membership transitions already streamed

  int64_t invocations_ = 0;
  std::vector<int64_t> shard_batches_done_;  ///< settled batches per shard
  std::vector<int64_t> shard_pairs_done_;    ///< labeled pairs per shard
  int64_t pairs_quarantined_ = 0;
  int64_t retries_ = 0;
  int64_t rebalanced_pairs_ = 0;
  int64_t ctl_round_trips_ = 0;
  uint64_t next_pair_index_ = 0;
  uint64_t next_batch_id_ = 0;
  uint64_t next_barrier_id_ = 0;
  MeshStats mesh_stats_;
};

}  // namespace hprl::net

#endif  // HPRL_NET_REMOTE_ORACLE_H_
