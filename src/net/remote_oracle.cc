#include "net/remote_oracle.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>
#include <utility>

namespace hprl::net {

using smc::Message;

namespace {

Status ReplyStatus(const CtlResponse& r) {
  if (r.code == StatusCode::kOk) return Status::OK();
  return Status(r.code, r.role + ": " + r.detail);
}

}  // namespace

RemoteSmcOracle::RemoteSmcOracle(RemoteOracleOptions opts)
    : opts_(std::move(opts)),
      operands_(opts_.rule, opts_.config.fp_scale),
      shards_(opts_.shard_endpoints),
      membership_(opts_.membership),
      sched_(static_cast<int>(shards_.size())) {
  buses_.reserve(shards_.size());
  for (const MeshEndpoints& mesh : shards_) {
    buses_.push_back(std::make_unique<SocketBus>(
        MeshBusOptions(kCoordName, mesh, opts_.connect_timeout_ms,
                       opts_.receive_timeout_ms)));
  }
  shard_batches_done_.assign(shards_.size(), 0);
  shard_pairs_done_.assign(shards_.size(), 0);
}

std::vector<ShardDisposition> RemoteSmcOracle::ShardDispositions() const {
  std::vector<ShardDisposition> out;
  out.reserve(shards_.size());
  for (int s = 0; s < num_shards(); ++s) {
    ShardDisposition d;
    d.shard = s;
    d.batches_done = shard_batches_done_[s];
    d.pairs_done = shard_pairs_done_[s];
    out.push_back(d);
  }
  return out;
}

RemoteSmcOracle::~RemoteSmcOracle() {
  if (initialized_ && !shut_down_) Shutdown(/*stop_daemons=*/false);
  for (auto& bus : buses_) bus->Stop();
}

std::vector<std::string> RemoteSmcOracle::ShardRoles(int shard) const {
  const MeshEndpoints& mesh = shards_[shard];
  return {mesh.alice.name, mesh.bob.name, mesh.qp.name};
}

std::string RemoteSmcOracle::ReplicaLabel(int shard,
                                          const std::string& role) const {
  if (shards_.size() == 1) return role;
  return role + "#" + std::to_string(shard);
}

bool RemoteSmcOracle::ShardAllAlive(int shard) const {
  for (const std::string& role : ShardRoles(shard)) {
    if (!membership_.alive(ReplicaLabel(shard, role))) return false;
  }
  return true;
}

int RemoteSmcOracle::FirstUsableShard() const {
  for (int s = 0; s < num_shards(); ++s) {
    if (sched_.usable(s)) return s;
  }
  return -1;
}

void RemoteSmcOracle::SendCtl(int shard, const std::string& role, CtlVerb verb,
                              std::vector<uint8_t> payload) {
  CtlRequest req;
  req.verb = verb;
  req.epoch = opts_.session_epoch;
  req.body = std::move(payload);
  buses_[shard]->Send(EncodeCtlRequest(kCoordName, role, req));
}

void RemoteSmcOracle::HandleHbAck(int shard, const CtlResponse& r) {
  const std::string label = ReplicaLabel(shard, r.role);
  size_t off = 0;
  auto incarnation = ConsumeU64(r.extra, &off);
  membership_.OnAck(label, incarnation.ok()
                               ? *incarnation
                               : membership_.incarnation(label));
  auto it = probes_.find(label);
  if (it != probes_.end() && it->second.seq == r.id) {
    it->second.answered = true;
  }
}

void RemoteSmcOracle::HandleRejoinAck(int shard, const CtlResponse& r) {
  if (r.code != StatusCode::kOk) return;
  const std::string label = ReplicaLabel(shard, r.role);
  size_t off = 0;
  auto incarnation = ConsumeU64(r.extra, &off);
  if (!incarnation.ok()) return;  // malformed ack: no resurrection evidence
  if (!membership_.OnRejoin(label, *incarnation)) return;
  if (metrics_ != nullptr) obs::Add(metrics_, "net.membership.rejoins");
  // A heartbeat probe goes out on the next tick; mark the fresh probe state
  // so the rejoin ack itself is not counted as a miss.
  probes_[label].answered = true;
  if (!ShardAllAlive(shard)) return;  // siblings still down: wait for them
  // The restarted daemon adopted the epoch but lost all protocol state, so
  // the whole shard replays the setup handshake, cfg/keygen/recvkey
  // (deterministic seed-derived keys make this safe mid-run; each holder
  // re-runs its offline phase from its role-scoped material store during
  // recvkey). Every frame carries its own rows, so it is schedulable as
  // soon as setup is done.
  if (!SetupShards({shard}).ok()) {
    // Died again under the handshake: back to dead, a later rejoin retries.
    for (const std::string& role : ShardRoles(shard)) {
      membership_.OnLinkDown(ReplicaLabel(shard, role));
    }
    return;
  }
  sched_.SetUsable(shard, true);
}

Status RemoteSmcOracle::CollectReplies(
    int shard, CtlVerb verb, uint64_t id,
    const std::vector<std::string>& roles, int deadline_ms,
    std::map<std::string, CtlResponse>* out) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (out->size() < roles.size()) {
    int remaining_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count());
    if (remaining_ms <= 0) break;
    auto msg = buses_[shard]->ReceiveTimeout(kCoordName, remaining_ms);
    if (!msg.ok()) break;
    if (msg->tag != kCtlReply) continue;  // not ours; drop
    auto reply = ParseCtlResponse(msg->payload);
    if (!reply.ok()) continue;  // a malformed ack is as good as a lost one
    if (reply->verb == CtlVerb::kHeartbeat) {
      // Membership probes share the coordinator inbox; consuming one here
      // must not turn it into a false miss.
      HandleHbAck(shard, *reply);
      continue;
    }
    // Late replies (a daemon answering after the coordinator already moved
    // on) are filtered here, not errors.
    if (reply->verb != verb || reply->id != id) continue;
    (*out)[reply->role] = std::move(reply).value();
  }
  if (out->size() == roles.size()) return Status::OK();
  std::string missing;
  bool link_down = false;
  for (const std::string& role : roles) {
    if (out->find(role) != out->end()) continue;
    missing += missing.empty() ? role : ", " + role;
    if (!buses_[shard]->PeerAlive(role)) link_down = true;
  }
  std::string what = std::string("no '") + CtlVerbTag(verb) + "' reply from " +
                     missing;
  return link_down ? Status::Unavailable(what + " (link down)")
                   : Status::NotFound(what);
}

std::vector<uint8_t> RemoteSmcOracle::BuildConfigPayload() const {
  ConfigBody body;
  body.key_bits = static_cast<uint32_t>(opts_.config.key_bits);
  body.test_seed = opts_.config.test_seed;
  body.emulated_latency_micros = opts_.emulated_latency_micros;
  // The daemons load persisted randomizer material keyed by their
  // (identically derived) keypair; recvkey sizes their offline phase.
  body.material_dir = opts_.config.material_dir;
  // The public plan: the same units and thresholds the in-process oracle
  // derives, so every daemon splits a frame exactly like its peers.
  body.pack_pairs = static_cast<uint32_t>(group_pairs_);
  body.slot_widths = operands_.slot_widths();
  body.thresholds = operands_.thresholds();
  std::vector<uint8_t> cfg;
  AppendConfigBody(body, &cfg);
  return cfg;
}

Status RemoteSmcOracle::SetupShards(const std::vector<int>& shard_ids) {
  const std::vector<uint8_t> cfg = BuildConfigPayload();
  // Each holder's offline phase prewarms exactly the randomizers its role
  // draws for offline_pairs pairs (smc::RandomizerDraws).
  HPRL_ASSIGN_OR_RETURN(const smc::RoleDraws draws,
                        smc::RandomizerDraws(opts_.config, operands_,
                                             opts_.config.offline_pairs));
  std::vector<uint8_t> recvkey_alice, recvkey_bob;
  AppendRecvKeyBody(static_cast<uint32_t>(draws.alice), &recvkey_alice);
  AppendRecvKeyBody(static_cast<uint32_t>(draws.bob), &recvkey_bob);

  // Fan each phase out to every shard before collecting any acks, so the
  // shards run their setup (keygen above all) concurrently.
  for (int s : shard_ids) {
    for (const std::string& role : ShardRoles(s)) {
      SendCtl(s, role, CtlVerb::kConfigure, cfg);
    }
  }
  for (int s : shard_ids) {
    std::map<std::string, CtlResponse> acks;
    HPRL_RETURN_IF_ERROR(CollectReplies(s, CtlVerb::kConfigure, 0,
                                        ShardRoles(s),
                                        opts_.receive_timeout_ms * 2, &acks));
    for (const auto& [role, reply] : acks) {
      HPRL_RETURN_IF_ERROR(ReplyStatus(reply));
      size_t off = 0;
      auto incarnation = ConsumeU64(reply.extra, &off);
      membership_.OnAck(ReplicaLabel(s, role),
                        incarnation.ok() ? *incarnation : 1);
    }
  }

  // Key setup: each shard's qp generates and broadcasts inside its own mesh.
  // At a pinned test_seed every qp derives the same keypair from the same
  // salted seed, which is how the fleet shares the party key without it
  // crossing the wire; generation of a production-size modulus takes
  // seconds, so the ack deadline is generous.
  for (int s : shard_ids) {
    SendCtl(s, shards_[s].qp.name, CtlVerb::kKeygen, {});
  }
  for (int s : shard_ids) {
    std::map<std::string, CtlResponse> acks;
    HPRL_RETURN_IF_ERROR(CollectReplies(s, CtlVerb::kKeygen, 0,
                                        {shards_[s].qp.name}, 120000, &acks));
    HPRL_RETURN_IF_ERROR(ReplyStatus(acks.begin()->second));
  }

  // The holders consume the key, then run the offline phase before the
  // first pair and off the online critical path: adopt what their
  // role-scoped material store holds, prewarm the rest, save the bank and
  // only then start their pools' fillers. Generation scales with
  // offline_pairs, so the deadline is as generous as keygen's.
  for (int s : shard_ids) {
    SendCtl(s, shards_[s].alice.name, CtlVerb::kRecvKey, recvkey_alice);
    SendCtl(s, shards_[s].bob.name, CtlVerb::kRecvKey, recvkey_bob);
  }
  for (int s : shard_ids) {
    std::map<std::string, CtlResponse> acks;
    HPRL_RETURN_IF_ERROR(CollectReplies(
        s, CtlVerb::kRecvKey, 0, {shards_[s].alice.name, shards_[s].bob.name},
        120000, &acks));
    for (const auto& [role, reply] : acks) {
      HPRL_RETURN_IF_ERROR(ReplyStatus(reply));
    }
  }
  return Status::OK();
}

Status RemoteSmcOracle::Init() {
  // The plan check comes first: a rule that cannot form a unit never
  // reaches a daemon.
  HPRL_ASSIGN_OR_RETURN(group_pairs_,
                        smc::PackedGroupPairs(opts_.config, operands_));
  if (metrics_ != nullptr) {
    for (auto& bus : buses_) bus->AttachMetrics(metrics_);
  }
  obs::ScopedSpan span(metrics_, "smc/transport");
  for (auto& bus : buses_) {
    HPRL_RETURN_IF_ERROR(bus->Start());
  }
  std::vector<int> all;
  for (int s = 0; s < num_shards(); ++s) {
    all.push_back(s);
    for (const std::string& role : ShardRoles(s)) {
      membership_.Register(ReplicaLabel(s, role));
    }
  }
  HPRL_RETURN_IF_ERROR(SetupShards(all));
  initialized_ = true;
  StreamMembershipMetrics();
  return Status::OK();
}

void RemoteSmcOracle::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  for (auto& bus : buses_) bus->AttachMetrics(registry);
}

void RemoteSmcOracle::StreamMembershipMetrics() {
  if (metrics_ == nullptr) return;
  const auto& transitions = membership_.transitions();
  for (; transitions_seen_ < transitions.size(); ++transitions_seen_) {
    obs::Add(metrics_, "net.membership.transitions");
  }
  for (const std::string& label : membership_.replicas()) {
    obs::SetGauge(metrics_, "net.membership." + label + ".state",
                  static_cast<int64_t>(membership_.state(label)));
  }
  obs::SetGauge(metrics_, "net.membership.probe_misses",
                membership_.probes_missed());
  obs::SetGauge(metrics_, "net.membership.stale_acks",
                membership_.stale_acks());
  obs::SetGauge(metrics_, "net.membership.rejoins", membership_.rejoins());
  obs::SetGauge(metrics_, "net.membership.rejected_rejoins",
                membership_.rejected_rejoins());
  for (int s = 0; s < num_shards(); ++s) {
    obs::SetGauge(metrics_, "net.shard." + std::to_string(s) +
                                ".inflight_pairs",
                  sched_.inflight_pairs(s));
  }
}

Result<std::vector<crypto::BigInt>> RemoteSmcOracle::EncodeRow(
    const Record& record) const {
  std::vector<crypto::BigInt> values(operands_.size());
  for (size_t i = 0; i < values.size(); ++i) {
    HPRL_ASSIGN_OR_RETURN(values[i], operands_.Encode(i, record));
  }
  return values;
}

Status RemoteSmcOracle::StageRow(int side, int64_t row_id,
                                 const Record& record,
                                 StagedRows* rows) const {
  auto [staged, first] = rows->try_emplace(RowKey{side, row_id});
  if (!first && staged->second.record == &record) return Status::OK();
  auto enc = EncodeRow(record);
  if (!enc.ok()) return enc.status();
  if (first) {
    staged->second = {&record, std::move(enc).value()};
    return Status::OK();
  }
  if (staged->second.values == *enc) return Status::OK();
  return Status::InvalidArgument(
      "two different records under row (side " + std::to_string(side) +
      ", id " + std::to_string(row_id) + ") in one batch");
}

Status RemoteSmcOracle::PurgeUsableShards() {
  for (int s = 0; s < num_shards(); ++s) {
    if (!sched_.usable(s)) continue;
    const uint64_t barrier_id = ++next_barrier_id_;
    std::vector<uint8_t> payload;
    AppendU64(barrier_id, &payload);
    for (const std::string& role : ShardRoles(s)) {
      SendCtl(s, role, CtlVerb::kPurge, payload);
    }
    std::map<std::string, CtlResponse> acks;
    bool flushed =
        CollectReplies(s, CtlVerb::kPurge, barrier_id, ShardRoles(s),
                       opts_.receive_timeout_ms * 3 + 2000, &acks)
            .ok();
    for (const auto& [role, reply] : acks) {
      flushed = flushed && reply.code == StatusCode::kOk;
    }
    if (flushed) continue;
    // A shard that cannot even flush is retired, not retried.
    for (const std::string& role : ShardRoles(s)) {
      membership_.OnLinkDown(ReplicaLabel(s, role));
    }
    sched_.SetUsable(s, false);
    StreamMembershipMetrics();
  }
  if (FirstUsableShard() < 0) {
    return Status::Unavailable("no usable comparator shard after purge");
  }
  return Status::OK();
}

Status RemoteSmcOracle::PumpReceive(int timeout_ms, int* shard,
                                    CtlResponse* out) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    // Drain whatever is already queued on any shard's bus first.
    for (int i = 0; i < num_shards(); ++i) {
      const int s = static_cast<int>((pump_rotor_ + i) % buses_.size());
      auto msg = buses_[s]->ReceiveTimeout(kCoordName, 0);
      if (!msg.ok()) continue;
      pump_rotor_ = static_cast<size_t>(s);
      if (msg->tag != kCtlReply) break;  // not ours; drop and rescan
      auto reply = ParseCtlResponse(msg->payload);
      if (!reply.ok()) break;  // a malformed ack is as good as a lost one
      *shard = s;
      *out = std::move(reply).value();
      return Status::OK();
    }
    int remaining_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count());
    if (remaining_ms <= 0) return Status::NotFound("no ctl reply");
    // Nothing queued: block on one bus for a short slice (or the full
    // remainder when there is only one bus to watch).
    const int slice =
        buses_.size() == 1 ? remaining_ms : std::min(remaining_ms, 5);
    pump_rotor_ = (pump_rotor_ + 1) % buses_.size();
    auto msg = buses_[pump_rotor_]->ReceiveTimeout(kCoordName, slice);
    if (!msg.ok()) continue;
    if (msg->tag != kCtlReply) continue;
    auto reply = ParseCtlResponse(msg->payload);
    if (!reply.ok()) continue;
    *shard = static_cast<int>(pump_rotor_);
    *out = std::move(reply).value();
    return Status::OK();
  }
}

Result<std::vector<uint8_t>> RemoteSmcOracle::CompareBatch(
    const std::vector<RowPairRequest>& batch) {
  obs::ScopedSpan span(metrics_, "smc/transport");
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before Compare()");
  }
  std::vector<uint8_t> labels(batch.size(), kPairNonMatch);

  // Pipelined batch RPC: encode every distinct row once up front, then
  // stream the pairs across the usable shards in kPairBatch frames with up
  // to rpc_window batches in flight per shard. Each round re-batches only
  // the transiently failed pairs.
  StagedRows rows;
  std::vector<BatchPair> pending;
  pending.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    invocations_ += 1;
    // Semantic: an unencodable value aborts the batch.
    HPRL_RETURN_IF_ERROR(StageRow(0, batch[i].a_id, *batch[i].a, &rows));
    HPRL_RETURN_IF_ERROR(StageRow(1, batch[i].b_id, *batch[i].b, &rows));
    BatchPair p;
    p.batch_pos = i;
    p.a_id = batch[i].a_id;
    p.b_id = batch[i].b_id;
    pending.push_back(p);
  }

  while (!pending.empty()) {
    const int64_t quarantined = pairs_quarantined_;
    HPRL_RETURN_IF_ERROR(RunBatchRound(rows, &pending, &labels));
    if (pending.empty()) {
      // A pair quarantined after its last failed attempt may have left
      // protocol messages on its shard's mesh, which the next batch would
      // read as its own: flush them as a retry would.
      if (pairs_quarantined_ > quarantined) (void)PurgeUsableShards();
      break;
    }
    // Transient leftovers: heal the shards and re-batch them, mirroring the
    // in-process RetryExchange (purge barrier, replay).
    retries_ += static_cast<int64_t>(pending.size());
    if (metrics_ != nullptr) {
      obs::Add(metrics_, "smc.retries",
               static_cast<int64_t>(pending.size()));
    }
    Status purged = PurgeUsableShards();
    if (!purged.ok()) {
      // No shard can even flush: everything still pending is stranded.
      for (const BatchPair& p : pending) {
        labels[p.batch_pos] = kPairQuarantined;
        pairs_quarantined_ += 1;
        if (metrics_ != nullptr) obs::Add(metrics_, "smc.pairs_quarantined");
      }
      break;
    }
  }
  return labels;
}

Status RemoteSmcOracle::RunBatchRound(const StagedRows& rows,
                                      std::vector<BatchPair>* pending,
                                      std::vector<uint8_t>* labels) {
  // Frames hold whole units wherever rpc_batch_pairs holds one, so only the
  // frame that empties the work queue ends in a partial unit. A batch size
  // below one unit keeps its meaning: that many pairs a frame.
  const int unit = group_pairs_;
  const int rpc = std::max(1, opts_.rpc_batch_pairs);
  const auto batch_pairs =
      static_cast<size_t>(rpc >= unit ? rpc / unit * unit : rpc);
  const int window = std::max(1, opts_.rpc_window);

  struct Outstanding {
    uint64_t batch_id = 0;
    int shard = 0;
    std::vector<BatchPair> pairs;  ///< owned: survives any work-queue churn
    std::chrono::steady_clock::time_point deadline;
    std::map<std::string, CtlResponse> replies;
  };

  std::deque<BatchPair> work(std::make_move_iterator(pending->begin()),
                             std::make_move_iterator(pending->end()));
  pending->clear();
  std::vector<Outstanding> inflight;
  std::vector<BatchPair> failed;  // transient this round; re-batched next
  Status semantic = Status::OK();

  auto quarantine = [&](const BatchPair& p) {
    (*labels)[p.batch_pos] = kPairQuarantined;
    pairs_quarantined_ += 1;
    if (metrics_ != nullptr) obs::Add(metrics_, "smc.pairs_quarantined");
  };

  // Re-dispatch a pair on another shard after its shard was retired: it
  // goes back on the work queue with its attempt budget untouched — the
  // pair never failed, its shard did.
  auto rebalance = [&](BatchPair p) {
    rebalanced_pairs_ += 1;
    if (metrics_ != nullptr) {
      obs::Add(metrics_, "net.membership.rebalanced_pairs");
    }
    work.push_back(std::move(p));
  };

  // Retires a shard from this round: stops scheduling onto it, pulls its
  // in-flight batches back, and rebalances their pairs (or quarantines
  // them when this was the last usable shard).
  auto retire_shard = [&](int shard) {
    sched_.SetUsable(shard, false);
    std::vector<uint64_t> drained = sched_.Drain(shard);
    const bool somewhere_else = FirstUsableShard() >= 0;
    int64_t drained_pairs = 0;
    for (uint64_t batch_id : drained) {
      for (size_t i = 0; i < inflight.size(); ++i) {
        if (inflight[i].batch_id != batch_id) continue;
        drained_pairs += static_cast<int64_t>(inflight[i].pairs.size());
        for (BatchPair& p : inflight[i].pairs) {
          if (somewhere_else) {
            rebalance(std::move(p));
          } else {
            quarantine(p);
          }
        }
        inflight.erase(inflight.begin() + static_cast<long>(i));
        break;
      }
    }
    if (metrics_ != nullptr && drained_pairs > 0) {
      obs::Add(metrics_,
               "net.shard." + std::to_string(shard) + ".drained_pairs",
               drained_pairs);
    }
  };

  // Folds transport-observed link state into the membership table and keeps
  // the scheduler's usable set in sync with it: a shard is schedulable only
  // while all three replicas are alive. Shards that turned suspect are
  // drained (their work rebalances) but may recover; dead is sticky.
  auto sweep_membership = [&] {
    for (int s = 0; s < num_shards(); ++s) {
      for (const std::string& role : ShardRoles(s)) {
        const std::string label = ReplicaLabel(s, role);
        if (membership_.state(label) != ReplicaState::kDead &&
            !buses_[s]->PeerAlive(role)) {
          membership_.OnLinkDown(label);
        }
      }
    }
    for (int s = 0; s < num_shards(); ++s) {
      const bool healthy = ShardAllAlive(s);
      if (healthy == sched_.usable(s)) continue;
      if (healthy) {
        sched_.SetUsable(s, true);  // a suspect recovered
      } else {
        retire_shard(s);
      }
    }
    StreamMembershipMetrics();
  };

  auto send_batch = [&] {
    // The shard is chosen before the pairs are pulled so a full window on
    // every shard leaves the queue untouched.
    const uint64_t batch_id = ++next_batch_id_;
    const int64_t take = static_cast<int64_t>(
        std::min(batch_pairs, work.size()));
    const int shard = sched_.Assign(batch_id, take, window);
    if (shard < 0) return false;
    Outstanding o;
    o.batch_id = batch_id;
    o.shard = shard;
    o.pairs.reserve(static_cast<size_t>(take));
    for (int64_t i = 0; i < take; ++i) {
      work.front().pair_index = next_pair_index_++;
      o.pairs.push_back(std::move(work.front()));
      work.pop_front();
    }
    // Self-contained frames: [0] goes to alice with each distinct R row
    // its pairs name, [1] to bob with each distinct S row, [2] to qp with
    // none; all carry the same pairs.
    PairBatchBody bodies[3];
    std::set<RowKey> carried;
    for (const BatchPair& p : o.pairs) {
      for (const RowKey& key : {RowKey{0, p.a_id}, RowKey{1, p.b_id}}) {
        if (!carried.insert(key).second) continue;
        bodies[key.first].rows.push_back({key.second, rows.at(key).values});
      }
      bodies[0].pairs.push_back({p.pair_index, p.a_id, p.b_id});
    }
    bodies[0].batch_id = bodies[1].batch_id = bodies[2].batch_id = o.batch_id;
    bodies[1].pairs = bodies[2].pairs = bodies[0].pairs;
    const std::string roles[3] = {shards_[shard].alice.name,
                                  shards_[shard].bob.name,
                                  shards_[shard].qp.name};
    for (int r = 0; r < 3; ++r) {
      std::vector<uint8_t> payload;
      AppendPairBatchBody(bodies[r], &payload);
      SendCtl(shard, roles[r], CtlVerb::kPairBatch, std::move(payload));
    }
    ctl_round_trips_ += 1;
    if (metrics_ != nullptr) {
      obs::Add(metrics_, "net.ctl_round_trips");
      obs::Add(metrics_, "net.rows_sent",
               static_cast<int64_t>(carried.size()));
    }
    // One daemon-side timeout per expected message plus per-pair crypto and
    // emulated-latency time; a faulting daemon skips its remaining pairs,
    // so at most one timeout cascades into the deadline.
    const int deadline_ms =
        opts_.receive_timeout_ms * (static_cast<int>(operands_.size()) + 3) +
        2000 +
        static_cast<int>(o.pairs.size()) *
            (20 + 2 * static_cast<int>(opts_.emulated_latency_micros / 1000));
    o.deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(deadline_ms);
    inflight.push_back(std::move(o));
    return true;
  };

  // Applies the per-slot accept rule: a pair's label is taken iff the qp
  // slot AND every data holder's slot report OK. Anything else classifies
  // the pair — dead shard: rebalance (quarantine when it was the last);
  // transient: re-batch; semantic: abort the whole compare.
  auto settle = [&](Outstanding& o) {
    sched_.Complete(o.batch_id);
    shard_batches_done_[o.shard] += 1;
    std::map<std::string, std::vector<PairSlot>> slots;
    std::map<std::string, Status> role_status;
    bool shard_down = false;
    for (const std::string& role : ShardRoles(o.shard)) {
      auto it = o.replies.find(role);
      if (it == o.replies.end()) {
        const bool alive = buses_[o.shard]->PeerAlive(role);
        role_status[role] =
            alive ? Status::NotFound("no batch reply from " + role)
                  : Status::Unavailable("no batch reply from " + role +
                                        " (link down)");
        shard_down = shard_down || !alive;
        continue;
      }
      if (it->second.code != StatusCode::kOk) {
        role_status[role] = Status(it->second.code,
                                   role + ": " + it->second.detail);
        shard_down =
            shard_down || it->second.code == StatusCode::kUnavailable;
        continue;
      }
      size_t off = 0;
      auto parsed = ParsePairSlots(it->second.extra, &off);
      if (!parsed.ok()) {
        role_status[role] = Status::IOError(role + ": malformed batch ack");
        continue;
      }
      slots[role] = std::move(parsed).value();
      role_status[role] = Status::OK();
    }

    for (size_t j = 0; j < o.pairs.size(); ++j) {
      BatchPair& p = o.pairs[j];
      Status pair_status = Status::OK();
      uint8_t qp_label = 0;
      for (const std::string& role : ShardRoles(o.shard)) {
        Status st = role_status[role];
        if (st.ok()) {
          const std::vector<PairSlot>& role_slots = slots[role];
          if (j >= role_slots.size() ||
              role_slots[j].pair_index != p.pair_index) {
            st = Status::IOError(role + ": batch ack slots misaligned");
          } else if (role_slots[j].code != StatusCode::kOk) {
            st = Status(role_slots[j].code,
                        role + " failed pair " +
                            std::to_string(p.pair_index) + " in batch");
          } else if (role == shards_[o.shard].qp.name) {
            qp_label = role_slots[j].label;
          }
        }
        if (st.ok()) continue;
        // A dead party outranks any transient co-failure.
        if (!pair_status.ok() &&
            pair_status.code() == StatusCode::kUnavailable) {
          continue;
        }
        if (pair_status.ok() || st.code() == StatusCode::kUnavailable) {
          pair_status = st;
        }
      }

      if (pair_status.ok()) {
        (*labels)[p.batch_pos] = qp_label == 1 ? kPairMatch : kPairNonMatch;
        shard_pairs_done_[o.shard] += 1;
        continue;
      }
      if (pair_status.code() == StatusCode::kUnavailable) {
        // The shard died under this pair; whether it can move depends on
        // whether any other shard is still standing. retire_shard() below
        // handles this batch's siblings the same way.
        bool somewhere_else = false;
        for (int s = 0; s < num_shards(); ++s) {
          if (s != o.shard && sched_.usable(s)) somewhere_else = true;
        }
        if (somewhere_else) {
          rebalance(std::move(p));
        } else {
          quarantine(p);
        }
        continue;
      }
      if (!smc::IsTransientFault(pair_status)) {
        // Semantic error: remember the first one; the compare aborts.
        if (semantic.ok()) semantic = pair_status;
        continue;
      }
      p.attempts += 1;
      if (p.attempts > opts_.config.max_retries) {
        quarantine(p);
      } else {
        failed.push_back(std::move(p));
      }
    }

    if (shard_down) {
      for (const std::string& role : ShardRoles(o.shard)) {
        const std::string label = ReplicaLabel(o.shard, role);
        if (!buses_[o.shard]->PeerAlive(role)) {
          membership_.OnLinkDown(label);
        }
      }
      // Other in-flight batches on this shard drain via the next sweep.
    }
  };

  // The cadence is wall-clock across rounds (next_hb_ is a member): a
  // workload of short rounds — one-pair batches, or a caller polling with
  // tiny batches while a crashed shard restarts — must still probe and offer
  // rejoins every interval, not only during drains longer than one.
  auto maybe_probe = [&] {
    const auto now = std::chrono::steady_clock::now();
    if (now < next_hb_) return;
    next_hb_ = now + std::chrono::milliseconds(opts_.hb_interval_ms);
    for (int s = 0; s < num_shards(); ++s) {
      for (const std::string& role : ShardRoles(s)) {
        const std::string label = ReplicaLabel(s, role);
        if (membership_.state(label) == ReplicaState::kDead) {
          // Offer the dead replica a way back instead of probing it: the
          // bus re-dials on send, so the offer lands the moment a restarted
          // process listens again. Its ack (a strictly-higher incarnation)
          // is the only evidence that ever revives a dead entry.
          std::vector<uint8_t> payload;
          AppendU64(membership_.incarnation(label), &payload);
          SendCtl(s, role, CtlVerb::kRejoin, std::move(payload));
          if (metrics_ != nullptr) {
            obs::Add(metrics_, "net.membership.rejoin_offers");
          }
          continue;
        }
        Probe& probe = probes_[label];
        if (!probe.answered) {
          membership_.OnProbeMiss(label);
        }
        probe.seq = ++next_probe_seq_;
        probe.answered = false;
        std::vector<uint8_t> payload;
        AppendU64(probe.seq, &payload);
        SendCtl(s, role, CtlVerb::kHeartbeat, std::move(payload));
        if (metrics_ != nullptr) obs::Add(metrics_, "net.membership.probes");
      }
    }
  };

  while (!work.empty() || !inflight.empty()) {
    sweep_membership();
    if (FirstUsableShard() < 0) {
      // Nothing left to run on: everything still in this round strands.
      for (Outstanding& o : inflight) {
        sched_.Complete(o.batch_id);
        for (BatchPair& p : o.pairs) quarantine(p);
      }
      inflight.clear();
      while (!work.empty()) {
        quarantine(work.front());
        work.pop_front();
      }
      for (BatchPair& p : failed) quarantine(p);
      failed.clear();
      break;
    }
    while (semantic.ok() && !work.empty() && send_batch()) {
    }
    if (inflight.empty()) {
      if (!semantic.ok() || work.empty()) break;
      continue;  // the sweep freed capacity; try filling again
    }
    maybe_probe();

    size_t earliest = 0;
    for (size_t i = 1; i < inflight.size(); ++i) {
      if (inflight[i].deadline < inflight[earliest].deadline) earliest = i;
    }
    const auto now = std::chrono::steady_clock::now();
    if (inflight[earliest].deadline <= now) {
      Outstanding o = std::move(inflight[earliest]);
      inflight.erase(inflight.begin() + static_cast<long>(earliest));
      settle(o);
      continue;
    }
    auto wake = std::min(inflight[earliest].deadline, next_hb_);
    int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(wake - now)
            .count());
    wait_ms = std::max(1, std::min(wait_ms, 200));

    int from_shard = 0;
    CtlResponse reply;
    Status got = PumpReceive(wait_ms, &from_shard, &reply);
    if (!got.ok()) continue;  // timeout: deadlines/probes handle themselves
    if (reply.verb == CtlVerb::kHeartbeat) {
      HandleHbAck(from_shard, reply);
      continue;
    }
    if (reply.verb == CtlVerb::kRejoin) {
      HandleRejoinAck(from_shard, reply);
      continue;
    }
    if (reply.verb != CtlVerb::kPairBatch) continue;  // late ack of smth else
    // Any reply is a liveness proof for its sender.
    membership_.OnAck(ReplicaLabel(from_shard, reply.role),
                      membership_.incarnation(
                          ReplicaLabel(from_shard, reply.role)));
    for (size_t i = 0; i < inflight.size(); ++i) {
      if (inflight[i].batch_id != reply.id) continue;
      const Status refused = ReplyStatus(reply);
      if (!refused.ok() && !smc::IsFaultClass(refused)) {
        // A daemon refused the whole batch (a body it cannot parse, a pair
        // on a row its frame lacks): no retry heals a sender bug, so the
        // compare fails now instead of waiting for the other roles, whose
        // receives would only time out.
        if (semantic.ok()) semantic = refused;
        sched_.Complete(inflight[i].batch_id);
        inflight.erase(inflight.begin() + static_cast<long>(i));
        break;
      }
      inflight[i].replies[reply.role] = std::move(reply);
      if (inflight[i].replies.size() == ShardRoles(inflight[i].shard).size()) {
        Outstanding o = std::move(inflight[i]);
        inflight.erase(inflight.begin() + static_cast<long>(i));
        settle(o);
      }
      break;
    }
  }

  StreamMembershipMetrics();
  if (!semantic.ok()) return semantic;
  *pending = std::move(failed);
  return Status::OK();
}

Result<MeshStats> RemoteSmcOracle::CollectStats() {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before CollectStats()");
  }
  MeshStats mesh;
  for (int s = 0; s < num_shards(); ++s) {
    std::vector<std::string> reachable;
    for (const std::string& role : ShardRoles(s)) {
      if (membership_.state(ReplicaLabel(s, role)) == ReplicaState::kDead) {
        continue;  // best effort: the dead contribute nothing
      }
      reachable.push_back(role);
      SendCtl(s, role, CtlVerb::kStats, {});
    }
    if (reachable.empty()) continue;
    std::map<std::string, CtlResponse> acks;
    // Best effort here too: a replica that died since the last sweep simply
    // stays missing from the aggregate.
    (void)CollectReplies(s, CtlVerb::kStats, 0, reachable,
                         opts_.receive_timeout_ms * 2, &acks);
    for (const auto& [role, reply] : acks) {
      if (reply.code != StatusCode::kOk) continue;
      size_t off = 0;
      auto stats = ParsePartyStats(reply.extra, &off);
      if (!stats.ok()) continue;
      mesh.costs += stats->costs;
      mesh.wire_bytes_sent += stats->net.bytes_sent;
      mesh.wire_bytes_received += stats->net.bytes_received;
      mesh.bus_bytes += stats->bus_bytes;
      mesh.bus_messages += stats->bus_messages;
      mesh.connects += stats->net.connects;
      mesh.reconnects += stats->net.reconnects;
      mesh.stale_dropped += stats->net.stale_dropped;
      mesh.send_errors += stats->net.send_errors;
      mesh.material.hits += stats->material.hits;
      mesh.material.misses += stats->material.misses;
      mesh.material.rejected += stats->material.rejected;
      mesh.material.bytes += stats->material.bytes;
      mesh.material_generated += stats->material_generated;
      mesh.per_party[ReplicaLabel(s, role)] = std::move(stats).value();
    }
  }
  // The daemons count per-party invocations (3 per pair); the coordinator's
  // count is the paper's cost unit. Rebalanced pairs are a coordinator-side
  // observation — the daemons never know a pair moved.
  mesh.costs.invocations = invocations_;
  mesh.costs.retries += retries_;
  mesh.costs.rebalanced_pairs = rebalanced_pairs_;

  int64_t own_bytes_sent = 0;
  int64_t own_bytes_received = 0;
  for (const auto& bus : buses_) {
    SocketBus::NetStats own = bus->net_stats();
    own_bytes_sent += own.bytes_sent;
    own_bytes_received += own.bytes_received;
    mesh.wire_bytes_sent += own.bytes_sent;
    mesh.wire_bytes_received += own.bytes_received;
    mesh.bus_bytes += bus->total_bytes();
    mesh.bus_messages += bus->total_messages();
    mesh.connects += own.connects;
    mesh.reconnects += own.reconnects;
    mesh.stale_dropped += own.stale_dropped;
    mesh.send_errors += own.send_errors;
  }

  if (metrics_ != nullptr) {
    // The live net.bytes_* counters stream only the coordinator's own
    // traffic; topping them up with the daemons' totals makes the final
    // counter the mesh-wide figure (each byte counted at its sender).
    obs::Add(metrics_, "net.bytes_sent",
             mesh.wire_bytes_sent - own_bytes_sent);
    obs::Add(metrics_, "net.bytes_received",
             mesh.wire_bytes_received - own_bytes_received);
    obs::Add(metrics_, "net.connects", mesh.connects);
    obs::Add(metrics_, "net.reconnects", mesh.reconnects);
    obs::Add(metrics_, "net.stale_dropped", mesh.stale_dropped);
    obs::Add(metrics_, "net.send_errors", mesh.send_errors);
    // Material accounting lives on the daemons; in remote mode the
    // coordinator's own registry has no crypto.material.* source, so the
    // daemons' totals become the run's counters here.
    obs::Add(metrics_, "crypto.material.hits", mesh.material.hits);
    obs::Add(metrics_, "crypto.material.misses", mesh.material.misses);
    obs::Add(metrics_, "crypto.material.rejected", mesh.material.rejected);
    obs::Add(metrics_, "crypto.material.bytes", mesh.material.bytes);
    obs::Add(metrics_, "crypto.material.generated", mesh.material_generated);
  }
  mesh_stats_ = mesh;
  return mesh;
}

Status RemoteSmcOracle::Shutdown(bool stop_daemons) {
  if (shut_down_ || !initialized_) {
    shut_down_ = true;
    return Status::OK();
  }
  shut_down_ = true;
  Status stats = CollectStats().status();
  if (stop_daemons) {
    for (int s = 0; s < num_shards(); ++s) {
      std::vector<std::string> reachable;
      for (const std::string& role : ShardRoles(s)) {
        if (membership_.state(ReplicaLabel(s, role)) == ReplicaState::kDead) {
          continue;
        }
        reachable.push_back(role);
        SendCtl(s, role, CtlVerb::kShutdown, {});
      }
      if (reachable.empty()) continue;
      std::map<std::string, CtlResponse> acks;
      // Best effort: a daemon that already died cannot ack.
      (void)CollectReplies(s, CtlVerb::kShutdown, 0, reachable,
                           opts_.receive_timeout_ms, &acks);
    }
  }
  return stats;
}

Status RemoteSmcOracle::InjectFailures(const std::string& replica,
                                       uint32_t count, bool crash) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before InjectFailures()");
  }
  for (int s = 0; s < num_shards(); ++s) {
    for (const std::string& role : ShardRoles(s)) {
      if (ReplicaLabel(s, role) != replica) continue;
      std::vector<uint8_t> payload;
      AppendU32(count, &payload);
      AppendU8(crash ? 1 : 0, &payload);
      SendCtl(s, role, CtlVerb::kInjectFail, std::move(payload));
      std::map<std::string, CtlResponse> acks;
      HPRL_RETURN_IF_ERROR(CollectReplies(s, CtlVerb::kInjectFail, 0,
                                          {role},
                                          opts_.receive_timeout_ms * 2,
                                          &acks));
      return ReplyStatus(acks.begin()->second);
    }
  }
  return Status::InvalidArgument("unknown replica: " + replica);
}

}  // namespace hprl::net
