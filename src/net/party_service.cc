#include "net/party_service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

#include "smc/protocol.h"

namespace hprl::net {

using crypto::BigInt;
using smc::Message;

namespace {

/// Same per-party seed derivation as the in-process comparator
/// (smc/protocol.cc): identical seeds is what makes a pinned-seed TCP run
/// bit-identical to the in-process transport. Every shard of a pinned-seed
/// fleet derives the same seeds, which is how the replicas share the party
/// keypair without it ever crossing the wire.
uint64_t Seed(uint64_t base, uint64_t salt) {
  return base == 0 ? 0 : base ^ salt;
}

constexpr uint64_t kQpSalt = 0x9999;
constexpr uint64_t kAliceSalt = 0xA11CE;
constexpr uint64_t kBobSalt = 0xB0B;

}  // namespace

void AppendPartyStats(const PartyStats& s, std::vector<uint8_t>* out) {
  AppendI64(s.costs.invocations, out);
  AppendI64(s.costs.attr_comparisons, out);
  AppendI64(s.costs.encryptions, out);
  AppendI64(s.costs.decryptions, out);
  AppendI64(s.costs.homomorphic_adds, out);
  AppendI64(s.costs.scalar_muls, out);
  AppendI64(s.costs.retries, out);
  AppendI64(s.costs.rebalanced_pairs, out);
  AppendI64(s.costs.packed_exchanges, out);
  AppendI64(s.costs.packed_pairs, out);
  AppendI64(s.costs.offline_randomizers, out);
  AppendI64(s.costs.material_randomizers, out);
  AppendI64(s.bus_bytes, out);
  AppendI64(s.bus_messages, out);
  AppendI64(s.net.bytes_sent, out);
  AppendI64(s.net.bytes_received, out);
  AppendI64(s.net.frames_sent, out);
  AppendI64(s.net.frames_received, out);
  AppendI64(s.net.connects, out);
  AppendI64(s.net.reconnects, out);
  AppendI64(s.net.stale_dropped, out);
  AppendI64(s.net.send_errors, out);
  AppendI64(s.material.hits, out);
  AppendI64(s.material.misses, out);
  AppendI64(s.material.rejected, out);
  AppendI64(s.material.bytes, out);
  AppendI64(s.material_generated, out);
}

Result<PartyStats> ParsePartyStats(const std::vector<uint8_t>& extra,
                                   size_t* off) {
  PartyStats s;
  int64_t* fields[] = {
      &s.costs.invocations,     &s.costs.attr_comparisons,
      &s.costs.encryptions,     &s.costs.decryptions,
      &s.costs.homomorphic_adds, &s.costs.scalar_muls,
      &s.costs.retries,         &s.costs.rebalanced_pairs,
      &s.costs.packed_exchanges, &s.costs.packed_pairs,
      &s.costs.offline_randomizers, &s.costs.material_randomizers,
      &s.bus_bytes,             &s.bus_messages,
      &s.net.bytes_sent,        &s.net.bytes_received,
      &s.net.frames_sent,       &s.net.frames_received,
      &s.net.connects,          &s.net.reconnects,
      &s.net.stale_dropped,     &s.net.send_errors,
      &s.material.hits,         &s.material.misses,
      &s.material.rejected,     &s.material.bytes,
      &s.material_generated,
  };
  for (int64_t* field : fields) {
    auto v = ConsumeI64(extra, off);
    if (!v.ok()) return v.status();
    *field = *v;
  }
  return s;
}

void AppendPairSlots(const std::vector<PairSlot>& slots,
                     std::vector<uint8_t>* out) {
  AppendU32(static_cast<uint32_t>(slots.size()), out);
  for (const PairSlot& slot : slots) {
    AppendU64(slot.pair_index, out);
    AppendU8(static_cast<uint8_t>(slot.code), out);
    AppendU8(slot.label, out);
  }
}

Result<std::vector<PairSlot>> ParsePairSlots(const std::vector<uint8_t>& extra,
                                             size_t* off) {
  auto count = ConsumeU32(extra, off);
  if (!count.ok()) return count.status();
  std::vector<PairSlot> slots;
  slots.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    PairSlot slot;
    auto pair_index = ConsumeU64(extra, off);
    if (!pair_index.ok()) return pair_index.status();
    auto code = ConsumeU8(extra, off);
    if (!code.ok()) return code.status();
    if (*code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
      return Status::IOError("pair slot carries unknown status code " +
                             std::to_string(int{*code}));
    }
    auto label = ConsumeU8(extra, off);
    if (!label.ok()) return label.status();
    slot.pair_index = *pair_index;
    slot.code = static_cast<StatusCode>(*code);
    slot.label = *label;
    slots.push_back(slot);
  }
  return slots;
}

SocketBusOptions MeshBusOptions(const std::string& role,
                                const MeshEndpoints& endpoints,
                                int connect_timeout_ms,
                                int receive_timeout_ms) {
  SocketBusOptions opts;
  opts.local_name = role;
  opts.connect_timeout_ms = connect_timeout_ms;
  opts.receive_timeout_ms = receive_timeout_ms;
  opts.flush_timeout_ms = receive_timeout_ms;
  if (role == endpoints.alice.name) {
    opts.listen = true;
    opts.listen_port = endpoints.alice.port;
    opts.accept_from = {endpoints.bob.name, endpoints.qp.name, kCoordName};
  } else if (role == endpoints.bob.name) {
    opts.listen = true;
    opts.listen_port = endpoints.bob.port;
    opts.dial = {endpoints.alice};
    opts.accept_from = {endpoints.qp.name, kCoordName};
  } else if (role == endpoints.qp.name) {
    opts.listen = true;
    opts.listen_port = endpoints.qp.port;
    opts.dial = {endpoints.alice, endpoints.bob};
    opts.accept_from = {kCoordName};
  } else {  // coordinator
    opts.dial = {endpoints.alice, endpoints.bob, endpoints.qp};
  }
  return opts;
}

namespace {

SocketBusOptions PartyBusOptions(const PartyServiceOptions& opts) {
  SocketBusOptions bus =
      MeshBusOptions(opts.role, opts.endpoints, opts.connect_timeout_ms,
                     opts.receive_timeout_ms);
  bus.listen_fd = opts.listen_fd;
  return bus;
}

}  // namespace

PartyService::PartyService(PartyServiceOptions opts)
    : opts_(std::move(opts)),
      bus_(std::make_unique<SocketBus>(PartyBusOptions(opts_))) {}

PartyService::~PartyService() { bus_->Stop(); }

Status PartyService::Start() {
  if (opts_.role != opts_.endpoints.alice.name &&
      opts_.role != opts_.endpoints.bob.name &&
      opts_.role != opts_.endpoints.qp.name) {
    return Status::InvalidArgument("unknown party role: " + opts_.role);
  }
  if (opts_.metrics != nullptr) bus_->AttachMetrics(opts_.metrics);
  // A daemon blocked in a protocol receive (up to receive_timeout_ms per
  // expected message while a peer's fault heals) keeps answering probes,
  // or the coordinator would read the wait as a hang and retire the shard.
  bus_->SetWaitHook([this] { DrainHeartbeats(); }, kHeartbeatPollMs);
  return bus_->Start();
}

void PartyService::DrainHeartbeats() {
  const std::string hb_inbox = opts_.role + kHbSuffix;
  for (;;) {
    auto msg = bus_->ReceiveTimeout(hb_inbox, 0);
    if (!msg.ok()) return;  // empty (NotFound) or bus trouble: nothing to ack
    size_t off = 0;
    // Probes carry the request-header epoch like every ctl command but are
    // never fenced: liveness must stay observable across a coordinator
    // handover, or a fenced daemon would read as dead instead of stale.
    auto epoch = ConsumeU64(msg->payload, &off);
    if (!epoch.ok()) continue;
    auto seq = ConsumeU64(msg->payload, &off);
    if (!seq.ok()) continue;  // malformed probe: as good as a lost one
    std::vector<uint8_t> extra;
    AppendU64(incarnation_, &extra);
    Reply(CtlVerb::kHeartbeat, *seq, Status::OK(), std::move(extra));
  }
}

bool PartyService::EpochFenced(CtlVerb verb, uint64_t epoch) const {
  switch (verb) {
    case CtlVerb::kConfigure:
    case CtlVerb::kRejoin:
      return false;  // these ADOPT the epoch — they are how epochs change
    case CtlVerb::kHeartbeat:
    case CtlVerb::kStats:
    case CtlVerb::kShutdown:
    case CtlVerb::kInjectFail:
      return false;  // management plane: observable across epochs
    case CtlVerb::kKeygen:
    case CtlVerb::kRecvKey:
    case CtlVerb::kPairBatch:
    case CtlVerb::kPurge:
      // Work verbs execute only under the exact configured epoch: a frame
      // the crashed coordinator left in flight (lower epoch) must never run
      // a pair, and a future-epoch frame reached a daemon that missed the
      // reconfiguration and has no matching protocol state.
      return epoch != epoch_;
  }
  return true;  // unreachable: the switch above is exhaustive
}

Status PartyService::Serve() {
  const std::string ctl_inbox = opts_.role + kCtlSuffix;
  while (!stop_requested_.load()) {
    DrainHeartbeats();
    auto msg = bus_->ReceiveTimeout(ctl_inbox, 50);
    if (!msg.ok()) {
      if (msg.status().code() == StatusCode::kNotFound) continue;  // idle
      return msg.status();
    }
    auto verb = CtlVerbFromTag(msg->tag);
    if (!verb.ok()) {
      // A coordinator that speaks a verb this daemon does not know would be
      // a wire-version mismatch, which the frame layer already rejects;
      // anything reaching this point is noise and is dropped.
      continue;
    }
    // Every ctl request leads with the coordinator's session epoch; strip
    // it here so the verb handlers see only their verb-specific body.
    size_t epoch_off = 0;
    auto epoch = ConsumeU64(msg->payload, &epoch_off);
    if (!epoch.ok()) continue;  // malformed request: drop like noise
    msg->payload.erase(msg->payload.begin(),
                       msg->payload.begin() + static_cast<long>(epoch_off));
    if (EpochFenced(*verb, *epoch)) {
      // Fenced, never executed: a work frame from a superseded (or not yet
      // adopted) session epoch gets a refusal the coordinator can tell
      // apart from a transient fault.
      fenced_requests_ += 1;
      Reply(*verb, 0,
            Status::FailedPrecondition(
                "stale session epoch " + std::to_string(*epoch) + " fenced (" +
                opts_.role + " is at " + std::to_string(epoch_) + ")"),
            {});
      continue;
    }
    if (*verb == CtlVerb::kShutdown) {
      Reply(CtlVerb::kShutdown, 0, Status::OK(), {});
      return Status::OK();
    }
    Status handled = Dispatch(*verb, *epoch, *msg);
    // Command-level failures were already acknowledged; only transport death
    // (no way to talk to anyone anymore) ends the serve loop.
    if (!handled.ok() && handled.code() == StatusCode::kUnavailable) {
      return handled;
    }
  }
  return Status::OK();
}

Status PartyService::Dispatch(CtlVerb verb, uint64_t epoch,
                              const Message& msg) {
  // Exhaustive over CtlVerb: adding a verb without a case here is a
  // -Wswitch compile error, not a silently ignored command.
  switch (verb) {
    case CtlVerb::kConfigure: {
      Status st = HandleConfigure(msg.payload);
      if (st.ok()) epoch_ = epoch;  // a successful cfg adopts the epoch
      std::vector<uint8_t> extra;
      AppendU64(incarnation_, &extra);
      Reply(CtlVerb::kConfigure, 0, st, std::move(extra));
      return st;
    }
    case CtlVerb::kRejoin: {
      size_t off = 0;
      auto last_seen = ConsumeU64(msg.payload, &off);
      if (!last_seen.ok()) {
        Reply(CtlVerb::kRejoin, 0, last_seen.status(), {});
        return last_seen.status();
      }
      // Re-admission handshake: adopt the coordinator's epoch and present
      // an incarnation STRICTLY above anything the coordinator ever saw —
      // a restarted process starts back at zero, so the coordinator's
      // last-seen value is what makes the bump meaningful. The coordinator
      // gates the membership dead->alive edge on exactly this property.
      epoch_ = epoch;
      incarnation_ = std::max(incarnation_, *last_seen) + 1;
      std::vector<uint8_t> extra;
      AppendU64(incarnation_, &extra);
      Reply(CtlVerb::kRejoin, 0, Status::OK(), std::move(extra));
      return Status::OK();
    }
    case CtlVerb::kKeygen: {
      Status st = HandleKeygen();
      Reply(CtlVerb::kKeygen, 0, st, {});
      return st;
    }
    case CtlVerb::kRecvKey: {
      auto randomizers = ParseRecvKeyBody(msg.payload);
      Status st = randomizers.ok() ? HandleRecvKey(*randomizers)
                                   : randomizers.status();
      Reply(CtlVerb::kRecvKey, 0, st, {});
      return st;
    }
    case CtlVerb::kPairBatch: {
      auto batch = ParsePairBatchBody(msg.payload);
      if (!batch.ok()) {
        // The frame checksum already vouched for these bytes, so a body
        // that does not parse is the sender's bug, not transit damage: a
        // non-transient refusal, echoing the batch id when it can be read
        // so the coordinator fails that batch at once instead of waiting
        // out its deadline and re-sending it.
        size_t off = 0;
        auto batch_id = ConsumeU64(msg.payload, &off);
        Status refused = Status::InvalidArgument(
            "pairb body refused: " + batch.status().message());
        Reply(CtlVerb::kPairBatch, batch_id.ok() ? *batch_id : 0, refused, {});
        return refused;
      }
      std::vector<PairSlot> slots;
      Status st = HandlePairBatch(*batch, &slots);
      if (st.code() == StatusCode::kUnavailable) return st;  // bus is gone
      std::vector<uint8_t> extra;
      AppendPairSlots(slots, &extra);
      // The batch-level code stays OK even when slots failed: per-pair
      // outcomes live in the slots, and the coordinator retries or
      // quarantines at that granularity.
      Reply(CtlVerb::kPairBatch, batch->batch_id, st, std::move(extra));
      return st;
    }
    case CtlVerb::kPurge: {
      size_t off = 0;
      auto barrier_id = ConsumeU64(msg.payload, &off);
      if (!barrier_id.ok()) {
        Reply(CtlVerb::kPurge, 0, barrier_id.status(), {});
        return barrier_id.status();
      }
      std::vector<std::string> peers = {opts_.endpoints.alice.name,
                                        opts_.endpoints.bob.name,
                                        opts_.endpoints.qp.name};
      Status st = bus_->Flush(peers, *barrier_id);
      Reply(CtlVerb::kPurge, *barrier_id, st, {});
      return st;
    }
    case CtlVerb::kStats: {
      PartyStats stats;
      stats.costs = costs_;
      if (pool_ != nullptr) {
        // Offline attribution mirrors SmcMatchOracle: every pool hit was an
        // encryption paid for off the critical path; FIFO draw order means
        // adopted (disk-loaded) randomizers are consumed first.
        stats.costs.offline_randomizers = pool_->hits();
        stats.costs.material_randomizers =
            std::min<int64_t>(pool_->hits(), pool_->adopted());
      }
      if (material_store_ != nullptr) {
        stats.material = material_store_->stats();
      }
      stats.material_generated = offline_.generated;
      stats.bus_bytes = bus_->total_bytes();
      stats.bus_messages = bus_->total_messages();
      stats.net = bus_->net_stats();
      std::vector<uint8_t> extra;
      AppendPartyStats(stats, &extra);
      Reply(CtlVerb::kStats, 0, Status::OK(), std::move(extra));
      return Status::OK();
    }
    case CtlVerb::kShutdown: {
      // Serve() intercepts shutdown before dispatch; acknowledging here too
      // keeps the switch total.
      Reply(CtlVerb::kShutdown, 0, Status::OK(), {});
      return Status::OK();
    }
    case CtlVerb::kInjectFail: {
      // u32 count, then a crash byte: non-zero turns the injected fault into
      // a simulated crash instead of a clean error.
      size_t off = 0;
      auto count = ConsumeU32(msg.payload, &off);
      auto crash = ConsumeU8(msg.payload, &off);
      Status st = !count.ok() ? count.status() : crash.status();
      if (st.ok()) {
        fail_next_pairs_ = *count;
        crash_on_fault_ = *crash != 0;
      }
      Reply(CtlVerb::kInjectFail, 0, st, {});
      return st;
    }
    case CtlVerb::kHeartbeat: {
      // Probes normally arrive on ":hb" and are answered by
      // DrainHeartbeats(); one that was addressed to ":ctl" is still a
      // probe and still deserves its ack.
      size_t off = 0;
      auto seq = ConsumeU64(msg.payload, &off);
      std::vector<uint8_t> extra;
      AppendU64(incarnation_, &extra);
      Reply(CtlVerb::kHeartbeat, seq.ok() ? *seq : 0, Status::OK(),
            std::move(extra));
      return Status::OK();
    }
  }
  return Status::Internal("unreachable: unhandled ctl verb");
}

Status PartyService::HandleConfigure(const std::vector<uint8_t>& payload) {
  auto cfg = ParseConfigBody(payload);
  if (!cfg.ok()) return cfg.status();

  emulated_latency_micros_ = cfg->emulated_latency_micros;
  material_dir_ = cfg->material_dir;
  key_bits_ = static_cast<int>(cfg->key_bits);
  test_seed_ = cfg->test_seed;
  thresholds_ = std::move(cfg->thresholds);
  unit_pairs_ = cfg->pack_pairs;
  // ParseConfigBody already planned this layout successfully.
  layout_ = crypto::PackingLayout::Plan(key_bits_, cfg->slot_widths).value();
  // Sized like the in-process comparator's: the widest mod-n² intermediate.
  arena_ = std::make_unique<crypto::BigIntArena>(
      static_cast<size_t>(key_bits_) * 4 + 128);
  pool_.reset();  // a new configuration means a new key is coming
  material_store_.reset();
  incarnation_ += 1;

  if (opts_.role == opts_.endpoints.qp.name) {
    qp_ = std::make_unique<smc::QueryingParty>(key_bits_,
                                               Seed(test_seed_, kQpSalt));
  } else {
    uint64_t salt =
        opts_.role == opts_.endpoints.alice.name ? kAliceSalt : kBobSalt;
    holder_ =
        std::make_unique<smc::DataHolder>(opts_.role, Seed(test_seed_, salt));
  }
  configured_ = true;
  costs_.Clear();
  return Status::OK();
}

Status PartyService::HandleKeygen() {
  if (!configured_ || qp_ == nullptr) {
    return Status::FailedPrecondition(
        "keygen requires a configured querying party");
  }
  HPRL_RETURN_IF_ERROR(qp_->PublishKey(bus_.get(), &costs_));
  if (opts_.metrics != nullptr) qp_->AttachMetrics(opts_.metrics);
  return Status::OK();
}

Status PartyService::HandleRecvKey(uint32_t randomizers) {
  if (!configured_ || holder_ == nullptr) {
    return Status::FailedPrecondition(
        "recvkey requires a configured data holder");
  }
  HPRL_RETURN_IF_ERROR(holder_->ReceiveKey(bus_.get()));
  if (opts_.metrics != nullptr) holder_->AttachMetrics(opts_.metrics);
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  const uint64_t salt =
      opts_.role == opts_.endpoints.alice.name ? kAliceSalt : kBobSalt;
  pool_ = std::make_unique<crypto::RandomizerPool>(
      holder_->public_key(), smc::kRandomizerPoolFloor,
      Seed(test_seed_, salt ^ 0xF1100u), cores);
  if (opts_.metrics != nullptr) pool_->AttachMetrics(opts_.metrics);
  if (!material_dir_.empty()) {
    // Role-scoped subdirectory: alice and bob persist under the SAME
    // (fingerprint, bits) key, and sharing one randomizer bank across
    // parties would let the querying party divide ciphertexts and learn
    // plaintext differences. Each daemon gets its own store.
    material_store_ = std::make_unique<crypto::MaterialStore>(
        material_dir_ + "/" + opts_.role);
  }
  HPRL_ASSIGN_OR_RETURN(offline_,
                        crypto::RunOfflinePhase(*pool_, material_store_.get(),
                                                randomizers, cores));
  holder_->AttachRandomizerPool(pool_.get());
  return Status::OK();
}

Status PartyService::RunUnit(
    size_t begin, size_t end, const std::vector<PairEntry>& pairs,
    const std::vector<const std::vector<BigInt>*>& rows,
    std::vector<PairSlot>* slots) {
  const size_t n = end - begin;
  costs_.invocations += static_cast<int64_t>(n);
  if (emulated_latency_micros_ > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(emulated_latency_micros_ * n));
  }
  arena_->Reset();
  if (qp_ != nullptr) {
    // qp holds no rows: the unit's layout and the thresholds are all it
    // needs to decide, and it decides every attribute of every pair.
    auto labels =
        qp_->DecideUnit(bus_.get(), thresholds_, n, layout_, arena_.get(),
                        &costs_);
    if (!labels.ok()) return labels.status();
    HPRL_RETURN_IF_ERROR(qp_->AnnounceResults(bus_.get(), *labels));
    for (size_t i = 0; i < n; ++i) (*slots)[begin + i].label = (*labels)[i];
    return Status::OK();
  }
  std::vector<BigInt> values;
  values.reserve(n * thresholds_.size());
  std::vector<int64_t> a_ids;
  a_ids.reserve(n);
  for (size_t i = begin; i < end; ++i) {
    values.insert(values.end(), rows[i]->begin(), rows[i]->end());
    a_ids.push_back(pairs[i].a_id);
  }
  if (opts_.role == opts_.endpoints.alice.name) {
    HPRL_RETURN_IF_ERROR(holder_->FoldColumns(bus_.get(), values, a_ids,
                                              layout_, arena_.get(), &costs_));
  } else {
    HPRL_RETURN_IF_ERROR(holder_->SendColumns(
        bus_.get(), opts_.endpoints.alice.name, values, a_ids, layout_,
        arena_.get(), &costs_));
  }
  return holder_->ReceiveResults(bus_.get(), n).status();
}

Status PartyService::HandlePairBatch(const PairBatchBody& batch,
                                     std::vector<PairSlot>* slots) {
  if (!configured_) {
    return Status::FailedPrecondition("pair batch before cfg");
  }
  // A holder resolves its own side of each pair from this frame alone:
  // alice the R row, bob the S row. qp's frames carry no rows.
  std::vector<const std::vector<BigInt>*> rows;
  if (holder_ != nullptr) {
    const bool alice = opts_.role == opts_.endpoints.alice.name;
    std::unordered_map<int64_t, const std::vector<BigInt>*> by_id;
    for (const RowEntry& row : batch.rows) by_id[row.row_id] = &row.values;
    rows.reserve(batch.pairs.size());
    for (const PairEntry& pair : batch.pairs) {
      const int64_t id = alice ? pair.a_id : pair.b_id;
      auto row = by_id.find(id);
      if (row == by_id.end()) {
        return Status::InvalidArgument("pair " +
                                       std::to_string(pair.pair_index) +
                                       " names row " + std::to_string(id) +
                                       ", which its frame does not carry");
      }
      if (row->second->size() != thresholds_.size()) {
        return Status::InvalidArgument("row " + std::to_string(id) +
                                       " is not as wide as the rule");
      }
      rows.push_back(row->second);
    }
  }
  slots->resize(batch.pairs.size());
  for (size_t i = 0; i < batch.pairs.size(); ++i) {
    (*slots)[i].pair_index = batch.pairs[i].pair_index;
  }
  // The three daemons split the frame's pairs positionally into units of
  // the configured size, so they run the same units in the same order.
  // Once a unit failed, later units are skipped: pressing on would
  // desynchronize the data plane.
  bool aborted = false;
  for (size_t begin = 0; begin < batch.pairs.size(); begin += unit_pairs_) {
    const size_t end = std::min(begin + unit_pairs_, batch.pairs.size());
    auto fail = [&](StatusCode code) {
      for (size_t i = begin; i < end; ++i) (*slots)[i].code = code;
      aborted = true;
    };
    // A long batch must not starve the membership plane: answer any queued
    // probes between units so a busy shard never reads as a dead one.
    DrainHeartbeats();
    if (aborted) {
      fail(StatusCode::kNotFound);  // "skipped after earlier fault"
      continue;
    }
    if (fail_next_pairs_ > 0) {
      fail_next_pairs_ -= 1;
      if (crash_on_fault_) {
        bus_->Stop();  // simulated mid-batch process death: no reply at all
        return Status::Unavailable("injected crash (test hook)");
      }
      fail(StatusCode::kIOError);  // injected unit fault (test hook)
      continue;
    }
    Status st = RunUnit(begin, end, batch.pairs, rows, slots);
    if (st.code() == StatusCode::kUnavailable) return st;  // bus is gone
    if (!st.ok()) fail(st.code());
  }
  return Status::OK();
}

void PartyService::Reply(CtlVerb verb, uint64_t id, const Status& st,
                         std::vector<uint8_t> extra) {
  CtlResponse r;
  r.role = opts_.role;
  r.verb = verb;
  r.id = id;
  r.epoch = epoch_;
  r.code = st.code();
  r.detail = st.message();
  r.extra = std::move(extra);
  Message msg;
  msg.from = opts_.role;
  msg.to = kCoordName;
  msg.tag = kCtlReply;
  AppendCtlResponse(r, &msg.payload);
  bus_->Send(std::move(msg));
}

}  // namespace hprl::net
