#include "serve/service.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "serve/generalize.h"

namespace hprl::serve {

namespace {

// Tenants share one oracle, so tenant-local row ids are namespaced into
// disjoint global ranges. 2^40 rows per tenant leaves room for 2^22 tenants.
constexpr int64_t kTenantStride = int64_t{1} << 40;

}  // namespace

std::string DeltaStatusName(DeltaStatus status) {
  switch (status) {
    case DeltaStatus::kApplied:
      return "applied";
    case DeltaStatus::kQueued:
      return "queued";
    case DeltaStatus::kRejectedAllowance:
      return "rejected_allowance";
    case DeltaStatus::kRejectedQueue:
      return "rejected_queue";
  }
  return "?";
}

LinkageService::LinkageService(ServiceOptions opts, MatchOracle* oracle,
                               obs::MetricsRegistry* metrics)
    : opts_(std::move(opts)), oracle_(oracle), metrics_(metrics) {
  HPRL_CHECK(oracle_ != nullptr);
}

int64_t LinkageService::GlobalId(int tenant_index, int64_t row_id) {
  return (static_cast<int64_t>(tenant_index) + 1) * kTenantStride + row_id;
}

LinkageService::Tenant& LinkageService::GetTenant(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_.emplace(name, Tenant(opts_)).first;
    it->second.name = name;
    it->second.index = next_tenant_index_++;
  }
  return it->second;
}

Result<ApplyResult> LinkageService::Apply(const RecordDelta& delta) {
  if (delta.tenant.empty()) {
    return Status::InvalidArgument("delta without a tenant id");
  }
  if (delta.row_id < 0 || delta.row_id >= kTenantStride) {
    return Status::InvalidArgument("row_id outside [0, 2^40)");
  }
  WallTimer timer;
  Tenant& t = GetTenant(delta.tenant);
  ++settled_deltas_;

  Result<ApplyResult> res = [&]() -> Result<ApplyResult> {
    // FIFO ordering per tenant: once anything is queued, every later delta
    // (erases included) parks behind it.
    if (!t.queue.empty()) {
      if (static_cast<int64_t>(t.queue.size()) >= opts_.max_queued) {
        ApplyResult r;
        r.status = DeltaStatus::kRejectedQueue;
        return r;
      }
      t.queue.push_back(delta);
      ApplyResult r;
      r.status = DeltaStatus::kQueued;
      return r;
    }
    return Admit(t, delta);
  }();
  if (!res.ok()) return res;

  res->seconds = timer.ElapsedSeconds();
  obs::Observe(metrics_, "serve.delta_seconds", res->seconds);
  switch (res->status) {
    case DeltaStatus::kApplied:
      obs::Add(metrics_, replaying_ ? "serve.deltas_replayed"
                                    : "serve.deltas_applied");
      break;
    case DeltaStatus::kQueued:
      obs::Add(metrics_, "serve.deltas_queued");
      break;
    case DeltaStatus::kRejectedAllowance:
    case DeltaStatus::kRejectedQueue:
      obs::Add(metrics_, "serve.deltas_rejected");
      break;
  }
  PublishGauges();
  return res;
}

Result<ApplyResult> LinkageService::Admit(Tenant& t,
                                          const RecordDelta& delta) {
  if (delta.op == DeltaOp::kErase) return CommitErase(t, delta);

  GenSequence seq;
  HPRL_ASSIGN_OR_RETURN(
      seq, GeneralizeRecord(delta.record, opts_.rule, opts_.hierarchies,
                            opts_.gen_level));
  std::vector<AffectedPair> pairs =
      t.blocker.Preview(delta.side, delta.row_id, seq);
  int64_t unknowns = static_cast<int64_t>(
      std::count_if(pairs.begin(), pairs.end(), [](const AffectedPair& p) {
        return p.label == PairLabel::kUnknown;
      }));
  if (unknowns > t.allowance_remaining) {
    ApplyResult r;
    if (opts_.max_queued <= 0) {
      r.status = DeltaStatus::kRejectedAllowance;
    } else {
      t.queue.push_back(delta);
      r.status = DeltaStatus::kQueued;
    }
    return r;
  }
  return CommitUpsert(t, delta, seq, pairs);
}

Result<ApplyResult> LinkageService::CommitUpsert(
    Tenant& t, const RecordDelta& delta, const GenSequence& seq,
    const std::vector<AffectedPair>& pairs) {
  ApplyResult out;
  // An update replaces the row: links settled against the old version are no
  // longer justified and must be re-derived from the new pairs.
  out.links_removed += DropLinksTouching(t, delta.side, delta.row_id);

  t.blocker.Insert(delta.side, delta.row_id, seq);
  t.records[{static_cast<int>(delta.side), delta.row_id}] = delta.record;

  std::vector<AffectedPair> unknowns;
  for (const AffectedPair& p : pairs) {
    switch (p.label) {
      case PairLabel::kMatch:
        // Sound by construction (paper §IV): no SMC spend needed.
        if (t.links.insert({p.r_id, p.s_id}).second) ++out.links_added;
        break;
      case PairLabel::kUnknown:
        unknowns.push_back(p);
        break;
      case PairLabel::kMismatch:
        break;
    }
  }
  obs::Add(metrics_, "serve.pairs_blocked",
           static_cast<int64_t>(pairs.size()));

  int64_t spend = static_cast<int64_t>(unknowns.size());
  t.allowance_remaining -= spend;
  t.smc_pairs_spent += spend;
  out.smc_pairs = spend;
  HPRL_RETURN_IF_ERROR(DrainUnknowns(t, unknowns, &out));

  obs::Add(metrics_, "serve.links_added", out.links_added);
  obs::Add(metrics_, "serve.links_removed", out.links_removed);
  obs::Add(metrics_, "serve.quarantined", out.quarantined);
  return out;
}

Status LinkageService::DrainUnknowns(
    Tenant& t, const std::vector<AffectedPair>& unknowns, ApplyResult* out) {
  if (unknowns.empty()) return Status::OK();
  if (replaying_) {
    // Crash replay: the journal already settled these pairs — a pair is a
    // match iff it is in the journaled link set. Pairs later removed by an
    // erase resolve to non-match here, and the replayed erase is a no-op for
    // them; the final state is identical either way.
    replayed_smc_pairs_ += static_cast<int64_t>(unknowns.size());
    obs::Add(metrics_, "serve.smc_pairs_replayed",
             static_cast<int64_t>(unknowns.size()));
    auto jit = replay_links_.find(t.name);
    const std::set<Link>* journaled =
        jit == replay_links_.end() ? nullptr : &jit->second;
    for (const AffectedPair& p : unknowns) {
      if (journaled != nullptr && journaled->count({p.r_id, p.s_id}) > 0) {
        if (t.links.insert({p.r_id, p.s_id}).second) ++out->links_added;
      }
    }
    return Status::OK();
  }
  obs::Add(metrics_, "serve.smc_pairs",
           static_cast<int64_t>(unknowns.size()));
  int batch_pairs = std::max(1, opts_.smc_batch_pairs);
  for (size_t base = 0; base < unknowns.size();
       base += static_cast<size_t>(batch_pairs)) {
    size_t end =
        std::min(unknowns.size(), base + static_cast<size_t>(batch_pairs));
    std::vector<RowPairRequest> batch;
    batch.reserve(end - base);
    for (size_t i = base; i < end; ++i) {
      const AffectedPair& p = unknowns[i];
      RowPairRequest req;
      req.a_id = GlobalId(t.index, p.r_id);
      req.b_id = GlobalId(t.index, p.s_id);
      req.a = &t.records.at({0, p.r_id});
      req.b = &t.records.at({1, p.s_id});
      batch.push_back(req);
    }
    std::vector<uint8_t> labels;
    HPRL_ASSIGN_OR_RETURN(labels, oracle_->CompareBatch(batch));
    for (size_t i = base; i < end; ++i) {
      const AffectedPair& p = unknowns[i];
      uint8_t label = labels[i - base];
      if (label == kPairMatch) {
        if (t.links.insert({p.r_id, p.s_id}).second) ++out->links_added;
      } else if (label == kPairQuarantined) {
        ++out->quarantined;
      }
    }
  }
  return Status::OK();
}

Result<ApplyResult> LinkageService::CommitErase(Tenant& t,
                                                const RecordDelta& delta) {
  ApplyResult out;
  out.links_removed += DropLinksTouching(t, delta.side, delta.row_id);
  t.blocker.Erase(delta.side, delta.row_id);
  t.records.erase({static_cast<int>(delta.side), delta.row_id});
  obs::Add(metrics_, "serve.links_removed", out.links_removed);
  return out;
}

int64_t LinkageService::DropLinksTouching(Tenant& t, Side side,
                                          int64_t row_id) {
  int64_t dropped = 0;
  for (auto it = t.links.begin(); it != t.links.end();) {
    bool touches = side == Side::kR ? it->first == row_id
                                    : it->second == row_id;
    if (touches) {
      it = t.links.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

Result<ApplyResult> LinkageService::TopUp(const std::string& tenant,
                                          int64_t extra) {
  if (extra < 0) return Status::InvalidArgument("negative allowance top-up");
  Tenant& t = GetTenant(tenant);
  t.allowance_remaining += extra;
  ApplyResult agg;
  while (!t.queue.empty()) {
    // Deterministic FIFO drain: stop at the first still-inadmissible head
    // rather than skipping past it (ordering is part of the replay contract).
    RecordDelta head = t.queue.front();
    if (head.op == DeltaOp::kUpsert) {
      GenSequence seq;
      HPRL_ASSIGN_OR_RETURN(
          seq, GeneralizeRecord(head.record, opts_.rule, opts_.hierarchies,
                                opts_.gen_level));
      std::vector<AffectedPair> pairs =
          t.blocker.Preview(head.side, head.row_id, seq);
      int64_t unknowns = static_cast<int64_t>(
          std::count_if(pairs.begin(), pairs.end(), [](const AffectedPair& p) {
            return p.label == PairLabel::kUnknown;
          }));
      if (unknowns > t.allowance_remaining) break;
      t.queue.pop_front();
      ApplyResult r;
      HPRL_ASSIGN_OR_RETURN(r, CommitUpsert(t, head, seq, pairs));
      agg.smc_pairs += r.smc_pairs;
      agg.links_added += r.links_added;
      agg.links_removed += r.links_removed;
      agg.quarantined += r.quarantined;
    } else {
      t.queue.pop_front();
      ApplyResult r;
      HPRL_ASSIGN_OR_RETURN(r, CommitErase(t, head));
      agg.links_removed += r.links_removed;
    }
    obs::Add(metrics_, "serve.queue_drained");
  }
  PublishGauges();
  return agg;
}

void LinkageService::BeginReplay(std::map<std::string, std::set<Link>> links) {
  replaying_ = true;
  replay_links_ = std::move(links);
}

void LinkageService::EndReplay() {
  replaying_ = false;
  replay_links_.clear();
}

std::vector<TenantSnapshot> LinkageService::Snapshot() const {
  std::vector<TenantSnapshot> out;
  out.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    TenantSnapshot snap;
    snap.name = name;
    snap.allowance_remaining = t.allowance_remaining;
    snap.smc_pairs_spent = t.smc_pairs_spent;
    snap.queued = static_cast<int64_t>(t.queue.size());
    snap.live_rows_r = t.blocker.live_rows(Side::kR);
    snap.live_rows_s = t.blocker.live_rows(Side::kS);
    snap.links.assign(t.links.begin(), t.links.end());
    out.push_back(std::move(snap));
  }
  return out;
}

void LinkageService::PublishGauges() {
  if (metrics_ == nullptr) return;
  int64_t queued = 0, allowance = 0, rows = 0;
  for (const auto& [name, t] : tenants_) {
    queued += static_cast<int64_t>(t.queue.size());
    allowance += t.allowance_remaining;
    rows += t.blocker.live_rows(Side::kR) + t.blocker.live_rows(Side::kS);
  }
  obs::SetGauge(metrics_, "serve.tenants",
                static_cast<double>(tenants_.size()));
  obs::SetGauge(metrics_, "serve.queue_depth", static_cast<double>(queued));
  obs::SetGauge(metrics_, "serve.allowance_remaining",
                static_cast<double>(allowance));
  obs::SetGauge(metrics_, "serve.live_rows", static_cast<double>(rows));
}

}  // namespace hprl::serve
