#include "smc/protocol.h"

#include <algorithm>

#include "common/timer.h"

namespace hprl::smc {

using crypto::BigInt;

namespace {

ProtocolParams ToParams(const SmcConfig& cfg) {
  ProtocolParams p;
  p.key_bits = cfg.key_bits;
  p.fp_scale = cfg.fp_scale;
  p.blind_bits = cfg.blind_bits;
  p.reveal_distances = cfg.reveal_distances;
  return p;
}

/// Derives per-party deterministic seeds in test mode (0 stays 0 == OS
/// entropy for every party).
uint64_t Seed(uint64_t base, uint64_t salt) { return base == 0 ? 0 : base ^ salt; }

std::unique_ptr<MessageBus> MakeBus(const FaultPlan& plan) {
  if (plan.enabled()) return std::make_unique<FaultyBus>(plan);
  return std::make_unique<MessageBus>();
}

}  // namespace

int OfflineRandomizerBudget(int offline_pairs, size_t attrs) {
  return offline_pairs * 3 * static_cast<int>(std::max<size_t>(1, attrs));
}

SecureRecordComparator::SecureRecordComparator(SmcConfig config,
                                               const MatchRule& rule)
    : config_(config),
      operands_(rule, config.fp_scale),
      codec_(config.fp_scale),
      bus_(MakeBus(config.fault_plan)),
      // Widest intermediate an arena slot holds: the product of two mod-n²
      // values inside an in-place multiply, i.e. ~4x the modulus bits.
      arena_(static_cast<size_t>(config.key_bits) * 4 + 128),
      qp_(ToParams(config), Seed(config.test_seed, 0x9999)),
      alice_(std::string("alice"), ToParams(config),
             Seed(config.test_seed, 0xA11CE)),
      bob_(std::string("bob"), ToParams(config),
           Seed(config.test_seed, 0xB0B)) {}

Status SecureRecordComparator::Init() {
  HPRL_RETURN_IF_ERROR(qp_.PublishKey(bus_.get(), &costs_));
  HPRL_RETURN_IF_ERROR(alice_.ReceiveKey(bus_.get()));
  HPRL_RETURN_IF_ERROR(bob_.ReceiveKey(bus_.get()));
  initialized_ = true;
  if (metrics_ != nullptr) AttachMetrics(metrics_);  // re-attach fresh keys
  if (pool_ != nullptr) AttachRandomizerPool(pool_);
  return Status::OK();
}

Status SecureRecordComparator::InitWithKeyPair(
    const crypto::PaillierKeyPair& kp) {
  HPRL_RETURN_IF_ERROR(qp_.PublishKeyPair(kp, bus_.get(), &costs_));
  HPRL_RETURN_IF_ERROR(alice_.ReceiveKey(bus_.get()));
  HPRL_RETURN_IF_ERROR(bob_.ReceiveKey(bus_.get()));
  initialized_ = true;
  if (metrics_ != nullptr) AttachMetrics(metrics_);  // re-attach fresh keys
  if (pool_ != nullptr) AttachRandomizerPool(pool_);
  return Status::OK();
}

void SecureRecordComparator::AttachRandomizerPool(
    crypto::RandomizerPool* pool) {
  pool_ = pool;
  alice_.AttachRandomizerPool(pool);
  bob_.AttachRandomizerPool(pool);
}

void SecureRecordComparator::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  bus_->AttachMetrics(registry);
  qp_.AttachMetrics(registry);
  alice_.AttachMetrics(registry);
  bob_.AttachMetrics(registry);
  arena_.AttachMetrics(registry);
}

template <typename Exchange>
auto SecureRecordComparator::RetryExchange(int64_t a_id, int64_t b_id,
                                           int exchange_idx,
                                           Exchange&& exchange)
    -> decltype(exchange()) {
  for (int attempt = 0;; ++attempt) {
    // The fault schedule distinguishes exchanges of the same pair through
    // the context's attempt field: high bits carry the exchange index,
    // low bits the retry attempt.
    bus_->SetPairContext(a_id, b_id, (exchange_idx << 8) | attempt);
    auto r = exchange();
    if (r.ok() || !IsTransientFault(r.status()) ||
        attempt >= config_.max_retries) {
      return r;
    }
    // Heal: discard whatever half-delivered state the fault left behind and
    // replay the exchange from its first message.
    bus_->PurgeAll();
    costs_.retries += 1;
    if (metrics_ != nullptr) obs::Add(metrics_, "smc.retries");
  }
}

Result<bool> SecureRecordComparator::Compare(const Record& a,
                                             const Record& b) {
  return CompareRows(-1, -1, a, b);
}

Result<bool> SecureRecordComparator::CompareRows(int64_t a_id, int64_t b_id,
                                                 const Record& a,
                                                 const Record& b) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before Compare()");
  }
  costs_.invocations += 1;
  WallTimer compare_timer;
  int64_t rounds = 0;
  int exchange_idx = 0;
  bool match = true;
  for (size_t i = 0; i < operands_.size(); ++i) {
    auto x = operands_.Encode(i, a);
    if (!x.ok()) return x.status();
    auto y = operands_.Encode(i, b);
    if (!y.ok()) return y.status();
    const BigInt& threshold = operands_.threshold(i);

    costs_.attr_comparisons += 1;
    rounds += 1;  // one alice -> bob -> qp round trip per attribute
    auto within =
        RetryExchange(a_id, b_id, exchange_idx++, [&]() -> Result<bool> {
          HPRL_RETURN_IF_ERROR(
              alice_.SendAttr(bus_.get(), bob_.name(), *x, &costs_));
          HPRL_RETURN_IF_ERROR(
              bob_.FoldAndForward(bus_.get(), *y, threshold, &costs_));
          return qp_.DecideAttr(bus_.get(), threshold, &costs_);
        });
    if (!within.ok()) return within.status();
    if (!*within) {
      match = false;
      break;  // conjunction: first failing attribute decides
    }
  }
  // The querying party reports the pair's label to both holders.
  auto announced =
      RetryExchange(a_id, b_id, exchange_idx++, [&]() -> Result<bool> {
        HPRL_RETURN_IF_ERROR(qp_.AnnounceResult(bus_.get(), match));
        HPRL_RETURN_IF_ERROR(alice_.ReceiveResult(bus_.get()).status());
        HPRL_RETURN_IF_ERROR(bob_.ReceiveResult(bus_.get()).status());
        return true;
      });
  if (!announced.ok()) return announced.status();
  rounds += 1;  // result announcement
  if (metrics_ != nullptr) {
    obs::Add(metrics_, "smc.rounds", rounds);
    obs::Add(metrics_, "smc.attr_comparisons", rounds - 1);
    obs::Observe(metrics_, "smc.compare_seconds",
                 compare_timer.ElapsedSeconds());
  }
  return match;
}

int SecureRecordComparator::PackedGroupPairs() const {
  if (config_.pack_pairs <= 0 || !config_.reveal_distances) return 0;
  if (operands_.size() == 0 || operands_.has_text()) return 0;
  auto layout =
      crypto::PackingLayout::Plan(config_.key_bits, config_.pack_slot_bits);
  if (!layout.ok()) return 0;
  const int per_plaintext =
      layout->num_slots / static_cast<int>(operands_.size());
  if (per_plaintext < 1) return 0;
  return std::min(config_.pack_pairs, per_plaintext);
}

Result<std::vector<bool>> SecureRecordComparator::ComparePackedGroup(
    const std::vector<RowPairRequest>& pairs) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before comparing");
  }
  const int group_pairs = PackedGroupPairs();
  if (group_pairs < 1) {
    return Status::FailedPrecondition(
        "packed path unavailable for this config/rule");
  }
  if (pairs.size() > static_cast<size_t>(group_pairs)) {
    return Status::InvalidArgument("packed group larger than capacity");
  }
  std::vector<bool> results(pairs.size(), false);
  if (pairs.empty()) return results;
  auto layout =
      crypto::PackingLayout::Plan(config_.key_bits, config_.pack_slot_bits);
  if (!layout.ok()) return layout.status();

  WallTimer compare_timer;
  // Encode every pair and split the group into packable pairs (every slot
  // passes the carry-safety check) and scalar fallbacks. Slot order is
  // pair-major, attribute-minor, so the unpack on the querying side walks
  // the same sequence.
  std::vector<crypto::BigInt> xs, ys, thresholds;
  std::vector<size_t> packed_idx;    // input index per packed pair
  std::vector<size_t> slots_of;      // slots per packed pair
  std::vector<size_t> fallback_idx;  // pairs compared through the scalar path
  crypto::BigInt mag, sq;  // carry-check scratch, reused across the group
  for (size_t p = 0; p < pairs.size(); ++p) {
    std::vector<crypto::BigInt> pxs, pys, pthr;
    bool packable = true;
    for (size_t i = 0; i < operands_.size(); ++i) {
      auto x = operands_.Encode(i, *pairs[p].a);
      if (!x.ok()) return x.status();
      auto y = operands_.Encode(i, *pairs[p].b);
      if (!y.ok()) return y.status();
      // Carry safety: |x - y|² <= (|x| + |y|)² must stay inside one slot.
      // sq = (|x| + |y|)² is never negative, so SlotHolds reduces to the
      // allocation-free bit-length bound (BitLength ≤ slot_bits ⟺ v < 2^s).
      mpz_abs(mag.raw(), x->raw());
      mpz_abs(sq.raw(), y->raw());
      mpz_add(mag.raw(), mag.raw(), sq.raw());
      mpz_mul(sq.raw(), mag.raw(), mag.raw());
      if (static_cast<int>(sq.BitLength()) > layout->slot_bits) {
        packable = false;
        break;
      }
      pxs.push_back(std::move(x).value());
      pys.push_back(std::move(y).value());
      pthr.push_back(operands_.threshold(i));
    }
    if (!packable) {
      fallback_idx.push_back(p);
      continue;
    }
    packed_idx.push_back(p);
    slots_of.push_back(pxs.size());
    for (size_t i = 0; i < pxs.size(); ++i) {
      xs.push_back(std::move(pxs[i]));
      ys.push_back(std::move(pys[i]));
      thresholds.push_back(std::move(pthr[i]));
    }
  }

  if (!packed_idx.empty()) {
    const int64_t ctx_a = pairs[packed_idx.front()].a_id;
    const int64_t ctx_b = pairs[packed_idx.front()].b_id;
    costs_.invocations += static_cast<int64_t>(packed_idx.size());
    costs_.attr_comparisons += static_cast<int64_t>(xs.size());
    costs_.packed_exchanges += 1;
    costs_.packed_pairs += static_cast<int64_t>(packed_idx.size());
    auto within =
        RetryExchange(ctx_a, ctx_b, 0, [&]() -> Result<std::vector<bool>> {
          // Rewind the scratch arena per attempt: nothing allocated during a
          // previous (possibly faulted) attempt outlives the exchange.
          arena_.Reset();
          HPRL_RETURN_IF_ERROR(alice_.SendAttrsPacked(
              bus_.get(), bob_.name(), xs, *layout, &arena_, &costs_));
          HPRL_RETURN_IF_ERROR(bob_.FoldAndForwardPacked(bus_.get(), ys,
                                                         *layout, &arena_,
                                                         &costs_));
          return qp_.DecideAttrsPacked(bus_.get(), thresholds, *layout,
                                       &arena_, &costs_);
        });
    if (!within.ok()) return within.status();
    // Conjunction per pair over its slot verdicts (exact distances, so the
    // label matches the scalar path's early-exit conjunction bit for bit).
    std::vector<uint8_t> labels;
    labels.reserve(packed_idx.size());
    size_t slot = 0;
    for (size_t g = 0; g < packed_idx.size(); ++g) {
      bool match = true;
      for (size_t i = 0; i < slots_of[g]; ++i, ++slot) {
        match = match && (*within)[slot];
      }
      results[packed_idx[g]] = match;
      labels.push_back(match ? 1 : 0);
    }
    auto announced =
        RetryExchange(ctx_a, ctx_b, 1, [&]() -> Result<bool> {
          HPRL_RETURN_IF_ERROR(qp_.AnnounceResults(bus_.get(), labels));
          HPRL_RETURN_IF_ERROR(
              alice_.ReceiveResults(bus_.get(), labels.size()).status());
          HPRL_RETURN_IF_ERROR(
              bob_.ReceiveResults(bus_.get(), labels.size()).status());
          return true;
        });
    if (!announced.ok()) return announced.status();
    if (metrics_ != nullptr) {
      obs::Add(metrics_, "smc.rounds", 2);
      obs::Add(metrics_, "smc.attr_comparisons",
               static_cast<int64_t>(xs.size()));
      obs::Add(metrics_, "smc.packed_groups");
      obs::Observe(metrics_, "smc.compare_seconds",
                   compare_timer.ElapsedSeconds());
    }
  }

  for (size_t idx : fallback_idx) {
    auto m = CompareRows(pairs[idx].a_id, pairs[idx].b_id, *pairs[idx].a,
                         *pairs[idx].b);
    if (!m.ok()) return m.status();
    results[idx] = *m;
  }
  return results;
}

Result<double> SecureRecordComparator::SecureSquaredDistance(double x,
                                                             double y) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before use");
  }
  if (!config_.reveal_distances) {
    return Status::FailedPrecondition(
        "SecureSquaredDistance requires reveal_distances");
  }
  BigInt xi = codec_.Encode(x);
  BigInt yi = codec_.Encode(y);
  HPRL_RETURN_IF_ERROR(alice_.SendAttr(bus_.get(), bob_.name(), xi, &costs_));
  HPRL_RETURN_IF_ERROR(
      bob_.FoldAndForward(bus_.get(), yi, BigInt(0), &costs_));
  auto plain = qp_.ReceivePlain(bus_.get(), &costs_);
  if (!plain.ok()) return plain.status();
  return codec_.DecodeSquared(*plain);
}

}  // namespace hprl::smc
