#include "smc/protocol.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"
#include "common/timer.h"

namespace hprl::smc {

using crypto::BigInt;

namespace {

/// Derives per-party deterministic seeds in test mode (0 stays 0 == OS
/// entropy for every party).
uint64_t Seed(uint64_t base, uint64_t salt) { return base == 0 ? 0 : base ^ salt; }

std::unique_ptr<MessageBus> MakeBus(const FaultPlan& plan) {
  if (plan.enabled()) return std::make_unique<FaultyBus>(plan);
  return std::make_unique<MessageBus>();
}

}  // namespace

Result<int> PackedGroupPairs(const SmcConfig& config,
                             const RuleOperands& operands) {
  // Each refusal names the spec setting or rule field to change.
  if (config.pack_pairs < 1) {
    return Status::InvalidArgument(StrFormat(
        "smc_pack %d: scalar SMC units were removed and every unit is "
        "packed; set smc_pack <pairs> [slot_bits] with pairs >= 1 (the "
        "default is 8)",
        config.pack_pairs));
  }
  if (operands.size() == 0) {
    return Status::InvalidArgument(
        "the match rule compares no attribute in the SMC step");
  }
  for (size_t i = 0; i < operands.size(); ++i) {
    const AttrRule& attr = operands.attrs()[i];
    const int width = operands.slot_widths()[i];
    if (attr.type == AttrType::kText) {
      return Status::InvalidArgument(StrFormat(
          "text attribute '%s' cannot enter the SMC step (paper §VIII "
          "future work); drop it from the SMC rule",
          attr.name.c_str()));
    }
    if (!attr.has_domain()) {
      return Status::InvalidArgument(StrFormat(
          "compared attribute '%s' declares no domain; packed SMC units "
          "size each slot from it (declare one, as cli::BuildPlan does "
          "from the attribute's VGH)",
          attr.name.c_str()));
    }
    if (width > config.pack_slot_bits) {
      return Status::InvalidArgument(StrFormat(
          "attribute '%s' needs a %d-bit slot, wider than smc_pack's "
          "slot_bits %d; scalar SMC units were removed, so raise slot_bits "
          "to at least %d",
          attr.name.c_str(), width, config.pack_slot_bits, width));
    }
  }
  auto layout =
      crypto::PackingLayout::Plan(config.key_bits, operands.slot_widths());
  if (!layout.ok()) {
    return Status::InvalidArgument(
        StrFormat("one pair's slots do not fit a %d-bit key (%s); raise "
                  "keybits",
                  config.key_bits, layout.status().message().c_str()));
  }
  // A unit whose plaintext fits one CRT half decrypts at about half the
  // cost (PaillierPrivateKey::DecryptBelow), so the widest such unit wins
  // when it keeps more than half the widest unit's pairs.
  const int widest = std::min(config.pack_pairs, layout->groups());
  const std::vector<int>& widths = operands.slot_widths();
  const int pair_bits = std::accumulate(widths.begin(), widths.end(), 0);
  const int narrow = std::min(
      widest, crypto::NarrowPlaintextBits(config.key_bits) / pair_bits);
  return 2 * narrow > widest ? narrow : widest;
}

Result<RoleDraws> RandomizerDraws(const SmcConfig& config,
                                  const RuleOperands& operands,
                                  int64_t pairs) {
  HPRL_ASSIGN_OR_RETURN(const int64_t group,
                        PackedGroupPairs(config, operands));
  const auto k = static_cast<int64_t>(operands.size());
  const int64_t units = (pairs + group - 1) / group;
  return RoleDraws{units, pairs * k + units};
}

SecureRecordComparator::SecureRecordComparator(SmcConfig config,
                                               const MatchRule& rule)
    : config_(config),
      operands_(rule, config.fp_scale),
      bus_(MakeBus(config.fault_plan)),
      // Widest intermediate an arena slot holds: the product of two mod-n²
      // values inside an in-place multiply, i.e. ~4x the modulus bits.
      arena_(static_cast<size_t>(config.key_bits) * 4 + 128),
      qp_(config.key_bits, Seed(config.test_seed, 0x9999)),
      alice_(std::string("alice"), Seed(config.test_seed, 0xA11CE)),
      bob_(std::string("bob"), Seed(config.test_seed, 0xB0B)) {
  auto group = PackedGroupPairs(config, operands_);
  plan_ = group.status();
  if (!group.ok()) return;
  group_pairs_ = *group;
  layout_ =
      crypto::PackingLayout::Plan(config.key_bits, operands_.slot_widths())
          .value();
}

Status SecureRecordComparator::Init() {
  HPRL_RETURN_IF_ERROR(plan_);
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
  HPRL_RETURN_IF_ERROR(plan_);
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
  auto labels = CompareUnit({{-1, -1, &a, &b}});
  if (!labels.ok()) return labels.status();
  return static_cast<bool>(labels->front());
}

Result<std::vector<bool>> SecureRecordComparator::CompareUnit(
    const std::vector<RowPairRequest>& pairs) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before comparing");
  }
  if (pairs.size() > static_cast<size_t>(unit_pairs())) {
    return Status::InvalidArgument("unit larger than its capacity");
  }
  if (pairs.empty()) return std::vector<bool>{};
  WallTimer compare_timer;
  // Each holder encodes its own side, pair-major and attribute-minor: the
  // order the querying party unpacks. The pairs' R-row ids group the cross
  // terms.
  std::vector<BigInt> xs, ys;
  xs.reserve(pairs.size() * operands_.size());
  ys.reserve(pairs.size() * operands_.size());
  std::vector<int64_t> a_ids;
  a_ids.reserve(pairs.size());
  for (const RowPairRequest& pair : pairs) {
    a_ids.push_back(pair.a_id);
    for (size_t i = 0; i < operands_.size(); ++i) {
      auto x = operands_.Encode(i, *pair.a);
      if (!x.ok()) return x.status();
      auto y = operands_.Encode(i, *pair.b);
      if (!y.ok()) return y.status();
      xs.push_back(std::move(x).value());
      ys.push_back(std::move(y).value());
    }
  }
  costs_.invocations += static_cast<int64_t>(pairs.size());
  const int64_t ctx_a = pairs.front().a_id;
  const int64_t ctx_b = pairs.front().b_id;
  // Exchange 0 is the unit's one ciphertext round, exchange 1 the
  // announcement: each its own retry scope.
  auto labels = RetryExchange(
      ctx_a, ctx_b, 0, [&]() -> Result<std::vector<uint8_t>> {
        // Rewind the scratch arena per attempt: nothing allocated during a
        // previous (possibly faulted) attempt outlives the exchange.
        arena_.Reset();
        HPRL_RETURN_IF_ERROR(bob_.SendColumns(bus_.get(), alice_.name(), ys,
                                              a_ids, layout_, &arena_,
                                              &costs_));
        HPRL_RETURN_IF_ERROR(alice_.FoldColumns(bus_.get(), xs, a_ids,
                                                layout_, &arena_, &costs_));
        return qp_.DecideUnit(bus_.get(), operands_.thresholds(),
                              pairs.size(), layout_, &arena_, &costs_);
      });
  if (!labels.ok()) return labels.status();
  auto announced = RetryExchange(ctx_a, ctx_b, 1, [&]() -> Result<bool> {
    HPRL_RETURN_IF_ERROR(qp_.AnnounceResults(bus_.get(), *labels));
    HPRL_RETURN_IF_ERROR(
        alice_.ReceiveResults(bus_.get(), labels->size()).status());
    HPRL_RETURN_IF_ERROR(
        bob_.ReceiveResults(bus_.get(), labels->size()).status());
    return true;
  });
  if (!announced.ok()) return announced.status();
  if (metrics_ != nullptr) {
    // One round for the exchange, one for the announcement.
    obs::Add(metrics_, "smc.rounds", 2);
    obs::Add(metrics_, "smc.attr_comparisons",
             static_cast<int64_t>(pairs.size() * operands_.size()));
    obs::Add(metrics_, "smc.packed_groups");
    obs::Observe(metrics_, "smc.compare_seconds",
                 compare_timer.ElapsedSeconds());
  }
  return std::vector<bool>(labels->begin(), labels->end());
}

}  // namespace hprl::smc
