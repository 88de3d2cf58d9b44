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

int PackedGroupPairs(const SmcConfig& config, const RuleOperands& operands) {
  if (config.pack_pairs <= 0 || !config.reveal_distances) return 0;
  if (operands.has_text()) return 0;
  // Empty: no compared attribute, or one without a declared domain.
  const std::vector<int>& widths = operands.slot_widths();
  if (widths.empty()) return 0;
  for (int w : widths) {
    if (w > config.pack_slot_bits) return 0;
  }
  auto layout = crypto::PackingLayout::Plan(config.key_bits, widths);
  if (!layout.ok()) return 0;
  return std::min(config.pack_pairs, layout->groups());
}

RoleDraws RandomizerDraws(const SmcConfig& config,
                          const RuleOperands& operands, int64_t pairs) {
  const auto k = static_cast<int64_t>(operands.size());
  const int64_t group = PackedGroupPairs(config, operands);
  if (group > 0) {
    const int64_t units = (pairs + group - 1) / group;
    return {pairs * k + units, units};
  }
  return {2 * k * pairs, (config.reveal_distances ? 1 : 2) * k * pairs};
}

SecureRecordComparator::SecureRecordComparator(SmcConfig config,
                                               const MatchRule& rule)
    : config_(config),
      operands_(rule, config.fp_scale),
      group_pairs_(PackedGroupPairs(config, operands_)),
      codec_(config.fp_scale),
      bus_(MakeBus(config.fault_plan)),
      // Widest intermediate an arena slot holds: the product of two mod-n²
      // values inside an in-place multiply, i.e. ~4x the modulus bits.
      arena_(static_cast<size_t>(config.key_bits) * 4 + 128),
      qp_(ToParams(config), Seed(config.test_seed, 0x9999)),
      alice_(std::string("alice"), ToParams(config),
             Seed(config.test_seed, 0xA11CE)),
      bob_(std::string("bob"), ToParams(config),
           Seed(config.test_seed, 0xB0B)) {
  if (group_pairs_ > 0) {
    shape_.packed = true;
    shape_.layout =
        crypto::PackingLayout::Plan(config.key_bits, operands_.slot_widths())
            .value();
  }
  const size_t rounds = shape_.packed ? 1 : operands_.size();
  round_thresholds_.resize(rounds);
  for (size_t i = 0; i < operands_.size(); ++i) {
    round_thresholds_[i % rounds].push_back(operands_.thresholds()[i]);
  }
}

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
  // Each holder encodes its own side, split into the unit's exchanges. A
  // packed exchange holds every slot pair-major and attribute-minor: the
  // order the querying party unpacks.
  const size_t rounds = round_thresholds_.size();
  std::vector<std::vector<BigInt>> xs(rounds), ys(rounds);
  for (const RowPairRequest& pair : pairs) {
    for (size_t i = 0; i < operands_.size(); ++i) {
      auto x = operands_.Encode(i, *pair.a);
      if (!x.ok()) return x.status();
      auto y = operands_.Encode(i, *pair.b);
      if (!y.ok()) return y.status();
      xs[i % rounds].push_back(std::move(x).value());
      ys[i % rounds].push_back(std::move(y).value());
    }
  }
  costs_.invocations += static_cast<int64_t>(pairs.size());
  const int64_t ctx_a = pairs.front().a_id;
  const int64_t ctx_b = pairs.front().b_id;
  std::vector<uint8_t> labels(pairs.size(), 1);
  int exchange_idx = 0;
  for (size_t r = 0; r < rounds; ++r) {
    auto decided = RetryExchange(
        ctx_a, ctx_b, exchange_idx++, [&]() -> Result<std::vector<uint8_t>> {
          // Rewind the scratch arena per attempt: nothing allocated during a
          // previous (possibly faulted) attempt outlives the exchange.
          arena_.Reset();
          HPRL_RETURN_IF_ERROR(alice_.SendUnit(bus_.get(), bob_.name(), xs[r],
                                               shape_, &arena_, &costs_));
          const std::vector<BigInt>& ts = round_thresholds_[r];
          HPRL_RETURN_IF_ERROR(
              bob_.FoldUnit(bus_.get(), ys[r], ts, shape_, &arena_, &costs_));
          return qp_.DecideUnit(bus_.get(), ts, pairs.size(), shape_, &arena_,
                                &costs_);
        });
    if (!decided.ok()) return decided.status();
    for (size_t p = 0; p < labels.size(); ++p) labels[p] &= (*decided)[p];
  }
  auto announced =
      RetryExchange(ctx_a, ctx_b, exchange_idx, [&]() -> Result<bool> {
        HPRL_RETURN_IF_ERROR(qp_.AnnounceResults(bus_.get(), labels));
        HPRL_RETURN_IF_ERROR(
            alice_.ReceiveResults(bus_.get(), labels.size()).status());
        HPRL_RETURN_IF_ERROR(
            bob_.ReceiveResults(bus_.get(), labels.size()).status());
        return true;
      });
  if (!announced.ok()) return announced.status();
  if (metrics_ != nullptr) {
    // One round per exchange, plus the announcement.
    obs::Add(metrics_, "smc.rounds", exchange_idx + 1);
    obs::Add(metrics_, "smc.attr_comparisons",
             static_cast<int64_t>(pairs.size() * operands_.size()));
    if (shape_.packed) obs::Add(metrics_, "smc.packed_groups");
    obs::Observe(metrics_, "smc.compare_seconds",
                 compare_timer.ElapsedSeconds());
  }
  return std::vector<bool>(labels.begin(), labels.end());
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
  // A one-attribute scalar unit whose distance qp reads instead of deciding.
  const UnitShape scalar;
  HPRL_RETURN_IF_ERROR(alice_.SendUnit(bus_.get(), bob_.name(),
                                       {codec_.Encode(x)}, scalar, &arena_,
                                       &costs_));
  HPRL_RETURN_IF_ERROR(bob_.FoldUnit(bus_.get(), {codec_.Encode(y)},
                                     {BigInt(0)}, scalar, &arena_, &costs_));
  auto plain = qp_.ReceivePlain(bus_.get(), &costs_);
  if (!plain.ok()) return plain.status();
  return codec_.DecodeSquared(*plain);
}

}  // namespace hprl::smc
