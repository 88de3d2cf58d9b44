#include "smc/smc_oracle.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/timer.h"

namespace hprl::smc {

namespace {
uint64_t WorkerSeed(uint64_t base, int worker) {
  // 0 stays 0 (OS entropy); otherwise decorrelate the workers' encryption
  // randomness without touching the shared key.
  return base == 0 ? 0 : base ^ (0x51Dull * static_cast<uint64_t>(worker + 1));
}

}  // namespace

SmcMatchOracle::SmcMatchOracle(SmcConfig config, MatchRule rule, int threads)
    : config_(config), rule_(std::move(rule)), threads_(std::max(1, threads)) {}

SmcMatchOracle::~SmcMatchOracle() = default;

Status SmcMatchOracle::Init() {
  // The plan check runs before key generation, so a rule that cannot form a
  // unit fails at once.
  const RuleOperands operands(rule_, config_.fp_scale);
  HPRL_ASSIGN_OR_RETURN(const RoleDraws draws,
                        RandomizerDraws(config_, operands,
                                        config_.offline_pairs));
  auto rng = config_.test_seed != 0
                 ? std::make_unique<crypto::SecureRandom>(config_.test_seed ^
                                                          0x9999)
                 : std::make_unique<crypto::SecureRandom>();
  auto kp = crypto::GeneratePaillierKeyPair(config_.key_bits, *rng);
  if (!kp.ok()) return kp.status();
  keypair_ = std::move(kp).value();

  pool_ = std::make_unique<crypto::RandomizerPool>(
      keypair_.pub, kRandomizerPoolFloor, WorkerSeed(config_.test_seed, 0xF11),
      threads_);
  // The offline phase, before any worker exists so no online op can
  // interleave. Both holders share this pool, so it prewarms both roles'
  // draws for offline_pairs pairs.
  if (!config_.material_dir.empty()) {
    material_store_ =
        std::make_unique<crypto::MaterialStore>(config_.material_dir);
  }
  HPRL_ASSIGN_OR_RETURN(offline_,
                        crypto::RunOfflinePhase(*pool_, material_store_.get(),
                                                draws.total(), threads_));

  workers_.clear();
  workers_.reserve(static_cast<size_t>(threads_));
  for (int t = 0; t < threads_; ++t) {
    SmcConfig worker_cfg = config_;
    worker_cfg.test_seed = WorkerSeed(config_.test_seed, t);
    auto worker =
        std::make_unique<SecureRecordComparator>(worker_cfg, rule_);
    HPRL_RETURN_IF_ERROR(worker->InitWithKeyPair(keypair_));
    worker->AttachRandomizerPool(pool_.get());
    workers_.push_back(std::move(worker));
  }
  initialized_ = true;
  if (metrics_ != nullptr) AttachMetrics(metrics_);  // re-attach fresh keys
  PublishMaterialMetrics();
  return Status::OK();
}

// The store's counters are fixed after Init (all loads/saves happen there),
// but the registry often arrives later — LinkageSession attaches it at Run.
// Publish on whichever side happens second, exactly once.
void SmcMatchOracle::PublishMaterialMetrics() {
  if (metrics_ == nullptr || material_store_ == nullptr ||
      material_metrics_published_) {
    return;
  }
  const crypto::MaterialStats& ms = material_store_->stats();
  obs::Add(metrics_, "crypto.material.hits", ms.hits);
  obs::Add(metrics_, "crypto.material.misses", ms.misses);
  obs::Add(metrics_, "crypto.material.rejected", ms.rejected);
  obs::Add(metrics_, "crypto.material.bytes", ms.bytes);
  obs::Add(metrics_, "crypto.material.generated", offline_.generated);
  material_metrics_published_ = true;
}

Status SmcMatchOracle::RestartWorker(size_t w) {
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    retired_ += workers_[w]->costs();
  }
  SmcConfig worker_cfg = config_;
  worker_cfg.test_seed = WorkerSeed(config_.test_seed, static_cast<int>(w));
  auto fresh = std::make_unique<SecureRecordComparator>(worker_cfg, rule_);
  HPRL_RETURN_IF_ERROR(fresh->InitWithKeyPair(keypair_));
  fresh->AttachRandomizerPool(pool_.get());
  if (metrics_ != nullptr) fresh->AttachMetrics(metrics_);
  workers_[w] = std::move(fresh);
  worker_restarts_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) obs::Add(metrics_, "smc.worker_restarts");
  return Status::OK();
}

Result<std::vector<uint8_t>> SmcMatchOracle::CompareBatch(
    const std::vector<RowPairRequest>& batch) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before comparing");
  }
  WallTimer batch_timer;
  std::vector<uint8_t> labels(batch.size(), 0);

  auto quarantine = [&](size_t i) {
    labels[i] = kPairQuarantined;
    pairs_quarantined_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) obs::Add(metrics_, "smc.pairs_quarantined");
  };

  // Work units are fixed position ranges of unit_pairs() pairs, one packed
  // group each. Units depend only on config + rule, so every thread count
  // produces the same units — and every unit computes exact distances, so
  // the labels never depend on the unit size either.
  const auto unit_pairs = static_cast<size_t>(workers_.front()->unit_pairs());
  const size_t num_units = (batch.size() + unit_pairs - 1) / unit_pairs;
  const size_t active =
      std::min(static_cast<size_t>(threads_), std::max<size_t>(1, num_units));

  // Labels pairs [begin, end) — one unit — on worker w. A fault-class
  // failure quarantines the whole unit (one exchange is indivisible) and
  // restarts the worker. No cached comparator pointer: a restart swaps the
  // worker slot.
  auto run_unit = [&](size_t w, size_t begin, size_t end) -> Status {
    std::vector<RowPairRequest> unit(batch.begin() + begin,
                                     batch.begin() + end);
    auto matches = workers_[w]->CompareUnit(unit);
    if (matches.ok()) {
      for (size_t i = begin; i < end; ++i) {
        labels[i] = (*matches)[i - begin] ? kPairMatch : kPairNonMatch;
      }
      return Status::OK();
    }
    if (!IsFaultClass(matches.status())) return matches.status();
    for (size_t i = begin; i < end; ++i) quarantine(i);
    return RestartWorker(w);
  };

  // Work stealing over the units: an atomic cursor hands out the next unit,
  // and a worker stops claiming once any unit failed. Every unit below a
  // claimed one was claimed earlier and runs to completion, so the error of
  // the smallest failing unit — the smallest failing index — is the same at
  // every thread count. One active worker drains inline on this thread.
  std::atomic<size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::vector<Status> worker_status(active, Status::OK());
  std::vector<size_t> error_unit(active, num_units);
  auto drain = [&](size_t w) {
    while (!failed.load(std::memory_order_relaxed)) {
      const size_t u = cursor.fetch_add(1, std::memory_order_relaxed);
      if (u >= num_units) return;
      const size_t begin = u * unit_pairs;
      const size_t end = std::min(begin + unit_pairs, batch.size());
      Status st = run_unit(w, begin, end);
      if (!st.ok()) {
        worker_status[w] = std::move(st);
        error_unit[w] = u;
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(active - 1);
  for (size_t w = 1; w < active; ++w) {
    pool.emplace_back([&, w] { drain(w); });
  }
  drain(0);
  for (auto& th : pool) th.join();

  if (failed.load()) {
    size_t best = 0;
    for (size_t w = 1; w < active; ++w) {
      if (error_unit[w] < error_unit[best]) best = w;
    }
    return worker_status[best];
  }
  if (metrics_ != nullptr) {
    obs::Add(metrics_, "smc.batches");
    obs::Observe(metrics_, "smc.batch_seconds", batch_timer.ElapsedSeconds());
  }
  return labels;
}

const SmcCosts& SmcMatchOracle::costs() const {
  // Summed on demand; sums are order-independent, so the totals are
  // identical for every thread count. Only call between batches (the
  // session's usage) — workers mutate their costs while a batch runs.
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    aggregated_ = retired_;  // work done by since-restarted stacks
  }
  for (const auto& worker : workers_) aggregated_ += worker->costs();
  if (pool_ != nullptr) {  // null only before Init
    // Offline attribution: every pool hit consumed a randomizer whose
    // exponentiation was paid for ahead of the online path; the first
    // adopted() of those came off disk rather than being generated this run.
    aggregated_.offline_randomizers = pool_->hits();
    aggregated_.material_randomizers =
        std::min(pool_->hits(), pool_->adopted());
  }
  return aggregated_;
}

void SmcMatchOracle::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  for (auto& worker : workers_) worker->AttachMetrics(registry);
  if (pool_ != nullptr) pool_->AttachMetrics(registry);
  if (registry != nullptr && initialized_) {
    obs::SetGauge(registry, "smc.workers", static_cast<double>(threads_));
  }
  PublishMaterialMetrics();
}

}  // namespace hprl::smc
