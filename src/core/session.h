#ifndef HPRL_CORE_SESSION_H_
#define HPRL_CORE_SESSION_H_

#include <optional>
#include <string>
#include <utility>

#include "anon/anonymizer.h"
#include "common/result.h"
#include "core/hybrid.h"
#include "core/journal.h"
#include "linkage/oracle.h"
#include "obs/metrics.h"

namespace hprl {

/// Primary entry point of the hybrid pipeline: a builder that names each
/// ingredient, replacing the six-positional-argument RunHybridLinkage.
///
///   obs::MetricsRegistry registry;
///   auto result = hprl::LinkageSession()
///                     .WithTables(table_r, table_s)
///                     .WithReleases(*anon_r, *anon_s)
///                     .WithConfig(config)
///                     .WithOracle(oracle)
///                     .WithMetrics(&registry)   // optional; default: no-op
///                     .WithEvaluation(true)     // optional ground-truth pass
///                     .Run();
///
/// Run() executes blocking -> selection -> SMC (-> evaluation), records the
/// stage spans "linkage/{block,select,smc,evaluate}" and the counters
/// documented in docs/OBSERVABILITY.md into the attached registry, and
/// returns the same HybridResult as the legacy free function —
/// byte-identical for identical inputs, with or without a registry.
///
/// The session borrows everything it is given; all referenced objects must
/// outlive Run(). A session is single-use state-wise but Run() may be called
/// repeatedly (each call re-executes the pipeline).
class LinkageSession {
 public:
  LinkageSession() = default;

  LinkageSession& WithTables(const Table& r, const Table& s) {
    r_ = &r;
    s_ = &s;
    return *this;
  }

  LinkageSession& WithReleases(const AnonymizedTable& anon_r,
                               const AnonymizedTable& anon_s) {
    anon_r_ = &anon_r;
    anon_s_ = &anon_s;
    return *this;
  }

  LinkageSession& WithConfig(const HybridConfig& config) {
    config_ = &config;
    return *this;
  }

  LinkageSession& WithOracle(MatchOracle& oracle) {
    oracle_ = &oracle;
    return *this;
  }

  /// Attaches a metrics registry (nullptr detaches — the default null sink).
  /// The oracle's own instrumentation hook is attached lazily inside Run().
  LinkageSession& WithMetrics(obs::MetricsRegistry* registry) {
    metrics_ = registry;
    return *this;
  }

  /// When enabled, Run() finishes with an exact ground-truth pass filling
  /// true_matches / recall / precision (reads cleartext; evaluation only).
  LinkageSession& WithEvaluation(bool evaluate) {
    evaluate_ = evaluate;
    return *this;
  }

  /// Aborts the drain with Unavailable after `max_batches` flushed SMC
  /// batches — a deterministic stand-in for killing the process, used by the
  /// resume tests. <= 0 (the default) never aborts.
  LinkageSession& WithSmcBatchLimit(int64_t max_batches) {
    max_batches_ = max_batches;
    return *this;
  }

  /// Makes the allowance drain resumable: after every flushed SMC batch the
  /// session persists a SessionJournal (core/journal.h) at `path` —
  /// progress plus the session epoch and the oracle's per-shard batch
  /// dispositions. At startup a journal matching this run's fingerprint
  /// restores progress: the drain continues at the first unlabeled pair,
  /// and the final HybridResult equals an uninterrupted run's
  /// (resumed_pairs records how much was restored). A journal from a
  /// different run is refused (FailedPrecondition); a corrupt one is
  /// rejected (never partially resumed) and, unless WithResume(true), the
  /// run simply restarts clean. A completed drain deletes its journal.
  /// Empty path (the default) disables journaling.
  ///
  /// `loaded`, when given, is the result of LoadSessionJournal(path) that
  /// the caller already made (hprl_link reads the journal first to pick the
  /// session epoch); the next Run() uses it instead of reading the file
  /// again.
  LinkageSession& WithJournal(
      const std::string& path,
      std::optional<Result<SessionJournal>> loaded = std::nullopt) {
    journal_path_ = path;
    loaded_journal_ = std::move(loaded);
    return *this;
  }

  /// Strict resume: Run() refuses to start unless the journal exists
  /// (InvalidArgument when missing), is intact (FailedPrecondition when
  /// corrupt) and matches this run's fingerprint. Used by `hprl_link
  /// --resume`, where silently restarting from zero would hide a lost
  /// journal.
  LinkageSession& WithResume(bool required) {
    resume_required_ = required;
    return *this;
  }

  /// Session epoch recorded into every journal write (the fencing token the
  /// coordinator stamps on its ctl requests; core/journal.h). Purely
  /// bookkeeping here — the transport enforces it.
  LinkageSession& WithSessionEpoch(uint64_t epoch) {
    session_epoch_ = epoch;
    return *this;
  }

  /// Executes the pipeline. InvalidArgument when a required ingredient
  /// (tables, releases, config, oracle) was not supplied.
  Result<HybridResult> Run();

 private:
  const Table* r_ = nullptr;
  const Table* s_ = nullptr;
  const AnonymizedTable* anon_r_ = nullptr;
  const AnonymizedTable* anon_s_ = nullptr;
  const HybridConfig* config_ = nullptr;
  MatchOracle* oracle_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  bool evaluate_ = false;
  std::string journal_path_;
  std::optional<Result<SessionJournal>> loaded_journal_;
  bool resume_required_ = false;
  uint64_t session_epoch_ = 1;
  int64_t max_batches_ = 0;
};

}  // namespace hprl

#endif  // HPRL_CORE_SESSION_H_
