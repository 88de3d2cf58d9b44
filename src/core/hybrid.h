#ifndef HPRL_CORE_HYBRID_H_
#define HPRL_CORE_HYBRID_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "anon/anonymizer.h"
#include "common/result.h"
#include "core/blocking.h"
#include "core/heuristics.h"
#include "linkage/oracle.h"
#include "obs/linkage_metrics.h"

namespace hprl {

/// Parameters of the hybrid private record linkage pipeline (paper §III).
struct HybridConfig {
  MatchRule rule;

  /// SMC allowance as a fraction of |R| x |S| (paper default: 1.5 %).
  double smc_allowance_fraction = 0.015;

  SelectionHeuristic heuristic = SelectionHeuristic::kMinAvgFirst;

  /// Seed for the Random heuristic.
  uint64_t random_seed = 42;

  /// When true, the matched record-pair (row_r, row_s) list is collected
  /// (memory-heavy on large inputs; off for the figure harnesses).
  bool collect_matches = false;

  /// Worker threads for the blocking step (1 = sequential; results are
  /// identical either way).
  int blocking_threads = 1;

  /// Pairs per oracle batch in the allowance drain — also the journal
  /// granularity: a journaled session persists progress after every
  /// completed batch, so a killed run resumes at the last multiple of this.
  /// Results are identical for every value (<= 0 falls back to 256).
  int64_t smc_batch_pairs = 256;
};

/// Outcome of one hybrid linkage run. All scalar outcome fields live in the
/// shared LinkageMetrics base (obs/linkage_metrics.h), so the run serializes
/// into the same JSON report shape as the baselines.
struct HybridResult : LinkageMetrics {
  /// Optional captured links (collect_matches).
  std::vector<std::pair<int64_t, int64_t>> matched_row_pairs;
};

/// Runs blocking + heuristic selection + the SMC step over pre-anonymized
/// releases, labeling unknown pairs with `oracle` until the allowance is
/// exhausted; the rest default to non-match (paper §V-B strategy 1,
/// maximizing precision).
///
/// Deprecated: thin wrapper over LinkageSession (core/session.h), which is
/// the primary API — it adds metrics/span instrumentation and a builder
/// interface. Kept so existing callers compile unchanged.
Result<HybridResult> RunHybridLinkage(const Table& r, const Table& s,
                                      const AnonymizedTable& anon_r,
                                      const AnonymizedTable& anon_s,
                                      const HybridConfig& config,
                                      MatchOracle& oracle);

/// Fills result->true_matches / recall / precision from exact ground truth.
/// Works on any LinkageMetrics-derived result (hybrid or baseline).
Status EvaluateRecall(const Table& r, const Table& s, const MatchRule& rule,
                      LinkageMetrics* result);

}  // namespace hprl

#endif  // HPRL_CORE_HYBRID_H_
