#ifndef HPRL_OBS_LINKAGE_METRICS_H_
#define HPRL_OBS_LINKAGE_METRICS_H_

#include <cstdint>

namespace hprl {

/// The shared, machine-readable outcome of any linkage run — hybrid,
/// baseline, or file-driven. HybridResult and BaselineResult derive from
/// this struct, so one JSON serializer (obs/report.h) covers every method
/// and a baseline row diffs field-by-field against a hybrid row.
///
/// Fields a method does not produce keep their defaults (-1 for "not
/// evaluated" counters, 0 elsewhere); the serializer emits them anyway so
/// the schema is stable across methods.
struct LinkageMetrics {
  // Inputs.
  int64_t rows_r = 0;
  int64_t rows_s = 0;
  int64_t sequences_r = 0;  ///< generalization sequences in R's release
  int64_t sequences_s = 0;

  // Blocking step (paper §IV slack decision rule).
  int64_t total_pairs = 0;            ///< |R| x |S|
  int64_t blocked_match_pairs = 0;    ///< M record pairs
  int64_t blocked_mismatch_pairs = 0; ///< N record pairs
  int64_t unknown_pairs = 0;          ///< U record pairs
  double blocking_efficiency = 0;     ///< (M + N) / total

  // SMC step (paper §V) under the allowance budget.
  int64_t allowance_pairs = 0;   ///< budgeted protocol invocations
  int64_t smc_processed = 0;     ///< invocations actually spent
  int64_t smc_matched = 0;       ///< matches confirmed by the SMC step
  int64_t unprocessed_pairs = 0; ///< U pairs defaulted to non-match

  // Degradation accounting (fault injection / resume; 0 on clean runs).
  /// Pairs the protocol could not label because of persistent transport
  /// faults; conservatively non-matches, reported separately from both
  /// smc_matched and the budget-starved unprocessed_pairs.
  int64_t quarantined_pairs = 0;
  /// Pairs whose labels were restored from a session journal instead of
  /// being recomputed (counted inside smc_processed).
  int64_t resumed_pairs = 0;

  // Outcome.
  int64_t reported_matches = 0;
  /// Of the reported links, how many are real (-1 = not evaluated). The
  /// hybrid method reports only provable links, so there it equals
  /// reported_matches whenever it is set.
  int64_t true_reported_matches = -1;

  // Wall-clock timings (seconds).
  double anon_seconds = 0;
  double blocking_seconds = 0;
  double smc_seconds = 0;
  /// Offline/online phase split of the SMC step: offline covers setup that
  /// does not depend on the records — key generation, material-store
  /// load/adopt, randomizer prewarm (near zero on a warm store) — while
  /// online is the per-pair protocol wall clock (== smc_seconds).
  double offline_seconds = 0;
  double online_seconds = 0;

  // Evaluation against ground truth (-1 until EvaluateRecall runs).
  int64_t true_matches = -1;
  double recall = 0;
  double precision = 1.0;
};

}  // namespace hprl

#endif  // HPRL_OBS_LINKAGE_METRICS_H_
