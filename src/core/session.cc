#include "core/session.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/hash.h"
#include "core/journal.h"
#include "linkage/ground_truth.h"
#include "linkage/oracle.h"

namespace hprl {

namespace {

/// Binds a journal to one run shape: the tables' sizes, the blocking
/// outcome, the decision rule, and every knob that influences which pairs
/// the drain visits in which order. Two runs that agree on all of these
/// drain the identical pair sequence, so resuming one from the other's
/// journal is sound.
uint64_t RunFingerprint(const HybridConfig& config, const LinkageMetrics& m,
                        size_t order_size) {
  uint64_t h = 0x48505243ull;  // "HPRC"
  h = MixFp(h, static_cast<uint64_t>(m.rows_r));
  h = MixFp(h, static_cast<uint64_t>(m.rows_s));
  h = MixFp(h, static_cast<uint64_t>(m.total_pairs));
  h = MixFp(h, static_cast<uint64_t>(m.blocked_match_pairs));
  h = MixFp(h, static_cast<uint64_t>(m.blocked_mismatch_pairs));
  h = MixFp(h, static_cast<uint64_t>(m.unknown_pairs));
  h = MixFp(h, static_cast<uint64_t>(m.allowance_pairs));
  h = MixFp(h, static_cast<uint64_t>(order_size));
  h = MixFp(h, config.random_seed);
  h = MixFp(h, static_cast<uint64_t>(config.heuristic));
  h = MixFp(h, config.collect_matches ? 1 : 0);
  h = MixFp(h, std::bit_cast<uint64_t>(config.smc_allowance_fraction));
  for (const AttrRule& rule : config.rule.attrs) {
    h = MixFp(h, static_cast<uint64_t>(rule.attr_index));
    h = MixFp(h, static_cast<uint64_t>(rule.type));
    h = MixFp(h, std::bit_cast<uint64_t>(rule.theta));
    h = MixFp(h, std::bit_cast<uint64_t>(rule.norm));
  }
  return h;
}

}  // namespace

Result<HybridResult> LinkageSession::Run() {
  if (r_ == nullptr || s_ == nullptr) {
    return Status::InvalidArgument("LinkageSession: WithTables() not called");
  }
  if (anon_r_ == nullptr || anon_s_ == nullptr) {
    return Status::InvalidArgument(
        "LinkageSession: WithReleases() not called");
  }
  if (config_ == nullptr) {
    return Status::InvalidArgument("LinkageSession: WithConfig() not called");
  }
  if (oracle_ == nullptr) {
    return Status::InvalidArgument("LinkageSession: WithOracle() not called");
  }
  const Table& r = *r_;
  const Table& s = *s_;
  const AnonymizedTable& anon_r = *anon_r_;
  const AnonymizedTable& anon_s = *anon_s_;
  const HybridConfig& config = *config_;

  if (anon_r.num_rows != r.num_rows() || anon_s.num_rows != s.num_rows()) {
    return Status::InvalidArgument("anonymized releases do not cover tables");
  }
  // The SMC step needs the holder-side releases (with row ids); published
  // (row-free) releases only support blocking.
  auto covered = [](const AnonymizedTable& anon) {
    int64_t rows = 0;
    for (const auto& g : anon.groups) rows += static_cast<int64_t>(g.rows.size());
    return rows == anon.num_rows;
  };
  if (!covered(anon_r) || !covered(anon_s)) {
    return Status::FailedPrecondition(
        "hybrid linkage needs holder-side releases with row ids "
        "(published releases only support the blocking step)");
  }

  oracle_->AttachMetrics(metrics_);
  // Detach on every exit path: the oracle (and any background precompute
  // thread it owns, like the randomizer-pool filler) may outlive the per-run
  // registry, and must not touch it after Run returns.
  struct MetricsDetacher {
    MatchOracle* oracle;
    ~MetricsDetacher() { oracle->AttachMetrics(nullptr); }
  } detacher{oracle_};
  obs::ScopedSpan run_span(metrics_, "linkage");

  HybridResult out;
  out.rows_r = r.num_rows();
  out.rows_s = s.num_rows();
  out.sequences_r = anon_r.NumSequences();
  out.sequences_s = anon_s.NumSequences();

  obs::ScopedSpan block_span(metrics_, "block", &run_span);
  auto blocking = RunBlocking(anon_r, anon_s, config.rule,
                              config.blocking_threads, metrics_);
  if (!blocking.ok()) return blocking.status();
  out.blocking_seconds = block_span.Stop();

  out.total_pairs = blocking->total_pairs;
  out.blocked_match_pairs = blocking->matched_pairs;
  out.blocked_mismatch_pairs = blocking->mismatched_pairs;
  out.unknown_pairs = blocking->unknown_pairs;
  out.blocking_efficiency = blocking->BlockingEfficiency();
  out.reported_matches = blocking->matched_pairs;

  if (config.collect_matches) {
    // matched_pairs is exactly the number of row pairs the loop emits.
    out.matched_row_pairs.reserve(static_cast<size_t>(blocking->matched_pairs));
    for (const SequencePair& sp : blocking->matches) {
      for (int64_t rr : anon_r.groups[sp.group_r].rows) {
        for (int64_t sr : anon_s.groups[sp.group_s].rows) {
          out.matched_row_pairs.emplace_back(rr, sr);
        }
      }
    }
  }

  // --- SMC step under the allowance budget ---
  // smc_seconds keeps its historical meaning (selection + protocol); the
  // spans break it down into "linkage/select" and "linkage/smc".
  WallTimer smc_timer;
  out.allowance_pairs = static_cast<int64_t>(
      std::floor(config.smc_allowance_fraction *
                 static_cast<double>(blocking->total_pairs)));
  Rng rng(config.random_seed);
  obs::ScopedSpan select_span(metrics_, "select", &run_span);
  std::vector<size_t> order;
  if (out.allowance_pairs > 0) {
    if (out.allowance_pairs >= out.unknown_pairs) {
      // The budget covers every unknown pair, so ordering cannot change
      // which pairs are compared — skip the expected-distance sort and
      // drain in blocking order.
      order.resize(blocking->unknown.size());
      std::iota(order.begin(), order.end(), size_t{0});
      obs::Add(metrics_, "select.candidate_sequence_pairs",
               static_cast<int64_t>(order.size()));
    } else {
      order = OrderUnknownPairs(*blocking, anon_r, anon_s, config.rule,
                                config.heuristic, rng, metrics_);
    }
  }
  // With a zero allowance no pair can be compared; `order` stays empty and
  // the selection work is skipped entirely.
  select_span.Stop();

  // --- Resumable drain: restore progress from a matching journal ---
  const uint64_t fingerprint = RunFingerprint(config, out, order.size());
  // Index into out.matched_row_pairs where SMC-found links begin (blocking
  // links were appended above); the journal persists only the SMC part.
  const size_t smc_matches_begin = out.matched_row_pairs.size();
  int64_t resume_done = 0;
  if (!journal_path_.empty()) {
    obs::ScopedSpan resume_span(metrics_, "resume", &run_span);
    Result<SessionJournal> j = loaded_journal_.has_value()
                                   ? std::move(*loaded_journal_)
                                   : LoadSessionJournal(journal_path_);
    loaded_journal_.reset();  // a later Run() reads the file as it is then
    if (j.ok()) {
      if (j->fingerprint != fingerprint) {
        return Status::FailedPrecondition(
            "session journal " + journal_path_ +
            " belongs to a different run (fingerprint mismatch); "
            "delete it or point the session elsewhere");
      }
      resume_done = j->pairs_done;
      out.smc_matched = j->smc_matched;
      out.quarantined_pairs = j->quarantined;
      out.resumed_pairs = j->pairs_done;
      if (config.collect_matches) {
        out.matched_row_pairs.insert(out.matched_row_pairs.end(),
                                     j->matched_row_pairs.begin(),
                                     j->matched_row_pairs.end());
      }
      obs::Add(metrics_, "linkage.resumed_pairs", j->pairs_done);
    } else if (j.status().code() == StatusCode::kNotFound) {
      if (resume_required_) {
        return Status::InvalidArgument(
            "--resume requested but there is no session journal at " +
            journal_path_);
      }
    } else {
      // Corrupt. Never resume from it; whether that aborts the run depends
      // on intent: a strict resume must surface the damage, a fresh run
      // with journaling enabled just starts clean and overwrites it.
      if (resume_required_) return j.status();
      obs::Add(metrics_, "linkage.journal_rejected");
    }
  }

  obs::ScopedSpan smc_span(metrics_, "smc", &run_span);
  int64_t budget = out.allowance_pairs;
  const int64_t oracle_start = oracle_->invocations();
  // The allowance is drained in batches: requests are enqueued in exactly
  // the serial comparison order and CompareBatch writes each pair's label
  // into its request slot, so results (and with them matched_row_pairs,
  // smc_matched and the budget) are identical to pair-at-a-time draining
  // for every oracle thread count.
  const size_t batch_pairs = config.smc_batch_pairs > 0
                                 ? static_cast<size_t>(config.smc_batch_pairs)
                                 : size_t{256};
  std::vector<RowPairRequest> batch;
  batch.reserve(batch_pairs);
  int64_t pairs_done = resume_done;
  int64_t batches_flushed = 0;
  auto flush = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    auto labels = oracle_->CompareBatch(batch);
    if (!labels.ok()) return labels.status();
    for (size_t i = 0; i < batch.size(); ++i) {
      if ((*labels)[i] == kPairMatch) {
        ++out.smc_matched;
        if (config.collect_matches) {
          out.matched_row_pairs.emplace_back(batch[i].a_id, batch[i].b_id);
        }
      } else if ((*labels)[i] == kPairQuarantined) {
        ++out.quarantined_pairs;
      }
    }
    pairs_done += static_cast<int64_t>(batch.size());
    batch.clear();
    ++batches_flushed;
    if (!journal_path_.empty()) {
      SessionJournal j;
      j.fingerprint = fingerprint;
      j.epoch = session_epoch_;
      j.pairs_done = pairs_done;
      j.smc_matched = out.smc_matched;
      j.quarantined = out.quarantined_pairs;
      j.shards = oracle_->ShardDispositions();
      if (config.collect_matches) {
        j.matched_row_pairs.assign(
            out.matched_row_pairs.begin() +
                static_cast<int64_t>(smc_matches_begin),
            out.matched_row_pairs.end());
      }
      // A journal that cannot be written (a full disk, say) is a local
      // storage failure, not a transport one: report it unclassified.
      Status saved = SaveSessionJournal(journal_path_, j);
      if (!saved.ok()) {
        return Status::Internal("session journal save failed: " +
                                saved.message());
      }
    }
    if (max_batches_ > 0 && batches_flushed >= max_batches_) {
      return Status::Unavailable(
          "smc batch limit reached (simulated interruption)");
    }
    return Status::OK();
  };
  int64_t emitted = 0;  // pairs drawn from the allowance, drain order
  for (size_t idx : order) {
    if (budget <= 0) break;
    const SequencePair& sp = blocking->unknown[idx];
    const auto& rows_r = anon_r.groups[sp.group_r].rows;
    const auto& rows_s = anon_s.groups[sp.group_s].rows;
    bool exhausted = false;
    for (size_t a = 0; a < rows_r.size() && !exhausted; ++a) {
      for (size_t b = 0; b < rows_s.size(); ++b) {
        if (budget <= 0) {
          exhausted = true;
          break;
        }
        --budget;
        ++emitted;
        if (emitted <= resume_done) {
          continue;  // labeled by the journaled run; counts restored
        }
        batch.push_back({rows_r[a], rows_s[b], &r.row(rows_r[a]),
                         &s.row(rows_s[b])});
        if (batch.size() >= batch_pairs) {
          HPRL_RETURN_IF_ERROR(flush());
        }
      }
    }
  }
  HPRL_RETURN_IF_ERROR(flush());
  smc_span.Stop();
  // Resumed pairs were protocol invocations of the interrupted run; the
  // budget accounting stays whole across the kill.
  out.smc_processed = (oracle_->invocations() - oracle_start) + resume_done;
  out.unprocessed_pairs = out.unknown_pairs - out.smc_processed;
  out.reported_matches += out.smc_matched;
  out.smc_seconds = smc_timer.ElapsedSeconds();
  if (!journal_path_.empty()) {
    // The drain completed; the journal has served its purpose, and a stale
    // file must not leak into an unrelated future run.
    std::remove(journal_path_.c_str());
  }

  obs::Add(metrics_, "smc.allowance_pairs", out.allowance_pairs);
  obs::Add(metrics_, "smc.invocations", out.smc_processed);
  obs::Add(metrics_, "smc.matched", out.smc_matched);
  obs::Add(metrics_, "smc.quarantined", out.quarantined_pairs);
  obs::Add(metrics_, "linkage.reported_matches", out.reported_matches);

  if (evaluate_) {
    obs::ScopedSpan eval_span(metrics_, "evaluate", &run_span);
    HPRL_RETURN_IF_ERROR(EvaluateRecall(r, s, config.rule, &out));
  }
  return out;
}

}  // namespace hprl
