// Fault-injection matrix for the self-healing SMC layer: every deterministic
// fault schedule (drops, corruption, delays, crashes — smc/fault.h) must
// leave the pipeline with 100% precision and bit-identical results across
// thread counts; the zero-fault path must be byte-identical to a build
// without the fault layer; and a killed, journaled drain must resume to the
// same HybridResult as an uninterrupted run.
//
// HPRL_FAULT_SEED overrides the fault schedule seed (default 11) so the
// verify script can sweep several schedules without recompiling.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cli/spec.h"
#include "core/experiment.h"
#include "core/session.h"
#include "smc/fault.h"
#include "smc/smc_oracle.h"

namespace hprl {
namespace {

uint64_t FaultSeed() {
  const char* env = std::getenv("HPRL_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 11;
}

struct Workload {
  ExperimentData data;
  AnonymizedTable anon_r;
  AnonymizedTable anon_s;
  MatchRule rule;
};

const Workload& SmallWorkload() {
  static const Workload* w = [] {
    auto data = PrepareAdultData(80, 77);
    EXPECT_TRUE(data.ok());
    auto cfg = MakeAdultAnonConfig(*data, 3, 4);
    EXPECT_TRUE(cfg.ok());
    auto anonymizer = MakeMaxEntropyAnonymizer(*cfg);
    auto anon_r = anonymizer->Anonymize(data->split.d1);
    auto anon_s = anonymizer->Anonymize(data->split.d2);
    EXPECT_TRUE(anon_r.ok() && anon_s.ok());
    std::vector<VghPtr> vghs;
    for (const auto& n : adult::AdultQidNames()) {
      vghs.push_back(data->hierarchies.ByName(n));
    }
    auto rule =
        MakeUniformRule(data->schema, adult::AdultQidNames(), vghs, 3, 0.05);
    EXPECT_TRUE(rule.ok());
    return new Workload{std::move(data).value(), std::move(anon_r).value(),
                        std::move(anon_s).value(), std::move(rule).value()};
  }();
  return *w;
}

smc::SmcConfig TestSmcConfig() {
  smc::SmcConfig cfg;
  cfg.key_bits = 256;  // small key keeps the suite fast; semantics equal
  cfg.test_seed = 11;
  return cfg;
}

struct PipelineOutcome {
  HybridResult result;
  int64_t oracle_quarantined = 0;
  int64_t oracle_restarts = 0;
  std::map<std::string, int64_t> counters;
};

PipelineOutcome RunPipeline(const smc::FaultPlan& plan, int smc_threads,
                            int max_retries = 3,
                            const std::string& journal = "",
                            int64_t max_batches = 0,
                            Status* failure = nullptr) {
  const Workload& w = SmallWorkload();
  smc::SmcConfig cfg = TestSmcConfig();
  cfg.fault_plan = plan;
  cfg.max_retries = max_retries;
  smc::SmcMatchOracle oracle(cfg, w.rule, smc_threads);
  EXPECT_TRUE(oracle.Init().ok());
  obs::MetricsRegistry registry;
  HybridConfig hc;
  hc.rule = w.rule;
  hc.smc_allowance_fraction = 1.0;
  hc.collect_matches = true;
  hc.smc_batch_pairs = 16;  // several journaled batches per drain
  LinkageSession session;
  session.WithTables(w.data.split.d1, w.data.split.d2)
      .WithReleases(w.anon_r, w.anon_s)
      .WithConfig(hc)
      .WithOracle(oracle)
      .WithMetrics(&registry);
  if (!journal.empty()) session.WithJournal(journal);
  if (max_batches > 0) session.WithSmcBatchLimit(max_batches);
  auto out = session.Run();
  if (failure != nullptr) {
    *failure = out.status();
    if (!out.ok()) return {};
  }
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return {};
  return {std::move(out).value(), oracle.pairs_quarantined(),
          oracle.worker_restarts(), registry.CounterValues()};
}

std::set<std::pair<int64_t, int64_t>> PairSet(const HybridResult& r) {
  return {r.matched_row_pairs.begin(), r.matched_row_pairs.end()};
}

void ExpectIdenticalOutcome(const PipelineOutcome& a,
                            const PipelineOutcome& b) {
  EXPECT_EQ(a.result.matched_row_pairs, b.result.matched_row_pairs);
  EXPECT_EQ(a.result.smc_matched, b.result.smc_matched);
  EXPECT_EQ(a.result.smc_processed, b.result.smc_processed);
  EXPECT_EQ(a.result.quarantined_pairs, b.result.quarantined_pairs);
  EXPECT_EQ(a.result.reported_matches, b.result.reported_matches);
  EXPECT_EQ(a.result.unprocessed_pairs, b.result.unprocessed_pairs);
  EXPECT_EQ(a.oracle_quarantined, b.oracle_quarantined);
  // The fault schedule itself is thread-count invariant: same injections,
  // same healing work.
  for (const char* name :
       {"smc.retries", "smc.faults_injected", "smc.pairs_quarantined"}) {
    const int64_t in_a = a.counters.count(name) ? a.counters.at(name) : 0;
    const int64_t in_b = b.counters.count(name) ? b.counters.at(name) : 0;
    EXPECT_EQ(in_a, in_b) << name;
  }
}

// --- The fault matrix ---

struct Scenario {
  const char* name;
  double drop, corrupt, delay, crash;
  int delay_micros;
};

const Scenario kScenarios[] = {
    {"drop", 0.25, 0, 0, 0, 0},
    {"corrupt", 0, 0.25, 0, 0, 0},
    {"delay", 0, 0, 0.10, 0, 50},
    {"crash", 0, 0, 0, 0.05, 0},
    {"mixed", 0.10, 0.10, 0.05, 0.02, 25},
};

smc::FaultPlan PlanFor(const Scenario& s) {
  smc::FaultPlan plan;
  plan.seed = FaultSeed();
  plan.drop_rate = s.drop;
  plan.corrupt_rate = s.corrupt;
  plan.delay_rate = s.delay;
  plan.delay_micros = s.delay_micros;
  plan.crash_rate = s.crash;
  return plan;
}

// Every schedule completes, keeps 100% precision (reported links are a
// subset of the exact clean run's links), reports quarantined pairs
// separately from budget starvation, and is bit-identical across thread
// counts.
TEST(FaultMatrixTest, EverySchedulePreservesPrecisionAndDeterminism) {
  const PipelineOutcome clean = RunPipeline(smc::FaultPlan{}, 2);
  const auto exact_links = PairSet(clean.result);
  ASSERT_GT(exact_links.size(), 0u);
  EXPECT_EQ(clean.result.quarantined_pairs, 0);
  EXPECT_EQ(clean.oracle_quarantined, 0);

  for (const Scenario& s : kScenarios) {
    SCOPED_TRACE(s.name);
    const smc::FaultPlan plan = PlanFor(s);
    const PipelineOutcome serial = RunPipeline(plan, 1);
    const PipelineOutcome parallel = RunPipeline(plan, 4);

    // Same seed => bit-identical outcome for every thread count.
    ExpectIdenticalOutcome(serial, parallel);

    // 100% precision: every reported link is one the exact oracle reports.
    for (const auto& link : serial.result.matched_row_pairs) {
      EXPECT_TRUE(exact_links.count(link))
          << "false link (" << link.first << "," << link.second << ")";
    }
    EXPECT_LE(serial.result.smc_matched, clean.result.smc_matched);

    // Quarantine accounting: session tally == engine tally, and a
    // quarantined pair still counts as processed (degraded, not
    // budget-starved).
    EXPECT_EQ(serial.result.quarantined_pairs, serial.oracle_quarantined);
    EXPECT_EQ(serial.result.smc_processed, clean.result.smc_processed);
    EXPECT_EQ(serial.result.unprocessed_pairs, clean.result.unprocessed_pairs);
  }
}

// Crashes are the one fault retries cannot heal: the schedule must actually
// quarantine pairs and restart workers, and the run must still complete.
TEST(FaultMatrixTest, CrashesQuarantineAndRestartWorkers) {
  smc::FaultPlan plan;
  plan.seed = FaultSeed();
  plan.crash_rate = 0.05;
  const PipelineOutcome out = RunPipeline(plan, 4);
  EXPECT_GT(out.oracle_quarantined, 0);
  EXPECT_GT(out.oracle_restarts, 0);
  EXPECT_EQ(out.result.quarantined_pairs, out.oracle_quarantined);
  ASSERT_TRUE(out.counters.count("smc.pairs_quarantined"));
  EXPECT_EQ(out.counters.at("smc.pairs_quarantined"), out.oracle_quarantined);
  ASSERT_TRUE(out.counters.count("smc.worker_restarts"));
  EXPECT_EQ(out.counters.at("smc.worker_restarts"), out.oracle_restarts);
}

// Transient faults heal invisibly: with drops at a rate enough retries can
// absorb, the result is identical to the clean run and smc.retries records
// the healing work.
TEST(FaultMatrixTest, TransientFaultsHealToTheCleanResult) {
  const PipelineOutcome clean = RunPipeline(smc::FaultPlan{}, 2);
  smc::FaultPlan plan;
  plan.seed = FaultSeed();
  plan.drop_rate = 0.10;
  const PipelineOutcome healed = RunPipeline(plan, 2, /*max_retries=*/8);
  EXPECT_EQ(healed.result.matched_row_pairs, clean.result.matched_row_pairs);
  EXPECT_EQ(healed.result.quarantined_pairs, 0);
  ASSERT_TRUE(healed.counters.count("smc.retries"));
  EXPECT_GT(healed.counters.at("smc.retries"), 0);
  ASSERT_TRUE(healed.counters.count("smc.faults_injected"));
  EXPECT_GT(healed.counters.at("smc.faults_injected"), 0);
}

// --- Kill-then-resume ---

class ResumeTest : public ::testing::TestWithParam<int> {};

TEST_P(ResumeTest, KilledDrainResumesToTheUninterruptedResult) {
  const int smc_threads = GetParam();
  const std::string journal =
      (std::filesystem::temp_directory_path() /
       ("hprl_fault_test_resume_" + std::to_string(smc_threads) + ".jnl"))
          .string();
  std::filesystem::remove(journal);

  smc::FaultPlan plan;
  plan.seed = FaultSeed();
  plan.drop_rate = 0.10;
  plan.corrupt_rate = 0.05;

  const PipelineOutcome uninterrupted = RunPipeline(plan, smc_threads);

  // "Kill" the run after two flushed batches: the session aborts with
  // Unavailable, leaving the journal of the completed prefix behind.
  Status killed;
  RunPipeline(plan, smc_threads, 3, journal, /*max_batches=*/2, &killed);
  ASSERT_EQ(killed.code(), StatusCode::kUnavailable) << killed.ToString();
  ASSERT_TRUE(std::filesystem::exists(journal));

  // Resume with a fresh process-equivalent (new oracle, same seeds): the
  // drain continues at the last completed batch and converges to the
  // uninterrupted result.
  const PipelineOutcome resumed = RunPipeline(plan, smc_threads, 3, journal);
  EXPECT_EQ(resumed.result.resumed_pairs, 2 * 16);
  EXPECT_EQ(resumed.counters.at("linkage.resumed_pairs"), 2 * 16);
  EXPECT_EQ(resumed.result.matched_row_pairs,
            uninterrupted.result.matched_row_pairs);
  EXPECT_EQ(resumed.result.smc_matched, uninterrupted.result.smc_matched);
  EXPECT_EQ(resumed.result.smc_processed, uninterrupted.result.smc_processed);
  EXPECT_EQ(resumed.result.quarantined_pairs,
            uninterrupted.result.quarantined_pairs);
  EXPECT_EQ(resumed.result.unprocessed_pairs,
            uninterrupted.result.unprocessed_pairs);
  // A completed drain cleans up after itself.
  EXPECT_FALSE(std::filesystem::exists(journal));
}

INSTANTIATE_TEST_SUITE_P(SmcThreads, ResumeTest, ::testing::Values(1, 2));

// --- Transport edge cases ---

TEST(TransportTest, ExpectRejectsTagMismatchAsDesync) {
  smc::MessageBus bus;
  bus.Send({"a", "b", "hello", {1, 2, 3}});
  auto got = bus.Expect("b", "goodbye");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
}

TEST(TransportTest, ExpectDetectsCorruptedPayloads) {
  smc::FaultPlan plan;
  plan.seed = 7;
  plan.corrupt_rate = 1.0;
  smc::FaultyBus bus(plan);
  bus.SetPairContext(1, 2, 0);
  bus.Send({"a", "b", "data", {1, 2, 3, 4}});
  auto got = bus.Expect("b", "data");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
  EXPECT_EQ(bus.faults_injected(), 1);
}

TEST(TransportTest, DroppedMessagesComeUpNotFound) {
  smc::FaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 1.0;
  smc::FaultyBus bus(plan);
  bus.SetPairContext(1, 2, 0);
  bus.Send({"a", "b", "data", {1}});
  auto got = bus.Expect("b", "data");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(TransportTest, CrashesSurfaceAsUnavailable) {
  smc::FaultPlan plan;
  plan.seed = 7;
  plan.crash_rate = 1.0;
  smc::FaultyBus bus(plan);
  bus.SetPairContext(1, 2, 0);
  bus.Send({"a", "b", "data", {1}});
  auto got = bus.Expect("b", "data");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
}

TEST(TransportTest, KeySetupTrafficIsExemptFromFaults) {
  smc::FaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 1.0;
  plan.crash_rate = 1.0;
  smc::FaultyBus bus(plan);  // disarmed until the first SetPairContext
  bus.Send({"qp", "alice", "pubkey", {9}});
  auto got = bus.Expect("alice", "pubkey");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->payload, std::vector<uint8_t>{9});
}

TEST(TransportTest, SequenceNumbersRejectReplays) {
  struct OpenBus : smc::MessageBus {
    using smc::MessageBus::Enqueue;
  } bus;
  smc::Message msg{"a", "b", "data", {1, 2}, /*seq=*/5,
                   smc::PayloadChecksum({1, 2})};
  bus.Enqueue(msg);
  ASSERT_TRUE(bus.Expect("b", "data").ok());
  bus.Enqueue(msg);  // replayed: same sequence number
  auto replay = bus.Expect("b", "data");
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInternal);
}

// --- Receive-site ciphertext validation ---

TEST(ValidationTest, CiphertextRangePrecondition) {
  crypto::SecureRandom rng(11);
  auto kp = crypto::GeneratePaillierKeyPair(256, rng);
  ASSERT_TRUE(kp.ok());
  const auto& pub = kp->pub;

  EXPECT_EQ(pub.ValidateCiphertext(crypto::BigInt(0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pub.ValidateCiphertext(crypto::BigInt(-3)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pub.ValidateCiphertext(pub.n_squared()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(pub.ValidateCiphertext(crypto::BigInt(1)).ok());
  auto ct = pub.EncryptSigned(crypto::BigInt(42), rng);
  ASSERT_TRUE(ct.ok());
  EXPECT_TRUE(pub.ValidateCiphertext(*ct).ok());
  EXPECT_TRUE(kp->priv.ValidateCiphertext(*ct).ok());

  crypto::PaillierPublicKey empty;
  EXPECT_EQ(empty.ValidateCiphertext(crypto::BigInt(1)).code(),
            StatusCode::kFailedPrecondition);
}

// The protocol heals transient drops invisibly and accounts the replays.
TEST(ValidationTest, ComparatorRetriesTransientDrops) {
  const Workload& w = SmallWorkload();
  smc::SmcConfig clean_cfg = TestSmcConfig();
  smc::SecureRecordComparator clean(clean_cfg, w.rule);
  ASSERT_TRUE(clean.Init().ok());

  smc::SmcConfig faulty_cfg = TestSmcConfig();
  faulty_cfg.fault_plan.seed = FaultSeed();
  faulty_cfg.fault_plan.drop_rate = 0.2;
  smc::SecureRecordComparator faulty(faulty_cfg, w.rule);
  ASSERT_TRUE(faulty.Init().ok());

  const Table& r = w.data.split.d1;
  const Table& s = w.data.split.d2;
  int64_t compared = 0;
  for (int64_t i = 0; i < 6; ++i) {
    // The pair's row ids seed its fault schedule.
    const std::vector<RowPairRequest> unit = {{i, i, &r.row(i), &s.row(i)}};
    auto want = clean.CompareUnit(unit);
    ASSERT_TRUE(want.ok());
    auto got = faulty.CompareUnit(unit);
    if (!got.ok()) continue;  // quarantine-class: retries exhausted
    EXPECT_EQ(*got, *want) << i;
    ++compared;
  }
  EXPECT_GT(compared, 0);
  EXPECT_GT(faulty.costs().retries, 0);
}

// --- Spec-file validation (the CLI rejects degenerate numbers) ---

TEST(SpecValidationTest, RejectsNonFiniteAndNegativeNumbers) {
  auto parse = [](const std::string& text) {
    return cli::ParseLinkageSpec(text, "/tmp");
  };
  const std::string attr = "attr age numeric equiwidth 16 8 3,2,2";
  EXPECT_TRUE(parse(attr + " theta 0.05\n").ok());
  EXPECT_FALSE(parse(attr + " theta nan\n").ok());
  EXPECT_FALSE(parse(attr + " theta -0.5\n").ok());
  EXPECT_FALSE(parse(attr + " theta inf\n").ok());
  EXPECT_FALSE(
      parse("attr age numeric equiwidth nan 8 3,2,2 theta 0.05\n").ok());
  EXPECT_FALSE(parse(attr + "\nallowance nan\n").ok());
  EXPECT_FALSE(parse(attr + "\nallowance 1.5\n").ok());
  EXPECT_FALSE(parse(attr + "\nallowance -0.1\n").ok());
  EXPECT_TRUE(parse(attr + "\nallowance 0.5\n").ok());
  EXPECT_FALSE(parse(attr + "\nsmc_threads -2\n").ok());
  EXPECT_FALSE(parse(attr + "\nsmc_retries -1\n").ok());
  EXPECT_TRUE(parse(attr + "\nsmc_retries 5\n").ok());
}

TEST(SpecValidationTest, ParsesFaultDirectives) {
  const std::string base = "attr age numeric equiwidth 16 8 3,2,2 theta 0.05\n";
  auto spec = cli::ParseLinkageSpec(
      base +
          "fault seed 23\nfault drop 0.25\nfault corrupt 0.1\n"
          "fault delay 0.05 50\nfault crash 0.02\nsmc_retries 4\n",
      "/tmp");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->fault_seed, 23u);
  EXPECT_DOUBLE_EQ(spec->fault_drop, 0.25);
  EXPECT_DOUBLE_EQ(spec->fault_corrupt, 0.1);
  EXPECT_DOUBLE_EQ(spec->fault_delay, 0.05);
  EXPECT_EQ(spec->fault_delay_micros, 50);
  EXPECT_DOUBLE_EQ(spec->fault_crash, 0.02);
  EXPECT_EQ(spec->smc_retries, 4);

  EXPECT_FALSE(cli::ParseLinkageSpec(base + "fault drop 1.5\n", "/tmp").ok());
  EXPECT_FALSE(cli::ParseLinkageSpec(base + "fault drop nan\n", "/tmp").ok());
  EXPECT_FALSE(cli::ParseLinkageSpec(base + "fault warp 0.5\n", "/tmp").ok());
  EXPECT_FALSE(cli::ParseLinkageSpec(base + "fault seed -4\n", "/tmp").ok());
}

// --- Status plumbing for the new code ---

TEST(StatusTest, UnavailableFactoryAndPropagation) {
  Status s = Status::Unavailable("party died");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.ToString(), "Unavailable: party died");
  Result<int> r = s;
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace hprl
