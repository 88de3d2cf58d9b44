#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "adult/adult.h"
#include "cli/plan.h"
#include "cli/runner.h"
#include "cli/serve_runner.h"
#include "cli/spec.h"
#include "common/exit_codes.h"
#include "data/csv.h"
#include "common/string_util.h"
#include "data/partition.h"
#include "hierarchy/vgh_parser.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace hprl::cli {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- spec

TEST(SpecParserTest, ParsesFullSpec) {
  const char* text = R"(
# demo spec
attr age numeric equiwidth 16 8 3,2,2 theta 0.05
attr education categorical vghfile edu.vgh theta 0.05
attr surname text theta 1
class income
sensitive income ldiv 2
k 16
allowance 0.02
heuristic MaxLast
anonymizer DataFly
keybits 512
)";
  auto spec = ParseLinkageSpec(text, "/base");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->attrs.size(), 3u);
  EXPECT_EQ(spec->attrs[0].type, AttrType::kNumeric);
  EXPECT_DOUBLE_EQ(spec->attrs[0].lo, 16);
  EXPECT_EQ(spec->attrs[0].fanouts, (std::vector<int>{3, 2, 2}));
  EXPECT_EQ(spec->attrs[1].vgh_file, "/base/edu.vgh");
  EXPECT_EQ(spec->attrs[2].type, AttrType::kText);
  EXPECT_DOUBLE_EQ(spec->attrs[2].theta, 1.0);
  EXPECT_EQ(spec->class_attr, "income");
  EXPECT_EQ(spec->l_diversity, 2);
  EXPECT_EQ(spec->k, 16);
  EXPECT_DOUBLE_EQ(spec->allowance, 0.02);
  EXPECT_EQ(spec->heuristic, SelectionHeuristic::kMaxLast);
  EXPECT_EQ(spec->anonymizer, "DataFly");
  EXPECT_EQ(spec->key_bits, 512);
}

TEST(SpecParserTest, NumericVghFileVariant) {
  auto spec =
      ParseLinkageSpec("attr hours numeric vghfile hrs.vgh theta 0.2\n", "/d");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->attrs[0].type, AttrType::kNumeric);
  EXPECT_EQ(spec->attrs[0].vgh_file, "/d/hrs.vgh");
  EXPECT_TRUE(spec->attrs[0].fanouts.empty());
}

TEST(SpecParserTest, ThreadsDirective) {
  auto spec = ParseLinkageSpec("attr x text\nthreads 4\n", ".");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->threads, 4);
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nthreads 0\n", ".").ok());

  auto auto_spec = ParseLinkageSpec("attr x text\nthreads auto\n", ".");
  ASSERT_TRUE(auto_spec.ok());
  EXPECT_EQ(auto_spec->threads, 0);
}

TEST(SpecParserTest, SmcThreadsDirective) {
  auto spec = ParseLinkageSpec("attr x text\nsmc_threads 3\n", ".");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->smc_threads, 3);
  EXPECT_EQ(spec->threads, 0);  // independent knobs
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nsmc_threads 0\n", ".").ok());

  auto auto_spec = ParseLinkageSpec("attr x text\nsmc_threads auto\n", ".");
  ASSERT_TRUE(auto_spec.ok());
  EXPECT_EQ(auto_spec->smc_threads, 0);
}

TEST(SpecParserTest, DefaultsApply) {
  auto spec = ParseLinkageSpec("attr age numeric equiwidth 0 10 4\n", ".");
  ASSERT_TRUE(spec.ok());
  // 0 = auto: the runner resolves both to hardware_concurrency.
  EXPECT_EQ(spec->threads, 0);
  EXPECT_EQ(spec->smc_threads, 0);
  EXPECT_EQ(spec->k, 32);
  EXPECT_DOUBLE_EQ(spec->allowance, 0.015);
  EXPECT_EQ(spec->heuristic, SelectionHeuristic::kMinAvgFirst);
  EXPECT_EQ(spec->anonymizer, "MaxEntropy");
  EXPECT_EQ(spec->key_bits, 0);
  EXPECT_DOUBLE_EQ(spec->attrs[0].theta, 0.05);
}

TEST(SpecParserTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseLinkageSpec("", ".").ok());           // no attrs
  EXPECT_FALSE(ParseLinkageSpec("bogus 1\n", ".").ok());  // unknown directive
  EXPECT_FALSE(ParseLinkageSpec("attr x numeric theta 0.1\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x categorical theta 0.1\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x wrongtype\n", ".").ok());
  EXPECT_FALSE(
      ParseLinkageSpec("attr x numeric equiwidth 0 8 2 theta -1\n", ".").ok());
  EXPECT_FALSE(
      ParseLinkageSpec("attr x text\nallowance 2\n", ".").ok());  // > 1
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nk 0\n", ".").ok());
  EXPECT_FALSE(
      ParseLinkageSpec("attr x text\nheuristic Bogus\n", ".").ok());
  EXPECT_FALSE(
      ParseLinkageSpec("attr x text\nsensitive y ldiv x\n", ".").ok());
}

TEST(SpecParserTest, MembershipDirectives) {
  auto spec = ParseLinkageSpec(
      "attr x text\nhb_interval 120\nsuspect_misses 3\ndead_misses 9\n", ".");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->hb_interval_ms, 120);
  EXPECT_EQ(spec->suspect_misses, 3);
  EXPECT_EQ(spec->dead_misses, 9);

  auto defaults = ParseLinkageSpec("attr x text\n", ".");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->hb_interval_ms, 250);
  EXPECT_EQ(defaults->suspect_misses, 2);
  EXPECT_EQ(defaults->dead_misses, 4);
}

TEST(SpecParserTest, RejectsBadMembershipDirectives) {
  // The probe cadence must be a finite positive millisecond count — and
  // ParseDouble accepts "nan"/"inf", so the parser must too reject those.
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nhb_interval 0\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nhb_interval -5\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nhb_interval nan\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nhb_interval inf\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nhb_interval soon\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nsuspect_misses 0\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\ndead_misses 0\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\ndead_misses -1\n", ".").ok());
  // Dead must come strictly after suspect or a replica could skip the
  // recoverable state entirely.
  EXPECT_FALSE(
      ParseLinkageSpec("attr x text\nsuspect_misses 4\ndead_misses 4\n", ".")
          .ok());
  EXPECT_FALSE(
      ParseLinkageSpec("attr x text\nsuspect_misses 5\ndead_misses 3\n", ".")
          .ok());
}

// Variant specs are built by appending directives to a base spec, which
// relies on this rule: a repeated scalar directive takes its last value, a
// directive that names only some of its fields leaves the others alone,
// cross-directive checks judge the final values, and attr lines append.
TEST(SpecParserTest, LaterDirectiveReplacesAnEarlierOne) {
  auto spec = ParseLinkageSpec(
      "attr x text\n"
      "shards 1\nsmc_seed 4242\nfault delay 0.5 50\nhb_interval 250\n"
      "smc_pack 8 48\nsuspect_misses 2\ndead_misses 4\n"
      "attr y text\n"
      "shards 2\nsmc_seed 7\nfault delay 1\nhb_interval 100\n"
      "smc_pack 4\nsuspect_misses 5\ndead_misses 9\n",
      ".");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->shards, 2);
  EXPECT_EQ(spec->smc_seed, 7u);
  EXPECT_DOUBLE_EQ(spec->fault_delay, 1.0);
  EXPECT_EQ(spec->fault_delay_micros, 50);  // not named again: kept
  EXPECT_EQ(spec->hb_interval_ms, 100);
  EXPECT_EQ(spec->smc_pack, 4);
  EXPECT_EQ(spec->smc_pack_slot_bits, 48);  // not named again: kept
  EXPECT_EQ(spec->suspect_misses, 5);
  EXPECT_EQ(spec->dead_misses, 9);
  ASSERT_EQ(spec->attrs.size(), 2u);
  EXPECT_EQ(spec->attrs[0].name, "x");
  EXPECT_EQ(spec->attrs[1].name, "y");
}

// ---------------------------------------------------------------- exit codes

TEST(ExitCodeTest, TaxonomyMapsStatusFamilies) {
  EXPECT_EQ(ExitCodeForStatus(Status::OK()), kExitOk);
  // Config/usage family: the operator wrote something wrong.
  EXPECT_EQ(ExitCodeForStatus(Status::InvalidArgument("x")), kExitConfig);
  EXPECT_EQ(ExitCodeForStatus(Status::NotFound("x")), kExitConfig);
  // Transport family: peers or the wire, retryable from outside.
  EXPECT_EQ(ExitCodeForStatus(Status::Unavailable("x")), kExitTransport);
  EXPECT_EQ(ExitCodeForStatus(Status::IOError("x")), kExitTransport);
  // Integrity family: crypto material / journal / fencing refusals.
  EXPECT_EQ(ExitCodeForStatus(Status::FailedPrecondition("x")),
            kExitIntegrity);
  // Everything else stays the generic failure.
  EXPECT_EQ(ExitCodeForStatus(Status::Internal("x")), kExitFailure);
  EXPECT_EQ(ExitCodeForStatus(Status::Unimplemented("x")), kExitFailure);
  EXPECT_EQ(ExitCodeForStatus(Status::OutOfRange("x")), kExitFailure);
}

// ---------------------------------------------------------------- runner

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "hprl_cli_test";
    fs::create_directories(dir_);

    // Materialize a small Adult-like scenario on disk.
    auto h = adult::BuildAdultHierarchies();
    Table source = adult::GenerateAdult(450, 1234, h);
    Rng rng(5);
    auto split = SplitForLinkage(source, rng);
    ASSERT_TRUE(split.ok());
    ASSERT_TRUE(WriteCsv(split->d1, (dir_ / "r.csv").string()).ok());
    ASSERT_TRUE(WriteCsv(split->d2, (dir_ / "s.csv").string()).ok());

    // VGH files for the categorical QIDs.
    for (const char* name : {"workclass", "education", "marital-status"}) {
      std::ofstream out(dir_ / (std::string(name) + ".vgh"));
      out << FormatCategoricalVgh(*h.ByName(name));
    }
    std::ofstream spec(dir_ / "linkage.spec");
    spec << "attr age numeric equiwidth 16 8 3,2,2 theta 0.05\n"
         << "attr workclass categorical vghfile workclass.vgh theta 0.05\n"
         << "attr education categorical vghfile education.vgh theta 0.05\n"
         << "attr marital-status categorical vghfile marital-status.vgh "
            "theta 0.05\n"
         << "class income\n"
         << "k 8\n"
         << "allowance 1.0\n";
  }

  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(RunnerTest, EndToEndFromFiles) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  RunnerOptions options;
  options.evaluate = true;
  options.links_out = (dir_ / "links.csv").string();
  options.release_r_out = (dir_ / "release_r.txt").string();
  options.publish_releases = true;

  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->result.rows_r, 300);
  EXPECT_EQ(report->result.rows_s, 300);
  EXPECT_EQ(report->oracle, "plaintext");
  // allowance 1.0 => everything labeled => perfect recall.
  EXPECT_DOUBLE_EQ(report->result.recall, 1.0);
  EXPECT_GE(report->result.true_matches, 150);  // the shared d3 block

  // Side outputs exist and have the expected shape.
  auto raw = ReadCsvRaw(options.links_out);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->header, (std::vector<std::string>{"row_r", "row_s"}));
  EXPECT_EQ(static_cast<int64_t>(raw->rows.size()),
            report->result.reported_matches);

  std::ifstream release(options.release_r_out);
  std::string first_line;
  ASSERT_TRUE(std::getline(release, first_line));
  EXPECT_EQ(first_line, "hprl-release 1");

  // The textual summary mentions the key numbers.
  std::string text = report->ToString();
  EXPECT_NE(text.find("R=300 rows"), std::string::npos);
  EXPECT_NE(text.find("recall 100.00%"), std::string::npos);
}

TEST_F(RunnerTest, RealPaillierOracleThroughTheCli) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  spec->key_bits = 256;       // real crypto, small key for speed
  spec->allowance = 0.002;    // keep the invocation count tiny
  RunnerOptions options;
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->oracle, "paillier-256");
  EXPECT_LE(report->result.smc_processed, report->result.allowance_pairs);
}

// Every SMC unit is packed: `smc_pack 0` and a slot cap below what an
// attribute's declared domain needs, which used to fall back to scalar
// units, are configuration errors (hprl_link exit 2) whose message says
// what to change.
TEST_F(RunnerTest, UnpackableSmcPlanIsAConfigErrorWithMigrationText) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  spec->key_bits = 256;
  spec->allowance = 0.002;
  auto run = [&](const LinkageSpec& variant) {
    return RunLinkageFromFiles(variant, (dir_ / "r.csv").string(),
                               (dir_ / "s.csv").string(), RunnerOptions());
  };
  ASSERT_TRUE(run(*spec).ok());

  LinkageSpec unpacked = *spec;
  unpacked.smc_pack = 0;
  auto refused = run(unpacked);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(ExitCodeForStatus(refused.status()), kExitConfig);
  EXPECT_NE(refused.status().message().find(
                "scalar SMC units were removed and every unit is packed; set "
                "smc_pack <pairs> [slot_bits] with pairs >= 1"),
            std::string::npos)
      << refused.status().ToString();

  LinkageSpec narrow = *spec;
  narrow.smc_pack_slot_bits = 16;  // age's slot needs 36 bits
  refused = run(narrow);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(ExitCodeForStatus(refused.status()), kExitConfig);
  EXPECT_NE(refused.status().message().find(
                "attribute 'age' needs a 36-bit slot, wider than smc_pack's "
                "slot_bits 16; scalar SMC units were removed, so raise "
                "slot_bits to at least 36"),
            std::string::npos)
      << refused.status().ToString();

  // The plaintext oracle runs no SMC unit, so it plans none.
  unpacked.key_bits = 0;
  EXPECT_TRUE(run(unpacked).ok());
}

TEST_F(RunnerTest, ThreadsOverrideMatchesSequentialRun) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());

  RunnerOptions options;
  spec->threads = 1;
  auto base = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                  (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  spec->threads = 4;
  auto out = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                 (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // The blocking decision rule is deterministic: worker count must not
  // change a single M/N/U tally nor anything downstream of them.
  EXPECT_EQ(out->result.blocked_match_pairs, base->result.blocked_match_pairs);
  EXPECT_EQ(out->result.blocked_mismatch_pairs,
            base->result.blocked_mismatch_pairs);
  EXPECT_EQ(out->result.unknown_pairs, base->result.unknown_pairs);
  EXPECT_EQ(out->result.reported_matches, base->result.reported_matches);
  EXPECT_EQ(out->result.smc_processed, base->result.smc_processed);
}

TEST_F(RunnerTest, MetricsOutWritesParsableRunReport) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());

  RunnerOptions options;
  options.evaluate = true;
  options.metrics_out = (dir_ / "run.json").string();
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::ifstream in(options.metrics_out);
  ASSERT_TRUE(in.is_open());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto json = obs::ParseJson(text);
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  EXPECT_EQ(json->Find("schema")->AsString(), "hprl-run-report/1");
  EXPECT_EQ(json->Find("tool")->AsString(), "hprl_link");

  const obs::JsonValue* metrics = json->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("rows_r")->AsInt(), report->result.rows_r);
  EXPECT_EQ(metrics->Find("unknown_pairs")->AsInt(),
            report->result.unknown_pairs);
  EXPECT_EQ(metrics->Find("reported_matches")->AsInt(),
            report->result.reported_matches);

  // The registry dump carries the pipeline counters and the stage spans.
  const obs::JsonValue* counters = json->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("blocking.pairs_total")->AsInt(),
            report->result.total_pairs);
  EXPECT_EQ(counters->Find("smc.invocations")->AsInt(),
            report->result.smc_processed);
  EXPECT_GT(counters->Find("anon.groups")->AsInt(), 0);

  const obs::JsonValue* spans = json->Find("spans");
  ASSERT_NE(spans, nullptr);
  for (const char* path : {"linkage/anonymize", "linkage", "linkage/block",
                           "linkage/select", "linkage/smc",
                           "linkage/evaluate"}) {
    ASSERT_NE(spans->Find(path), nullptr) << path;
    EXPECT_GE(spans->Find(path)->Find("seconds")->AsDouble(), 0.0) << path;
  }
}

TEST_F(RunnerTest, ExternalRegistrySeesPipelineCounters) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  obs::MetricsRegistry registry;
  RunnerOptions options;
  options.metrics = &registry;
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto counters = registry.CounterValues();
  EXPECT_EQ(counters["blocking.pairs_total"], report->result.total_pairs);
  EXPECT_EQ(counters["linkage.reported_matches"],
            report->result.reported_matches);
}

TEST_F(RunnerTest, ResumeFlagRequiresAJournalPath) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.resume = true;
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RunnerTest, ResumeWithoutAJournalFileIsRefused) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.resume = true;
  options.journal = (dir_ / "never_written.jnl").string();
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("no session journal"),
            std::string::npos);
}

TEST_F(RunnerTest, CorruptJournalAbortsAStrictResume) {
  const std::string journal = (dir_ / "damaged.jnl").string();
  {
    std::ofstream out(journal, std::ios::binary);
    out << "HPRLJNL1 but then garbage";
  }
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.resume = true;
  options.journal = journal;
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RunnerTest, CorruptJournalWithoutResumeStartsCleanAndCompletes) {
  const std::string journal = (dir_ / "stale.jnl").string();
  {
    std::ofstream out(journal, std::ios::binary);
    out << "not a journal at all";
  }
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.journal = journal;  // journaling on, but no strict resume
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The damaged file was never resumed from, and the completed run cleaned
  // up after itself.
  EXPECT_EQ(report->result.resumed_pairs, 0);
  EXPECT_FALSE(fs::exists(journal));
}

TEST_F(RunnerTest, CompletedRunRemovesItsJournal) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.journal = (dir_ / "run.jnl").string();
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(fs::exists(options.journal));
}

TEST_F(RunnerTest, FullDiskJournalSaveExitsUnclassified) {
  // Writes to /dev/full fail at the flush, as on a full disk. That is local
  // storage trouble: exit 3 would send a supervisor after a dead fleet.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.journal = (dir_ / "full.jnl").string();
  fs::create_symlink("/dev/full", options.journal + ".tmp");
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("session journal save failed"),
            std::string::npos)
      << report.status().ToString();
  EXPECT_EQ(ExitCodeForStatus(report.status()), kExitFailure);
}

TEST_F(RunnerTest, MissingColumnIsReported) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  spec->attrs[0].name = "not-a-column";
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), {});
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST_F(RunnerTest, UnknownCategoryIsReportedWithRowContext) {
  // Corrupt one field of r.csv's sixth data row (line 7) so it no longer
  // matches the VGH leaves.
  std::vector<std::string> lines;
  {
    std::ifstream in(dir_ / "r.csv");
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 6u);
  std::vector<std::string> header = Split(lines[0], ',');
  auto col = std::find(header.begin(), header.end(), "education");
  ASSERT_NE(col, header.end());
  std::vector<std::string> fields = Split(lines[6], ',');
  fields[col - header.begin()] = "PhD-in-something-else";
  lines[6] = Join(fields, ",");
  {
    std::ofstream out(dir_ / "r.csv");
    for (const std::string& line : lines) out << line << "\n";
  }
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), {});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("row 6"), std::string::npos);
}

// Typed's error text, verbatim: the first failing cell in row-major order
// (rows, then the spec's attribute order), located as "<which> row <n>".
TEST_F(RunnerTest, TypedErrorTextIsStable) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  auto plan = BuildPlan(*spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto typed = [&](const std::string& body) {
    const fs::path path = dir_ / "typed.csv";
    {
      std::ofstream out(path);
      out << "income,marital-status,education,workclass,age\n" << body;
    }
    auto raw = ReadCsvRaw(path.string());
    EXPECT_TRUE(raw.ok()) << raw.status().ToString();
    return Typed(*raw, *plan, "S");
  };
  auto ok = typed("a,Never-married,Bachelors,Private,39\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();

  // Bachelors is cached as a valid education before it shows up, invalid,
  // as a workclass.
  auto bad_cat = typed(
      "a,Never-married,Bachelors,Private,39\n"
      "a,Never-married,Bachelors,Bachelors,39\n"
      "a,Never-married,Bachelors,Private,forty\n");
  ASSERT_FALSE(bad_cat.ok());
  EXPECT_EQ(bad_cat.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad_cat.status().message(),
            "S row 2: 'Bachelors' is not a leaf of workclass's hierarchy");

  // Row 3 fails twice; age comes first in the spec.
  auto bad_num = typed(
      "a,Never-married,Bachelors,Private,39\n"
      "a,Never-married,Bachelors,Private,39\n"
      "a,Never-married,Bachelors,Bachelors,forty\n");
  ASSERT_FALSE(bad_num.ok());
  EXPECT_EQ(bad_num.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_num.status().message(), "S row 3: bad numeric 'forty' for age");
}

// The class column's category ids are first-seen order over R, then S.
TEST_F(RunnerTest, ClassIdsFollowFirstSeenOrderAcrossInputs) {
  auto write = [&](const char* name, const std::string& body) {
    std::ofstream out(dir_ / name);
    out << "age,workclass,education,marital-status,income\n" << body;
  };
  write("cls_r.csv",
        "39,Private,Bachelors,Never-married,>50K\n"
        "40,Private,Bachelors,Never-married,<=50K\n"
        "41,Private,Bachelors,Never-married,>50K\n");
  write("cls_s.csv",
        "39,Private,Bachelors,Never-married,unknown\n"
        "40,Private,Bachelors,Never-married,<=50K\n");
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  auto raw_r = ReadCsvRaw((dir_ / "cls_r.csv").string());
  auto raw_s = ReadCsvRaw((dir_ / "cls_s.csv").string());
  ASSERT_TRUE(raw_r.ok() && raw_s.ok());
  auto plan = BuildPlan(*spec, &*raw_r, &*raw_s);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const int cls = plan->schema->FindIndex("income");
  ASSERT_GE(cls, 0);
  EXPECT_EQ(plan->schema->attribute(cls).domain->labels(),
            (std::vector<std::string>{">50K", "<=50K", "unknown"}));
  auto r = Typed(*raw_r, *plan, "R");
  auto s = Typed(*raw_s, *plan, "S");
  ASSERT_TRUE(r.ok() && s.ok());
  std::vector<int32_t> ids;
  for (const Table* t : {&*r, &*s}) {
    for (int64_t row = 0; row < t->num_rows(); ++row) {
      ids.push_back(t->at(row, cls).category());
    }
  }
  EXPECT_EQ(ids, (std::vector<int32_t>{0, 1, 0, 2, 1}));
}

// ---------------------------------------------------------------- serve

/// RunServeFromFiles over a delta stream built from the fixture's tables:
/// tenant "acme" inserts its first rows of R, then its first rows of S.
class ServeRunnerTest : public RunnerTest {
 protected:
  void SetUp() override {
    RunnerTest::SetUp();
    std::ofstream out(dir_ / "deltas.csv");
    bool header = true;
    for (const char* side : {"r", "s"}) {
      std::ifstream in(dir_ / (std::string(side) + ".csv"));
      std::string line;
      std::getline(in, line);
      if (header) out << "op,tenant,side,row_id," << line << '\n';
      header = false;
      for (int row = 0; row < kRowsPerSide && std::getline(in, line); ++row) {
        out << "insert,acme," << side << ',' << row << ',' << line << '\n';
      }
    }
  }

  /// The fixture's spec plus `extra` directives, the way a variant spec is
  /// written: appended lines replace the base file's values.
  LinkageSpec SpecWith(const std::string& extra) {
    std::ifstream base(dir_ / "linkage.spec");
    std::ostringstream text;
    text << base.rdbuf() << extra;
    std::ofstream(dir_ / "variant.spec") << text.str();
    auto spec = LoadLinkageSpec((dir_ / "variant.spec").string());
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    return spec.ok() ? *spec : LinkageSpec{};
  }

  static constexpr int kRowsPerSide = 40;
};

TEST_F(ServeRunnerTest, DelayOnlyFaultPlanKeepsTheLinks) {
  const std::string smc = "keybits 256\nsmc_seed 4242\n";
  ServeRunnerOptions clean;
  clean.links_out = (dir_ / "links_clean.csv").string();
  auto base = RunServeFromFiles(SpecWith(smc),
                                (dir_ / "deltas.csv").string(), clean);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_GT(base->smc_pairs, 0);
  ASSERT_GT(base->links, 0);

  obs::MetricsRegistry registry;
  ServeRunnerOptions faulty;
  faulty.links_out = (dir_ / "links_faulty.csv").string();
  faulty.metrics = &registry;
  auto out = RunServeFromFiles(
      SpecWith(smc + "fault seed 7\nfault delay 1 10\n"),
      (dir_ / "deltas.csv").string(), faulty);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // The spec's fault plan reaches the serve backend: every protocol step
  // is delayed, and a delay changes no label.
  EXPECT_GT(registry.counter("smc.faults_delayed")->value(), 0);
  EXPECT_EQ(out->smc_pairs, base->smc_pairs);
  EXPECT_EQ(out->links, base->links);
  EXPECT_EQ(out->quarantined, 0);
  auto read = [](const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  EXPECT_EQ(read(faulty.links_out), read(clean.links_out));
}

// A fault plan that drops, corrupts or crashes decides which pairs are
// quarantined, so a serve journal binds the plan it was written under: it
// is refused under another plan and resumes under the same one.
TEST_F(ServeRunnerTest, JournalRefusesAnotherFaultPlan) {
  const std::string smc = "keybits 256\nsmc_seed 4242\nfault seed 3\n";
  const std::string deltas = (dir_ / "deltas.csv").string();
  ServeRunnerOptions opts;
  opts.journal = (dir_ / "serve.journal").string();
  auto first =
      RunServeFromFiles(SpecWith(smc + "fault drop 0.05\n"), deltas, opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first->smc_pairs, 0);

  auto other =
      RunServeFromFiles(SpecWith(smc + "fault drop 0.1\n"), deltas, opts);
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition)
      << other.status().ToString();

  opts.resume = true;
  auto same =
      RunServeFromFiles(SpecWith(smc + "fault drop 0.05\n"), deltas, opts);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(same->replayed_deltas, first->deltas);
  EXPECT_EQ(same->links, first->links);
}

TEST_F(ServeRunnerTest, ZeroAllowanceWithoutAQueueRejectsEverySmcDelta) {
  const std::string deltas = (dir_ / "deltas.csv").string();
  auto base = RunServeFromFiles(SpecWith(""), deltas, ServeRunnerOptions{});
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_GT(base->smc_pairs, 0);

  auto out = RunServeFromFiles(SpecWith("serve_allowance 0\nserve_queue 0\n"),
                               deltas, ServeRunnerOptions{});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // R inserts meet an empty S side and need no SMC, so they apply; an S
  // insert that leaves unknown pairs finds no allowance and no queue.
  EXPECT_EQ(out->smc_pairs, 0);
  EXPECT_EQ(out->queued, 0);
  EXPECT_GT(out->rejected, 0);
  EXPECT_EQ(out->applied + out->rejected, out->deltas);
  EXPECT_LT(out->links, base->links);
}

}  // namespace
}  // namespace hprl::cli
