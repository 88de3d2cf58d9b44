// hprl_link — run hybrid private record linkage over two CSV files.
//
//   hprl_link --spec linkage.spec --r holder_a.csv --s holder_b.csv
//             [--links links.csv] [--release-r ra.txt] [--release-s rb.txt]
//             [--with-rows] [--evaluate] [--metrics_out run.json]
//             [--offline] [--journal session.jnl] [--resume]
//             [--transport tcp] [--parties a:p,b:p,q:p] [--party_bin PATH]
//             [--net_connect_timeout_ms N] [--net_receive_timeout_ms N]
//             [--net_emu_latency_micros N]
//
// Streaming mode (docs/SERVICE.md):
//
//   hprl_link --spec linkage.spec --serve --deltas stream.csv
//             [--links links.csv] [--metrics_out run.json]
//             [--journal serve.jnl] [--resume] [--serve_crash_after N]
//             [--transport tcp] [--parties ...] [--party_bin PATH] ...
//
// --serve replaces the two batch CSVs with one delta stream: every line is
// an insert/update/delete for one tenant's R or S side, applied in order
// through the long-lived incremental linkage service with per-tenant SMC
// allowance admission control.
//
// The spec file declares attributes, hierarchies, thresholds and every
// protocol, datapath, fleet, fault and serve setting (see src/cli/spec.h for
// the format); the flags pick only files, modes and where the parties run.
// With `keybits > 0` in the spec, the SMC step runs the real three-party
// Paillier protocol — in process by default, or across hprl_party daemons
// with --transport=tcp (spawned locally, or joined via --parties; see
// README.md for the three-terminal walkthrough).
//
// Exit codes (common/exit_codes.h): 0 success, 2 configuration/usage error,
// 3 transport failure, 4 corrupt or mismatched persistent artifact
// (material store / session or serve journal), 1 anything else.

#include <cstdio>
#include <string>

#include "cli/runner.h"
#include "cli/serve_runner.h"
#include "common/exit_codes.h"
#include "common/flags.h"

using namespace hprl;

int main(int argc, char** argv) {
  FlagSet flags;
  std::string* spec_path = flags.AddString("spec", "", "linkage spec file");
  std::string* csv_r = flags.AddString("r", "", "first data holder's CSV");
  std::string* csv_s = flags.AddString("s", "", "second data holder's CSV");
  std::string* links = flags.AddString("links", "", "write matched pairs here");
  std::string* rel_r = flags.AddString("release-r", "", "write R's release");
  std::string* rel_s = flags.AddString("release-s", "", "write S's release");
  bool* with_rows =
      flags.AddBool("with-rows", false, "keep row ids in written releases");
  bool* evaluate = flags.AddBool(
      "evaluate", false, "compute ground-truth recall (reads cleartext)");
  std::string* metrics_out = flags.AddString(
      "metrics_out", "", "write a JSON run report (spans, counters) here");
  bool* offline = flags.AddBool(
      "offline", false,
      "run only the offline phase: generate + persist material into the "
      "spec's material_dir, then exit");
  int64_t* net_emu_latency = flags.AddInt(
      "net_emu_latency_micros", 0,
      "tcp bench knob: per-pair daemon-side sleep, making the SMC stage "
      "latency-bound so shard scaling measures overlap (0 = off)");
  std::string* journal = flags.AddString(
      "journal", "",
      "resumable SMC drain: record progress and per-shard batch "
      "dispositions here after every batch; a relaunched coordinator "
      "resumes the drain from it at a fenced session epoch (a corrupt "
      "journal means a clean restart unless --resume)");
  bool* resume = flags.AddBool(
      "resume", false,
      "require the --journal file to exist and verify; a missing or "
      "corrupt journal fails the run instead of silently starting over");
  std::string* transport = flags.AddString(
      "transport", "inproc",
      "SMC transport: inproc, or tcp to run the parties as hprl_party "
      "daemons over real sockets");
  std::string* parties = flags.AddString(
      "parties", "",
      "tcp: alice,bob,qp listen endpoints (host:port,host:port,host:port) "
      "of an already-running mesh — one triple per shard, ';' between "
      "shards; empty = spawn local daemons");
  std::string* party_bin = flags.AddString(
      "party_bin", "",
      "tcp spawn mode: hprl_party binary (default: next to this binary)");
  int64_t* net_connect_timeout_ms = flags.AddInt(
      "net_connect_timeout_ms", 10000,
      "tcp: deadline for establishing the three-party mesh");
  int64_t* net_receive_timeout_ms = flags.AddInt(
      "net_receive_timeout_ms", 4000,
      "tcp: blocking-receive bound per protocol link");
  bool* serve = flags.AddBool(
      "serve", false,
      "streaming mode: apply a --deltas stream through the incremental "
      "linkage service instead of batch-linking --r against --s");
  std::string* deltas = flags.AddString(
      "deltas", "",
      "serve: delta stream CSV (op,tenant,side,row_id,<attr columns>)");
  int64_t* serve_crash_after = flags.AddInt(
      "serve_crash_after", 0,
      "serve crash-injection test hook: SIGKILL after N newly settled "
      "deltas, after the journal write (0 = off)");

  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kNotFound) return 0;  // --help
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (*serve) {
    if (spec_path->empty() || deltas->empty()) {
      std::fprintf(stderr, "--serve requires --spec and --deltas\n%s",
                   flags.Usage(argv[0]).c_str());
      return kExitConfig;
    }
    if (!csv_r->empty() || !csv_s->empty()) {
      std::fprintf(stderr,
                   "--serve takes a --deltas stream, not --r/--s batches\n");
      return kExitConfig;
    }
  } else if (spec_path->empty() || csv_r->empty() || csv_s->empty()) {
    std::fprintf(stderr, "--spec, --r and --s are required\n%s",
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (*serve_crash_after < 0) {
    std::fprintf(stderr, "--serve_crash_after must be >= 0\n");
    return kExitConfig;
  }
  if (*resume && journal->empty()) {
    std::fprintf(stderr, "--resume requires --journal=<path>\n");
    return kExitConfig;
  }
  if (*net_emu_latency < 0) {
    std::fprintf(stderr, "--net_emu_latency_micros must be >= 0\n");
    return 2;
  }
  if (*net_connect_timeout_ms <= 0 || *net_receive_timeout_ms <= 0) {
    std::fprintf(stderr, "net timeouts must be positive\n");
    return 2;
  }

  auto spec = cli::LoadLinkageSpec(*spec_path);
  if (!spec.ok()) {
    // Unreadable or malformed spec is a configuration error regardless of
    // the underlying status code (IOError here means the file, not a wire).
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return kExitConfig;
  }

  cli::DeploymentOptions deployment;
  deployment.transport = *transport;
  deployment.tcp_endpoints = *parties;
  deployment.net_emu_latency_micros = static_cast<uint32_t>(*net_emu_latency);
  deployment.net_connect_timeout_ms =
      static_cast<int>(*net_connect_timeout_ms);
  deployment.net_receive_timeout_ms =
      static_cast<int>(*net_receive_timeout_ms);
  if (!party_bin->empty()) {
    deployment.party_binary = *party_bin;
  } else {
    // Default to the hprl_party that was built alongside this binary,
    // falling back to PATH lookup when argv[0] carries no directory.
    std::string self = argv[0];
    size_t slash = self.rfind('/');
    deployment.party_binary = slash == std::string::npos
                                  ? "hprl_party"
                                  : self.substr(0, slash + 1) + "hprl_party";
  }

  if (*serve) {
    cli::ServeRunnerOptions sopts;
    sopts.links_out = *links;
    sopts.metrics_out = *metrics_out;
    sopts.journal = *journal;
    sopts.resume = *resume;
    sopts.crash_after = *serve_crash_after;
    sopts.deployment = deployment;
    auto serve_report = cli::RunServeFromFiles(*spec, *deltas, sopts);
    if (!serve_report.ok()) {
      std::fprintf(stderr, "%s\n", serve_report.status().ToString().c_str());
      return ExitCodeForStatus(serve_report.status());
    }
    std::fputs(serve_report->ToString().c_str(), stdout);
    return 0;
  }

  cli::RunnerOptions options;
  options.links_out = *links;
  options.release_r_out = *rel_r;
  options.release_s_out = *rel_s;
  options.publish_releases = !*with_rows;
  options.evaluate = *evaluate;
  options.metrics_out = *metrics_out;
  options.offline_only = *offline;
  options.journal = *journal;
  options.resume = *resume;
  options.deployment = deployment;
  auto report = cli::RunLinkageFromFiles(*spec, *csv_r, *csv_s, options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return ExitCodeForStatus(report.status());
  }
  if (report->offline_only) {
    std::printf("offline phase complete (%s oracle): %.3fs, material ready\n",
                report->oracle.c_str(), report->result.offline_seconds);
    return 0;
  }
  std::fputs(report->ToString().c_str(), stdout);
  return 0;
}
