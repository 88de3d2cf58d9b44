// hprl_link — run hybrid private record linkage over two CSV files.
//
//   hprl_link --spec linkage.spec --r holder_a.csv --s holder_b.csv
//             [--links links.csv] [--release-r ra.txt] [--release-s rb.txt]
//             [--with-rows] [--evaluate] [--metrics_out run.json]
//             [--threads N] [--smc_threads N]
//             [--smc_pack N] [--smc_pack_slot_bits N]
//             [--smc_seed N] [--material_dir DIR] [--offline_pairs N]
//             [--offline]
//             [--rpc_batch N] [--rpc_window N] [--shards N]
//             [--journal session.jnl] [--resume]
//             [--hb_interval_ms N] [--suspect_misses N] [--dead_misses N]
//             [--fault_seed N] [--fault_drop R] [--fault_corrupt R]
//             [--fault_delay R] [--fault_delay_micros N] [--fault_crash R]
//             [--transport tcp] [--parties a:p,b:p,q:p] [--party_bin PATH]
//             [--net_connect_timeout_ms N] [--net_receive_timeout_ms N]
//
// Streaming mode (docs/SERVICE.md):
//
//   hprl_link --spec linkage.spec --serve --deltas stream.csv
//             [--links links.csv] [--metrics_out run.json]
//             [--journal serve.jnl] [--resume]
//             [--tenant_allowance N] [--serve_queue N] [--serve_gen_level N]
//             [--serve_crash_after N]
//             [--transport tcp] [--parties ...] [--shards N] ...
//
// --serve replaces the two batch CSVs with one delta stream: every line is
// an insert/update/delete for one tenant's R or S side, applied in order
// through the long-lived incremental linkage service with per-tenant SMC
// allowance admission control.
//
// The spec file declares attributes, hierarchies, thresholds and protocol
// parameters (see src/cli/spec.h for the format). With `keybits > 0` in the
// spec, the SMC step runs the real three-party Paillier protocol — in
// process by default, or across hprl_party daemons with --transport=tcp
// (spawned locally, or joined via --parties; see README.md for the
// three-terminal walkthrough).
//
// Exit codes (common/exit_codes.h): 0 success, 2 configuration/usage error,
// 3 transport failure, 4 corrupt or mismatched persistent artifact
// (material store / session or serve journal), 1 anything else.

#include <cmath>
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
  int64_t* threads = flags.AddInt(
      "threads", 0, "blocking worker threads (0 = use the spec's setting)");
  int64_t* smc_threads = flags.AddInt(
      "smc_threads", 0,
      "SMC worker comparators (0 = use the spec's setting; both default to "
      "the machine's hardware concurrency)");
  int64_t* smc_pack = flags.AddInt(
      "smc_pack", -1,
      "pairs per packed SMC exchange (0 = scalar; -1 = use the spec's)");
  int64_t* smc_pack_slot_bits = flags.AddInt(
      "smc_pack_slot_bits", -1,
      "bit width of one packed slot (-1 = use the spec's)");
  int64_t* smc_seed = flags.AddInt(
      "smc_seed", -1,
      "pinned keypair/protocol seed; 0 = OS entropy, -1 = use the spec's. "
      "The material store only hits across runs at a pinned seed");
  std::string* material_dir = flags.AddString(
      "material_dir", "",
      "persistent offline crypto material store directory (fixed-base "
      "tables + pre-encrypted randomizers; \"\" = use the spec's)");
  int64_t* offline_pairs = flags.AddInt(
      "offline_pairs", -1,
      "offline phase sizing in expected record pairs (-1 = use the spec's)");
  bool* offline = flags.AddBool(
      "offline", false,
      "run only the offline phase: generate + persist material, then exit");
  int64_t* rpc_batch = flags.AddInt(
      "rpc_batch", 0,
      "tcp: pairs per ctl batch frame (1 = one pair per frame; 0 = use the "
      "spec's)");
  int64_t* rpc_window = flags.AddInt(
      "rpc_window", 0,
      "tcp: batches kept in flight per shard (0 = use the spec's)");
  int64_t* shards = flags.AddInt(
      "shards", 0,
      "tcp: comparator shard meshes per fleet (0 = use the spec's)");
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
  double* hb_interval_ms = flags.AddDouble(
      "hb_interval_ms", 0,
      "tcp: membership heartbeat cadence in milliseconds (0 = the spec's)");
  int64_t* suspect_misses = flags.AddInt(
      "suspect_misses", 0,
      "tcp: consecutive missed probes before a replica turns suspect "
      "(0 = the spec's)");
  int64_t* dead_misses = flags.AddInt(
      "dead_misses", 0,
      "tcp: consecutive missed probes before a replica is declared dead; "
      "must exceed suspect_misses (0 = the spec's)");
  int64_t* fault_seed = flags.AddInt(
      "fault_seed", 0, "fault-injection schedule seed (0 = use the spec's)");
  double* fault_drop = flags.AddDouble(
      "fault_drop", -1, "message drop rate in [0,1] (-1 = use the spec's)");
  double* fault_corrupt = flags.AddDouble(
      "fault_corrupt", -1,
      "payload corruption rate in [0,1] (-1 = use the spec's)");
  double* fault_delay = flags.AddDouble(
      "fault_delay", -1, "message delay rate in [0,1] (-1 = use the spec's)");
  int64_t* fault_delay_micros = flags.AddInt(
      "fault_delay_micros", -1,
      "injected latency per delayed message (-1 = use the spec's)");
  double* fault_crash = flags.AddDouble(
      "fault_crash", -1,
      "party crash rate per receive in [0,1] (-1 = use the spec's)");
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
  int64_t* tenant_allowance = flags.AddInt(
      "tenant_allowance", -1,
      "serve: per-tenant SMC allowance in pairs (-1 = the spec's "
      "serve_allowance)");
  int64_t* serve_queue = flags.AddInt(
      "serve_queue", -1,
      "serve: queued deltas per tenant, 0 rejects instead (-1 = the "
      "spec's serve_queue)");
  int64_t* serve_gen_level = flags.AddInt(
      "serve_gen_level", -1,
      "serve: VGH levels lifted above the leaves (-1 = the spec's "
      "serve_gen_level)");
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
  if (*threads < 0 || *smc_threads < 0) {
    std::fprintf(stderr,
                 "--threads and --smc_threads must be >= 0 (0 = spec/auto)\n");
    return 2;
  }
  for (double rate : {*fault_drop, *fault_corrupt, *fault_delay,
                      *fault_crash}) {
    if (rate > 1 || (rate < 0 && rate != -1)) {
      std::fprintf(stderr,
                   "fault rates must be in [0,1] (-1 = use the spec's)\n");
      return kExitConfig;
    }
  }
  // std::isfinite, like the fault knobs: a NaN waves through any plain
  // comparison chain, and "--hb_interval_ms=nan" parses.
  if (!std::isfinite(*hb_interval_ms) || *hb_interval_ms < 0) {
    std::fprintf(stderr,
                 "--hb_interval_ms must be a finite non-negative "
                 "millisecond count (0 = use the spec's)\n");
    return kExitConfig;
  }
  if (*suspect_misses < 0 || *dead_misses < 0) {
    std::fprintf(stderr,
                 "--suspect_misses and --dead_misses must be >= 0 "
                 "(0 = use the spec's)\n");
    return kExitConfig;
  }
  if (*resume && journal->empty()) {
    std::fprintf(stderr, "--resume requires --journal=<path>\n");
    return kExitConfig;
  }

  auto spec = cli::LoadLinkageSpec(*spec_path);
  if (!spec.ok()) {
    // Unreadable or malformed spec is a configuration error regardless of
    // the underlying status code (IOError here means the file, not a wire).
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return kExitConfig;
  }
  cli::RunnerOptions options;
  options.links_out = *links;
  options.release_r_out = *rel_r;
  options.release_s_out = *rel_s;
  options.publish_releases = !*with_rows;
  options.evaluate = *evaluate;
  options.metrics_out = *metrics_out;
  options.threads_override = static_cast<int>(*threads);
  options.smc_threads_override = static_cast<int>(*smc_threads);
  options.smc_pack_override = static_cast<int>(*smc_pack);
  options.smc_pack_slot_bits_override = static_cast<int>(*smc_pack_slot_bits);
  options.rpc_batch_override = static_cast<int>(*rpc_batch);
  options.rpc_window_override = static_cast<int>(*rpc_window);
  options.smc_seed_override = *smc_seed;
  options.material_dir_override = *material_dir;
  options.offline_pairs_override = static_cast<int>(*offline_pairs);
  options.offline_only = *offline;
  if (*shards < 0 || *net_emu_latency < 0) {
    std::fprintf(stderr,
                 "--shards and --net_emu_latency_micros must be >= 0\n");
    return 2;
  }
  options.shards_override = static_cast<int>(*shards);
  options.net_emu_latency_micros = static_cast<uint32_t>(*net_emu_latency);
  options.journal = *journal;
  options.resume = *resume;
  options.hb_interval_override = static_cast<int>(*hb_interval_ms);
  options.suspect_misses_override = static_cast<int>(*suspect_misses);
  options.dead_misses_override = static_cast<int>(*dead_misses);
  options.fault_seed_override = *fault_seed;
  options.fault_drop_override = *fault_drop;
  options.fault_corrupt_override = *fault_corrupt;
  options.fault_delay_override = *fault_delay;
  options.fault_delay_micros_override = *fault_delay_micros;
  options.fault_crash_override = *fault_crash;
  options.transport = (*transport == "inproc") ? "" : *transport;
  options.tcp_endpoints = *parties;
  if (*net_connect_timeout_ms <= 0 || *net_receive_timeout_ms <= 0) {
    std::fprintf(stderr, "net timeouts must be positive\n");
    return 2;
  }
  options.net_connect_timeout_ms = static_cast<int>(*net_connect_timeout_ms);
  options.net_receive_timeout_ms = static_cast<int>(*net_receive_timeout_ms);
  if (!party_bin->empty()) {
    options.party_binary = *party_bin;
  } else {
    // Default to the hprl_party that was built alongside this binary,
    // falling back to PATH lookup when argv[0] carries no directory.
    std::string self = argv[0];
    size_t slash = self.rfind('/');
    options.party_binary = slash == std::string::npos
                               ? "hprl_party"
                               : self.substr(0, slash + 1) + "hprl_party";
  }

  if (*serve) {
    cli::ServeRunnerOptions sopts;
    sopts.links_out = *links;
    sopts.metrics_out = *metrics_out;
    sopts.journal = *journal;
    sopts.resume = *resume;
    sopts.tenant_allowance_override = *tenant_allowance;
    sopts.max_queued_override = *serve_queue;
    sopts.gen_level_override = static_cast<int>(*serve_gen_level);
    sopts.crash_after = *serve_crash_after;
    sopts.transport = options.transport;
    sopts.tcp_endpoints = options.tcp_endpoints;
    sopts.party_binary = options.party_binary;
    sopts.shards_override = options.shards_override;
    sopts.smc_threads_override = options.smc_threads_override;
    sopts.net_connect_timeout_ms = options.net_connect_timeout_ms;
    sopts.net_receive_timeout_ms = options.net_receive_timeout_ms;
    auto serve_report = cli::RunServeFromFiles(*spec, *deltas, sopts);
    if (!serve_report.ok()) {
      std::fprintf(stderr, "%s\n", serve_report.status().ToString().c_str());
      return ExitCodeForStatus(serve_report.status());
    }
    std::fputs(serve_report->ToString().c_str(), stdout);
    return 0;
  }

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
