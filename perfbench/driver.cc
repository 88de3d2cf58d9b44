// perfbench_driver — runs one benchmark workload against the HPRL libraries
// and writes a raw JSON record of what it timed and counted. run.py builds
// this program, generates the workload's inputs from the benchmark seed,
// and turns the record into the benchmark's metrics (see BENCH.md).
//
//   perfbench_driver --workload paper-inproc --spec w/linkage.spec
//       --r d0/r.csv,d1/r.csv --s d0/s.csv,d1/s.csv --slice 256 --trace 0
//       --party_binary hprl_party --out w/raw.json
//
// Every setting of the pipeline comes from the spec file; the flags only
// say which workload shape to drive and where the inputs are. The driver
// times calls into each layer's public functions from outside the library
// and reads the counters the program publishes through obs::MetricsRegistry
// and SmcBackend::mesh_stats(). Exit code 0 means every iteration ran and
// its output matched the plaintext reference; 1 means a gate failed (the
// record says which); 2 is a usage or setup error.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/plan.h"
#include "cli/spec.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "core/session.h"
#include "crypto/paillier.h"
#include "crypto/secure_random.h"
#include "data/csv.h"
#include "net/backend.h"
#include "net/socket.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "smc/smc_oracle.h"

using namespace hprl;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/// Seconds since the driver started (the time base of every span).
double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory until the run ends. Every wrapped call site
// runs on the driver's thread, so an open-span stack gives each span its
// parent.

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int64_t items = 0;
};

class Tracer {
 public:
  void Enable(bool on) { on_ = on; }

  int Begin(const std::string& name) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = Now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id, int64_t items = 0) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = Now();
    spans_[static_cast<size_t>(id)].items = items;
    open_.pop_back();
  }

  std::vector<Span> Take() {
    std::vector<Span> out;
    out.swap(spans_);
    open_.clear();
    return out;
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Traced {
 public:
  Traced(Tracer& t, const std::string& name) : t_(t), id_(t.Begin(name)) {}
  ~Traced() { t_.End(id_, items_); }
  Traced(const Traced&) = delete;
  Traced& operator=(const Traced&) = delete;
  void set_items(int64_t n) { items_ = n; }

 private:
  Tracer& t_;
  int id_;
  int64_t items_ = 0;
};

/// Forwards every MatchOracle call to the deployment's oracle and records a
/// span around each CompareBatch. Used only in traced passes.
class TracingOracle : public MatchOracle {
 public:
  TracingOracle(MatchOracle& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  Result<bool> Compare(const Record& a, const Record& b) override {
    return inner_.Compare(a, b);
  }
  Result<bool> CompareRows(int64_t a_id, int64_t b_id, const Record& a,
                           const Record& b) override {
    return inner_.CompareRows(a_id, b_id, a, b);
  }
  Result<std::vector<uint8_t>> CompareBatch(
      const std::vector<RowPairRequest>& batch) override {
    Traced span(tracer_, "smc.compare");
    span.set_items(static_cast<int64_t>(batch.size()));
    return inner_.CompareBatch(batch);
  }
  int64_t invocations() const override { return inner_.invocations(); }
  std::vector<ShardDisposition> ShardDispositions() const override {
    return inner_.ShardDispositions();
  }
  void AttachMetrics(obs::MetricsRegistry* registry) override {
    inner_.AttachMetrics(registry);
  }
  Status PushResidentRow(int side, int64_t row_id,
                         const Record& record) override {
    return inner_.PushResidentRow(side, row_id, record);
  }
  Status EraseResidentRow(int side, int64_t row_id) override {
    return inner_.EraseResidentRow(side, row_id);
  }
  Status DrainResidentRows() override { return inner_.DrainResidentRows(); }

 private:
  MatchOracle& inner_;
  Tracer& tracer_;
};

// ---------------------------------------------------------------------------
// TCP mesh: three hprl_party daemons spawned by the driver, so that daemon
// start-up is timed apart from the key handshake. The backend then joins
// them by endpoint (the --parties deployment).

/// True when some socket in the kernel's TCP tables listens on `port`.
bool Listening(uint16_t port) {
  for (const char* table : {"/proc/net/tcp", "/proc/net/tcp6"}) {
    std::ifstream in(table);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      // "  sl  local_address rem_address   st ..."; local is HEXIP:HEXPORT.
      const size_t colon = line.find(':', line.find(':') + 1);
      if (colon == std::string::npos) continue;
      const unsigned long local_port =
          std::strtoul(line.c_str() + colon + 1, nullptr, 16);
      const size_t st = line.find(' ', colon);
      const size_t st2 = line.find(' ', line.find_first_not_of(' ', st));
      if (local_port == port && st2 != std::string::npos &&
          line.compare(line.find_first_not_of(' ', st2), 2, "0A") == 0) {
        return true;
      }
    }
  }
  return false;
}

class Mesh {
 public:
  Mesh() = default;
  ~Mesh() { Reap(); }
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  /// Starts alice, bob and qp on free loopback ports and waits until each
  /// listens.
  Status Spawn(const std::string& binary) {
    std::vector<net::Fd> holds;
    std::vector<uint16_t> ports;
    for (int i = 0; i < 3; ++i) {
      auto listener = net::TcpListen(0);
      if (!listener.ok()) return listener.status();
      auto port = net::LocalPort(*listener);
      if (!port.ok()) return port.status();
      ports.push_back(*port);
      holds.push_back(std::move(*listener));
    }
    holds.clear();  // release the probed ports for the daemons
    std::string eps[3];
    for (size_t i = 0; i < 3; ++i) {
      eps[i] = StrFormat("127.0.0.1:%u", unsigned{ports[i]});
    }
    endpoints_ = eps[0] + "," + eps[1] + "," + eps[2];
    static const char* kRoles[3] = {"alice", "bob", "qp"};
    for (int i = 0; i < 3; ++i) {
      int fds[2];
      if (::pipe2(fds, O_CLOEXEC) != 0) return Status::IOError("pipe failed");
      std::vector<std::string> args = {binary,  "--role", kRoles[i],
                                       "--alice", eps[0], "--bob",
                                       eps[1],  "--qp",   eps[2]};
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return Status::IOError("fork failed");
      }
      if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execv(argv[0], argv.data());
        ::_exit(127);
      }
      ::close(fds[1]);
      pids_.push_back(pid);
      out_fds_.push_back(fds[0]);
    }
    // A daemon is up once its port is listening. Watching the kernel's
    // socket table leaves the daemons' accept loops untouched; their mesh
    // completes only when the coordinator dials in.
    const double deadline = Now() + 30;
    for (uint16_t port : ports) {
      while (!Listening(port)) {
        if (Now() > deadline) {
          return Status::Unavailable("daemon did not start listening");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    return Status::OK();
  }

  const std::string& endpoints() const { return endpoints_; }

  /// Waits for every daemon (the backend's Shutdown asked them to exit),
  /// killing any that outlive a 5 s grace period.
  void Reap() {
    for (pid_t pid : pids_) {
      bool done = false;
      for (int tick = 0; tick < 500 && !done; ++tick) {
        int st = 0;
        const pid_t r = ::waitpid(pid, &st, WNOHANG);
        done = r == pid || r < 0;
        if (!done) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!done) {
        ::kill(pid, SIGKILL);
        int st = 0;
        ::waitpid(pid, &st, 0);
      }
    }
    for (int fd : out_fds_) ::close(fd);
    pids_.clear();
    out_fds_.clear();
  }

 private:
  std::vector<pid_t> pids_;
  std::vector<int> out_fds_;
  std::string endpoints_;
};

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// Spec -> deployment. Mirrors what hprl_link does with a spec file, so the
// benchmark exercises the same settings a user would write.

net::BackendOptions BackendFromSpec(const cli::LinkageSpec& spec,
                                    const MatchRule& rule, bool tcp,
                                    const std::string& endpoints,
                                    const std::string& material_dir) {
  net::BackendOptions b;
  b.config.key_bits = spec.key_bits;
  b.config.max_retries = spec.smc_retries;
  b.config.pack_pairs = spec.smc_pack;
  b.config.pack_slot_bits = spec.smc_pack_slot_bits;
  b.config.test_seed = spec.smc_seed;
  b.config.material_dir = material_dir;
  b.config.offline_pairs = spec.offline_pairs;
  b.rule = rule;
  b.smc_threads = spec.smc_threads > 0 ? spec.smc_threads : HardwareThreads();
  b.rpc_batch_pairs = spec.rpc_batch;
  b.rpc_window = spec.rpc_window;
  b.hb_interval_ms = spec.hb_interval_ms;
  b.membership.suspect_after_misses = spec.suspect_misses;
  b.membership.dead_after_misses = spec.dead_misses;
  if (tcp) {
    b.transport = "tcp";
    b.tcp_endpoints = endpoints;
  }
  return b;
}

/// One cold deployment: daemons (tcp), backend creation, keygen and the
/// offline material prewarm into a fresh store.
struct Deployment {
  std::unique_ptr<Mesh> mesh;
  std::unique_ptr<net::SmcBackend> backend;
  double spawn_s = 0;
  double init_s = 0;
  double setup_s = 0;
};

Result<Deployment> Deploy(const cli::LinkageSpec& spec, const MatchRule& rule,
                          bool tcp, const std::string& party_binary,
                          const std::string& material_dir,
                          obs::MetricsRegistry* registry, Tracer& tracer) {
  std::error_code ec;
  std::filesystem::remove_all(material_dir, ec);
  Deployment d;
  const double t0 = Now();
  Traced setup(tracer, "setup");
  std::string endpoints;
  if (tcp) {
    Traced span(tracer, "net.spawn");
    d.mesh = std::make_unique<Mesh>();
    HPRL_RETURN_IF_ERROR(d.mesh->Spawn(party_binary));
    endpoints = d.mesh->endpoints();
    d.spawn_s = Now() - t0;
  }
  const double t1 = Now();
  {
    Traced span(tracer, "smc.init");
    auto be = net::SmcBackend::Create(
        BackendFromSpec(spec, rule, tcp, endpoints, material_dir));
    if (!be.ok()) return be.status();
    d.backend = std::move(be).value();
    d.backend->AttachMetrics(registry);
    HPRL_RETURN_IF_ERROR(d.backend->Init());
  }
  d.init_s = Now() - t1;
  d.setup_s = Now() - t0;
  return d;
}

// ---------------------------------------------------------------------------
// Raw-record output.

void WriteRegistry(obs::JsonWriter& w, const obs::MetricsRegistry& reg) {
  w.Key("counters");
  w.BeginObject();
  for (const auto& [k, v] : reg.CounterValues()) {
    w.Key(k);
    w.Int(v);
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [k, v] : reg.GaugeValues()) {
    w.Key(k);
    w.Double(v);
  }
  w.EndObject();
  w.Key("program_spans");
  w.BeginObject();
  for (const auto& [k, v] : reg.Spans()) {
    w.Key(k);
    w.Double(v.total_seconds);
  }
  w.EndObject();
  // Histogram totals: seconds summed over every observation.
  w.Key("histogram_sums");
  w.BeginObject();
  for (const auto& [k, v] : reg.HistogramSummaries()) {
    w.Key(k);
    w.Double(v.sum);
  }
  w.EndObject();
}

void WriteCosts(obs::JsonWriter& w, const smc::SmcCosts& c) {
  w.BeginObject();
  const std::pair<const char*, int64_t> fields[] = {
      {"invocations", c.invocations},
      {"encryptions", c.encryptions},
      {"decryptions", c.decryptions},
      {"homomorphic_adds", c.homomorphic_adds},
      {"scalar_muls", c.scalar_muls},
      {"retries", c.retries},
      {"packed_pairs", c.packed_pairs},
      {"offline_randomizers", c.offline_randomizers}};
  for (const auto& [k, v] : fields) {
    w.Key(k);
    w.Int(v);
  }
  w.EndObject();
}

void WriteSpans(obs::JsonWriter& w, const std::vector<Span>& spans) {
  w.Key("spans");
  w.BeginArray();
  for (const Span& s : spans) {
    w.BeginArray();
    w.String(s.name);
    w.Double(s.start);
    w.Double(s.end);
    w.Int(s.parent);
    w.Int(s.items);
    w.EndArray();
  }
  w.EndArray();
}

void WriteMesh(obs::JsonWriter& w, const net::MeshStats& m) {
  w.Key("mesh");
  w.BeginObject();
  w.Key("costs");
  WriteCosts(w, m.costs);
  w.Key("wire_bytes_sent");
  w.Int(m.wire_bytes_sent);
  w.Key("reconnects");
  w.Int(m.reconnects);
  w.Key("send_errors");
  w.Int(m.send_errors);
  w.Key("per_party");
  w.BeginObject();
  for (const auto& [role, ps] : m.per_party) {
    w.Key(role);
    WriteCosts(w, ps.costs);
  }
  w.EndObject();
  w.EndObject();
}

// ---------------------------------------------------------------------------
// Batch workload (paper-inproc; traced runs add TCP iterations).

struct LinkInputs {
  Table r, s;
  AnonymizedTable anon_r, anon_s;
};

/// The online front half of link_s: read both CSVs, type them under the
/// spec's plan, anonymize both sides.
Result<LinkInputs> ReadAndAnonymize(const cli::LinkageSpec& spec,
                                    const std::string& csv_r,
                                    const std::string& csv_s,
                                    obs::MetricsRegistry* registry,
                                    Tracer& tracer, MatchRule* rule) {
  int read_span = tracer.Begin("data.read");
  auto raw_r = ReadCsvRaw(csv_r);
  if (!raw_r.ok()) return raw_r.status();
  auto raw_s = ReadCsvRaw(csv_s);
  if (!raw_s.ok()) return raw_s.status();
  auto plan = cli::BuildPlan(spec, &*raw_r, &*raw_s);
  if (!plan.ok()) return plan.status();
  auto r = cli::Typed(*raw_r, *plan, "R");
  if (!r.ok()) return r.status();
  auto s = cli::Typed(*raw_s, *plan, "S");
  if (!s.ok()) return s.status();
  tracer.End(read_span);

  int anon_span = tracer.Begin("anon.anonymize");
  plan->anon_cfg.metrics = registry;
  auto anonymizer = MakeAnonymizerByName(spec.anonymizer, plan->anon_cfg);
  if (!anonymizer.ok()) return anonymizer.status();
  auto ar = (*anonymizer)->Anonymize(*r);
  if (!ar.ok()) return ar.status();
  auto as = (*anonymizer)->Anonymize(*s);
  if (!as.ok()) return as.status();
  tracer.End(anon_span);
  *rule = plan->rule;
  return LinkInputs{std::move(r).value(), std::move(s).value(),
                    std::move(ar).value(), std::move(as).value()};
}

HybridConfig ConfigFromSpec(const cli::LinkageSpec& spec,
                            const MatchRule& rule) {
  HybridConfig hc;
  hc.rule = rule;
  hc.smc_allowance_fraction = spec.allowance;
  hc.heuristic = spec.heuristic;
  hc.collect_matches = true;
  hc.blocking_threads = spec.threads > 0 ? spec.threads : HardwareThreads();
  return hc;
}

std::set<std::pair<int64_t, int64_t>> LinkSet(const HybridResult& r) {
  return {r.matched_row_pairs.begin(), r.matched_row_pairs.end()};
}

struct RunArgs {
  std::string workload;
  std::string spec_path;
  std::vector<std::string> csv_r;  // one per dataset (batch)
  std::vector<std::string> csv_s;
  std::vector<std::string> deltas;  // one per stream (serve)
  std::string party_binary;
  int64_t slice = 0;
  double rate = 0;
  bool trace = false;
};

/// Unit costs of the Paillier ops at the workload's key size, measured
/// through the public API (traced runs only).
Status Calibrate(const cli::LinkageSpec& spec, obs::JsonWriter& w) {
  crypto::SecureRandom rng(spec.smc_seed ^ 0xCA11B);
  auto kp = crypto::GeneratePaillierKeyPair(spec.key_bits, rng);
  if (!kp.ok()) return kp.status();
  constexpr int kOps = 400;
  crypto::RandomizerPool pool(kp->pub, 64, spec.smc_seed ^ 0xF00);
  double t = Now();
  pool.Prewarm(kOps);
  const double prewarm_us = (Now() - t) * 1e6 / kOps;
  crypto::PaillierPublicKey pub = kp->pub;
  pub.AttachRandomizerPool(&pool);

  std::vector<crypto::BigInt> cts;
  cts.reserve(kOps);
  t = Now();
  for (int i = 0; i < kOps; ++i) {
    auto c = pub.Encrypt(crypto::BigInt(int64_t{1000} + i), rng);
    if (!c.ok()) return c.status();
    cts.push_back(std::move(c).value());
  }
  const double encrypt_us = (Now() - t) * 1e6 / kOps;

  t = Now();
  for (int i = 0; i < kOps; ++i) {
    auto m = kp->priv.Decrypt(cts[static_cast<size_t>(i)]);
    if (!m.ok()) return m.status();
  }
  const double decrypt_us = (Now() - t) * 1e6 / kOps;

  crypto::BigInt acc = cts[0];
  t = Now();
  for (size_t i = 1; i < cts.size(); ++i) acc = pub.Add(acc, cts[i]);
  const double add_us = (Now() - t) * 1e6 / (kOps - 1);

  // A packed exchange multiplies by slot-weighted values; a mid-slot scalar
  // is half the packed plaintext width.
  const int scalar_bits =
      std::max(64, spec.smc_pack * spec.smc_pack_slot_bits / 2);
  const crypto::BigInt scalar = rng.NextBits(scalar_bits);
  t = Now();
  for (int i = 0; i < kOps; ++i) {
    acc = pub.ScalarMul(cts[static_cast<size_t>(i)], scalar);
  }
  const double scalar_mul_us = (Now() - t) * 1e6 / kOps;

  w.Key("calibration");
  w.BeginObject();
  const std::pair<const char*, double> fields[] = {
      {"prewarm_us_per_randomizer", prewarm_us},
      {"encrypt_us", encrypt_us},
      {"decrypt_us", decrypt_us},
      {"add_us", add_us},
      {"scalar_mul_us", scalar_mul_us}};
  for (const auto& [k, v] : fields) {
    w.Key(k);
    w.Double(v);
  }
  w.Key("scalar_bits");
  w.Int(scalar_bits);
  w.EndObject();
  return Status::OK();
}

/// Datasets a traced paper-inproc run also links over TCP.
constexpr size_t kTcpDatasets = 3;

/// Returns false when a gate failed (recorded in the output).
Result<bool> RunBatch(const RunArgs& a, const cli::LinkageSpec& spec,
                      obs::JsonWriter& w) {
  Tracer tracer;

  // Plaintext reference per dataset on the same inputs and slice
  // (untimed).
  MatchRule rule;
  std::vector<std::set<std::pair<int64_t, int64_t>>> ref_links;
  w.Key("reference");
  w.BeginArray();
  for (size_t d = 0; d < a.csv_r.size(); ++d) {
    auto in = ReadAndAnonymize(spec, a.csv_r[d], a.csv_s[d], nullptr, tracer,
                               &rule);
    if (!in.ok()) return in.status();
    CountingPlaintextOracle plain(rule);
    const HybridConfig hc = ConfigFromSpec(spec, rule);
    auto ref = LinkageSession()
                   .WithTables(in->r, in->s)
                   .WithReleases(in->anon_r, in->anon_s)
                   .WithConfig(hc)
                   .WithOracle(plain)
                   .Run();
    if (!ref.ok()) return ref.status();
    if (ref->allowance_pairs != a.slice || ref->smc_processed != a.slice) {
      return Status::InvalidArgument(StrFormat(
          "spec allowance yields a %lld-pair slice, expected %lld",
          static_cast<long long>(ref->allowance_pairs),
          static_cast<long long>(a.slice)));
    }
    ref_links.push_back(LinkSet(*ref));
    w.BeginObject();
    w.Key("links");
    w.Int(static_cast<int64_t>(ref_links.back().size()));
    w.Key("total_pairs");
    w.Int(ref->total_pairs);
    w.EndObject();
  }
  w.EndArray();

  // One cold set-up followed by one timed link; writes its record object.
  // Returns whether the links matched the reference.
  auto iteration = [&](int it, size_t d, bool use_tcp,
                       bool traced) -> Result<bool> {
    tracer.Enable(traced);
    obs::MetricsRegistry registry;
    const std::string material =
        spec.material_dir + StrFormat("/setup-%d", it);

    auto dep = Deploy(spec, rule, use_tcp, a.party_binary, material,
                      &registry, tracer);
    if (!dep.ok()) return dep.status();
    std::unique_ptr<TracingOracle> tracing;
    MatchOracle* oracle = &dep->backend->oracle();
    if (traced) {
      tracing = std::make_unique<TracingOracle>(*oracle, tracer);
      oracle = tracing.get();
    }

    const double link0 = Now();
    MatchRule it_rule;
    Result<HybridResult> result = Status::Internal("not run");
    {
      Traced link(tracer, "link");
      auto in = ReadAndAnonymize(spec, a.csv_r[d], a.csv_s[d], &registry,
                                 tracer, &it_rule);
      if (!in.ok()) return in.status();
      const HybridConfig it_hc = ConfigFromSpec(spec, it_rule);
      Traced session(tracer, "core.session");
      result = LinkageSession()
                   .WithTables(in->r, in->s)
                   .WithReleases(in->anon_r, in->anon_s)
                   .WithConfig(it_hc)
                   .WithOracle(*oracle)
                   .WithMetrics(&registry)
                   .Run();
    }
    const double link_s = Now() - link0;
    net::MeshStats mesh;
    smc::SmcCosts costs;
    int64_t pool_misses = 0;
    if (use_tcp) {
      dep->backend->AttachMetrics(&registry);
      HPRL_RETURN_IF_ERROR(dep->backend->Shutdown(/*stop_daemons=*/true));
      dep->mesh->Reap();
      mesh = dep->backend->mesh_stats();
      costs = mesh.costs;
      for (const auto& [role, ps] : mesh.per_party) {
        pool_misses += ps.costs.encryptions - ps.costs.offline_randomizers;
      }
    } else {
      auto* smc = dynamic_cast<smc::SmcMatchOracle*>(&dep->backend->oracle());
      if (smc != nullptr) costs = smc->costs();
      pool_misses =
          registry.counter("paillier.randomizer_pool_misses")->value();
    }
    if (!result.ok()) return result.status();
    const bool links_match = LinkSet(*result) == ref_links[d];

    w.BeginObject();
    w.Key("dataset");
    w.Int(static_cast<int64_t>(d));
    w.Key("traced");
    w.Bool(traced);
    w.Key("setup_s");
    w.Double(dep->setup_s);
    w.Key("spawn_s");
    w.Double(dep->spawn_s);
    w.Key("init_s");
    w.Double(dep->init_s);
    w.Key("link_s");
    w.Double(link_s);
    w.Key("smc_pairs");
    w.Int(result->smc_processed);
    w.Key("quarantined");
    w.Int(result->quarantined_pairs);
    w.Key("links");
    w.Int(static_cast<int64_t>(result->matched_row_pairs.size()));
    w.Key("links_match");
    w.Bool(links_match);
    w.Key("pool_misses");
    w.Int(pool_misses);
    w.Key("costs");
    WriteCosts(w, costs);
    if (use_tcp) WriteMesh(w, mesh);
    WriteRegistry(w, registry);
    WriteSpans(w, tracer.Take());
    w.EndObject();

    dep->backend.reset();
    std::error_code ec;
    std::filesystem::remove_all(material, ec);
    return links_match;
  };

  // One iteration per dataset. Traced runs follow each untraced iteration
  // with a traced one on the same dataset, so the tracing overhead is a
  // paired difference.
  bool all_ok = true;
  int it = 0;
  w.Key("iterations");
  w.BeginArray();
  for (size_t d = 0; d < a.csv_r.size(); ++d) {
    for (bool traced : {false, true}) {
      if (traced && !a.trace) continue;
      auto ok = iteration(it++, d, /*use_tcp=*/false, traced);
      if (!ok.ok()) return ok.status();
      all_ok = all_ok && *ok;
    }
  }
  w.EndArray();
  if (a.trace) {
    // The net layer: the same slices over a one-shard mesh of spawned
    // hprl_party daemons, compared with the traced in-process iterations on
    // the same datasets.
    w.Key("tcp_iterations");
    w.BeginArray();
    for (size_t d = 0; d < std::min<size_t>(kTcpDatasets, a.csv_r.size());
         ++d) {
      auto ok = iteration(it++, d, /*use_tcp=*/true, /*traced=*/true);
      if (!ok.ok()) return ok.status();
      all_ok = all_ok && *ok;
    }
    w.EndArray();
  }
  if (a.trace) HPRL_RETURN_IF_ERROR(Calibrate(spec, w));
  return all_ok;
}

// ---------------------------------------------------------------------------
// serve-churn: an open-loop delta stream through serve::LinkageService.

Result<std::vector<serve::RecordDelta>> LoadDeltas(const std::string& path,
                                                   const cli::Plan& plan) {
  auto raw = ReadCsvRaw(path);
  if (!raw.ok()) return raw.status();
  const Schema& schema = *plan.schema;
  const int col_op = raw->FindColumn("op");
  const int col_tenant = raw->FindColumn("tenant");
  const int col_side = raw->FindColumn("side");
  const int col_row = raw->FindColumn("row_id");
  if (col_op < 0 || col_tenant < 0 || col_side < 0 || col_row < 0) {
    return Status::NotFound("delta file needs op, tenant, side, row_id");
  }
  std::vector<int> attr_col(static_cast<size_t>(schema.num_attributes()));
  for (int i = 0; i < schema.num_attributes(); ++i) {
    attr_col[static_cast<size_t>(i)] =
        raw->FindColumn(schema.attribute(i).name);
    if (attr_col[static_cast<size_t>(i)] < 0) {
      return Status::NotFound("delta column missing: " +
                              schema.attribute(i).name);
    }
  }
  std::vector<serve::RecordDelta> deltas;
  for (size_t r = 0; r < raw->rows.size(); ++r) {
    const auto& row = raw->rows[r];
    if (row.size() != raw->header.size()) {
      return Status::InvalidArgument(StrFormat("delta %zu: wrong field count",
                                               r + 1));
    }
    serve::RecordDelta d;
    const std::string& op = row[static_cast<size_t>(col_op)];
    if (op != "insert" && op != "update" && op != "delete") {
      return Status::InvalidArgument("bad delta op '" + op + "'");
    }
    d.op = op == "delete" ? serve::DeltaOp::kErase : serve::DeltaOp::kUpsert;
    const std::string& side = row[static_cast<size_t>(col_side)];
    if (side != "r" && side != "s") {
      return Status::InvalidArgument("bad delta side '" + side + "'");
    }
    d.side = side == "s" ? serve::Side::kS : serve::Side::kR;
    d.tenant = row[static_cast<size_t>(col_tenant)];
    auto id = ParseInt(row[static_cast<size_t>(col_row)]);
    if (!id.ok()) return id.status();
    d.row_id = *id;
    if (d.op == serve::DeltaOp::kUpsert) {
      Record rec(static_cast<size_t>(schema.num_attributes()));
      for (int i = 0; i < schema.num_attributes(); ++i) {
        const std::string& field =
            row[static_cast<size_t>(attr_col[static_cast<size_t>(i)])];
        auto v = cli::TypedField(field, plan, i, StrFormat("delta %zu", r + 1));
        if (!v.ok()) return v.status();
        rec[static_cast<size_t>(i)] = std::move(v).value();
      }
      d.record = std::move(rec);
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

serve::ServiceOptions ServiceFromSpec(const cli::LinkageSpec& spec,
                                      const cli::Plan& plan) {
  serve::ServiceOptions o;
  o.rule = plan.rule;
  o.hierarchies = plan.hierarchies;
  o.gen_level = spec.serve_gen_level;
  o.tenant_allowance = spec.serve_allowance;
  o.max_queued = spec.serve_queue;
  o.smc_batch_pairs = spec.rpc_batch;
  return o;
}

std::map<std::string, std::vector<serve::Link>> Links(
    const serve::LinkageService& svc) {
  std::map<std::string, std::vector<serve::Link>> out;
  for (const serve::TenantSnapshot& t : svc.Snapshot()) out[t.name] = t.links;
  return out;
}

int StatusCode(const Result<serve::ApplyResult>& r) {
  if (!r.ok()) return -1;
  return static_cast<int>(r->status);
}

template <typename T>
void Series(obs::JsonWriter& w, const char* key, const std::vector<T>& v) {
  w.Key(key);
  w.BeginArray();
  for (const T& x : v) {
    if constexpr (std::is_floating_point_v<T>) {
      w.Double(x);
    } else {
      w.Int(static_cast<int64_t>(x));
    }
  }
  w.EndArray();
}

/// One stream: plaintext reference, then per pass a cold deployment and an
/// open-loop pass at `a.rate`. Writes one record object per pass.
Result<bool> RunStream(const RunArgs& a, const cli::LinkageSpec& spec,
                       const cli::Plan& plan, size_t stream, Tracer& tracer,
                       obs::JsonWriter& w) {
  auto deltas = LoadDeltas(a.deltas[stream], plan);
  if (!deltas.ok()) return deltas.status();
  const serve::ServiceOptions sopts = ServiceFromSpec(spec, plan);

  // Plaintext reference: the same stream, labeled in the clear (untimed).
  CountingPlaintextOracle plain(plan.rule);
  serve::LinkageService ref_svc(sopts, &plain);
  int64_t ref_smc_pairs = 0;
  for (const serve::RecordDelta& d : *deltas) {
    auto r = ref_svc.Apply(d);
    if (!r.ok()) return r.status();
    ref_smc_pairs += r->smc_pairs;
  }
  const auto ref_links = Links(ref_svc);

  bool all_ok = true;
  const double period = 1.0 / a.rate;
  for (bool traced : {false, true}) {
    if (traced && !a.trace) continue;
    tracer.Enable(traced);
    obs::MetricsRegistry registry;
    const std::string material =
        spec.material_dir + StrFormat("/stream-%zu", stream);
    auto dep = Deploy(spec, plan.rule, false, a.party_binary, material,
                      &registry, tracer);
    if (!dep.ok()) return dep.status();
    std::unique_ptr<TracingOracle> tracing;
    MatchOracle* oracle = &dep->backend->oracle();
    if (traced) {
      tracing = std::make_unique<TracingOracle>(*oracle, tracer);
      oracle = tracing.get();
    }
    serve::LinkageService svc(sopts, oracle, &registry);
    const size_t n = deltas->size();
    std::vector<double> due(n), begin(n), end(n);
    std::vector<int> status(n);
    std::vector<int64_t> smc_pairs(n), quarantined(n);
    // Open loop: delta i is due at t0 + i * period whatever happened to the
    // deltas before it.
    const double t0 = Now() + 0.05;
    for (size_t i = 0; i < n; ++i) {
      due[i] = t0 + static_cast<double>(i) * period;
      const double wait = due[i] - Now();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      begin[i] = Now();
      Result<serve::ApplyResult> r = Status::Internal("not run");
      {
        Traced span(tracer, "serve.apply");
        r = svc.Apply((*deltas)[i]);
      }
      end[i] = Now();
      status[i] = StatusCode(r);
      smc_pairs[i] = r.ok() ? r->smc_pairs : 0;
      quarantined[i] = r.ok() ? r->quarantined : 0;
    }
    const bool links_match = Links(svc) == ref_links;
    int64_t total_pairs = 0;
    for (int64_t v : smc_pairs) total_pairs += v;
    all_ok = all_ok && links_match && total_pairs == ref_smc_pairs;
    smc::SmcCosts costs;
    auto* smc = dynamic_cast<smc::SmcMatchOracle*>(&dep->backend->oracle());
    if (smc != nullptr) costs = smc->costs();

    w.BeginObject();
    w.Key("stream");
    w.Int(static_cast<int64_t>(stream));
    w.Key("traced");
    w.Bool(traced);
    w.Key("setup_s");
    w.Double(dep->setup_s);
    w.Key("init_s");
    w.Double(dep->init_s);
    w.Key("links_match");
    w.Bool(links_match);
    w.Key("smc_pairs");
    w.Int(total_pairs);
    w.Key("reference_smc_pairs");
    w.Int(ref_smc_pairs);
    w.Key("pool_misses");
    w.Int(registry.counter("paillier.randomizer_pool_misses")->value());
    w.Key("costs");
    WriteCosts(w, costs);
    Series(w, "due", due);
    Series(w, "begin", begin);
    Series(w, "end", end);
    Series(w, "status", status);
    Series(w, "delta_smc_pairs", smc_pairs);
    Series(w, "delta_quarantined", quarantined);
    WriteRegistry(w, registry);
    WriteSpans(w, tracer.Take());
    w.EndObject();
    dep->backend.reset();
    std::error_code ec;
    std::filesystem::remove_all(material, ec);
  }
  return all_ok;
}

/// serve-churn: each stream runs on its own cold deployment; traced runs
/// follow each untraced pass with a traced pass of the same stream.
Result<bool> RunServe(const RunArgs& a, const cli::LinkageSpec& spec,
                      obs::JsonWriter& w) {
  auto plan = cli::BuildPlan(spec);
  if (!plan.ok()) return plan.status();
  Tracer tracer;
  bool all_ok = true;
  w.Key("passes");
  w.BeginArray();
  for (size_t k = 0; k < a.deltas.size(); ++k) {
    auto ok = RunStream(a, spec, *plan, k, tracer, w);
    if (!ok.ok()) return ok.status();
    all_ok = all_ok && *ok;
  }
  w.EndArray();
  if (a.trace) HPRL_RETURN_IF_ERROR(Calibrate(spec, w));
  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  RunArgs a;
  std::string* workload = flags.AddString("workload", "", "workload name");
  std::string* spec_path = flags.AddString("spec", "", "linkage spec file");
  std::string* csv_r =
      flags.AddString("r", "", "R table CSVs, comma-separated (batch)");
  std::string* csv_s =
      flags.AddString("s", "", "S table CSVs, comma-separated (batch)");
  std::string* deltas = flags.AddString(
      "deltas", "", "delta streams, comma-separated (serve)");
  std::string* party = flags.AddString("party_binary", "", "hprl_party path");
  std::string* out = flags.AddString("out", "", "raw record path");
  int64_t* slice = flags.AddInt("slice", 0, "SMC pairs per batch run");
  double* rate = flags.AddDouble("rate", 0, "open-loop deltas per second");
  int64_t* trace = flags.AddInt("trace", 0, "1 = traced run");
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  a.workload = *workload;
  a.spec_path = *spec_path;
  if (!csv_r->empty()) a.csv_r = Split(*csv_r, ',');
  if (!csv_s->empty()) a.csv_s = Split(*csv_s, ',');
  if (!deltas->empty()) a.deltas = Split(*deltas, ',');
  a.party_binary = *party;
  a.slice = *slice;
  a.rate = *rate;
  a.trace = *trace != 0;
  const bool batch = a.workload == "paper-inproc";
  if (!batch && a.workload != "serve-churn") {
    std::fprintf(stderr, "unknown --workload '%s'\n", a.workload.c_str());
    return 2;
  }
  if (out->empty() || (!batch && (a.rate <= 0 || a.deltas.empty())) ||
      (batch && (a.csv_r.empty() || a.csv_r.size() != a.csv_s.size()))) {
    std::fprintf(stderr,
                 "--out, (serve) --rate and (batch) matching --r/--s lists "
                 "are required\n");
    return 2;
  }
  auto spec = cli::LoadLinkageSpec(a.spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  // Each cold set-up prewarms into its own fresh store under the spec's
  // material_dir; without one the offline phase would be skipped.
  if (spec->material_dir.empty() || spec->offline_pairs <= 0) {
    std::fprintf(stderr, "the spec must pin material_dir and offline_pairs\n");
    return 2;
  }

  std::ofstream file(*out);
  obs::JsonWriter w(&file);
  w.BeginObject();
  w.Key("workload");
  w.String(a.workload);
  w.Key("key_bits");
  w.Int(spec->key_bits);
  w.Key("smc_seed");
  w.Int(static_cast<int64_t>(spec->smc_seed));
  Result<bool> ok = batch ? RunBatch(a, *spec, w) : RunServe(a, *spec, w);
  if (!ok.ok()) {
    std::fprintf(stderr, "perfbench_driver: %s\n",
                 ok.status().ToString().c_str());
    return 2;
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  w.Key("peak_rss_mb");
  w.Double(static_cast<double>(ru.ru_maxrss) / 1024.0);
  w.Key("gates_ok");
  w.Bool(*ok);
  w.EndObject();
  file << "\n";
  file.close();
  if (!file.good()) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", out->c_str());
    return 2;
  }
  return *ok ? 0 : 1;
}
