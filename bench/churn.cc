// churn — delta-stream generator and driver for the streaming incremental
// linkage service (hprl_link --serve; docs/SERVICE.md).
//
//   churn --out deltas.csv --deltas 1000 [--tenants 2] [--seed 11]
//         [--overlap 0.35] [--update_frac 0.12] [--delete_frac 0.08]
//   churn --out deltas.csv --deltas 1000 --spec demo/linkage.spec
//         [--metrics_out run.json]
//
// The first form writes a deterministic churn stream of Adult-like record
// mutations: inserts on both sides of each tenant (an `--overlap` fraction
// lands the same record on R and S, seeding guaranteed links), updates that
// rewrite a live row with fresh values, and deletes. The second form
// additionally drives the stream through the in-process serve runner and
// prints the sustained pairs/sec and p99 delta-to-verdict latency.

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "adult/adult.h"
#include "cli/serve_runner.h"
#include "cli/spec.h"
#include "common/exit_codes.h"
#include "common/flags.h"
#include "common/random.h"
#include "data/table.h"

using namespace hprl;

namespace {

struct LiveRow {
  std::string tenant;
  char side = 'r';
  int64_t row_id = 0;
};

/// One emitted CSV line; values are pre-rendered schema columns.
void EmitLine(std::ofstream& out, const std::string& op,
              const std::string& tenant, char side, int64_t row_id,
              const std::vector<std::string>& fields) {
  out << op << ',' << tenant << ',' << side << ',' << row_id;
  for (const std::string& f : fields) out << ',' << f;
  out << '\n';
}

std::vector<std::string> RenderRow(const Table& source, int64_t row) {
  std::vector<std::string> fields;
  fields.reserve(source.num_attributes());
  for (int i = 0; i < source.num_attributes(); ++i) {
    fields.push_back(source.schema()->RenderValue(i, source.at(row, i)));
  }
  return fields;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  std::string* out_path =
      flags.AddString("out", "deltas.csv", "delta stream CSV to write");
  int64_t* n_deltas = flags.AddInt("deltas", 1000, "mutations to emit");
  int64_t* tenants = flags.AddInt("tenants", 2, "tenants sharing the service");
  int64_t* seed = flags.AddInt("seed", 11, "generator seed");
  double* overlap = flags.AddDouble(
      "overlap", 0.35,
      "probability an insert lands the same record on both sides (the "
      "paired insert counts as one more delta)");
  double* update_frac =
      flags.AddDouble("update_frac", 0.12, "fraction of updates");
  double* delete_frac =
      flags.AddDouble("delete_frac", 0.08, "fraction of deletes");
  std::string* spec_path = flags.AddString(
      "spec", "",
      "drive the emitted stream through the in-process serve runner against "
      "this linkage spec and print the throughput summary");
  std::string* metrics_out = flags.AddString(
      "metrics_out", "", "run mode: write the serve run report here");

  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kNotFound) return 0;  // --help
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return kExitConfig;
  }
  if (*n_deltas < 1 || *tenants < 1) {
    std::fprintf(stderr, "--deltas and --tenants must be >= 1\n");
    return kExitConfig;
  }
  for (double f : {*overlap, *update_frac, *delete_frac}) {
    if (!(f >= 0 && f <= 1)) {
      std::fprintf(stderr,
                   "--overlap/--update_frac/--delete_frac must be in "
                   "[0,1]\n");
      return kExitConfig;
    }
  }

  // Source pool: fresh Adult-like records, drawn in order as inserts and
  // updates consume them. Sized so the pool never runs dry.
  auto h = adult::BuildAdultHierarchies();
  Table source =
      adult::GenerateAdult(*n_deltas + 16, static_cast<uint64_t>(*seed), h);
  Rng rng(static_cast<uint64_t>(*seed) ^ 0xC0FFEEULL);

  std::ofstream out(*out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s for write\n", out_path->c_str());
    return kExitTransport;
  }
  out << "op,tenant,side,row_id";
  for (int i = 0; i < source.num_attributes(); ++i) {
    out << ',' << source.schema()->attribute(i).name;
  }
  out << '\n';

  const std::vector<std::string> empty_fields(
      static_cast<size_t>(source.num_attributes()));
  std::vector<LiveRow> live;
  // next_id[tenant][side]: per-tenant, per-side dense row-id allocator.
  std::map<std::pair<std::string, char>, int64_t> next_id;
  int64_t emitted = 0;
  int64_t source_next = 0;
  int64_t tenant_rr = 0;
  while (emitted < *n_deltas) {
    // Appended, not built as "t" + std::string&&, which trips GCC 12's
    // -Wrestrict false positive.
    std::string tenant = "t";
    tenant += std::to_string(tenant_rr % *tenants);
    ++tenant_rr;
    const double roll = rng.NextDouble();
    if (roll < *update_frac && !live.empty()) {
      const LiveRow& row = live[rng.NextBounded(live.size())];
      EmitLine(out, "update", row.tenant, row.side, row.row_id,
               RenderRow(source, source_next++ % source.num_rows()));
      ++emitted;
    } else if (roll < *update_frac + *delete_frac && !live.empty()) {
      size_t pick = rng.NextBounded(live.size());
      LiveRow row = live[pick];
      live[pick] = live.back();
      live.pop_back();
      EmitLine(out, "delete", row.tenant, row.side, row.row_id, empty_fields);
      ++emitted;
    } else {
      const char side = rng.NextBernoulli(0.5) ? 'r' : 's';
      std::vector<std::string> fields =
          RenderRow(source, source_next++ % source.num_rows());
      int64_t id = next_id[{tenant, side}]++;
      EmitLine(out, "insert", tenant, side, id, fields);
      live.push_back({tenant, side, id});
      ++emitted;
      if (emitted < *n_deltas && rng.NextBernoulli(*overlap)) {
        // Same record on the other side: a guaranteed straddler-or-match
        // pair, so the stream exercises both the M short-circuit and the
        // SMC drain.
        const char other = side == 'r' ? 's' : 'r';
        int64_t oid = next_id[{tenant, other}]++;
        EmitLine(out, "insert", tenant, other, oid, fields);
        live.push_back({tenant, other, oid});
        ++emitted;
      }
    }
  }
  out.close();
  if (!out.good()) {
    std::fprintf(stderr, "write failed: %s\n", out_path->c_str());
    return kExitTransport;
  }
  std::printf("churn: wrote %lld deltas for %lld tenants to %s\n",
              static_cast<long long>(emitted),
              static_cast<long long>(*tenants), out_path->c_str());

  if (spec_path->empty()) return 0;

  auto spec = cli::LoadLinkageSpec(*spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return kExitConfig;
  }
  cli::ServeRunnerOptions opts;
  opts.metrics_out = *metrics_out;
  auto report = cli::RunServeFromFiles(*spec, *out_path, opts);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return ExitCodeForStatus(report.status());
  }
  std::fputs(report->ToString().c_str(), stdout);
  return 0;
}
