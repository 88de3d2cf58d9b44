#ifndef HPRL_BENCH_BENCH_UTIL_H_
#define HPRL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "core/experiment.h"
#include "obs/report.h"

namespace hprl::bench {

/// Flags shared by every figure harness. The paper's data set (30,162 rows
/// before the 3-way split) is the default; --rows shrinks it for smoke runs.
struct CommonFlags {
  FlagSet flags;
  int64_t* rows;
  int64_t* seed;
  std::string* metrics_out;

  CommonFlags() {
    rows = flags.AddInt("rows", 30162, "source rows before the 3-way split");
    seed = flags.AddInt("seed", 20080407, "data synthesis seed");
    metrics_out = flags.AddString(
        "metrics_out", "", "write the swept metrics as JSON here");
  }

  /// Parses argv; exits the process on --help or bad flags.
  void ParseOrDie(int argc, char** argv) {
    Status s = flags.Parse(argc, argv);
    if (s.code() == StatusCode::kNotFound) std::exit(0);  // --help
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                   flags.Usage(argv[0]).c_str());
      std::exit(2);
    }
  }

  ExperimentData PrepareOrDie() const {
    auto data = PrepareAdultData(*rows, static_cast<uint64_t>(*seed));
    if (!data.ok()) {
      std::fprintf(stderr, "data preparation failed: %s\n",
                   data.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(data).value();
  }
};

inline void Die(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  std::exit(1);
}

/// Collects one labeled LinkageMetrics row per swept configuration and, when
/// the harness was given --metrics_out, dumps the whole series as JSON
/// ("hprl-bench-series/1", see docs/OBSERVABILITY.md). The tables printed to
/// stdout stay the primary human output; this is the machine-readable twin.
class MetricsSeries {
 public:
  explicit MetricsSeries(std::string tool) : tool_(std::move(tool)) {}

  /// `counts` are exact integer tallies of the row (crypto operations, say),
  /// written as a "counts" object when there are any.
  void Add(std::string label, const LinkageMetrics& metrics,
           std::vector<std::pair<std::string, int64_t>> counts = {}) {
    rows_.push_back({std::move(label), metrics, std::move(counts)});
  }

  /// No-op when `path` is empty; dies on I/O errors like the rest of the
  /// bench harness.
  void WriteIfRequested(const std::string& path) const {
    if (path.empty()) return;
    std::ostringstream out;
    obs::JsonWriter w(&out);
    w.BeginObject();
    w.Key("schema");
    w.String("hprl-bench-series/1");
    w.Key("tool");
    w.String(tool_);
    w.Key("series");
    w.BeginArray();
    for (const Row& row : rows_) {
      w.BeginObject();
      w.Key("label");
      w.String(row.label);
      obs::WriteLinkageMetricsFields(&w, row.metrics);
      if (!row.counts.empty()) {
        w.Key("counts");
        w.BeginObject();
        for (const auto& [name, value] : row.counts) {
          w.Key(name);
          w.Int(value);
        }
        w.EndObject();
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    out << '\n';
    std::ofstream file(path);
    if (!file.is_open()) Die(Status::IOError("cannot open for write: " + path));
    file << out.str();
    if (!file.good()) Die(Status::IOError("write failed: " + path));
  }

 private:
  struct Row {
    std::string label;
    LinkageMetrics metrics;
    std::vector<std::pair<std::string, int64_t>> counts;
  };
  std::string tool_;
  std::vector<Row> rows_;
};

/// The three heuristics plotted in the paper's recall figures.
inline const std::vector<SelectionHeuristic>& PaperHeuristics() {
  static const std::vector<SelectionHeuristic>* kH =
      new std::vector<SelectionHeuristic>{SelectionHeuristic::kMaxLast,
                                          SelectionHeuristic::kMinFirst,
                                          SelectionHeuristic::kMinAvgFirst};
  return *kH;
}

/// The paper's anonymity-requirement sweep (Figs. 2-4).
inline const std::vector<int64_t>& PaperKSweep() {
  static const std::vector<int64_t>* kK = new std::vector<int64_t>{
      2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  return *kK;
}

}  // namespace hprl::bench

#endif  // HPRL_BENCH_BENCH_UTIL_H_
