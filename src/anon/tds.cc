#include <algorithm>
#include <cmath>
#include <map>

#include "anon/anonymizer.h"
#include "anon/qid_data.h"
#include "common/math_util.h"

namespace hprl {

namespace {

constexpr double kGainEpsilon = 1e-12;

/// Entropy of a class-count histogram.
double ClassEntropy(const std::vector<int64_t>& counts) {
  return ShannonEntropy(counts);
}

struct TdsPart {
  std::vector<int64_t> rows;
  std::vector<int> cat_node;  // categorical qids: VGH node id; numeric: -1
  std::vector<std::pair<double, double>> num_iv;  // numeric qids: [lo, hi)
  GenSequence seq;
};

/// A partition holding `rows` with a copy of `p`'s generalization state.
TdsPart ChildOf(const TdsPart& p, std::vector<int64_t> rows) {
  return TdsPart{std::move(rows), p.cat_node, p.num_iv, p.seq};
}

/// Identifies one cut element: a categorical node or a numeric interval of
/// attribute `q`.
struct CandKey {
  int q;
  int node;        // categorical; -1 for numeric
  double lo, hi;   // numeric; 0 otherwise

  bool operator<(const CandKey& o) const {
    if (q != o.q) return q < o.q;
    if (node != o.node) return node < o.node;
    if (lo != o.lo) return lo < o.lo;
    return hi < o.hi;
  }
};

struct CandEval {
  bool valid = false;
  double gain = 0;
  double split_point = 0;  // numeric only
};

class TdsAnonymizer : public Anonymizer {
 public:
  explicit TdsAnonymizer(AnonymizerConfig config)
      : config_(std::move(config)) {}

  std::string name() const override { return "TDS"; }

  Result<AnonymizedTable> Anonymize(const Table& table) const override {
    if (config_.class_attr < 0) {
      return Status::InvalidArgument(
          "TDS requires class_attr for its information-gain metric");
    }
    auto qd_or = QidData::Build(table, config_);
    if (!qd_or.ok()) return qd_or.status();
    const QidData& qd = *qd_or;
    for (AttrType t : qd.type) {
      if (t == AttrType::kText) {
        return Status::Unimplemented(
            "TDS handles categorical and numeric QIDs only (paper §VIII)");
      }
    }

    int32_t num_classes = 0;
    for (int32_t c : qd.class_label) num_classes = std::max(num_classes, c + 1);

    // Initial state: everything generalized to the root.
    std::vector<TdsPart> parts(1);
    TdsPart& root = parts[0];
    root.rows.resize(qd.num_rows);
    for (int64_t i = 0; i < qd.num_rows; ++i) root.rows[i] = i;
    root.cat_node.assign(qd.num_qids, -1);
    root.num_iv.assign(qd.num_qids, {0, 0});
    for (int q = 0; q < qd.num_qids; ++q) {
      const Vgh& vgh = *qd.vgh[q];
      if (qd.type[q] == AttrType::kCategorical) {
        root.cat_node[q] = Vgh::kRoot;
        root.seq.push_back(vgh.Gen(Vgh::kRoot));
      } else {
        root.num_iv[q] = {vgh.node(Vgh::kRoot).lo, vgh.node(Vgh::kRoot).hi};
        root.seq.push_back(vgh.Gen(Vgh::kRoot));
      }
    }

    // Greedy specialization loop: pick the valid, beneficial cut element with
    // maximum information gain; apply it across all partitions sharing it.
    for (;;) {
      std::map<CandKey, std::vector<size_t>> affected;
      for (size_t pi = 0; pi < parts.size(); ++pi) {
        const TdsPart& p = parts[pi];
        for (int q = 0; q < qd.num_qids; ++q) {
          if (qd.type[q] == AttrType::kCategorical) {
            if (!qd.vgh[q]->IsLeaf(p.cat_node[q])) {
              affected[{q, p.cat_node[q], 0, 0}].push_back(pi);
            }
          } else {
            affected[{q, -1, p.num_iv[q].first, p.num_iv[q].second}]
                .push_back(pi);
          }
        }
      }

      const CandKey* best_key = nullptr;
      CandEval best;
      for (const auto& [key, part_ids] : affected) {
        CandEval eval =
            key.node >= 0
                ? EvalCategorical(key, part_ids, parts, qd, num_classes)
                : EvalNumeric(key, part_ids, parts, qd, num_classes);
        if (eval.valid && eval.gain > kGainEpsilon &&
            (best_key == nullptr || eval.gain > best.gain)) {
          best = eval;
          best_key = &key;
        }
      }
      if (best_key == nullptr) break;
      Apply(*best_key, best, affected.at(*best_key), parts, qd);
    }

    AnonymizedTable out;
    out.qid_attrs = config_.qid_attrs;
    out.num_rows = qd.num_rows;
    out.groups.reserve(parts.size());
    for (auto& p : parts) {
      AnonymizedGroup g;
      g.seq = std::move(p.seq);
      g.rows = std::move(p.rows);
      out.groups.push_back(std::move(g));
    }
    return out;
  }

 private:
  CandEval EvalCategorical(const CandKey& key,
                           const std::vector<size_t>& part_ids,
                           const std::vector<TdsPart>& parts, const QidData& qd,
                           int32_t num_classes) const {
    const Vgh::Node& n = qd.vgh[key.q]->node(key.node);
    const std::vector<int32_t>& pos = qd.ChildPositions(key.q, key.node);
    const std::vector<int32_t>& leaves = qd.leaf[key.q];
    const size_t num_children = n.children.size();
    CandEval eval;
    eval.valid = true;
    for (size_t pi : part_ids) {
      const TdsPart& p = parts[pi];
      std::vector<int64_t> child_size(num_children, 0);
      std::vector<std::vector<int64_t>> child_class(
          num_children, std::vector<int64_t>(num_classes, 0));
      std::vector<int64_t> total_class(num_classes, 0);
      for (int64_t row : p.rows) {
        const int32_t ci = pos[leaves[row] - n.leaf_begin];
        ++child_size[ci];
        ++child_class[ci][qd.class_label[row]];
        ++total_class[qd.class_label[row]];
      }
      for (int64_t cs : child_size) {
        if (cs > 0 && cs < config_.k) {
          eval.valid = false;
          return eval;
        }
      }
      double before =
          static_cast<double>(p.rows.size()) * ClassEntropy(total_class);
      double after = 0;
      for (size_t ci = 0; ci < num_children; ++ci) {
        if (child_size[ci] == 0) continue;
        after += static_cast<double>(child_size[ci]) *
                 ClassEntropy(child_class[ci]);
      }
      eval.gain += before - after;
    }
    return eval;
  }

  CandEval EvalNumeric(const CandKey& key, const std::vector<size_t>& part_ids,
                       const std::vector<TdsPart>& parts, const QidData& qd,
                       int32_t num_classes) const {
    // Gather the distinct values present; candidate split points are those
    // values themselves (split: value < sp goes left). TDS picks the
    // max-gain valid split point for the interval.
    CandEval best;
    std::vector<double> values;
    for (size_t pi : part_ids) {
      for (int64_t row : parts[pi].rows) values.push_back(qd.value[key.q][row]);
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    if (values.size() < 2) return best;  // nothing to split

    // Per-partition sorted (value, class) for prefix evaluation.
    struct SortedPart {
      std::vector<double> vals;
      std::vector<int32_t> cls;
      std::vector<int64_t> total_class;
    };
    std::vector<SortedPart> sp(part_ids.size());
    for (size_t i = 0; i < part_ids.size(); ++i) {
      const TdsPart& p = parts[part_ids[i]];
      std::vector<std::pair<double, int32_t>> vc;
      vc.reserve(p.rows.size());
      for (int64_t row : p.rows) {
        vc.emplace_back(qd.value[key.q][row], qd.class_label[row]);
      }
      std::sort(vc.begin(), vc.end());
      sp[i].vals.reserve(vc.size());
      sp[i].cls.reserve(vc.size());
      sp[i].total_class.assign(num_classes, 0);
      for (auto& [v, c] : vc) {
        sp[i].vals.push_back(v);
        sp[i].cls.push_back(c);
        ++sp[i].total_class[c];
      }
    }

    // Try each interior split point (skip values.front(): empty left side).
    for (size_t vi = 1; vi < values.size(); ++vi) {
      double point = values[vi];
      bool valid = true;
      double gain = 0;
      for (const SortedPart& part : sp) {
        size_t left = std::lower_bound(part.vals.begin(), part.vals.end(),
                                       point) -
                      part.vals.begin();
        size_t right = part.vals.size() - left;
        if ((left > 0 && left < static_cast<size_t>(config_.k)) ||
            (right > 0 && right < static_cast<size_t>(config_.k))) {
          valid = false;
          break;
        }
        std::vector<int64_t> left_class(num_classes, 0);
        for (size_t j = 0; j < left; ++j) ++left_class[part.cls[j]];
        std::vector<int64_t> right_class(num_classes);
        for (int32_t c = 0; c < num_classes; ++c) {
          right_class[c] = part.total_class[c] - left_class[c];
        }
        double before = static_cast<double>(part.vals.size()) *
                        ClassEntropy(part.total_class);
        double after =
            static_cast<double>(left) * ClassEntropy(left_class) +
            static_cast<double>(right) * ClassEntropy(right_class);
        gain += before - after;
      }
      if (valid && gain > best.gain) {
        best.valid = true;
        best.gain = gain;
        best.split_point = point;
      }
    }
    return best;
  }

  void Apply(const CandKey& key, const CandEval& eval,
             const std::vector<size_t>& part_ids, std::vector<TdsPart>& parts,
             const QidData& qd) const {
    const Vgh& vgh = *qd.vgh[key.q];
    std::vector<TdsPart> fresh;
    for (size_t pi : part_ids) {
      TdsPart& p = parts[pi];
      if (key.node >= 0) {
        // Categorical: split by child. The first child stays in place; the
        // others are appended, each with a copy of p's pre-split state.
        auto split = qd.SplitByChild(key.q, key.node, p.rows);
        for (size_t i = 1; i < split.size(); ++i) {
          auto& [child, rows] = split[i];
          fresh.push_back(ChildOf(p, std::move(rows)));
          fresh.back().cat_node[key.q] = child;
          fresh.back().seq[key.q] = vgh.Gen(child);
        }
        p.rows = std::move(split[0].second);
        p.cat_node[key.q] = split[0].first;
        p.seq[key.q] = vgh.Gen(split[0].first);
      } else {
        // Numeric: binary split at eval.split_point.
        std::vector<int64_t> left, right;
        for (int64_t row : p.rows) {
          (qd.value[key.q][row] < eval.split_point ? left : right)
              .push_back(row);
        }
        if (left.empty() || right.empty()) {
          // All rows fall on one side: the cut still refines this
          // partition's interval (global recoding of the cut element).
          bool is_left = right.empty();
          if (is_left) {
            p.num_iv[key.q].second = eval.split_point;
          } else {
            p.num_iv[key.q].first = eval.split_point;
          }
          p.seq[key.q] = GenValue::NumericInterval(p.num_iv[key.q].first,
                                                   p.num_iv[key.q].second);
          continue;
        }
        fresh.push_back(ChildOf(p, std::move(right)));
        p.rows = std::move(left);
        p.num_iv[key.q].second = eval.split_point;
        p.seq[key.q] = GenValue::NumericInterval(p.num_iv[key.q].first,
                                                 eval.split_point);
        TdsPart& r = fresh.back();
        r.num_iv[key.q].first = eval.split_point;
        r.seq[key.q] = GenValue::NumericInterval(eval.split_point,
                                                 r.num_iv[key.q].second);
      }
    }
    for (auto& f : fresh) parts.push_back(std::move(f));
  }

  AnonymizerConfig config_;
};

}  // namespace

std::unique_ptr<Anonymizer> MakeTdsAnonymizer(AnonymizerConfig config) {
  return std::make_unique<TdsAnonymizer>(std::move(config));
}

}  // namespace hprl
