#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "anon/anonymizer.h"
#include "anon/qid_data.h"
#include "common/math_util.h"
#include "obs/metrics.h"

namespace hprl {

namespace {

/// A work-list partition: rows plus the current generalization state.
/// For hierarchy QIDs, node is the VGH node id (-1 once numeric-exact).
/// For text QIDs (prefix generalization, paper §VIII), node is the revealed
/// prefix length (-1 once fully revealed).
struct Part {
  std::vector<int64_t> rows;
  std::vector<int> node;
  GenSequence seq;
};

/// The child of `parent` that takes `rows` and specializes qid `q` to
/// (`node`, `gen`). Only the generalization state is copied.
Part ChildOf(const Part& parent, std::vector<int64_t> rows, int q, int node,
             GenValue gen) {
  Part child{std::move(rows), parent.node, parent.seq};
  child.node[q] = node;
  child.seq[q] = std::move(gen);
  return child;
}

std::string_view PrefixOf(std::string_view s, int len) {
  return s.substr(0, static_cast<size_t>(len));
}

/// (value, row) for each of `rows`, ordered by value. Equal values keep
/// the order of `rows`, so each run of equal values is one child of an
/// exact split, in the ascending order releases have always used.
void SortByValue(const std::vector<int64_t>& rows,
                 const std::vector<double>& value,
                 std::vector<std::pair<double, int64_t>>& sorted) {
  sorted.clear();
  for (int64_t row : rows) sorted.emplace_back(value[row], row);
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
}

/// Calls `fn(begin, end)` for each run of equal values in `sorted`.
template <typename Fn>
void ForEachRun(const std::vector<std::pair<double, int64_t>>& sorted, Fn fn) {
  for (size_t begin = 0; begin < sorted.size();) {
    size_t end = begin + 1;
    while (end < sorted.size() && !(sorted[begin].first < sorted[end].first)) {
      ++end;
    }
    fn(begin, end);
    begin = end;
  }
}

/// Rows and distinct sensitive values (l-diversity only) of one child.
struct ChildStats {
  int64_t rows = 0;
  std::set<int32_t> sensitive;
};

class MaxEntropyAnonymizer : public Anonymizer {
 public:
  explicit MaxEntropyAnonymizer(AnonymizerConfig config)
      : config_(std::move(config)) {}

  std::string name() const override { return "MaxEntropy"; }

  Result<AnonymizedTable> Anonymize(const Table& table) const override {
    auto qd_or = QidData::Build(table, config_);
    if (!qd_or.ok()) return qd_or.status();
    const QidData& qd = *qd_or;
    const int64_t k = config_.k;
    const int q_count = qd.num_qids;

    AnonymizedTable out;
    out.qid_attrs = config_.qid_attrs;
    out.num_rows = qd.num_rows;

    Part root;
    root.rows.resize(qd.num_rows);
    for (int64_t i = 0; i < qd.num_rows; ++i) root.rows[i] = i;
    root.node.assign(q_count, Vgh::kRoot);
    root.seq.reserve(q_count);
    for (int q = 0; q < q_count; ++q) {
      if (qd.type[q] == AttrType::kText) {
        root.node[q] = 0;  // zero-length prefix == ANY
        root.seq.push_back(GenValue::TextPrefix("", false));
      } else {
        root.seq.push_back(qd.vgh[q]->Gen(Vgh::kRoot));
      }
    }

    const bool ldiv = config_.l_diversity > 1;
    const int64_t l = config_.l_diversity;

    int64_t specializations = 0;
    std::vector<Part> stack;
    stack.push_back(std::move(root));
    std::vector<ChildStats> stats;
    std::vector<std::pair<double, int64_t>> sorted;
    std::vector<int64_t> counts;
    while (!stack.empty()) {
      Part part = std::move(stack.back());
      stack.pop_back();

      // Evaluate every specialization candidate; keep the valid one with
      // maximum entropy (paper §VI-A: every specialization is beneficial,
      // validity is the k-anonymity requirement on the resulting groups).
      int best_q = -1;
      bool best_exact = false;
      double best_entropy = -1.0;

      for (int q = 0; q < q_count; ++q) {
        int node = part.node[q];
        if (node < 0) continue;  // already fully specific
        if (qd.type[q] == AttrType::kText) {
          // Split by one more prefix character.
          std::map<std::string_view, int64_t> by_prefix;
          std::map<std::string_view, std::set<int32_t>> sens;
          for (int64_t row : part.rows) {
            std::string_view p = PrefixOf(qd.text[q][row], node + 1);
            ++by_prefix[p];
            if (ldiv) sens[p].insert(qd.sensitive[row]);
          }
          bool valid = true;
          counts.clear();
          for (const auto& [p, c] : by_prefix) {
            if (c < k) valid = false;
            if (ldiv && static_cast<int64_t>(sens[p].size()) < l) valid = false;
            counts.push_back(c);
          }
          if (!valid) continue;
          double h = ShannonEntropy(counts);
          if (h > best_entropy) {
            best_entropy = h;
            best_q = q;
            best_exact = false;
          }
          continue;
        }
        const Vgh& vgh = *qd.vgh[q];
        bool exact_split = false;
        if (vgh.IsLeaf(node)) {
          if (qd.type[q] != AttrType::kNumeric ||
              !config_.numeric_exact_leaves) {
            continue;
          }
          exact_split = true;  // specialize the leaf interval to raw values
        }

        // Count the child groups (and their sensitive-value diversity when
        // the l-diversity constraint is active): exact splits by distinct
        // value in ascending order, VGH splits by child position.
        stats.clear();
        if (exact_split) {
          SortByValue(part.rows, qd.value[q], sorted);
          ForEachRun(sorted, [&](size_t begin, size_t end) {
            ChildStats& c = stats.emplace_back();
            c.rows = static_cast<int64_t>(end - begin);
            if (ldiv) {
              for (size_t i = begin; i < end; ++i) {
                c.sensitive.insert(qd.sensitive[sorted[i].second]);
              }
            }
          });
        } else {
          const std::vector<int32_t>& pos = qd.ChildPositions(q, node);
          const int32_t first_leaf = vgh.node(node).leaf_begin;
          const std::vector<int32_t>& leaves = qd.leaf[q];
          stats.resize(vgh.node(node).children.size());
          for (int64_t row : part.rows) {
            ChildStats& c = stats[pos[leaves[row] - first_leaf]];
            ++c.rows;
            if (ldiv) c.sensitive.insert(qd.sensitive[row]);
          }
        }
        bool valid = true;
        counts.clear();
        for (const ChildStats& c : stats) {
          if (c.rows > 0 &&
              (c.rows < k ||
               (ldiv && static_cast<int64_t>(c.sensitive.size()) < l))) {
            valid = false;
            break;
          }
          counts.push_back(c.rows);
        }
        if (!valid) continue;
        double h = ShannonEntropy(counts);
        if (h > best_entropy) {
          best_entropy = h;
          best_q = q;
          best_exact = exact_split;
        }
      }

      if (best_q < 0) {
        // No valid specialization remains: release the partition.
        AnonymizedGroup g;
        g.seq = std::move(part.seq);
        g.rows = std::move(part.rows);
        out.groups.push_back(std::move(g));
        continue;
      }

      // Apply the winning specialization. Children are pushed in the order
      // releases have always used: prefixes and exact values ascending,
      // VGH children in SplitByChild's order.
      specializations += 1;
      if (qd.type[best_q] == AttrType::kText) {
        int plen = part.node[best_q];
        std::map<std::string_view, std::vector<int64_t>> by_prefix;
        for (int64_t row : part.rows) {
          by_prefix[PrefixOf(qd.text[best_q][row], plen + 1)].push_back(row);
        }
        for (auto& [prefix, rows] : by_prefix) {
          bool exact = true;
          for (int64_t row : rows) {
            if (qd.text[best_q][row].size() != prefix.size()) {
              exact = false;
              break;
            }
          }
          stack.push_back(
              ChildOf(part, std::move(rows), best_q, exact ? -1 : plen + 1,
                      GenValue::TextPrefix(std::string(prefix), exact)));
        }
        continue;
      }
      if (best_exact) {
        SortByValue(part.rows, qd.value[best_q], sorted);
        ForEachRun(sorted, [&](size_t begin, size_t end) {
          std::vector<int64_t> rows;
          rows.reserve(end - begin);
          for (size_t i = begin; i < end; ++i) rows.push_back(sorted[i].second);
          stack.push_back(ChildOf(part, std::move(rows), best_q, -1,
                                  GenValue::NumericExact(sorted[begin].first)));
        });
        continue;
      }
      const Vgh& vgh = *qd.vgh[best_q];
      for (auto& [child_node, rows] :
           qd.SplitByChild(best_q, part.node[best_q], part.rows)) {
        stack.push_back(ChildOf(part, std::move(rows), best_q, child_node,
                                vgh.Gen(child_node)));
      }
    }
    obs::Add(config_.metrics, "anon.specializations", specializations);
    obs::Add(config_.metrics, "anon.groups",
             static_cast<int64_t>(out.groups.size()));
    return out;
  }

 private:
  AnonymizerConfig config_;
};

}  // namespace

std::unique_ptr<Anonymizer> MakeMaxEntropyAnonymizer(AnonymizerConfig config) {
  return std::make_unique<MaxEntropyAnonymizer>(std::move(config));
}

}  // namespace hprl
