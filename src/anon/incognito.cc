#include <algorithm>
#include <unordered_map>

#include "anon/anonymizer.h"
#include "anon/metrics.h"
#include "anon/qid_data.h"

namespace hprl {

namespace {

/// Incognito-style full-domain k-anonymization (LeFevre et al., SIGMOD'05,
/// simplified): the search space is the lattice of per-attribute
/// generalization levels; k-anonymity is monotone along generalization, so
/// the algorithm enumerates level vectors from most to least specific,
/// collects the *minimal* k-anonymous vectors (no strictly more specific
/// vector is k-anonymous), and releases the one with the lowest
/// discernibility cost.
///
/// Numeric attributes get DataFly's extra "exact value" level below the VGH
/// leaves; text QIDs are not supported (full-domain recoding needs a fixed
/// level set).
class IncognitoAnonymizer : public Anonymizer {
 public:
  explicit IncognitoAnonymizer(AnonymizerConfig config)
      : config_(std::move(config)) {}

  std::string name() const override { return "Incognito"; }

  Result<AnonymizedTable> Anonymize(const Table& table) const override {
    auto qd_or = QidData::Build(table, config_);
    if (!qd_or.ok()) return qd_or.status();
    const QidData& qd = *qd_or;
    for (AttrType t : qd.type) {
      if (t == AttrType::kText) {
        return Status::Unimplemented(
            "Incognito's full-domain lattice does not cover text QIDs");
      }
    }

    std::vector<int> max_level(qd.num_qids);
    for (int q = 0; q < qd.num_qids; ++q) {
      max_level[q] = qd.vgh[q]->height();
      if (qd.type[q] == AttrType::kNumeric && config_.numeric_exact_leaves) {
        max_level[q] += 1;
      }
    }

    // Enumerate the lattice grouped by total specificity (sum of levels),
    // descending: most specific vectors first.
    std::vector<std::vector<int>> lattice = {{}};
    for (int q = 0; q < qd.num_qids; ++q) {
      std::vector<std::vector<int>> next;
      for (const auto& prefix : lattice) {
        for (int level = 0; level <= max_level[q]; ++level) {
          auto v = prefix;
          v.push_back(level);
          next.push_back(std::move(v));
        }
      }
      lattice = std::move(next);
    }
    std::stable_sort(lattice.begin(), lattice.end(),
                     [](const std::vector<int>& a, const std::vector<int>& b) {
                       int sa = 0, sb = 0;
                       for (int x : a) sa += x;
                       for (int x : b) sb += x;
                       return sa > sb;
                     });

    std::vector<std::vector<int>> minimal;  // minimal k-anonymous vectors
    auto dominated = [&](const std::vector<int>& v) {
      // v is (non-strictly) more general than some found minimal vector on
      // every attribute => anonymous by monotonicity, and not minimal.
      for (const auto& m : minimal) {
        bool all = true;
        for (int q = 0; q < qd.num_qids; ++q) {
          if (v[q] > m[q]) {  // v more specific than m somewhere
            all = false;
            break;
          }
        }
        if (all) return true;
      }
      return false;
    };

    for (const auto& levels : lattice) {
      if (dominated(levels)) continue;
      if (IsKAnonymousAt(qd, levels)) minimal.push_back(levels);
    }
    if (minimal.empty()) {
      // Not even the all-root vector works (n < k): release the root.
      minimal.push_back(std::vector<int>(qd.num_qids, 0));
    }

    // Release the minimal vector with the lowest discernibility cost.
    AnonymizedTable best;
    int64_t best_cost = -1;
    for (const auto& levels : minimal) {
      AnonymizedTable candidate = BuildRelease(qd, levels);
      int64_t cost = DiscernibilityCost(candidate);
      if (best_cost < 0 || cost < best_cost) {
        best_cost = cost;
        best = std::move(candidate);
      }
    }
    return best;
  }

 private:
  /// Grouping key of row under the level vector; components appended to key.
  void RowKey(const QidData& qd, const std::vector<int>& levels, int64_t row,
              std::string* key) const {
    for (int q = 0; q < qd.num_qids; ++q) {
      int max_l = qd.vgh[q]->height() +
                  (qd.type[q] == AttrType::kNumeric &&
                           config_.numeric_exact_leaves
                       ? 1
                       : 0);
      if (qd.type[q] == AttrType::kNumeric && levels[q] == max_l &&
          config_.numeric_exact_leaves) {
        double v = qd.value[q][row];
        key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      } else {
        int32_t node =
            qd.vgh[q]->AncestorAtLevel(qd.LeafNode(q, row), levels[q]);
        key->append(reinterpret_cast<const char*>(&node), sizeof(node));
      }
      key->push_back('\x1f');
    }
  }

  bool IsKAnonymousAt(const QidData& qd, const std::vector<int>& levels) const {
    std::unordered_map<std::string, int64_t> counts;
    counts.reserve(static_cast<size_t>(qd.num_rows) / 4 + 1);
    std::string key;
    for (int64_t row = 0; row < qd.num_rows; ++row) {
      key.clear();
      RowKey(qd, levels, row, &key);
      ++counts[key];
    }
    for (const auto& [k, c] : counts) {
      if (c < config_.k) return false;
    }
    return true;
  }

  AnonymizedTable BuildRelease(const QidData& qd,
                               const std::vector<int>& levels) const {
    std::unordered_map<std::string, std::vector<int64_t>> groups;
    std::string key;
    for (int64_t row = 0; row < qd.num_rows; ++row) {
      key.clear();
      RowKey(qd, levels, row, &key);
      groups[key].push_back(row);
    }
    AnonymizedTable out;
    out.qid_attrs = config_.qid_attrs;
    out.num_rows = qd.num_rows;
    out.groups.reserve(groups.size());
    for (auto& [k, rows] : groups) {
      AnonymizedGroup g;
      int64_t rep = rows.front();
      for (int q = 0; q < qd.num_qids; ++q) {
        int max_l = qd.vgh[q]->height() +
                    (qd.type[q] == AttrType::kNumeric &&
                             config_.numeric_exact_leaves
                         ? 1
                         : 0);
        if (qd.type[q] == AttrType::kNumeric && levels[q] == max_l &&
            config_.numeric_exact_leaves) {
          g.seq.push_back(GenValue::NumericExact(qd.value[q][rep]));
        } else {
          g.seq.push_back(qd.vgh[q]->Gen(
              qd.vgh[q]->AncestorAtLevel(qd.LeafNode(q, rep), levels[q])));
        }
      }
      g.rows = std::move(rows);
      out.groups.push_back(std::move(g));
    }
    return out;
  }

  AnonymizerConfig config_;
};

}  // namespace

std::unique_ptr<Anonymizer> MakeIncognitoAnonymizer(AnonymizerConfig config) {
  return std::make_unique<IncognitoAnonymizer>(std::move(config));
}

}  // namespace hprl
