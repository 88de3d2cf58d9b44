#include <algorithm>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "anon/anonymizer.h"
#include "anon/qid_data.h"

namespace hprl {

namespace {

/// Group keys are byte strings: one tagged, length-prefixed component per
/// QID ('N' VGH node id, 'V' exact numeric bit pattern, 'T' text prefix).
/// Unambiguous for arbitrary text values.
void AppendComponent(char tag, const void* bytes, size_t len,
                     std::string* key) {
  key->push_back(tag);
  uint32_t n = static_cast<uint32_t>(len);
  key->append(reinterpret_cast<const char*>(&n), sizeof(n));
  key->append(static_cast<const char*>(bytes), len);
}

class DataflyAnonymizer : public Anonymizer {
 public:
  explicit DataflyAnonymizer(AnonymizerConfig config)
      : config_(std::move(config)) {}

  std::string name() const override { return "DataFly"; }

  Result<AnonymizedTable> Anonymize(const Table& table) const override {
    auto qd_or = QidData::Build(table, config_);
    if (!qd_or.ok()) return qd_or.status();
    const QidData& qd = *qd_or;

    // Full-domain level per QID. Numeric attributes get one extra level
    // below the VGH leaves for exact values (the fully specific start);
    // text attributes use prefix lengths 0..max string length.
    std::vector<int> max_level(qd.num_qids);
    std::vector<int> level(qd.num_qids);
    for (int q = 0; q < qd.num_qids; ++q) {
      int h;
      if (qd.type[q] == AttrType::kText) {
        size_t longest = 0;
        for (const auto& s : qd.text[q]) longest = std::max(longest, s.size());
        h = static_cast<int>(longest);
      } else {
        h = qd.vgh[q]->height();
        if (qd.type[q] == AttrType::kNumeric && config_.numeric_exact_leaves) {
          h += 1;
        }
      }
      max_level[q] = h;
      level[q] = h;
    }

    // Appends qid q's generalized key component for a row.
    auto component = [&](int q, int64_t row, std::string* key) {
      if (qd.type[q] == AttrType::kText) {
        std::string_view s = qd.text[q][row];
        size_t take = std::min<size_t>(s.size(), static_cast<size_t>(level[q]));
        AppendComponent('T', s.data(), take, key);
        return;
      }
      if (qd.type[q] == AttrType::kNumeric && config_.numeric_exact_leaves &&
          level[q] == max_level[q]) {
        double v = qd.value[q][row];
        AppendComponent('V', &v, sizeof(v), key);
        return;
      }
      int32_t node =
          qd.vgh[q]->AncestorAtLevel(qd.LeafNode(q, row), level[q]);
      AppendComponent('N', &node, sizeof(node), key);
    };

    for (;;) {
      // Group rows by the induced sequence.
      std::unordered_map<std::string, std::vector<int64_t>> groups;
      groups.reserve(static_cast<size_t>(qd.num_rows) / 4 + 1);
      std::string key;
      for (int64_t row = 0; row < qd.num_rows; ++row) {
        key.clear();
        for (int q = 0; q < qd.num_qids; ++q) component(q, row, &key);
        groups[key].push_back(row);
      }

      int64_t outliers = 0;
      for (const auto& [k, rows] : groups) {
        if (static_cast<int64_t>(rows.size()) < config_.k) {
          outliers += static_cast<int64_t>(rows.size());
        }
      }

      bool can_generalize = false;
      for (int q = 0; q < qd.num_qids; ++q) {
        if (level[q] > 0) can_generalize = true;
      }

      // Sweeney's loop: when the rows violating k can themselves be
      // suppressed (at most k of them), suppress and stop; otherwise
      // generalize the attribute with the most distinct values.
      if (outliers <= config_.k || !can_generalize) {
        return Emit(groups, qd, level, max_level);
      }

      int best_q = -1;
      size_t best_distinct = 0;
      for (int q = 0; q < qd.num_qids; ++q) {
        if (level[q] == 0) continue;
        std::unordered_set<std::string> distinct;
        std::string comp;
        for (int64_t row = 0; row < qd.num_rows; ++row) {
          comp.clear();
          component(q, row, &comp);
          distinct.insert(comp);
        }
        if (distinct.size() > best_distinct) {
          best_distinct = distinct.size();
          best_q = q;
        }
      }
      --level[best_q];
    }
  }

 private:
  Result<AnonymizedTable> Emit(
      const std::unordered_map<std::string, std::vector<int64_t>>& groups,
      const QidData& qd,
      const std::vector<int>& level,
      const std::vector<int>& max_level) const {
    AnonymizedTable out;
    out.qid_attrs = config_.qid_attrs;
    out.num_rows = qd.num_rows;
    out.suppressed = 0;

    AnonymizedGroup suppression;
    suppression.is_suppression_group = true;
    for (int q = 0; q < qd.num_qids; ++q) {
      if (qd.type[q] == AttrType::kText) {
        suppression.seq.push_back(GenValue::TextPrefix("", false));
      } else {
        suppression.seq.push_back(qd.vgh[q]->Gen(Vgh::kRoot));
      }
    }

    for (const auto& [key, rows] : groups) {
      if (static_cast<int64_t>(rows.size()) < config_.k) {
        // Suppress: release fully generalized.
        suppression.rows.insert(suppression.rows.end(), rows.begin(),
                                rows.end());
        out.suppressed += static_cast<int64_t>(rows.size());
        continue;
      }
      AnonymizedGroup g;
      g.rows = rows;
      g.seq.reserve(qd.num_qids);
      // Decode the sequence from any representative row.
      int64_t rep = rows.front();
      for (int q = 0; q < qd.num_qids; ++q) {
        if (qd.type[q] == AttrType::kText) {
          std::string_view s = qd.text[q][rep];
          size_t take =
              std::min<size_t>(s.size(), static_cast<size_t>(level[q]));
          g.seq.push_back(GenValue::TextPrefix(std::string(s.substr(0, take)),
                                               take == s.size()));
        } else if (qd.type[q] == AttrType::kNumeric &&
                   config_.numeric_exact_leaves &&
                   level[q] == max_level[q]) {
          g.seq.push_back(GenValue::NumericExact(qd.value[q][rep]));
        } else {
          g.seq.push_back(qd.vgh[q]->Gen(
              qd.vgh[q]->AncestorAtLevel(qd.LeafNode(q, rep), level[q])));
        }
      }
      out.groups.push_back(std::move(g));
    }
    if (!suppression.rows.empty()) {
      out.groups.push_back(std::move(suppression));
    }
    return out;
  }

  AnonymizerConfig config_;
};

}  // namespace

std::unique_ptr<Anonymizer> MakeDataflyAnonymizer(AnonymizerConfig config) {
  return std::make_unique<DataflyAnonymizer>(std::move(config));
}

}  // namespace hprl
