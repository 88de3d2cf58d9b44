#include "anon/qid_data.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_util.h"

namespace hprl {

Result<QidData> QidData::Build(const Table& table,
                               const AnonymizerConfig& config) {
  if (config.qid_attrs.empty()) {
    return Status::InvalidArgument("no quasi-identifier attributes");
  }
  if (config.qid_attrs.size() != config.hierarchies.size()) {
    return Status::InvalidArgument("qid_attrs/hierarchies size mismatch");
  }
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");

  QidData qd;
  qd.num_qids = static_cast<int>(config.qid_attrs.size());
  qd.num_rows = table.num_rows();
  qd.vgh = config.hierarchies;
  qd.type.resize(qd.num_qids);
  qd.leaf.assign(qd.num_qids, {});
  qd.value.assign(qd.num_qids, {});
  qd.text.assign(qd.num_qids, {});
  qd.child_pos_.assign(qd.num_qids, {});

  // Check the config first, then encode every row in one row-major pass.
  const Schema& schema = *table.schema();
  for (int q = 0; q < qd.num_qids; ++q) {
    int attr = config.qid_attrs[q];
    if (attr < 0 || attr >= schema.num_attributes()) {
      return Status::OutOfRange("qid attribute index out of range");
    }
    AttrType t = schema.attribute(attr).type;
    qd.type[q] = t;
    if (t == AttrType::kText) {
      // Text QIDs (the paper's §VIII extension) use prefix generalization
      // and carry no hierarchy.
      if (qd.vgh[q] != nullptr) {
        return Status::InvalidArgument(
            "text QIDs use prefix generalization, not a VGH: " +
            schema.attribute(attr).name);
      }
      qd.text[q].resize(qd.num_rows);
      continue;
    }
    if (qd.vgh[q] == nullptr) {
      return Status::InvalidArgument("missing hierarchy for QID " +
                                     schema.attribute(attr).name);
    }
    bool vgh_is_numeric = qd.vgh[q]->kind() == Vgh::Kind::kNumeric;
    if ((t == AttrType::kNumeric) != vgh_is_numeric) {
      return Status::InvalidArgument("hierarchy kind mismatch for QID " +
                                     schema.attribute(attr).name);
    }
    qd.leaf[q].resize(qd.num_rows);
    if (t == AttrType::kNumeric) qd.value[q].resize(qd.num_rows);
    qd.child_pos_[q].resize(qd.vgh[q]->num_nodes());
  }
  if (config.l_diversity > 1) {
    if (config.sensitive_attr < 0 ||
        config.sensitive_attr >= schema.num_attributes() ||
        schema.attribute(config.sensitive_attr).type !=
            AttrType::kCategorical) {
      return Status::InvalidArgument(
          "l-diversity needs a categorical sensitive_attr");
    }
    qd.sensitive.resize(qd.num_rows);
  }
  if (config.class_attr >= 0) {
    if (config.class_attr >= schema.num_attributes() ||
        schema.attribute(config.class_attr).type != AttrType::kCategorical) {
      return Status::InvalidArgument("class_attr must be categorical");
    }
    qd.class_label.resize(qd.num_rows);
  }

  for (int64_t row = 0; row < qd.num_rows; ++row) {
    const Record& rec = table.row(row);
    for (int q = 0; q < qd.num_qids; ++q) {
      const Value& v = rec[config.qid_attrs[q]];
      if (qd.type[q] == AttrType::kText) {
        if (v.is_null()) {
          return Status::InvalidArgument("null text QID value");
        }
        qd.text[q][row] = v.text();
        continue;
      }
      if (v.is_null()) {
        return Status::InvalidArgument(
            StrFormat("null QID value at row %lld, attribute %s",
                      static_cast<long long>(row),
                      schema.attribute(config.qid_attrs[q]).name.c_str()));
      }
      if (qd.type[q] == AttrType::kNumeric) {
        auto node = qd.vgh[q]->LeafForNumeric(v.num());
        if (!node.ok()) return node.status();
        qd.leaf[q][row] = qd.vgh[q]->node(*node).leaf_begin;
        qd.value[q][row] = v.num();
      } else {
        int32_t id = v.category();
        if (id < 0 || id >= qd.vgh[q]->num_leaves()) {
          return Status::OutOfRange("category id outside VGH leaves");
        }
        qd.leaf[q][row] = id;
      }
    }
    if (!qd.sensitive.empty()) {
      const Value& v = rec[config.sensitive_attr];
      if (v.is_null()) return Status::InvalidArgument("null sensitive value");
      qd.sensitive[row] = v.category();
    }
    if (!qd.class_label.empty()) {
      const Value& v = rec[config.class_attr];
      if (v.is_null()) return Status::InvalidArgument("null class label");
      qd.class_label[row] = v.category();
    }
  }
  return qd;
}

const std::vector<int32_t>& QidData::ChildPositions(int qid, int node) const {
  std::vector<int32_t>& pos = child_pos_[qid][node];
  if (pos.empty()) {
    const Vgh& h = *vgh[qid];
    const Vgh::Node& n = h.node(node);
    HPRL_CHECK(!n.children.empty() && "leaf nodes have no children");
    pos.resize(static_cast<size_t>(n.leaf_end - n.leaf_begin));
    for (size_t ci = 0; ci < n.children.size(); ++ci) {
      const Vgh::Node& cn = h.node(n.children[ci]);
      std::fill(pos.begin() + (cn.leaf_begin - n.leaf_begin),
                pos.begin() + (cn.leaf_end - n.leaf_begin),
                static_cast<int32_t>(ci));
    }
  }
  return pos;
}

std::vector<std::pair<int, std::vector<int64_t>>> QidData::SplitByChild(
    int qid, int node, const std::vector<int64_t>& rows) const {
  const Vgh::Node& n = vgh[qid]->node(node);
  const std::vector<int32_t>& pos = ChildPositions(qid, node);
  const std::vector<int32_t>& leaves = leaf[qid];
  std::vector<std::vector<int64_t>> buckets(n.children.size());
  // Only the key sequence shapes an unordered_map's iteration order, so
  // inserting each child once, at its first row, reproduces the order of
  // the per-row map this replaces.
  std::unordered_map<int, int32_t> order;
  for (int64_t row : rows) {
    const int32_t ci = pos[leaves[row] - n.leaf_begin];
    if (buckets[ci].empty()) order.emplace(n.children[ci], ci);
    buckets[ci].push_back(row);
  }
  std::vector<std::pair<int, std::vector<int64_t>>> out;
  out.reserve(order.size());
  for (const auto& [child, ci] : order) {
    out.emplace_back(child, std::move(buckets[ci]));
  }
  return out;
}

}  // namespace hprl
