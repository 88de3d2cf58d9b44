#ifndef HPRL_HIERARCHY_VGH_H_
#define HPRL_HIERARCHY_VGH_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "data/schema.h"
#include "hierarchy/genvalue.h"

namespace hprl {

/// Value Generalization Hierarchy (paper Fig. 1): a tree whose leaves are the
/// fully specific values of an attribute and whose inner nodes are
/// progressively coarser generalizations.
///
/// Two flavors share the same structure:
///  - categorical VGHs: nodes carry labels; leaves are numbered 0..L-1 in DFS
///    order, so every node's specialization set is the contiguous range
///    [leaf_begin, leaf_end). Category ids of the attribute's domain equal
///    leaf indexes (use MakeDomain()).
///  - numeric VGHs: nodes carry half-open intervals [lo, hi); the children of
///    a node partition it contiguously. Leaves are the finest released
///    granularity (e.g. the paper's 8-unit age intervals).
///
/// Node 0 is always the root ("ANY"). Node levels are depths from the root;
/// leaves may sit at different depths in irregular hierarchies.
class Vgh {
 public:
  enum class Kind { kCategorical, kNumeric };

  struct Node {
    std::string label;          // categorical only (numeric label is derived)
    int parent = -1;            // -1 for the root
    std::vector<int> children;  // empty for leaves
    int level = 0;              // depth from root
    int32_t leaf_begin = 0;     // DFS leaf range [leaf_begin, leaf_end)
    int32_t leaf_end = 0;
    double lo = 0;              // numeric only
    double hi = 0;
  };

  Kind kind() const { return kind_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const Node& node(int id) const { return nodes_[id]; }
  static constexpr int kRoot = 0;

  bool IsLeaf(int id) const { return nodes_[id].children.empty(); }
  int parent(int id) const { return nodes_[id].parent; }
  int level(int id) const { return nodes_[id].level; }

  /// Maximum node level (deepest leaf depth).
  int height() const { return height_; }

  int32_t num_leaves() const { return static_cast<int32_t>(leaves_.size()); }

  /// Node id of the i-th leaf (DFS order).
  int leaf_node(int32_t leaf_index) const { return leaves_[leaf_index]; }

  /// Node id for a categorical label, or -1.
  int FindByLabel(const std::string& label) const;

  /// Leaf node containing numeric value v, or error when v is outside the
  /// root range [root.lo, root.hi).
  Result<int> LeafForNumeric(double v) const;

  /// Leaf node for a category id (== leaf index).
  int LeafForCategory(int32_t category_id) const {
    return leaves_[category_id];
  }

  /// Climbs from `id` to its ancestor at level `target_level` (or `id` itself
  /// when already at or above that level).
  int AncestorAtLevel(int id, int target_level) const;

  /// The generalized value denoted by a node.
  GenValue Gen(int id) const;

  /// Label for display: categorical label, or "[lo-hi)" for numeric nodes.
  std::string NodeLabel(int id) const;

  /// For categorical VGHs: a CategoryDomain whose ids equal leaf indexes.
  std::shared_ptr<const CategoryDomain> MakeDomain() const;

  /// Numeric root range; the paper's normalization factor is
  /// root().hi - root().lo (e.g. 98 for WorkHrs [1-99)).
  double RootRange() const { return nodes_[kRoot].hi - nodes_[kRoot].lo; }

  /// Numeric root bounds: every value of the attribute lies in
  /// [RootLo(), RootHi()).
  double RootLo() const { return nodes_[kRoot].lo; }
  double RootHi() const { return nodes_[kRoot].hi; }

 private:
  friend class VghBuilder;
  Vgh() = default;

  Kind kind_ = Kind::kCategorical;
  std::vector<Node> nodes_;
  std::vector<int> leaves_;
  std::unordered_map<std::string, int> by_label_;
  int height_ = 0;
};

using VghPtr = std::shared_ptr<const Vgh>;

/// Incrementally builds a Vgh. Add the root first, then children in any
/// order; Build() validates the structure and freezes leaf numbering.
class VghBuilder {
 public:
  explicit VghBuilder(Vgh::Kind kind);

  /// Adds the categorical root (conventionally labeled "ANY").
  int AddRoot(const std::string& label);

  /// Adds the numeric root covering [lo, hi).
  int AddNumericRoot(double lo, double hi);

  int AddChild(int parent, const std::string& label);
  int AddNumericChild(int parent, double lo, double hi);

  /// Validates and produces the hierarchy:
  ///  - exactly one root, added first;
  ///  - categorical labels unique;
  ///  - numeric children contiguously partition their parent's interval.
  Result<Vgh> Build();

 private:
  Vgh vgh_;
  bool has_root_ = false;
};

/// Builds an equi-width numeric VGH: the root covers
/// [lo, lo + leaf_width * prod(fanouts)), split top-down by `fanouts`
/// (fanouts[0] children under the root, each split into fanouts[1], ...).
/// Example: MakeEquiWidthVgh(16, 8, {3, 2, 2}) is the paper's 4-level age
/// hierarchy with 12 leaves of width 8 covering [16, 112).
Result<Vgh> MakeEquiWidthVgh(double lo, double leaf_width,
                             const std::vector<int>& fanouts);

}  // namespace hprl

#endif  // HPRL_HIERARCHY_VGH_H_
