#ifndef HPRL_ANON_QID_DATA_H_
#define HPRL_ANON_QID_DATA_H_

#include <string_view>
#include <utility>
#include <vector>

#include "anon/anonymizer.h"
#include "common/result.h"
#include "data/table.h"
#include "hierarchy/vgh.h"

namespace hprl {

/// Precomputed per-row quasi-identifier encodings shared by the anonymizers:
/// for every (qid, row), the VGH leaf index and (numeric attributes) the
/// raw value. Building this once turns all "which child of node n contains
/// row x" queries into table lookups (ChildPositions).
///
/// Text values are views into the table, so a QidData must not outlive the
/// table it was built from.
struct QidData {
  int num_qids = 0;
  int64_t num_rows = 0;
  std::vector<VghPtr> vgh;                   // per qid (null for text QIDs)
  std::vector<AttrType> type;                // per qid
  std::vector<std::vector<int32_t>> leaf;    // [qid][row] DFS leaf index
  std::vector<std::vector<double>> value;    // [qid][row] numeric value, else empty
  std::vector<std::vector<std::string_view>> text;  // [qid][row] text, else empty
  std::vector<int32_t> class_label;          // [row] class id, empty if none
  std::vector<int32_t> sensitive;            // [row] sensitive id, empty if none

  /// Validates the config against the table and encodes all rows.
  static Result<QidData> Build(const Table& table,
                               const AnonymizerConfig& config);

  /// VGH node id of the row's leaf (hierarchy QIDs).
  int LeafNode(int qid, int64_t row) const {
    return vgh[qid]->leaf_node(leaf[qid][row]);
  }

  /// For a non-leaf `node` of qid's VGH: entry `leaf - node.leaf_begin` is
  /// the position, in node.children, of the child whose leaf range holds
  /// `leaf`. Built on first use; the reference stays valid for the
  /// QidData's life. Not safe to call from two threads at once.
  const std::vector<int32_t>& ChildPositions(int qid, int node) const;

  /// Splits `rows` by the child of `node` (qid's VGH) each row falls under.
  /// Returns (child node, rows in input order) buckets in the iteration
  /// order of an std::unordered_map<int, ...> keyed by child node and
  /// filled in row order: the order MaxEntropy and TDS have always emitted
  /// children in, which fixes the group order of their releases.
  std::vector<std::pair<int, std::vector<int64_t>>> SplitByChild(
      int qid, int node, const std::vector<int64_t>& rows) const;

 private:
  mutable std::vector<std::vector<std::vector<int32_t>>> child_pos_;  // [qid][node]
};

}  // namespace hprl

#endif  // HPRL_ANON_QID_DATA_H_
