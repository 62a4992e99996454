#ifndef AUTOEM_ML_MODELS_FLAT_FOREST_H_
#define AUTOEM_ML_MODELS_FLAT_FOREST_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "ml/dataset.h"

namespace autoem {

/// Inference-only flattened forest layout: the fitted nodes of every tree,
/// re-laid breadth-first into one contiguous array owned by the forest.
///
/// Each node is 16 bytes: a threshold, a feature and the index of its left
/// child. The right child is always `left + 1` (breadth-first order emits
/// siblings side by side), so one step of the walk is
/// `cur = left + (row[feature] > threshold)` with no branch. A leaf
/// absorbs: its threshold is +inf and its `left` is its own index, so a step
/// from a leaf stays there for every value, NaN and +inf included. Leaf
/// payloads live in a parallel array read once per row and tree.
///
/// Batched prediction moves a block of rows through one tree in lockstep,
/// one step per level, and stops after the tree's depth or as soon as a
/// step moves no row — that is, once every row sits on a leaf.
///
/// The traversal is output-preserving, not approximate: per row, leaf
/// payloads are accumulated in tree order, so sums (and their floating-point
/// rounding) are bit-identical to walking the original per-tree node arrays
/// one row at a time — the property the determinism tests and the
/// differential forest tests pin down. The per-tree source arrays stay the
/// model's source of truth for serialization and for the scalar reference
/// walk (DESIGN.md §13).
class FlatForest {
 public:
  struct Node {
    double threshold = 0.0;  // a leaf's is +inf
    int32_t feature = 0;     // a leaf's is 0
    uint32_t left = 0;       // absolute index; right = left + 1; a leaf's
                             // is its own index
  };
  static_assert(sizeof(Node) == 16);

  void Clear() {
    nodes_.clear();
    payload_.clear();
    roots_.clear();
    depths_.clear();
  }

  bool empty() const { return roots_.empty(); }
  size_t num_trees() const { return roots_.size(); }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Appends one fitted tree, re-laid breadth-first. `TreeNode` must expose
  /// `feature` (< 0 = leaf), `threshold`, and `left`/`right` child indices
  /// that point strictly forward and reach every node once (the DFS build
  /// guarantees this; LoadFitted validates it). `payload` extracts the leaf
  /// value.
  template <typename TreeNode, typename PayloadFn>
  void AppendTree(const std::vector<TreeNode>& tree_nodes, PayloadFn payload) {
    AUTOEM_CHECK(!tree_nodes.empty());
    const size_t base = nodes_.size();
    AUTOEM_CHECK(tree_nodes.size() <=
                 std::numeric_limits<uint32_t>::max() - base);
    roots_.push_back(static_cast<uint32_t>(base));
    // Pass 1: BFS order of the old node ids; position in `order` is the new
    // id (relative to base). A node's children are pushed together, so they
    // land side by side.
    std::vector<int32_t> order;
    std::vector<uint32_t> level;
    order.reserve(tree_nodes.size());
    level.reserve(tree_nodes.size());
    order.push_back(0);
    level.push_back(0);
    uint32_t depth = 0;
    for (size_t q = 0; q < order.size(); ++q) {
      const TreeNode& n = tree_nodes[static_cast<size_t>(order[q])];
      if (n.feature >= 0) {
        order.push_back(n.left);
        order.push_back(n.right);
        level.push_back(level[q] + 1);
        level.push_back(level[q] + 1);
        depth = std::max(depth, level[q] + 1);
      }
    }
    std::vector<uint32_t> new_of(tree_nodes.size(), 0);
    for (size_t q = 0; q < order.size(); ++q) {
      new_of[static_cast<size_t>(order[q])] =
          static_cast<uint32_t>(base + q);
    }
    // Pass 2: emit nodes in BFS order with rewritten child indices.
    nodes_.reserve(base + order.size());
    payload_.reserve(base + order.size());
    for (size_t q = 0; q < order.size(); ++q) {
      const TreeNode& n = tree_nodes[static_cast<size_t>(order[q])];
      Node out;
      if (n.feature >= 0) {
        out.threshold = n.threshold;
        out.feature = n.feature;
        out.left = new_of[static_cast<size_t>(n.left)];
        AUTOEM_CHECK(new_of[static_cast<size_t>(n.right)] == out.left + 1);
      } else {
        out.threshold = std::numeric_limits<double>::infinity();
        out.left = static_cast<uint32_t>(base + q);
      }
      nodes_.push_back(out);
      payload_.push_back(payload(n));
    }
    depths_.push_back(depth);
  }

  /// Walks rows [begin, end) of X through every tree and writes each row's
  /// payload sum (accumulated in tree order) to sums[row - begin]. Rows are
  /// processed in blocks that advance through each tree in lockstep.
  /// When `votes` is non-null, the same pass also writes votes[row - begin]
  /// = the number of trees whose leaf payload is >= 0.5: the committee vote
  /// the active-learning loop ranks by. Precondition: every split feature
  /// is below X.cols().
  void AccumulateRows(const Matrix& X, size_t begin, size_t end, double* sums,
                      uint32_t* votes = nullptr) const;

  /// Per-tree payloads for one row: per_tree[t] = tree t's leaf payload.
  /// Used where the ensemble needs more than the sum (vote confidence,
  /// surrogate variance).
  void PredictRowPerTree(const double* row, double* per_tree) const;

 private:
  template <bool kVotes>
  void Walk(const Matrix& X, size_t begin, size_t end, double* sums,
            uint32_t* votes) const;

  std::vector<Node> nodes_;
  std::vector<double> payload_;  // parallel to nodes_; read at leaves only
  std::vector<uint32_t> roots_;
  std::vector<uint32_t> depths_;  // per tree: longest root-to-leaf path
};

}  // namespace autoem

#endif  // AUTOEM_ML_MODELS_FLAT_FOREST_H_
