#ifndef AUTOEM_ML_MODELS_FLAT_FOREST_H_
#define AUTOEM_ML_MODELS_FLAT_FOREST_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "ml/dataset.h"

namespace autoem {

/// Inference-only flattened forest layout: the fitted nodes of every tree,
/// re-laid breadth-first into one contiguous array owned by the forest.
///
/// Tree training builds nodes in DFS order spread across per-tree vectors;
/// batched prediction then chases pointers through cold memory. This
/// structure rebuilds the same trees as a single `std::vector<Node>` (32
/// bytes per node, children hot in cache for the shallow levels every row
/// visits) and walks a *block* of rows through all trees in lockstep with
/// software-prefetched node fetches, hiding the remaining misses behind the
/// other rows' work.
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
    double threshold = 0.0;
    double payload = 0.0;   // leaf probability (classifier) or value (regr.)
    int32_t feature = -1;   // -1 = leaf
    uint32_t left = 0;      // absolute indices into `nodes()`
    uint32_t right = 0;
  };

  void Clear() {
    nodes_.clear();
    roots_.clear();
  }

  bool empty() const { return roots_.empty(); }
  size_t num_trees() const { return roots_.size(); }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Appends one fitted tree, re-laid breadth-first. `TreeNode` must expose
  /// `feature` (< 0 = leaf), `threshold`, and `left`/`right` child indices
  /// that point strictly forward (the DFS build guarantees this; LoadFitted
  /// validates it). `payload` extracts the leaf value.
  template <typename TreeNode, typename PayloadFn>
  void AppendTree(const std::vector<TreeNode>& tree_nodes, PayloadFn payload) {
    AUTOEM_CHECK(!tree_nodes.empty());
    const size_t base = nodes_.size();
    roots_.push_back(static_cast<uint32_t>(base));
    // Pass 1: BFS order of the old node ids; position in `order` is the new
    // id (relative to base).
    std::vector<int32_t> order;
    order.reserve(tree_nodes.size());
    order.push_back(0);
    for (size_t q = 0; q < order.size(); ++q) {
      const TreeNode& n = tree_nodes[static_cast<size_t>(order[q])];
      if (n.feature >= 0) {
        order.push_back(n.left);
        order.push_back(n.right);
      }
    }
    std::vector<uint32_t> new_of(tree_nodes.size(), 0);
    for (size_t q = 0; q < order.size(); ++q) {
      new_of[static_cast<size_t>(order[q])] =
          static_cast<uint32_t>(base + q);
    }
    // Pass 2: emit nodes in BFS order with rewritten child indices.
    nodes_.reserve(base + order.size());
    for (size_t q = 0; q < order.size(); ++q) {
      const TreeNode& n = tree_nodes[static_cast<size_t>(order[q])];
      Node out;
      out.threshold = n.threshold;
      out.payload = payload(n);
      out.feature = n.feature;
      if (n.feature >= 0) {
        out.left = new_of[static_cast<size_t>(n.left)];
        out.right = new_of[static_cast<size_t>(n.right)];
      }
      nodes_.push_back(out);
    }
  }

  /// Walks rows [begin, end) of X through every tree and writes each row's
  /// payload sum (accumulated in tree order) to sums[row - begin]. Rows are
  /// processed in blocks that advance through each tree in lockstep, with
  /// the next node of every lane prefetched while the other lanes compute.
  /// When `votes` is non-null, the same pass also writes votes[row - begin]
  /// = the number of trees whose leaf payload is >= 0.5: the committee vote
  /// the active-learning loop ranks by.
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
  std::vector<uint32_t> roots_;
};

}  // namespace autoem

#endif  // AUTOEM_ML_MODELS_FLAT_FOREST_H_
