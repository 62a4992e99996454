#ifndef AUTOEM_ML_MODELS_DECISION_TREE_H_
#define AUTOEM_ML_MODELS_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/params.h"
#include "common/rng.h"
#include "ml/model.h"

namespace autoem {

/// Options shared by classification and regression trees. Mirrors the
/// scikit-learn hyperparameters the paper's search space tunes (Fig. 11).
struct TreeOptions {
  /// "gini" or "entropy" for classification; regression always uses MSE.
  std::string criterion = "gini";
  /// Depth limit; <= 0 means unlimited.
  int max_depth = 0;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  /// Fraction of features considered per split in (0, 1]; 1.0 = all.
  /// (sklearn's float max_features semantics, as in the Fig. 11 pipeline.)
  double max_features = 1.0;
  /// Minimum impurity decrease required to accept a split.
  double min_impurity_decrease = 0.0;
  /// When true, split thresholds are drawn uniformly at random between the
  /// feature min and max (Extra-Trees style) instead of exhaustive scan.
  bool random_thresholds = false;
  uint64_t seed = 13;
  /// Per-trial cancellation (fault/cancel.h). Checked once per node build;
  /// once fired, remaining subtrees collapse to leaves and Fit returns
  /// DeadlineExceeded. Default-constructed = disabled (one null check).
  fault::CancelToken cancel;
};

/// Per-feature dense ranks of a matrix's split values: NaN ranks as -inf,
/// and -0 and +0 share one rank, so two cells share a rank exactly when the
/// split search treats them as tied. Costs rows x cols x 4 bytes.
///
/// A random forest builds these once per Fit and shares them read-only with
/// every tree: bootstrap is expressed as weights, so all trees see the same
/// X. AdaBoost shares them across its rounds the same way. A standalone
/// DecisionTreeClassifier::Fit builds its own. A labeling session builds the
/// pool's once and derives each refit's from them, without a sort.
class FeatureRanks {
 public:
  /// Row ids and ranks are 32-bit; Fit rejects taller matrices.
  static constexpr size_t kMaxRows = 0xffffffffu;

  /// Sorts each column. Precondition: X.rows() <= kMaxRows (checked).
  explicit FeatureRanks(const Matrix& X);

  /// The ranks of the matrix whose row j is `whole`'s row rows[j]
  /// (X.SelectRows(rows) when `whole` describes X), equal bit for bit to
  /// FeatureRanks(X.SelectRows(rows)). Per feature, a bitmap marks the ranks
  /// of `whole` the rows hold, and a row's rank is the number of marked
  /// ranks below its own: O(rows + Distinct/64), no sort. Rows may repeat
  /// and come in any order. Preconditions (checked): every rows[j] <
  /// whole.rows(), and rows.size() <= kMaxRows.
  FeatureRanks(const FeatureRanks& whole, const std::vector<size_t>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return distinct_.size(); }
  /// Rank of every row's cell in feature f, in [0, Distinct(f)).
  const uint32_t* Ranks(size_t f) const { return ranks_.data() + f * rows_; }
  /// Number of distinct split values of feature f.
  uint32_t Distinct(size_t f) const { return distinct_[f]; }

 private:
  size_t rows_ = 0;
  std::vector<uint32_t> ranks_;  // feature-major
  std::vector<uint32_t> distinct_;
};

/// CART binary classification tree with sample weights and NaN routing
/// (missing values always descend to the left child, so the same record is
/// routed identically at train and inference time).
///
/// The exhaustive split search is defined by one total order (DESIGN.md
/// §13): a node's rows by (split value, row index). Each value group's
/// weights are summed in row order and the group sums in value order; a cut
/// between groups sits at the midpoint of their values, or at the lower
/// group's last value when that midpoint is not finite. On FeatureRanks,
/// each node and tried feature takes one of two scans, chosen from the
/// node's row count m and the feature's distinct count D alone:
///   - D <= 64m: count rows into rank buckets, in row order, marking each
///     touched rank in a bitmap, then walk the set bits in rank order:
///     O(m + D/64);
///   - otherwise: sort unique (rank << 32 | row) keys and walk them once:
///     O(m log m), for the few rows of a tall table's deep nodes.
/// Both equal reference::FitClassifierTree bit for bit, under any standard
/// library.
class DecisionTreeClassifier : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeOptions options = {});

  /// Builds from an AutoML hyperparameter map (keys: criterion, max_depth,
  /// min_samples_split, min_samples_leaf, max_features,
  /// min_impurity_decrease).
  static std::unique_ptr<Classifier> FromParams(const ParamMap& params);

  Status Fit(const Matrix& X, const std::vector<int>& y,
             const std::vector<double>* sample_weights = nullptr) override;
  /// Fit with ranks built once for X and shared by several trees.
  /// Precondition: `ranks` describe X, as FeatureRanks(X) or one derived
  /// from a superset of X's rows; a shape other than X's is rejected.
  Status Fit(const Matrix& X, const FeatureRanks& ranks,
             const std::vector<int>& y,
             const std::vector<double>* sample_weights);
  std::vector<double> PredictProba(const Matrix& X) const override;
  std::unique_ptr<Classifier> CloneConfig() const override;
  std::string name() const override { return "decision_tree"; }
  Status SaveFitted(io::Writer* w) const override;
  Status LoadFitted(io::Reader* r) override;
  Status CheckInputWidth(size_t width) const override;

  /// P(y=1) for a single feature row.
  double PredictRowProba(const double* row) const;

  /// Number of nodes in the fitted tree (0 before Fit).
  size_t NodeCount() const { return nodes_.size(); }

  /// Fitted-tree depth (0 for a single leaf).
  size_t Depth() const;

  const TreeOptions& options() const { return options_; }

  struct Node {
    int feature = -1;          // -1 for leaf
    double threshold = 0.0;    // go left when value <= threshold or NaN
    int left = -1;
    int right = -1;
    double prob_positive = 0.0;  // leaf payload
  };

  /// Fitted nodes in build (DFS) order; children always point forward.
  /// Exposed for the forest-level flattened relayout (flat_forest.h).
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  /// `ranks` is null only in random-threshold mode, which never scans.
  Status FitWith(const Matrix& X, const FeatureRanks* ranks,
                 const std::vector<int>& y,
                 const std::vector<double>* sample_weights);

  TreeOptions options_;
  std::vector<Node> nodes_;
};

namespace reference {

/// The split search's definition in plain code, kept as the rank-based
/// builder's oracle (DESIGN.md §13): every tried feature gathers (value,
/// row) pairs from X, stable-sorts them by value and scans. Returns the
/// nodes DecisionTreeClassifier(options).Fit would hold. Tests, fuzz and
/// bench only.
Result<std::vector<DecisionTreeClassifier::Node>> FitClassifierTree(
    const TreeOptions& options, const Matrix& X, const std::vector<int>& y,
    const std::vector<double>* sample_weights = nullptr);

}  // namespace reference

/// CART regression tree (MSE criterion) with the same NaN routing and
/// (value, row) order. Backs gradient boosting and the SMAC surrogate.
class RegressionTree {
 public:
  explicit RegressionTree(TreeOptions options = {});

  Status Fit(const Matrix& X, const std::vector<double>& y,
             const std::vector<double>* sample_weights = nullptr);
  double PredictRow(const double* row) const;
  std::vector<double> Predict(const Matrix& X) const;

  size_t NodeCount() const { return nodes_.size(); }

  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;
  };

  /// Fitted nodes in build (DFS) order, for the flattened relayout.
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  int BuildNode(const Matrix& X, const std::vector<double>& y,
                const std::vector<double>& w, std::vector<size_t>* indices,
                int depth, Rng* rng);

  TreeOptions options_;
  std::vector<Node> nodes_;
};

}  // namespace autoem

#endif  // AUTOEM_ML_MODELS_DECISION_TREE_H_
