#ifndef AUTOEM_PREPROCESS_FEATURE_SELECTION_H_
#define AUTOEM_PREPROCESS_FEATURE_SELECTION_H_

#include <string>
#include <vector>

#include "preprocess/transform.h"

namespace autoem {

/// Keeps the top `percentile`% of features by a univariate score function
/// (scikit-learn's SelectPercentile, tuned in paper Fig. 3b).
/// `score_func` is "f_classif" (ANOVA F) or "chi2".
class SelectPercentile : public Transform {
 public:
  explicit SelectPercentile(double percentile = 50.0,
                            std::string score_func = "f_classif");

  Status Fit(const Matrix& X, const std::vector<int>& y) override;
  Matrix Apply(const Matrix& X) const override;
  std::vector<std::string> OutputNames(
      const std::vector<std::string>& input_names) const override;
  std::string name() const override { return "select_percentile"; }
  Result<size_t> OutputWidth(size_t input_width) const override;
  Status SaveState(io::Writer* w) const override;
  Status LoadState(io::Reader* r) override;

  const std::vector<size_t>& selected() const { return selected_; }

 private:
  double percentile_;
  std::string score_func_;
  std::vector<size_t> selected_;
};

/// Keeps features whose univariate-test p-value passes a false-positive
/// control procedure (scikit-learn's GenericUnivariateSelect / select_rates
/// as used in the Fig. 5 pipeline). `mode` is "fpr" (p < alpha), "fdr"
/// (Benjamini-Hochberg), or "fwe" (Bonferroni).
class SelectRates : public Transform {
 public:
  explicit SelectRates(double alpha = 0.05, std::string mode = "fpr",
                       std::string score_func = "chi2");

  Status Fit(const Matrix& X, const std::vector<int>& y) override;
  Matrix Apply(const Matrix& X) const override;
  std::vector<std::string> OutputNames(
      const std::vector<std::string>& input_names) const override;
  std::string name() const override { return "select_rates"; }
  Result<size_t> OutputWidth(size_t input_width) const override;
  Status SaveState(io::Writer* w) const override;
  Status LoadState(io::Reader* r) override;

  const std::vector<size_t>& selected() const { return selected_; }

 private:
  double alpha_;
  std::string mode_;
  std::string score_func_;
  std::vector<size_t> selected_;
};

/// Drops features whose training variance is below a threshold.
class VarianceThreshold : public Transform {
 public:
  explicit VarianceThreshold(double threshold = 0.0);

  Status Fit(const Matrix& X, const std::vector<int>& y) override;
  Matrix Apply(const Matrix& X) const override;
  std::vector<std::string> OutputNames(
      const std::vector<std::string>& input_names) const override;
  std::string name() const override { return "variance_threshold"; }
  Result<size_t> OutputWidth(size_t input_width) const override;
  Status SaveState(io::Writer* w) const override;
  Status LoadState(io::Reader* r) override;

  const std::vector<size_t>& selected() const { return selected_; }

 private:
  double threshold_;
  std::vector<size_t> selected_;
};

}  // namespace autoem

#endif  // AUTOEM_PREPROCESS_FEATURE_SELECTION_H_
