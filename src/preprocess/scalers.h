#ifndef AUTOEM_PREPROCESS_SCALERS_H_
#define AUTOEM_PREPROCESS_SCALERS_H_

#include <string>
#include <vector>

#include "preprocess/transform.h"

namespace autoem {

/// z-score standardization; NaN cells pass through unchanged.
class StandardScaler : public Transform {
 public:
  Status Fit(const Matrix& X, const std::vector<int>& y) override;
  Matrix Apply(const Matrix& X) const override;
  std::string name() const override { return "standard_scaler"; }
  Result<size_t> OutputWidth(size_t input_width) const override;
  Status SaveState(io::Writer* w) const override;
  Status LoadState(io::Reader* r) override;

 private:
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

/// Rescales each feature to [0, 1] using the training min/max; NaN cells
/// pass through unchanged.
class MinMaxScaler : public Transform {
 public:
  Status Fit(const Matrix& X, const std::vector<int>& y) override;
  Matrix Apply(const Matrix& X) const override;
  std::string name() const override { return "minmax_scaler"; }
  Result<size_t> OutputWidth(size_t input_width) const override;
  Status SaveState(io::Writer* w) const override;
  Status LoadState(io::Reader* r) override;

 private:
  std::vector<double> min_;
  std::vector<double> inv_range_;
};

/// Outlier-robust scaling (scikit-learn's RobustScaler, tuned in paper
/// Fig. 3c): center on the median, scale by the (q_max - q_min) quantile
/// range. Quantiles are given in [0, 100] like sklearn's quantile_range.
class RobustScaler : public Transform {
 public:
  explicit RobustScaler(double q_min = 25.0, double q_max = 75.0);

  Status Fit(const Matrix& X, const std::vector<int>& y) override;
  Matrix Apply(const Matrix& X) const override;
  std::string name() const override { return "robust_scaler"; }
  Result<size_t> OutputWidth(size_t input_width) const override;
  Status SaveState(io::Writer* w) const override;
  Status LoadState(io::Reader* r) override;

  double q_min() const { return q_min_; }
  double q_max() const { return q_max_; }

 private:
  double q_min_;
  double q_max_;
  std::vector<double> center_;
  std::vector<double> inv_scale_;
};

}  // namespace autoem

#endif  // AUTOEM_PREPROCESS_SCALERS_H_
