#ifndef AUTOEM_PREPROCESS_IMPUTER_H_
#define AUTOEM_PREPROCESS_IMPUTER_H_

#include <memory>
#include <string>
#include <vector>

#include "preprocess/transform.h"

namespace autoem {

/// Missing-value imputation (scikit-learn's SimpleImputer, the
/// "imputation:strategy" knob of the Fig. 5 pipeline).
class SimpleImputer : public Transform {
 public:
  /// `strategy`: "mean", "median", "most_frequent", or "constant".
  /// `fill_value` is only used by "constant".
  explicit SimpleImputer(std::string strategy = "mean",
                         double fill_value = 0.0);

  Status Fit(const Matrix& X, const std::vector<int>& y) override;
  Matrix Apply(const Matrix& X) const override;
  std::string name() const override { return "imputer_" + strategy_; }
  Result<size_t> OutputWidth(size_t input_width) const override {
    return SameWidth(name(), fill_.size(), input_width);
  }
  Status SaveState(io::Writer* w) const override;
  Status LoadState(io::Reader* r) override;

  const std::vector<double>& fill_values() const { return fill_; }

 private:
  std::string strategy_;
  double constant_fill_;
  std::vector<double> fill_;
};

}  // namespace autoem

#endif  // AUTOEM_PREPROCESS_IMPUTER_H_
