#ifndef AUTOEM_PREPROCESS_TRANSFORM_H_
#define AUTOEM_PREPROCESS_TRANSFORM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ml/dataset.h"

namespace autoem {

namespace io {
class Writer;
class Reader;
}  // namespace io

/// A fit-then-apply feature transform (scikit-learn transformer semantics).
/// Fit learns statistics from training data only; Apply re-applies them to
/// any matrix with the same width, which keeps validation/test leakage-free.
class Transform {
 public:
  virtual ~Transform() = default;

  /// Learns transform state. `y` is available for supervised transforms
  /// (feature selection); unsupervised transforms ignore it.
  virtual Status Fit(const Matrix& X, const std::vector<int>& y) = 0;

  /// Applies the fitted transform. Output may change the column count
  /// (selection, PCA, agglomeration).
  virtual Matrix Apply(const Matrix& X) const = 0;

  /// Maps input feature names to output feature names (identity size unless
  /// the transform changes the column count).
  virtual std::vector<std::string> OutputNames(
      const std::vector<std::string>& input_names) const {
    return input_names;
  }

  /// Stable component name, e.g. "robust_scaler".
  virtual std::string name() const = 0;

  /// The column count Apply returns for an input `input_width` columns
  /// wide, or InvalidArgument naming the component when the fitted state
  /// cannot read such an input: it was fitted on another width, or it
  /// selects a column past it. Model loading chains these from the feature
  /// generator's width, so a crafted file is rejected before Apply runs.
  virtual Result<size_t> OutputWidth(size_t input_width) const = 0;

  /// Model persistence (src/io): writes the *fitted* statistics — never the
  /// hyperparameters, which the pipeline Compile step reconstructs from the
  /// saved Configuration. A loaded transform must Apply bit-identically to
  /// the instance that was saved.
  virtual Status SaveState(io::Writer* w) const {
    (void)w;
    return Status::Unimplemented(name() + ": persistence not supported");
  }
  virtual Status LoadState(io::Reader* r) {
    (void)r;
    return Status::Unimplemented(name() + ": persistence not supported");
  }
};

/// OutputWidth of a width-preserving transform whose fitted state holds
/// `fitted` per-column statistics.
inline Result<size_t> SameWidth(const std::string& component, size_t fitted,
                                size_t input_width) {
  if (fitted != input_width) {
    return Status::InvalidArgument(
        component + ": fitted on " + std::to_string(fitted) +
        " columns, input has " + std::to_string(input_width));
  }
  return input_width;
}

}  // namespace autoem

#endif  // AUTOEM_PREPROCESS_TRANSFORM_H_
