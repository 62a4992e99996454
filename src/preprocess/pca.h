#ifndef AUTOEM_PREPROCESS_PCA_H_
#define AUTOEM_PREPROCESS_PCA_H_

#include <string>
#include <vector>

#include "preprocess/transform.h"

namespace autoem {

/// Principal component analysis via Jacobi eigendecomposition of the
/// covariance matrix. Keeps the smallest number of components whose
/// explained-variance ratio reaches `keep_variance` (auto-sklearn's
/// pca:keep_variance knob). Inputs must be NaN-free (run the imputer first;
/// Fit returns FailedPrecondition otherwise).
class Pca : public Transform {
 public:
  explicit Pca(double keep_variance = 0.95);

  Status Fit(const Matrix& X, const std::vector<int>& y) override;
  Matrix Apply(const Matrix& X) const override;
  std::vector<std::string> OutputNames(
      const std::vector<std::string>& input_names) const override;
  std::string name() const override { return "pca"; }
  Result<size_t> OutputWidth(size_t input_width) const override;
  Status SaveState(io::Writer* w) const override;
  Status LoadState(io::Reader* r) override;

  size_t num_components() const { return components_.size(); }
  const std::vector<double>& explained_variance() const {
    return explained_variance_;
  }

 private:
  double keep_variance_;
  std::vector<double> mean_;
  /// components_[k] is the k-th principal axis (length = input dim).
  std::vector<std::vector<double>> components_;
  std::vector<double> explained_variance_;
};

/// Symmetric eigendecomposition by cyclic Jacobi rotations. `a` is a dense
/// symmetric matrix in row-major order (n x n); outputs eigenvalues and
/// matching eigenvectors (rows of `eigenvectors`), sorted descending.
/// Exposed for tests.
void JacobiEigenSymmetric(std::vector<double> a, size_t n,
                          std::vector<double>* eigenvalues,
                          std::vector<std::vector<double>>* eigenvectors);

}  // namespace autoem

#endif  // AUTOEM_PREPROCESS_PCA_H_
