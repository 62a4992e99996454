#ifndef AUTOEM_PREPROCESS_FEATURE_AGGLOMERATION_H_
#define AUTOEM_PREPROCESS_FEATURE_AGGLOMERATION_H_

#include <string>
#include <vector>

#include "preprocess/transform.h"

namespace autoem {

/// Agglomerative clustering of *features* (scikit-learn's
/// FeatureAgglomeration, one of the Fig. 4 feature preprocessors): features
/// are merged bottom-up by average-linkage on correlation distance
/// (1 - |pearson|), and each output feature is the mean of one cluster.
class FeatureAgglomeration : public Transform {
 public:
  explicit FeatureAgglomeration(int n_clusters = 25);

  Status Fit(const Matrix& X, const std::vector<int>& y) override;
  Matrix Apply(const Matrix& X) const override;
  std::vector<std::string> OutputNames(
      const std::vector<std::string>& input_names) const override;
  std::string name() const override { return "feature_agglomeration"; }
  Result<size_t> OutputWidth(size_t input_width) const override {
    auto width = SameWidth(name(), cluster_of_.size(), input_width);
    if (!width.ok()) return width;
    return num_clusters_;
  }
  Status SaveState(io::Writer* w) const override;
  Status LoadState(io::Reader* r) override;

  /// cluster_of()[f] = output cluster id of input feature f.
  const std::vector<size_t>& cluster_of() const { return cluster_of_; }
  size_t num_clusters() const { return num_clusters_; }

 private:
  int requested_clusters_;
  size_t num_clusters_ = 0;
  std::vector<size_t> cluster_of_;
};

}  // namespace autoem

#endif  // AUTOEM_PREPROCESS_FEATURE_AGGLOMERATION_H_
