#include "preprocess/pca.h"

#include "io/serialize.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace autoem {

void JacobiEigenSymmetric(std::vector<double> a, size_t n,
                          std::vector<double>* eigenvalues,
                          std::vector<std::vector<double>>* eigenvectors) {
  // v starts as identity; accumulates rotations.
  std::vector<double> v(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;

  const int kMaxSweeps = 60;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double off = 0.0;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) off += a[p * n + q] * a[p * n + q];
    }
    if (off < 1e-20) break;

    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        double apq = a[p * n + q];
        if (std::fabs(apq) < 1e-18) continue;
        double app = a[p * n + p];
        double aqq = a[q * n + q];
        double theta = (aqq - app) / (2.0 * apq);
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        double c = 1.0 / std::sqrt(t * t + 1.0);
        double s = t * c;

        for (size_t k = 0; k < n; ++k) {
          double akp = a[k * n + p];
          double akq = a[k * n + q];
          a[k * n + p] = c * akp - s * akq;
          a[k * n + q] = s * akp + c * akq;
        }
        for (size_t k = 0; k < n; ++k) {
          double apk = a[p * n + k];
          double aqk = a[q * n + k];
          a[p * n + k] = c * apk - s * aqk;
          a[q * n + k] = s * apk + c * aqk;
        }
        for (size_t k = 0; k < n; ++k) {
          double vkp = v[k * n + p];
          double vkq = v[k * n + q];
          v[k * n + p] = c * vkp - s * vkq;
          v[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return a[x * n + x] > a[y * n + y];
  });

  eigenvalues->resize(n);
  eigenvectors->assign(n, std::vector<double>(n));
  for (size_t rank = 0; rank < n; ++rank) {
    size_t col = order[rank];
    (*eigenvalues)[rank] = a[col * n + col];
    for (size_t k = 0; k < n; ++k) {
      (*eigenvectors)[rank][k] = v[k * n + col];
    }
  }
}

Pca::Pca(double keep_variance) : keep_variance_(keep_variance) {}

Status Pca::Fit(const Matrix& X, const std::vector<int>& y) {
  (void)y;
  if (X.rows() < 2 || X.cols() == 0) {
    return Status::InvalidArgument("PCA needs at least 2 rows");
  }
  if (keep_variance_ <= 0.0 || keep_variance_ > 1.0) {
    return Status::InvalidArgument("keep_variance must be in (0, 1]");
  }
  const size_t n = X.rows();
  const size_t d = X.cols();
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) {
      if (!std::isfinite(X.At(r, c))) {
        return Status::FailedPrecondition(
            "PCA input contains NaN; impute first");
      }
    }
  }

  mean_.assign(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) mean_[c] += X.At(r, c);
  }
  for (double& m : mean_) m /= static_cast<double>(n);

  // Covariance (d x d).
  std::vector<double> cov(d * d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < d; ++i) {
      double di = X.At(r, i) - mean_[i];
      for (size_t j = i; j < d; ++j) {
        cov[i * d + j] += di * (X.At(r, j) - mean_[j]);
      }
    }
  }
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) {
      cov[i * d + j] /= static_cast<double>(n - 1);
      cov[j * d + i] = cov[i * d + j];
    }
  }

  std::vector<double> eigenvalues;
  std::vector<std::vector<double>> eigenvectors;
  JacobiEigenSymmetric(std::move(cov), d, &eigenvalues, &eigenvectors);

  double total = 0.0;
  for (double ev : eigenvalues) total += std::max(ev, 0.0);
  components_.clear();
  explained_variance_.clear();
  if (total <= 0.0) {
    // Constant data: keep one arbitrary axis so Apply stays well-formed.
    components_.push_back(eigenvectors[0]);
    explained_variance_.push_back(0.0);
    return Status::OK();
  }
  double cum = 0.0;
  for (size_t k = 0; k < d; ++k) {
    components_.push_back(eigenvectors[k]);
    explained_variance_.push_back(std::max(eigenvalues[k], 0.0));
    cum += std::max(eigenvalues[k], 0.0) / total;
    if (cum >= keep_variance_) break;
  }
  return Status::OK();
}

Matrix Pca::Apply(const Matrix& X) const {
  const size_t d = mean_.size();
  AUTOEM_CHECK(X.cols() == d);
  Matrix out(X.rows(), components_.size());
  for (size_t r = 0; r < X.rows(); ++r) {
    for (size_t k = 0; k < components_.size(); ++k) {
      double dot = 0.0;
      for (size_t c = 0; c < d; ++c) {
        double v = X.At(r, c);
        if (!std::isfinite(v)) v = mean_[c];  // defensive NaN handling
        dot += (v - mean_[c]) * components_[k][c];
      }
      out.At(r, k) = dot;
    }
  }
  return out;
}

std::vector<std::string> Pca::OutputNames(
    const std::vector<std::string>& input_names) const {
  (void)input_names;
  std::vector<std::string> out;
  out.reserve(components_.size());
  for (size_t k = 0; k < components_.size(); ++k) {
    out.push_back("pc" + std::to_string(k));
  }
  return out;
}


Result<size_t> Pca::OutputWidth(size_t input_width) const {
  auto width = SameWidth(name(), mean_.size(), input_width);
  if (!width.ok()) return width;
  for (const auto& axis : components_) {
    if (axis.size() != input_width) {
      return Status::InvalidArgument(name() + ": a component has " +
                                     std::to_string(axis.size()) +
                                     " entries, input has " +
                                     std::to_string(input_width) + " columns");
    }
  }
  return components_.size();
}

Status Pca::SaveState(io::Writer* w) const {
  w->VecF64(mean_);
  w->U64(components_.size());
  for (const auto& axis : components_) w->VecF64(axis);
  w->VecF64(explained_variance_);
  return Status::OK();
}

Status Pca::LoadState(io::Reader* r) {
  AUTOEM_RETURN_IF_ERROR(r->VecF64(&mean_));
  uint64_t n_components;
  AUTOEM_RETURN_IF_ERROR(r->Len(&n_components, sizeof(uint64_t)));
  components_.assign(static_cast<size_t>(n_components), {});
  for (auto& axis : components_) AUTOEM_RETURN_IF_ERROR(r->VecF64(&axis));
  return r->VecF64(&explained_variance_);
}

}  // namespace autoem
