#include "preprocess/scalers.h"

#include "io/serialize.h"

#include <cmath>

#include "ml/stats.h"

namespace autoem {

namespace {

// OutputWidth of an AffineApply transform: both statistics span the input.
Result<size_t> AffineWidth(const std::string& component,
                           const std::vector<double>& center,
                           const std::vector<double>& inv_scale,
                           size_t input_width) {
  if (center.size() != inv_scale.size()) {
    return Status::InvalidArgument(component +
                                   ": center and scale lengths differ");
  }
  return SameWidth(component, center.size(), input_width);
}

// Applies out = (v - center) * inv_scale element-wise, skipping NaN.
Matrix AffineApply(const Matrix& X, const std::vector<double>& center,
                   const std::vector<double>& inv_scale) {
  Matrix out = X;
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      double v = out.At(r, c);
      if (std::isfinite(v)) {
        out.At(r, c) = (v - center[c]) * inv_scale[c];
      }
    }
  }
  return out;
}

}  // namespace

Status StandardScaler::Fit(const Matrix& X, const std::vector<int>& y) {
  (void)y;
  if (X.cols() == 0) return Status::InvalidArgument("empty matrix");
  mean_.assign(X.cols(), 0.0);
  inv_std_.assign(X.cols(), 1.0);
  for (size_t c = 0; c < X.cols(); ++c) {
    std::vector<double> col = X.ColVector(c);
    mean_[c] = NanMean(col);
    double var = NanVariance(col);
    inv_std_[c] = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
  }
  return Status::OK();
}

Matrix StandardScaler::Apply(const Matrix& X) const {
  return AffineApply(X, mean_, inv_std_);
}

Status MinMaxScaler::Fit(const Matrix& X, const std::vector<int>& y) {
  (void)y;
  if (X.cols() == 0) return Status::InvalidArgument("empty matrix");
  min_.assign(X.cols(), 0.0);
  inv_range_.assign(X.cols(), 1.0);
  for (size_t c = 0; c < X.cols(); ++c) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < X.rows(); ++r) {
      double v = X.At(r, c);
      if (std::isfinite(v)) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    if (!std::isfinite(lo)) continue;  // all-NaN column
    min_[c] = lo;
    inv_range_[c] = (hi - lo) > 1e-12 ? 1.0 / (hi - lo) : 1.0;
  }
  return Status::OK();
}

Matrix MinMaxScaler::Apply(const Matrix& X) const {
  return AffineApply(X, min_, inv_range_);
}

RobustScaler::RobustScaler(double q_min, double q_max)
    : q_min_(q_min), q_max_(q_max) {}

Status RobustScaler::Fit(const Matrix& X, const std::vector<int>& y) {
  (void)y;
  if (X.cols() == 0) return Status::InvalidArgument("empty matrix");
  if (q_min_ < 0.0 || q_max_ > 100.0 || q_min_ >= q_max_) {
    return Status::InvalidArgument("invalid quantile range");
  }
  center_.assign(X.cols(), 0.0);
  inv_scale_.assign(X.cols(), 1.0);
  for (size_t c = 0; c < X.cols(); ++c) {
    std::vector<double> col = X.ColVector(c);
    double median = NanQuantile(col, 0.5);
    if (!std::isfinite(median)) continue;  // all-NaN column
    center_[c] = median;
    double lo = NanQuantile(col, q_min_ / 100.0);
    double hi = NanQuantile(col, q_max_ / 100.0);
    double range = hi - lo;
    inv_scale_[c] = range > 1e-12 ? 1.0 / range : 1.0;
  }
  return Status::OK();
}

Matrix RobustScaler::Apply(const Matrix& X) const {
  return AffineApply(X, center_, inv_scale_);
}


Result<size_t> StandardScaler::OutputWidth(size_t input_width) const {
  return AffineWidth(name(), mean_, inv_std_, input_width);
}

Result<size_t> MinMaxScaler::OutputWidth(size_t input_width) const {
  return AffineWidth(name(), min_, inv_range_, input_width);
}

Result<size_t> RobustScaler::OutputWidth(size_t input_width) const {
  return AffineWidth(name(), center_, inv_scale_, input_width);
}

Status StandardScaler::SaveState(io::Writer* w) const {
  w->VecF64(mean_);
  w->VecF64(inv_std_);
  return Status::OK();
}

Status StandardScaler::LoadState(io::Reader* r) {
  AUTOEM_RETURN_IF_ERROR(r->VecF64(&mean_));
  return r->VecF64(&inv_std_);
}

Status MinMaxScaler::SaveState(io::Writer* w) const {
  w->VecF64(min_);
  w->VecF64(inv_range_);
  return Status::OK();
}

Status MinMaxScaler::LoadState(io::Reader* r) {
  AUTOEM_RETURN_IF_ERROR(r->VecF64(&min_));
  return r->VecF64(&inv_range_);
}

Status RobustScaler::SaveState(io::Writer* w) const {
  w->VecF64(center_);
  w->VecF64(inv_scale_);
  return Status::OK();
}

Status RobustScaler::LoadState(io::Reader* r) {
  AUTOEM_RETURN_IF_ERROR(r->VecF64(&center_));
  return r->VecF64(&inv_scale_);
}

}  // namespace autoem
