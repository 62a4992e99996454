#include "preprocess/feature_selection.h"

#include "io/serialize.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/stats.h"

namespace autoem {

namespace {

Result<std::vector<double>> ComputeScores(const std::string& score_func,
                                          const Matrix& X,
                                          const std::vector<int>& y,
                                          std::vector<double>* p_values) {
  if (score_func == "f_classif") return AnovaFScores(X, y, p_values);
  if (score_func == "chi2") return Chi2Scores(X, y, p_values);
  return Status::InvalidArgument("unknown score function: " + score_func);
}

// OutputWidth of a column selection: every kept index must lie inside the
// input.
Result<size_t> SelectedWidth(const std::string& component,
                             const std::vector<size_t>& selected,
                             size_t input_width) {
  for (size_t c : selected) {
    if (c >= input_width) {
      return Status::InvalidArgument(
          component + ": selects column " + std::to_string(c) +
          ", input has " + std::to_string(input_width));
    }
  }
  return selected.size();
}

std::vector<std::string> SelectNames(const std::vector<std::string>& names,
                                     const std::vector<size_t>& selected) {
  std::vector<std::string> out;
  out.reserve(selected.size());
  for (size_t i : selected) {
    out.push_back(i < names.size() ? names[i] : "f" + std::to_string(i));
  }
  return out;
}

}  // namespace

// ---- SelectPercentile --------------------------------------------------------

SelectPercentile::SelectPercentile(double percentile, std::string score_func)
    : percentile_(percentile), score_func_(std::move(score_func)) {}

Status SelectPercentile::Fit(const Matrix& X, const std::vector<int>& y) {
  if (percentile_ <= 0.0 || percentile_ > 100.0) {
    return Status::InvalidArgument("percentile must be in (0, 100]");
  }
  auto scores = ComputeScores(score_func_, X, y, nullptr);
  if (!scores.ok()) return scores.status();

  size_t n_keep = static_cast<size_t>(
      std::ceil(percentile_ / 100.0 * static_cast<double>(X.cols())));
  n_keep = std::clamp<size_t>(n_keep, 1, X.cols());

  std::vector<size_t> order(X.cols());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*scores)[a] > (*scores)[b];
  });
  selected_.assign(order.begin(), order.begin() + n_keep);
  std::sort(selected_.begin(), selected_.end());  // preserve feature order
  return Status::OK();
}

Matrix SelectPercentile::Apply(const Matrix& X) const {
  return X.SelectCols(selected_);
}

std::vector<std::string> SelectPercentile::OutputNames(
    const std::vector<std::string>& input_names) const {
  return SelectNames(input_names, selected_);
}

// ---- SelectRates --------------------------------------------------------------

SelectRates::SelectRates(double alpha, std::string mode,
                         std::string score_func)
    : alpha_(alpha), mode_(std::move(mode)),
      score_func_(std::move(score_func)) {}

Status SelectRates::Fit(const Matrix& X, const std::vector<int>& y) {
  if (alpha_ <= 0.0 || alpha_ >= 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (mode_ != "fpr" && mode_ != "fdr" && mode_ != "fwe") {
    return Status::InvalidArgument("unknown select_rates mode: " + mode_);
  }
  std::vector<double> p_values;
  auto scores = ComputeScores(score_func_, X, y, &p_values);
  if (!scores.ok()) return scores.status();

  const size_t d = X.cols();
  selected_.clear();
  if (mode_ == "fpr") {
    for (size_t f = 0; f < d; ++f) {
      if (p_values[f] < alpha_) selected_.push_back(f);
    }
  } else if (mode_ == "fwe") {
    double bonferroni = alpha_ / static_cast<double>(d);
    for (size_t f = 0; f < d; ++f) {
      if (p_values[f] < bonferroni) selected_.push_back(f);
    }
  } else {  // fdr: Benjamini-Hochberg step-up
    std::vector<size_t> order(d);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return p_values[a] < p_values[b]; });
    size_t cutoff = 0;  // number of rejections
    for (size_t k = 0; k < d; ++k) {
      double threshold =
          alpha_ * static_cast<double>(k + 1) / static_cast<double>(d);
      if (p_values[order[k]] <= threshold) cutoff = k + 1;
    }
    selected_.assign(order.begin(), order.begin() + cutoff);
    std::sort(selected_.begin(), selected_.end());
  }
  if (selected_.empty()) {
    // Never emit a zero-column matrix: keep the single best-scoring feature
    // (sklearn raises here; keeping one feature is friendlier to search).
    size_t best = 0;
    for (size_t f = 1; f < d; ++f) {
      if ((*scores)[f] > (*scores)[best]) best = f;
    }
    selected_.push_back(best);
  }
  return Status::OK();
}

Matrix SelectRates::Apply(const Matrix& X) const {
  return X.SelectCols(selected_);
}

std::vector<std::string> SelectRates::OutputNames(
    const std::vector<std::string>& input_names) const {
  return SelectNames(input_names, selected_);
}

// ---- VarianceThreshold ---------------------------------------------------------

VarianceThreshold::VarianceThreshold(double threshold)
    : threshold_(threshold) {}

Status VarianceThreshold::Fit(const Matrix& X, const std::vector<int>& y) {
  (void)y;
  selected_.clear();
  double best_var = -1.0;
  size_t best = 0;
  for (size_t c = 0; c < X.cols(); ++c) {
    double var = NanVariance(X.ColVector(c));
    if (var > threshold_) selected_.push_back(c);
    if (var > best_var) {
      best_var = var;
      best = c;
    }
  }
  if (selected_.empty() && X.cols() > 0) selected_.push_back(best);
  return Status::OK();
}

Matrix VarianceThreshold::Apply(const Matrix& X) const {
  return X.SelectCols(selected_);
}

std::vector<std::string> VarianceThreshold::OutputNames(
    const std::vector<std::string>& input_names) const {
  return SelectNames(input_names, selected_);
}


Result<size_t> SelectPercentile::OutputWidth(size_t input_width) const {
  return SelectedWidth(name(), selected_, input_width);
}

Result<size_t> SelectRates::OutputWidth(size_t input_width) const {
  return SelectedWidth(name(), selected_, input_width);
}

Result<size_t> VarianceThreshold::OutputWidth(size_t input_width) const {
  return SelectedWidth(name(), selected_, input_width);
}

Status SelectPercentile::SaveState(io::Writer* w) const {
  w->VecIdx(selected_);
  return Status::OK();
}

Status SelectPercentile::LoadState(io::Reader* r) {
  return r->VecIdx(&selected_);
}

Status SelectRates::SaveState(io::Writer* w) const {
  w->VecIdx(selected_);
  return Status::OK();
}

Status SelectRates::LoadState(io::Reader* r) {
  return r->VecIdx(&selected_);
}

Status VarianceThreshold::SaveState(io::Writer* w) const {
  w->VecIdx(selected_);
  return Status::OK();
}

Status VarianceThreshold::LoadState(io::Reader* r) {
  return r->VecIdx(&selected_);
}

}  // namespace autoem
