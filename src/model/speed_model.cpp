#include "model/speed_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace easched::model {

SpeedModel SpeedModel::continuous(double fmin, double fmax) {
  EASCHED_CHECK_MSG(fmin > 0.0 && fmin <= fmax, "need 0 < fmin <= fmax");
  return SpeedModel(SpeedModelKind::kContinuous, fmin, fmax, 0.0, {});
}

namespace {
std::vector<double> normalize_levels(std::vector<double> levels) {
  EASCHED_CHECK_MSG(!levels.empty(), "discrete model needs at least one speed");
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end(),
                           [](double a, double b) { return std::fabs(a - b) < 1e-12; }),
               levels.end());
  EASCHED_CHECK_MSG(levels.front() > 0.0, "speeds must be positive");
  return levels;
}
}  // namespace

SpeedModel SpeedModel::discrete(std::vector<double> levels) {
  auto ls = normalize_levels(std::move(levels));
  const double lo = ls.front(), hi = ls.back();
  return SpeedModel(SpeedModelKind::kDiscrete, lo, hi, 0.0, std::move(ls));
}

SpeedModel SpeedModel::vdd_hopping(std::vector<double> levels) {
  auto ls = normalize_levels(std::move(levels));
  const double lo = ls.front(), hi = ls.back();
  return SpeedModel(SpeedModelKind::kVddHopping, lo, hi, 0.0, std::move(ls));
}

SpeedModel SpeedModel::incremental(double fmin, double fmax, double delta) {
  EASCHED_CHECK_MSG(fmin > 0.0 && fmin <= fmax, "need 0 < fmin <= fmax");
  EASCHED_CHECK_MSG(delta > 0.0, "need delta > 0");
  EASCHED_CHECK_MSG((fmax - fmin) / delta <= kMaxIncrementalLevels,
                    "delta gives too many speed levels");
  // Below one ulp of fmax, `f += delta` could leave f unchanged.
  EASCHED_CHECK_MSG(delta >= fmax * std::numeric_limits<double>::epsilon(),
                    "delta is too small to change fmax");
  std::vector<double> levels;
  for (double f = fmin; f < fmax - 1e-12; f += delta) levels.push_back(f);
  levels.push_back(fmax);
  return SpeedModel(SpeedModelKind::kIncremental, fmin, fmax, delta, std::move(levels));
}

bool SpeedModel::admissible(double f, double tolerance) const {
  if (kind_ == SpeedModelKind::kContinuous) {
    return f >= fmin_ - tolerance && f <= fmax_ + tolerance;
  }
  for (double level : levels_) {
    if (std::fabs(level - f) <= tolerance) return true;
  }
  return false;
}

common::Result<double> SpeedModel::round_up(double f) const {
  if (f > fmax_ * (1.0 + 1e-12)) {
    return common::Status::infeasible("requested speed above fmax");
  }
  if (kind_ == SpeedModelKind::kContinuous) return std::max(f, fmin_);
  for (double level : levels_) {
    if (level >= f - 1e-12) return level;
  }
  return fmax_;  // unreachable given the guard above
}

common::Result<double> SpeedModel::round_down(double f) const {
  if (f < fmin_ * (1.0 - 1e-12)) {
    return common::Status::infeasible("requested speed below fmin");
  }
  if (kind_ == SpeedModelKind::kContinuous) return std::min(f, fmax_);
  for (auto it = levels_.rbegin(); it != levels_.rend(); ++it) {
    if (*it <= f + 1e-12) return *it;
  }
  return fmin_;  // unreachable given the guard above
}

std::pair<double, double> SpeedModel::bracket(double f) const {
  const double fc = std::clamp(f, fmin_, fmax_);
  if (kind_ == SpeedModelKind::kContinuous) return {fc, fc};
  double lo = levels_.front();
  for (double level : levels_) {
    if (level <= fc + 1e-12) {
      lo = level;
    } else {
      return {lo, level};
    }
  }
  return {levels_.back(), levels_.back()};
}

std::vector<double> xscale_levels() {
  // Normalised Intel XScale (PXA) frequency ladder (GHz-scale units).
  return {0.15, 0.4, 0.6, 0.8, 1.0};
}

}  // namespace easched::model
