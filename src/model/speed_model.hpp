#pragma once
// Speed (DVFS) models of the paper, section II:
//
//  * CONTINUOUS:  any speed in [fmin, fmax].
//  * DISCRETE:    speeds in a finite set {f1..fm}; one speed per task.
//  * VDD-HOPPING: speeds in a finite set, but a task may be executed as a
//                 mix of several speeds (speed changes during execution).
//  * INCREMENTAL: speeds fmin + i*delta, i = 0..(fmax-fmin)/delta — the
//                 "potentiometer knob" regular counterpart of DISCRETE.
//
// One class covers all four kinds; discrete kinds expose their level set,
// the continuous kind its interval. VDD mixing semantics live with the
// solvers (bicrit/vdd_lp, tricrit/vdd_adapt), not here: VDD shares the
// DISCRETE level set and only changes what a schedule may do with it.

#include <utility>
#include <vector>

#include "common/status.hpp"

namespace easched::model {

enum class SpeedModelKind { kContinuous, kDiscrete, kVddHopping, kIncremental };

constexpr const char* to_string(SpeedModelKind k) noexcept {
  switch (k) {
    case SpeedModelKind::kContinuous: return "CONTINUOUS";
    case SpeedModelKind::kDiscrete: return "DISCRETE";
    case SpeedModelKind::kVddHopping: return "VDD-HOPPING";
    case SpeedModelKind::kIncremental: return "INCREMENTAL";
  }
  return "UNKNOWN";
}

class SpeedModel {
 public:
  /// Continuous speeds in [fmin, fmax], 0 < fmin <= fmax.
  static SpeedModel continuous(double fmin, double fmax);
  /// Discrete speed set (positive, deduplicated, sorted internally).
  static SpeedModel discrete(std::vector<double> levels);
  /// VDD-hopping over a discrete speed set.
  static SpeedModel vdd_hopping(std::vector<double> levels);
  /// Incremental: fmin + i*delta up to fmax (fmax always admissible; the
  /// last step is shortened when (fmax-fmin) is not a multiple of delta,
  /// which matches "admissible speeds lie in [fmin,fmax]"). Throws when
  /// delta would need more than kMaxIncrementalLevels levels, or is too
  /// small to change fmax.
  static SpeedModel incremental(double fmin, double fmax, double delta);
  /// Cap on an INCREMENTAL model's level count: far above any real DVFS
  /// ladder, and a bound on what a peer-supplied delta can allocate.
  static constexpr int kMaxIncrementalLevels = 1 << 16;

  SpeedModelKind kind() const noexcept { return kind_; }
  bool is_discrete_kind() const noexcept { return kind_ != SpeedModelKind::kContinuous; }

  double fmin() const noexcept { return fmin_; }
  double fmax() const noexcept { return fmax_; }
  /// Step of the INCREMENTAL model (0 for the others).
  double delta() const noexcept { return delta_; }

  /// Levels of a discrete-kind model (empty for CONTINUOUS).
  const std::vector<double>& levels() const noexcept { return levels_; }
  int num_levels() const noexcept { return static_cast<int>(levels_.size()); }

  /// May a *single execution* run entirely at speed f?
  bool admissible(double f, double tolerance = 1e-9) const;

  /// Smallest admissible speed >= f; kInfeasible when f > fmax.
  common::Result<double> round_up(double f) const;
  /// Largest admissible speed <= f; kInfeasible when f < fmin.
  common::Result<double> round_down(double f) const;

  /// For discrete kinds: the pair of consecutive levels (lo, hi) with
  /// lo <= f <= hi (lo == hi when f is a level). Clamps f into [fmin,fmax].
  std::pair<double, double> bracket(double f) const;

 private:
  SpeedModel(SpeedModelKind kind, double fmin, double fmax, double delta,
             std::vector<double> levels)
      : kind_(kind), fmin_(fmin), fmax_(fmax), delta_(delta), levels_(std::move(levels)) {}

  SpeedModelKind kind_;
  double fmin_;
  double fmax_;
  double delta_ = 0.0;
  std::vector<double> levels_;
};

/// The Intel XScale-like level set used throughout the benches (the paper
/// cites Intel XScale as the canonical DISCRETE example).
std::vector<double> xscale_levels();

}  // namespace easched::model
