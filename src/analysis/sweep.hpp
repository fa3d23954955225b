// 2-D supply sweep engine (Figures 8/9 and the functional-range claim):
// run the harness over a VDDI x VDDO grid and collect delays and
// functionality.
#pragma once

#include <functional>
#include <vector>

#include "analysis/shifter_harness.hpp"

namespace vls {

struct SweepPoint {
  double vddi = 0.0;
  double vddo = 0.0;
  ShifterMetrics metrics;
  /// Set when the point's simulation threw on its first attempt and on
  /// its escalated retry (metrics.functional is then forced false): the
  /// thrown message, plus the deepest recovery-ladder stage and
  /// implicated node when the throw carried ConvergenceDiagnostics.
  std::string error;
  std::string failure_stage;
  std::string failure_node;
};

struct Sweep2dConfig {
  double v_min = 0.8;
  double v_max = 1.4;
  double step = 0.05;
  /// Called after each point (progress reporting); may be null. Calls
  /// are serialized, but arrive in completion order when threads > 1.
  std::function<void(const SweepPoint&, size_t done, size_t total)> on_point;
  /// Worker threads for the grid: 0 = parallelThreadCount().
  int threads = 0;
};

struct Sweep2dResult {
  std::vector<double> vddi_axis;
  std::vector<double> vddo_axis;
  std::vector<SweepPoint> points;  ///< row-major: vddi outer, vddo inner

  const SweepPoint& at(size_t i_vddi, size_t i_vddo) const {
    return points[i_vddi * vddo_axis.size() + i_vddo];
  }
  size_t functionalCount() const;
};

/// Sweep `base` (its vddi/vddo are overwritten) over the grid.
Sweep2dResult sweepSupplies(const HarnessConfig& base, const Sweep2dConfig& config);

}  // namespace vls
