// Per-device sensitivity analysis: finite-difference derivatives of the
// harness metrics with respect to each DUT transistor's threshold
// voltage (and optionally width). Explains the Monte-Carlo sigmas of
// Tables 3/4 mechanistically: the variance decomposes as
// sigma_metric^2 ~ sum_i (dM/dVT_i)^2 sigma_VT_i^2 under the paper's
// independent-variation model.
#pragma once

#include <string>
#include <vector>

#include "analysis/shifter_harness.hpp"

namespace vls {

struct SensitivityEntry {
  std::string device;       ///< DUT transistor name
  double d_delay_rise = 0;  ///< s per volt of VT shift
  double d_delay_fall = 0;
  double d_leak_high = 0;   ///< A per volt
  double d_leak_low = 0;
  /// Predicted contribution to the rising-delay sigma under the
  /// paper's VT sigma (3.34% of that device's nominal VT).
  double sigma_contrib_rise = 0;
};

struct SensitivityReport {
  std::vector<SensitivityEntry> entries;  ///< sorted by |sigma_contrib_rise|
  double predicted_sigma_rise = 0;        ///< RSS of contributions [s]
};

/// Central-difference sensitivity scan over every DUT transistor.
/// `vt_step` is the probe step [V]. A probe that throws on its first
/// attempt and its escalated retry fails the scan with that exception.
SensitivityReport analyzeVtSensitivity(const HarnessConfig& config, double vt_step = 10e-3);

}  // namespace vls
