// Process-corner analysis: deterministic worst-case device skews
// (fast/slow NMOS x fast/slow PMOS, plus temperature and supply
// derating) complementing the statistical Monte-Carlo engine. The
// paper validates the SS-TVS under random variation; corners answer
// the sign-off question a library team would ask next.
#pragma once

#include <string>
#include <vector>

#include "analysis/shifter_harness.hpp"

namespace vls {

struct CornerSpec {
  std::string name = "TT";
  double nmos_dvt = 0.0;     ///< NMOS VT shift [V] (negative = fast)
  double pmos_dvt = 0.0;     ///< PMOS VT magnitude shift [V]
  double dw_frac = 0.0;      ///< width skew as a fraction
  double dl_frac = 0.0;      ///< length skew as a fraction
  double temperature_c = 27.0;
  double supply_scale = 1.0; ///< multiplies both VDDI and VDDO
};

/// The standard five-corner set at the given VT skew (default 3 sigma
/// of the paper's distribution = 10% of nominal VT).
std::vector<CornerSpec> standardCorners(double vt_skew_frac = 0.10);

/// Apply a corner's device skews (VT shifts, W/L skew) to the DUT
/// transistors of `tb`; supplies and temperature are the caller's.
void applyProcessSkew(ShifterTestbench& tb, const CornerSpec& corner);

struct CornerResult {
  CornerSpec corner;
  ShifterMetrics metrics;
};

/// Characterize one configuration across corners. Device skews apply to
/// the DUT transistors only (as in the paper's Monte-Carlo). A corner
/// whose simulation throws on its first attempt and its escalated
/// retry is reported with metrics.functional = false.
std::vector<CornerResult> runCorners(const HarnessConfig& base,
                                     const std::vector<CornerSpec>& corners);

}  // namespace vls
