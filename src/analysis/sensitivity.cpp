#include "analysis/sensitivity.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/unit_runner.hpp"

namespace vls {

SensitivityReport analyzeVtSensitivity(const HarnessConfig& config, double vt_step) {
  SensitivityReport report;
  ShifterTestbench probe(config);
  const size_t n = probe.dutFets().size();

  // The 2n probe simulations (+/- step per device) are independent
  // runner units; the central differences combine serially in id order.
  // A probe that still throws after its escalated retry fails the whole
  // analysis with the probe's own exception.
  const std::vector<ShifterMetrics> probes = unitValuesOrRethrow(runUnits<ShifterMetrics>(
      2 * n,
      [&](size_t t, const RecoveryPolicy& policy) {
        HarnessConfig cfg = config;
        cfg.sim = attemptOptions(config.sim, policy);
        ShifterTestbench tb(cfg);
        tb.dutFets()[t / 2]->geometry().delta_vt = t % 2 == 0 ? vt_step : -vt_step;
        return tb.measure();
      },
      {.recovery = config.sim.recovery}));

  double variance_rise = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const std::string name = probe.dutFets()[i]->name();
    const double vt_nominal = probe.dutFets()[i]->model().vt0;
    const ShifterMetrics& hi = probes[2 * i];
    const ShifterMetrics& lo = probes[2 * i + 1];

    SensitivityEntry e;
    e.device = name;
    const double inv2h = 1.0 / (2.0 * vt_step);
    e.d_delay_rise = (hi.delay_rise - lo.delay_rise) * inv2h;
    e.d_delay_fall = (hi.delay_fall - lo.delay_fall) * inv2h;
    e.d_leak_high = (hi.leakage_high - lo.leakage_high) * inv2h;
    e.d_leak_low = (hi.leakage_low - lo.leakage_low) * inv2h;
    const double sigma_vt = 0.0334 * vt_nominal;  // the paper's sigma
    e.sigma_contrib_rise = std::fabs(e.d_delay_rise) * sigma_vt;
    variance_rise += e.sigma_contrib_rise * e.sigma_contrib_rise;
    report.entries.push_back(std::move(e));
  }
  report.predicted_sigma_rise = std::sqrt(variance_rise);
  std::sort(report.entries.begin(), report.entries.end(),
            [](const SensitivityEntry& a, const SensitivityEntry& b) {
              return a.sigma_contrib_rise > b.sigma_contrib_rise;
            });
  return report;
}

}  // namespace vls
