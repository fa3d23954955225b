#include "analysis/corners.hpp"

#include "analysis/unit_runner.hpp"
#include "base/logging.hpp"
#include "devices/mosfet.hpp"

namespace vls {

std::vector<CornerSpec> standardCorners(double k) {
  std::vector<CornerSpec> out;
  out.push_back({"TT", 0.0, 0.0, 0.0, 0.0, 27.0, 1.0});
  // Fast: lower VT, wider/shorter; slow: the reverse. Hot-slow and
  // cold-fast pair the electrical and environmental worst cases.
  out.push_back({"FF", -k * 0.39, -k * 0.39, +0.05, -0.05, 0.0, 1.05});
  out.push_back({"SS", +k * 0.39, +k * 0.39, -0.05, +0.05, 90.0, 0.95});
  out.push_back({"FS", -k * 0.39, +k * 0.39, 0.0, 0.0, 27.0, 1.0});
  out.push_back({"SF", +k * 0.39, -k * 0.39, 0.0, 0.0, 27.0, 1.0});
  return out;
}

void applyProcessSkew(ShifterTestbench& tb, const CornerSpec& corner) {
  for (Mosfet* fet : tb.dutFets()) {
    MosGeometry g = fet->geometry();
    const bool is_nmos = fet->model().type == MosType::Nmos;
    g.delta_vt = is_nmos ? corner.nmos_dvt : corner.pmos_dvt;
    g.delta_w = g.w * corner.dw_frac;
    g.delta_l = g.l * corner.dl_frac;
    fet->setGeometry(g);
  }
}

std::vector<CornerResult> runCorners(const HarnessConfig& base,
                                     const std::vector<CornerSpec>& corners) {
  // Corners are independent simulations: one runner unit each. A corner
  // that still throws after its escalated retry is reported
  // non-functional.
  const auto outcomes = runUnits<ShifterMetrics>(
      corners.size(),
      [&](size_t i, const RecoveryPolicy& policy) {
        const CornerSpec& corner = corners[i];
        HarnessConfig cfg = base;
        cfg.temperature_c = corner.temperature_c;
        cfg.vddi = base.vddi * corner.supply_scale;
        cfg.vddo = base.vddo * corner.supply_scale;
        cfg.sim = attemptOptions(base.sim, policy);
        ShifterTestbench tb(cfg);
        applyProcessSkew(tb, corner);
        return tb.measure();
      },
      {.recovery = base.sim.recovery});
  std::vector<CornerResult> results(corners.size());
  for (size_t i = 0; i < corners.size(); ++i) {
    results[i].corner = corners[i];
    results[i].metrics = outcomes[i].value;
    if (!outcomes[i].ok()) {
      VLS_LOG_WARN("corner %s failed: %s", corners[i].name.c_str(),
                   outcomes[i].failure->message.c_str());
      results[i].metrics.functional = false;
    }
  }
  return results;
}

}  // namespace vls
