#include "analysis/sweep.hpp"

#include <cmath>
#include <mutex>

#include "analysis/unit_runner.hpp"
#include "base/error.hpp"

namespace vls {

size_t Sweep2dResult::functionalCount() const {
  size_t n = 0;
  for (const auto& p : points) {
    if (p.metrics.functional) ++n;
  }
  return n;
}

Sweep2dResult sweepSupplies(const HarnessConfig& base, const Sweep2dConfig& config) {
  if (config.step <= 0.0 || config.v_max < config.v_min) {
    throw InvalidInputError("sweepSupplies: bad grid");
  }
  Sweep2dResult result;
  const int n = static_cast<int>(std::floor((config.v_max - config.v_min) / config.step + 0.5)) + 1;
  for (int k = 0; k < n; ++k) {
    result.vddi_axis.push_back(config.v_min + k * config.step);
  }
  result.vddo_axis = result.vddi_axis;

  // Grid points are independent simulations: one runner unit each,
  // writing its pre-sized row-major slot so the result layout never
  // depends on completion order. A point that still throws after its
  // escalated retry keeps its failure in the point's fields.
  const size_t cols = result.vddo_axis.size();
  const size_t total = result.vddi_axis.size() * cols;
  result.points.resize(total);
  const UnitRunOptions run{.threads = config.threads, .recovery = base.sim.recovery};
  size_t done = 0;
  std::mutex progress_mutex;
  runUnitGroups(
      total, 1,
      [&](size_t idx, size_t) {
        SweepPoint p;
        p.vddi = result.vddi_axis[idx / cols];
        p.vddo = result.vddo_axis[idx % cols];
        UnitResult<ShifterMetrics> r = runUnitAttempts<ShifterMetrics>(
            idx,
            [&](const RecoveryPolicy& policy) {
              HarnessConfig cfg = base;
              cfg.vddi = p.vddi;
              cfg.vddo = p.vddo;
              cfg.sim = attemptOptions(base.sim, policy);
              return measureShifter(cfg);
            },
            run);
        p.metrics = r.value;
        if (!r.ok()) {
          p.metrics.functional = false;
          p.error = r.failure->message;
          p.failure_stage = r.failure->stage;
          p.failure_node = r.failure->node;
        }
        if (config.on_point) {
          // Progress callbacks are serialized; `done` counts
          // completions, which under parallel execution need not
          // follow grid order.
          std::lock_guard<std::mutex> lock(progress_mutex);
          config.on_point(p, ++done, total);
        }
        result.points[idx] = std::move(p);
      },
      run);
  return result;
}

}  // namespace vls
