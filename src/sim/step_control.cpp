#include "sim/step_control.hpp"

#include <algorithm>
#include <cmath>

namespace vls {

StepController::StepController(const SimOptions& options, double t_stop, double dt_max,
                               double dt_initial, std::vector<double> breakpoints)
    : t_stop_(t_stop),
      dt_max_(dt_max),
      dt_min_(options.dt_min),
      dt_shrink_(options.dt_shrink),
      dt_grow_max_(options.dt_grow_max),
      tran_vntol_(options.tran_vntol),
      tran_reltol_(options.tran_reltol),
      be_steps_(options.be_steps_after_breakpoint),
      force_be_(options.method == IntegrationMethod::BackwardEuler),
      breaks_(std::move(breakpoints)) {
  breaks_.push_back(t_stop);
  std::sort(breaks_.begin(), breaks_.end());
  breaks_.erase(std::unique(breaks_.begin(), breaks_.end(),
                            [](double a, double b) { return std::fabs(a - b) < 1e-18; }),
                breaks_.end());
  while (next_break_ < breaks_.size() && breaks_[next_break_] <= 1e-18) ++next_break_;
  dt_ = std::min(dt_initial > 0.0 ? dt_initial : dt_max / 100.0, dt_max);
}

const TransientStep& StepController::propose() {
  double dt = std::min(dt_, dt_max_);
  bool hits_break = false;
  if (next_break_ < breaks_.size()) {
    const double gap = breaks_[next_break_] - t_;
    if (dt >= gap - 1e-18) {
      dt = gap;
      hits_break = true;
    } else if (dt > 0.5 * gap) {
      dt = 0.5 * gap;
    }
  }
  step_.t_new = t_ + dt;
  step_.dt = dt;
  step_.hits_break = hits_break;
  step_.method = force_be_ || steps_since_break_ < be_steps_ ? IntegrationMethod::BackwardEuler
                                                              : IntegrationMethod::Trapezoidal;
  return step_;
}

double StepController::lteError(std::span<const double> x, std::span<const double> x_prev,
                                std::span<const double> x_try, size_t lanes,
                                const uint8_t* failed) const {
  double err = 0.0;
  if (!hasHistory()) return err;
  const size_t n = x.size() / lanes;
  for (size_t i = 0; i < n; ++i) {
    for (size_t l = 0; l < lanes; ++l) {
      if (failed != nullptr && failed[l]) continue;
      const size_t k = i * lanes + l;
      const double slope = (x[k] - x_prev[k]) / dt_prev_;
      const double pred = x[k] + slope * step_.dt;
      const double tol =
          tran_vntol_ + tran_reltol_ * std::max(std::fabs(x_try[k]), std::fabs(x[k]));
      err = std::max(err, std::fabs(x_try[k] - pred) / tol);
    }
  }
  return err;
}

bool StepController::rejectNewton() {
  ++rejected_;
  dt_ = step_.dt * dt_shrink_;
  return dt_ < dt_min_;
}

bool StepController::rejectLte(double err) {
  if (!(err > 8.0 && step_.dt > 16.0 * dt_min_)) return false;
  ++rejected_;
  dt_ = step_.dt * dt_shrink_;
  return true;
}

void StepController::accept(double err) {
  t_ = step_.t_new;
  dt_prev_ = step_.dt;
  if (step_.hits_break) {
    ++next_break_;
    steps_since_break_ = 0;
    // The edge step itself is clamped to the breakpoint gap and says
    // nothing about the circuit; an LTE-limited step from before the
    // edge is a proven-safe scale to resume at.
    double dt_restart = std::min(step_.dt, dt_max_ / 100.0);
    if (dt_lte_accepted_ > dt_restart) dt_restart = std::min(dt_lte_accepted_, dt_max_);
    dt_ = dt_restart;
    dt_lte_accepted_ = -1.0;
  } else {
    ++steps_since_break_;
    const double grow = err > 1e-9 ? std::min(dt_grow_max_, 0.9 / std::sqrt(err)) : dt_grow_max_;
    dt_lte_accepted_ = grow < dt_grow_max_ ? step_.dt : -1.0;
    dt_ = step_.dt * std::max(0.5, grow);
  }
}

NewtonUpdate applyNewtonUpdate(const SimOptions& options, size_t num_nodes, size_t num_unknowns,
                               const double* x_new, double* x, size_t stride, size_t lane) {
  NewtonUpdate u;
  // Stop at the first NaN/Inf: every comparison with NaN is false, so
  // it would otherwise pass as converged.
  for (size_t i = 0; i < num_unknowns; ++i) {
    const size_t k = i * stride + lane;
    if (!std::isfinite(x_new[k])) {
      u.non_finite = static_cast<int>(i);
      return u;
    }
    const double delta = std::fabs(x_new[k] - x[k]);
    if (delta > u.max_delta) {
      u.max_delta = delta;
      u.worst = static_cast<int>(i);
    }
  }
  double scale = 1.0;
  if (u.max_delta > options.max_step_voltage) scale = options.max_step_voltage / u.max_delta;

  u.converged = scale == 1.0;
  for (size_t i = 0; i < num_unknowns; ++i) {
    const size_t k = i * stride + lane;
    const double next = x[k] + scale * (x_new[k] - x[k]);
    const double bounded = std::clamp(next, -options.voltage_bound, options.voltage_bound);
    const double tol = (i < num_nodes ? options.vntol : options.abstol) +
                       options.reltol * std::max(std::fabs(bounded), std::fabs(x[k]));
    if (std::fabs(bounded - x[k]) > tol) u.converged = false;
    x[k] = bounded;
  }
  return u;
}

}  // namespace vls
