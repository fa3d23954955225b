// Adaptive transient step control and the damped Newton update, shared
// by the scalar Simulator and the lockstep EnsembleSimulator: every rule
// that decides the time axis or a Newton iterate lives here once, so a
// change to transient accuracy (error estimate, first step after a
// breakpoint, per-class tolerances) reaches both engines at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/device.hpp"
#include "sim/options.hpp"

namespace vls {

/// One proposed transient step, from StepController::time() to t_new.
struct TransientStep {
  double t_new = 0.0;
  double dt = 0.0;  ///< after the dt_max and breakpoint clamps
  IntegrationMethod method = IntegrationMethod::Trapezoidal;
  bool hits_break = false;  ///< t_new is the next breakpoint
};

/// Step-size state machine of one transient run. Per step the engine
/// calls propose(), solves Newton at step.t_new, then either
/// rejectNewton() (on failure; true = underflow) or lteError() +
/// rejectLte(), and accept() once the step is committed.
class StepController {
 public:
  /// `breakpoints` are hard time barriers (source corners) in any order;
  /// t_stop is appended, then the list is sorted and deduplicated at
  /// 1e-18 s. dt_initial <= 0 starts at dt_max / 100.
  StepController(const SimOptions& options, double t_stop, double dt_max, double dt_initial,
                 std::vector<double> breakpoints);

  bool finished() const { return t_ >= t_stop_ - 1e-18; }
  double time() const { return t_; }
  double lastAcceptedDt() const { return dt_prev_; }  ///< 0 before the first step
  size_t rejectedSteps() const { return rejected_; }  ///< Newton and LTE rejections
  const std::vector<double>& breakpoints() const { return breaks_; }

  /// Next step from time(): dt capped at dt_max and clamped onto the
  /// next breakpoint; a step past half the gap to it is cut to half the
  /// gap, so no sliver is left. Backward Euler for the first
  /// be_steps_after_breakpoint steps after a breakpoint, trapezoidal
  /// after (unless options.method forces BE).
  const TransientStep& propose();

  /// An accepted step exists and did not end on a breakpoint, so the
  /// last two states give a predictor slope.
  bool hasHistory() const { return dt_prev_ > 0.0 && steps_since_break_ >= 1; }

  /// Predictor LTE of the proposed step in units of the transient
  /// tolerance: max |x_try - (x + slope * dt)| / (tran_vntol +
  /// tran_reltol * max(|x_try|, |x|)), slope from x_prev -> x; 0 without
  /// history. Unknown i of lane l sits at i * lanes + l; lanes flagged
  /// in `failed` are ignored.
  double lteError(std::span<const double> x, std::span<const double> x_prev,
                  std::span<const double> x_try, size_t lanes = 1,
                  const uint8_t* failed = nullptr) const;

  /// Newton failed: count a rejection and shrink by dt_shrink. True
  /// when the step fell below dt_min (timestep underflow).
  bool rejectNewton();

  /// err > 8 (on a step above 16 dt_min): count a rejection, shrink by
  /// dt_shrink and return true.
  bool rejectLte(double err);

  /// Commit the proposed step and choose the next dt. After a
  /// breakpoint: min(dt, dt_max / 100), or the last LTE-limited step if
  /// larger. Otherwise grow by min(dt_grow_max, 0.9 / sqrt(err)), at
  /// least halving.
  void accept(double err);

  /// Restart at dt_max / 100 (after lanes dropped out of an ensemble).
  void restartCautious() { dt_ = dt_max_ / 100.0; }

 private:
  double t_stop_;
  double dt_max_;
  double dt_min_;
  double dt_shrink_;
  double dt_grow_max_;
  double tran_vntol_;
  double tran_reltol_;
  int be_steps_;
  bool force_be_;

  std::vector<double> breaks_;
  size_t next_break_ = 0;
  double t_ = 0.0;
  double dt_ = 0.0;
  double dt_prev_ = 0.0;
  /// Last accepted dt the LTE controller was limiting (growth below
  /// dt_grow_max); -1 while coasting.
  double dt_lte_accepted_ = -1.0;
  int steps_since_break_ = 0;
  size_t rejected_ = 0;
  TransientStep step_;
};

struct NewtonUpdate {
  int non_finite = -1;     ///< first NaN/Inf unknown of x_new (x untouched), or -1
  int worst = -1;          ///< unknown with the largest |update|, -1 if none moved
  double max_delta = 0.0;  ///< that largest |update|
  bool converged = false;  ///< undamped, and every unknown within tolerance
};

/// Move one lane of the iterate x toward the linear solve x_new: the
/// whole update is scaled down when any unknown would move more than
/// max_step_voltage, each unknown is clamped to +-voltage_bound, and
/// the lane converges when nothing was damped and every |change| is
/// within vntol (nodes) or abstol (branches) + reltol * max(|new|,
/// |old|). Unknown i sits at i * stride + lane in both vectors.
NewtonUpdate applyNewtonUpdate(const SimOptions& options, size_t num_nodes, size_t num_unknowns,
                               const double* x_new, double* x, size_t stride = 1,
                               size_t lane = 0);

}  // namespace vls
