// StepController and applyNewtonUpdate on synthetic inputs: every
// step-control rule (breakpoint clamp, sliver halving, BE after
// breakpoints, reject-at-8, growth cap, post-edge restart, underflow,
// lane masking) and the damped Newton update, without a circuit.
#include "sim/step_control.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace vls {
namespace {

constexpr double kNs = 1e-9;

TEST(StepController, BreakpointsAreSortedDedupedAndEndAtStop) {
  StepController steps(SimOptions{}, 3 * kNs, kNs, -1.0,
                       {2 * kNs, 0.0, kNs, kNs + 1e-19, 5 * kNs});
  EXPECT_EQ(steps.breakpoints(),
            (std::vector<double>{0.0, kNs, 2 * kNs, 3 * kNs, 5 * kNs}));
  // dt_initial <= 0 starts at dt_max / 100; the breakpoint at 0 is
  // already behind the start.
  const TransientStep& step = steps.propose();
  EXPECT_DOUBLE_EQ(step.dt, kNs / 100);
  EXPECT_FALSE(step.hits_break);
}

TEST(StepController, ClampsToBreakpointAndHalvesInsteadOfSliver) {
  StepController steps(SimOptions{}, 10 * kNs, kNs, 0.6 * kNs, {kNs});
  // 0.6 ns would leave a 0.4 ns sliver before the 1 ns breakpoint: halve.
  TransientStep step = steps.propose();
  EXPECT_DOUBLE_EQ(step.dt, 0.5 * kNs);
  EXPECT_FALSE(step.hits_break);
  steps.accept(0.0);  // coasting: dt doubles to 1 ns
  EXPECT_DOUBLE_EQ(steps.time(), 0.5 * kNs);
  step = steps.propose();
  EXPECT_DOUBLE_EQ(step.dt, 0.5 * kNs);  // clamped onto the breakpoint
  EXPECT_TRUE(step.hits_break);
  EXPECT_DOUBLE_EQ(step.t_new, kNs);

  // Below half the gap the step is left alone.
  StepController short_steps(SimOptions{}, 10 * kNs, kNs, 0.4 * kNs, {kNs});
  EXPECT_DOUBLE_EQ(short_steps.propose().dt, 0.4 * kNs);
}

TEST(StepController, BackwardEulerForFirstStepsAfterBreakpoint) {
  SimOptions opts;
  opts.be_steps_after_breakpoint = 2;
  StepController steps(opts, 10 * kNs, 0.1 * kNs, 0.1 * kNs, {0.5 * kNs});
  std::vector<IntegrationMethod> methods;
  while (steps.time() < 0.85 * kNs) {
    methods.push_back(steps.propose().method);
    steps.accept(0.0);
  }
  const auto BE = IntegrationMethod::BackwardEuler;
  const auto TR = IntegrationMethod::Trapezoidal;
  // Steps land on 0.1 .. 0.5 ns (the breakpoint), then restart at
  // dt_max / 100 = 1 ps.
  ASSERT_GE(methods.size(), 8u);
  EXPECT_EQ(methods[0], BE);
  EXPECT_EQ(methods[1], BE);
  EXPECT_EQ(methods[2], TR);
  EXPECT_EQ(methods[4], TR);  // the step that hits the breakpoint
  EXPECT_EQ(methods[5], BE);
  EXPECT_EQ(methods[6], BE);
  EXPECT_EQ(methods[7], TR);

  opts.method = IntegrationMethod::BackwardEuler;
  StepController be_only(opts, 10 * kNs, 0.1 * kNs, 0.1 * kNs, {});
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(be_only.propose().method, BE);
    be_only.accept(0.0);
  }
}

TEST(StepController, RejectsAboveEightAndShrinks) {
  SimOptions opts;
  StepController steps(opts, 10 * kNs, kNs, 0.1 * kNs, {});
  steps.propose();
  EXPECT_FALSE(steps.rejectLte(8.0));
  EXPECT_EQ(steps.rejectedSteps(), 0u);
  EXPECT_TRUE(steps.rejectLte(std::nextafter(8.0, 9.0)));
  EXPECT_EQ(steps.rejectedSteps(), 1u);
  EXPECT_DOUBLE_EQ(steps.propose().dt, 0.1 * kNs * opts.dt_shrink);
  EXPECT_DOUBLE_EQ(steps.time(), 0.0);

  // A step already within 16 dt_min is never rejected on LTE.
  opts.dt_min = 1e-12;
  StepController tiny(opts, 10 * kNs, kNs, 10e-12, {});
  tiny.propose();
  EXPECT_FALSE(tiny.rejectLte(1e6));
}

TEST(StepController, GrowthCappedAtDtGrowMax) {
  SimOptions opts;
  opts.dt_grow_max = 2.0;
  StepController steps(opts, 100 * kNs, 10 * kNs, 0.1 * kNs, {});
  steps.propose();
  steps.accept(0.0);  // no error: capped at dt_grow_max
  EXPECT_DOUBLE_EQ(steps.propose().dt, 0.2 * kNs);
  steps.accept(1e-4);  // 0.9 / sqrt(err) = 90: still capped
  EXPECT_DOUBLE_EQ(steps.propose().dt, 0.4 * kNs);
  steps.accept(0.81);  // 0.9 / 0.9 = 1: hold
  EXPECT_DOUBLE_EQ(steps.propose().dt, 0.4 * kNs);
  steps.accept(8.0);  // 0.9 / sqrt(8) < 0.5: at most halve
  EXPECT_DOUBLE_EQ(steps.propose().dt, 0.2 * kNs);
  // dt_max caps the proposal whatever the growth.
  StepController capped(opts, 100 * kNs, 0.15 * kNs, 0.1 * kNs, {});
  capped.propose();
  capped.accept(0.0);
  EXPECT_DOUBLE_EQ(capped.propose().dt, 0.15 * kNs);
}

TEST(StepController, RestartAfterEdgeResumesLastLteLimitedStep) {
  // Coasting into the edge: restart at dt_max / 100.
  StepController coast(SimOptions{}, 10 * kNs, kNs, 0.25 * kNs, {kNs});
  for (int i = 0; i < 2; ++i) {
    coast.propose();
    coast.accept(0.0);
  }
  ASSERT_TRUE(coast.propose().hits_break);
  coast.accept(0.0);
  EXPECT_DOUBLE_EQ(coast.time(), kNs);
  EXPECT_DOUBLE_EQ(coast.propose().dt, kNs / 100);

  // LTE-limited before the edge (growth 1 < dt_grow_max): resume there.
  StepController limited(SimOptions{}, 10 * kNs, kNs, 0.25 * kNs, {kNs});
  for (int i = 0; i < 3; ++i) {
    limited.propose();
    limited.accept(0.81);
  }
  ASSERT_TRUE(limited.propose().hits_break);
  limited.accept(0.0);
  EXPECT_NEAR(limited.propose().dt, 0.25 * kNs, 1e-6 * kNs);
}

TEST(StepController, NewtonFailureShrinksAndSignalsUnderflow) {
  SimOptions opts;
  opts.dt_min = 1e-12;
  opts.dt_shrink = 0.4;
  StepController steps(opts, kNs, kNs, 1e-11, {});
  steps.propose();
  EXPECT_FALSE(steps.rejectNewton());  // 4 ps >= dt_min
  EXPECT_DOUBLE_EQ(steps.propose().dt, 4e-12);
  EXPECT_FALSE(steps.rejectNewton());  // 1.6 ps
  steps.propose();
  EXPECT_TRUE(steps.rejectNewton());  // 0.64 ps < dt_min
  EXPECT_EQ(steps.rejectedSteps(), 3u);
  steps.restartCautious();
  EXPECT_DOUBLE_EQ(steps.propose().dt, kNs / 100);
}

TEST(StepController, LteErrorNeedsHistoryAndIgnoresFailedLanes) {
  SimOptions opts;
  StepController steps(opts, 10 * kNs, kNs, 0.1 * kNs, {});
  steps.propose();
  const std::vector<double> zero = {0.0, 0.0};
  const std::vector<double> off = {0.0, 1.0};  // lane 1 misses the predictor
  EXPECT_EQ(steps.lteError(zero, zero, off, 2), 0.0);  // no history yet
  steps.accept(0.0);
  ASSERT_TRUE(steps.hasHistory());
  steps.propose();
  const double lane1 = 1.0 / (opts.tran_vntol + opts.tran_reltol * 1.0);
  EXPECT_DOUBLE_EQ(steps.lteError(zero, zero, off, 2), lane1);
  const uint8_t lane1_failed[2] = {0, 1};
  EXPECT_EQ(steps.lteError(zero, zero, off, 2, lane1_failed), 0.0);
  const uint8_t lane0_failed[2] = {1, 0};
  EXPECT_DOUBLE_EQ(steps.lteError(zero, zero, off, 2, lane0_failed), lane1);

  // Scalar layout: the linear predictor extrapolates x_prev -> x.
  const std::vector<double> x_prev = {1.0};
  const std::vector<double> x = {1.1};
  const std::vector<double> on_line = {1.1 + 0.1 * 2.0};  // dt doubled
  EXPECT_NEAR(steps.lteError(x, x_prev, on_line), 0.0, 1e-9);
}

TEST(StepController, FinishesAtStopTime) {
  StepController steps(SimOptions{}, kNs, kNs, 0.4 * kNs, {});
  int n = 0;
  while (!steps.finished()) {
    steps.propose();
    steps.accept(0.0);
    ++n;
  }
  EXPECT_EQ(n, 2);  // 0.4 ns, then clamped onto t_stop
  EXPECT_DOUBLE_EQ(steps.time(), kNs);
}

TEST(NewtonUpdate, DampsBoundsAndConvergesOneLane) {
  SimOptions opts;
  opts.max_step_voltage = 0.4;
  opts.voltage_bound = 20.0;
  // Two unknowns (one node, one branch) x two lanes, lane-interleaved.
  std::vector<double> x = {0.0, 5.0, 0.0, 7.0};
  const std::vector<double> x_new = {0.8, 5.0, 0.2, 7.0};
  const NewtonUpdate u = applyNewtonUpdate(opts, 1, 2, x_new.data(), x.data(), 2, 0);
  EXPECT_EQ(u.non_finite, -1);
  EXPECT_EQ(u.worst, 0);
  EXPECT_DOUBLE_EQ(u.max_delta, 0.8);
  EXPECT_FALSE(u.converged);  // damped
  EXPECT_DOUBLE_EQ(x[0], 0.4);  // half the update
  EXPECT_DOUBLE_EQ(x[2], 0.1);  // branch unknown, scaled alike
  EXPECT_DOUBLE_EQ(x[1], 5.0);  // lane 1 untouched
  EXPECT_DOUBLE_EQ(x[3], 7.0);

  // An undamped update inside tolerance converges.
  std::vector<double> y = {1.0};
  const std::vector<double> y_new = {1.0 + 1e-7};
  EXPECT_TRUE(applyNewtonUpdate(opts, 1, 1, y_new.data(), y.data()).converged);
  // Branch unknowns use abstol (1e-12 A) + reltol.
  std::vector<double> b = {0.0};
  const std::vector<double> b_new = {1e-9};
  EXPECT_FALSE(applyNewtonUpdate(opts, 0, 1, b_new.data(), b.data()).converged);
}

TEST(NewtonUpdate, ClampsToVoltageBoundAndGuardsNonFinite) {
  SimOptions opts;
  opts.max_step_voltage = 100.0;
  opts.voltage_bound = 2.0;
  std::vector<double> x = {0.0, 0.0};
  const std::vector<double> x_new = {5.0, -5.0};
  const NewtonUpdate u = applyNewtonUpdate(opts, 2, 2, x_new.data(), x.data());
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
  EXPECT_FALSE(u.converged);

  std::vector<double> keep = {0.5, 0.5};
  const std::vector<double> bad = {0.6, std::numeric_limits<double>::quiet_NaN()};
  const NewtonUpdate g = applyNewtonUpdate(opts, 2, 2, bad.data(), keep.data());
  EXPECT_EQ(g.non_finite, 1);
  EXPECT_FALSE(g.converged);
  EXPECT_EQ(keep, (std::vector<double>{0.5, 0.5}));
}

}  // namespace
}  // namespace vls
