// Pinned transient counters: exact accepted/rejected step counts,
// Newton iteration totals and output crossing times of the nominal
// SS-TVS testbench on the scalar Simulator and of one 8-lane
// parameter-lane batch on the EnsembleSimulator. Any change to step
// control, Newton damping or convergence checks moves these numbers,
// so a refactor of either that claims to be bit-identical must leave
// them untouched. An intentional output-moving change re-records them.
// The phase timers of both engines are checked here too.
#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <optional>

#include "analysis/measure.hpp"
#include "analysis/shifter_harness.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "sim/ensemble.hpp"
#include "sim/simulator.hpp"

namespace vls {
namespace {

void expectTime(double actual, double expected, const char* what) {
  EXPECT_LE(std::fabs(actual - expected), 1e-12 * std::fabs(expected))
      << what << ": " << std::setprecision(17) << actual;
}

/// First output crossing of half the VDDO swing in each direction.
std::pair<double, double> outputCrossings(const TransientResult& run, double vddo) {
  const Signal out = run.node("out");
  const std::optional<double> rise = crossTime(out, 0.5 * vddo, CrossDir::Rising);
  const std::optional<double> fall = crossTime(out, 0.5 * vddo, CrossDir::Falling);
  EXPECT_TRUE(rise.has_value());
  EXPECT_TRUE(fall.has_value());
  return {rise.value_or(0.0), fall.value_or(0.0)};
}

TEST(TransientCounters, ScalarNominalSstvsIsPinned) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  ShifterTestbench tb(h);
  const ShifterMetrics m = tb.measure();
  const TransientResult& run = tb.lastRun();
  EXPECT_EQ(run.steps(), 1334u);
  EXPECT_EQ(run.total_newton_iterations, 3978u);
  EXPECT_EQ(run.rejected_steps, 2u);
  const auto [rise, fall] = outputCrossings(run, h.vddo);
  expectTime(rise, 1.1181107960108134e-09, "out rise");
  expectTime(fall, 2.1115451537052012e-09, "out fall");
  expectTime(m.delay_rise, 8.5797740900908996e-11, "delay_rise");
  expectTime(m.delay_fall, 5.2035802470670682e-11, "delay_fall");
}

TEST(TransientCounters, EnsembleParameterLanesArePinned) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  h.direct_drive = true;
  ShifterTestbench tb(h);
  SimOptions opts = h.sim;
  opts.enable_bypass = true;
  opts.bypass_settle_iterations = 1;
  opts.bypass_tol = 1e-4;
  opts.tran_reltol = 1e-4;
  constexpr size_t kLanes = 8;
  EnsembleSimulator sim(tb.circuit(), kLanes, opts);
  auto* src = static_cast<SourceLaneState*>(sim.laneState(*tb.vinSource()));
  auto* cap = static_cast<CapacitorLaneState*>(sim.laneState(*tb.loadCapacitor()));
  const double ramps[kLanes] = {10e-12, 20e-12, 40e-12, 80e-12,
                                15e-12, 30e-12, 60e-12, 120e-12};
  for (size_t l = 0; l < kLanes; ++l) {
    src->setWaveform(l, tb.stimulusWaveform(ramps[l]));
    cap->setCapacitance(l, l < 4 ? 1e-15 : 4e-15);
  }
  sim.transient(tb.tStop(), h.dt_max, ramps[0] / 4.0);
  ASSERT_EQ(sim.aliveLaneCount(), kLanes);
  EXPECT_EQ(sim.steps(), 5717u);
  EXPECT_EQ(sim.totalNewtonIterations(), 11528u);
  EXPECT_EQ(sim.rejectedSteps(), 24u);
  const double rise_at[kLanes] = {1.0374656614753513e-09, 1.0465970562419822e-09,
                                   1.065354002433674e-09,  1.1036449079464769e-09,
                                   1.0543084254540524e-09, 1.0681743646819631e-09,
                                   1.0967191546568912e-09, 1.155034793071852e-09};
  const double fall_at[kLanes] = {2.0279709222408508e-09, 2.0350680124004998e-09,
                                   2.0500886943172608e-09, 2.0821639088897503e-09,
                                   2.0504243072898552e-09, 2.0613529479066886e-09,
                                   2.0841064564685378e-09, 2.1320698171377343e-09};
  for (size_t l = 0; l < kLanes; ++l) {
    const auto [rise, fall] = outputCrossings(sim.laneResult(l), h.vddo);
    expectTime(rise, rise_at[l], "lane out rise");
    expectTime(fall, fall_at[l], "lane out fall");
  }
}

TEST(TransientCounters, ModelEvaluationTimedInsideAssembly) {
  // Every assembler times its device-evaluation pass apart from the
  // scatter: the evaluation share is positive and never exceeds the
  // assembly time it is part of, on both engines.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  ShifterTestbench tb(h);
  Simulator scalar(tb.circuit(), h.sim);
  scalar.transient(tb.tStop(), h.dt_max);
  const SimPhaseTimes scalar_phases = scalar.phaseTimes();
  EXPECT_GT(scalar_phases.model_eval_sec, 0.0);
  EXPECT_LE(scalar_phases.model_eval_sec, scalar_phases.assembly_sec);

  EnsembleSimulator lanes(tb.circuit(), 2, h.sim);
  lanes.transient(tb.tStop(), h.dt_max);
  const SimPhaseTimes lane_phases = lanes.phaseTimes();
  EXPECT_GT(lane_phases.model_eval_sec, 0.0);
  EXPECT_LE(lane_phases.model_eval_sec, lane_phases.assembly_sec);
}

}  // namespace
}  // namespace vls
