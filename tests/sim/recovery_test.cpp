#include "sim/recovery.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "cells/gates.hpp"
#include "circuit/circuit.hpp"
#include "devices/diode.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "sim/ensemble.hpp"
#include "sim/fault_injection.hpp"
#include "sim/simulator.hpp"

namespace vls {
namespace {

/// The number printed right after `key` in `text` (0 when absent).
double numberAfter(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

SimOptions withFault(FaultSpec spec) {
  SimOptions opts;
  opts.fault_injector = std::make_shared<FaultInjector>(spec);
  return opts;
}

// Inverter biased at its switching threshold: nonlinear but solvable by
// every ladder rung, so the rescue stage is chosen by the fault mask.
void buildInverterOp(Circuit& c) {
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("vdd", vdd, kGround, 1.2);
  c.add<VoltageSource>("vin", in, kGround, 0.6);
  buildInverter(c, "x", in, out, vdd);
}

// DC-driven RC: flat transient, so any timestep drama is injected.
void buildRc(Circuit& c) {
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add<VoltageSource>("v", a, kGround, 1.0);
  c.add<Resistor>("r", a, b, 1000.0);
  c.add<Capacitor>("cap", b, kGround, 1e-12);
}

TEST(RecoverySchedules, GminLadderSpansStartToOperatingGmin) {
  const RecoveryPolicy policy;
  const std::vector<double> s = RecoveryEngine::gminSchedule(policy, 1e-12);
  ASSERT_FALSE(s.empty());
  EXPECT_DOUBLE_EQ(s.front(), policy.gmin_start);
  EXPECT_DOUBLE_EQ(s.back(), 1e-12);
  EXPECT_LE(s.size(), static_cast<size_t>(policy.gmin_steps) + 1);
  for (size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i], s[i - 1]);
}

TEST(RecoverySchedules, SourceRampEndsAtUnity) {
  const RecoveryPolicy policy;
  const std::vector<double> s = RecoveryEngine::sourceSchedule(policy);
  ASSERT_EQ(s.size(), static_cast<size_t>(policy.source_steps));
  EXPECT_NEAR(s.front(), 1.0 / policy.source_steps, 1e-15);
  EXPECT_DOUBLE_EQ(s.back(), 1.0);
  for (size_t i = 1; i < s.size(); ++i) EXPECT_GT(s[i], s[i - 1]);
}

TEST(Recovery, GminRungRescuesInjectedDirectFailure) {
  Circuit ref_c;
  buildInverterOp(ref_c);
  Simulator ref(ref_c);
  const std::vector<double> expected = ref.solveOp();

  Circuit c;
  buildInverterOp(c);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;
  spec.stage_mask = recoveryStageBit(RecoveryStage::DirectNewton);
  Simulator sim(c, withFault(spec));
  const std::vector<double> x = sim.solveOp();
  for (size_t i = 0; i < expected.size(); ++i) EXPECT_NEAR(x[i], expected[i], 1e-6);
}

TEST(Recovery, LadderExhaustionThrowsWithFullStageRecord) {
  Circuit c;
  buildInverterOp(c);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;  // every rung of every stage dies
  Simulator sim(c, withFault(spec));
  try {
    sim.solveOp();
    FAIL() << "expected RecoveryError";
  } catch (const RecoveryError& e) {
    const ConvergenceDiagnostics& d = e.diagnostics();
    EXPECT_EQ(d.context, "operatingPoint");
    EXPECT_FALSE(d.recovered);
    ASSERT_EQ(d.stages.size(), 4u);
    EXPECT_EQ(d.stages[0].stage, RecoveryStage::DirectNewton);
    EXPECT_EQ(d.stages[1].stage, RecoveryStage::GminStepping);
    EXPECT_EQ(d.stages[2].stage, RecoveryStage::SourceStepping);
    EXPECT_EQ(d.stages[3].stage, RecoveryStage::PseudoTransient);
    for (const StageAttempt& a : d.stages) {
      EXPECT_FALSE(a.converged);
      EXPECT_EQ(a.failure, NewtonFailureReason::InjectedFault);
      EXPECT_FALSE(a.injected_fault.empty());
    }
    EXPECT_EQ(d.lastStageName(), "pseudo-transient");
    EXPECT_NE(std::string(e.what()).find("failed to converge"), std::string::npos);
  }
}

TEST(Recovery, DisabledStagesAreSkipped) {
  Circuit c;
  buildInverterOp(c);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;
  SimOptions opts = withFault(spec);
  opts.recovery.gmin_stepping = false;
  opts.recovery.source_stepping = false;
  opts.recovery.pseudo_transient = false;
  Simulator sim(c, opts);
  try {
    sim.solveOp();
    FAIL() << "expected RecoveryError";
  } catch (const RecoveryError& e) {
    ASSERT_EQ(e.diagnostics().stages.size(), 1u);
    EXPECT_EQ(e.diagnostics().stages[0].stage, RecoveryStage::DirectNewton);
  }
}

TEST(Recovery, TransientOpRecoveryIsRecorded) {
  Circuit c;
  buildInverterOp(c);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;
  spec.stage_mask = recoveryStageBit(RecoveryStage::DirectNewton);
  spec.max_fires = 1;
  Simulator sim(c, withFault(spec));
  const TransientResult r = sim.transient(1e-12, 1e-12);
  ASSERT_GE(r.recovery_events.size(), 1u);
  const ConvergenceDiagnostics& d = r.recovery_events.front();
  EXPECT_EQ(d.context, "transient operating point");
  EXPECT_TRUE(d.recovered);
  ASSERT_EQ(d.stages.size(), 2u);
  EXPECT_EQ(d.stages[0].failure, NewtonFailureReason::InjectedFault);
  EXPECT_EQ(d.stages[1].stage, RecoveryStage::GminStepping);
  EXPECT_TRUE(d.stages[1].converged);
}

TEST(Recovery, NewtonTraceKeepsLastIterationsOldestFirst) {
  // A 10 V source through a resistor: the 0.4 V step clamp makes the
  // direct Newton walk the node up 0.4 V per iteration, so iteration k
  // sees a raw worst move of 10 - 0.4 k. The fault aborts iteration 12;
  // the recorded trace is the last kNewtonTraceDepth iterations, 4..11.
  Circuit c;
  const NodeId a = c.node("a");
  c.add<VoltageSource>("v", a, kGround, 10.0);
  c.add<Resistor>("r", a, kGround, 1000.0);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 12;
  spec.stage_mask = recoveryStageBit(RecoveryStage::DirectNewton);
  spec.max_fires = 1;
  Simulator sim(c, withFault(spec));
  const TransientResult r = sim.transient(1e-12, 1e-12);
  ASSERT_GE(r.recovery_events.size(), 1u);
  const StageAttempt& direct = r.recovery_events.front().stages.front();
  ASSERT_EQ(direct.stage, RecoveryStage::DirectNewton);
  ASSERT_EQ(direct.failure, NewtonFailureReason::InjectedFault);
  ASSERT_EQ(direct.trace.size(), kNewtonTraceDepth);
  for (size_t k = 0; k < direct.trace.size(); ++k) {
    const size_t iter = 12 - kNewtonTraceDepth + k;
    EXPECT_EQ(direct.trace[k].iteration, iter);
    EXPECT_NEAR(direct.trace[k].worst_delta, 10.0 - 0.4 * static_cast<double>(iter), 1e-9);
  }
}

TEST(Recovery, NewtonTraceRingBeforeAndAfterWrap) {
  NewtonTraceRing ring;
  EXPECT_TRUE(ring.toVector().empty());
  for (size_t i = 0; i < 3; ++i) ring.push({i, 1.0 * static_cast<double>(i)});
  std::vector<NewtonTracePoint> v = ring.toVector();
  ASSERT_EQ(v.size(), 3u);
  for (size_t k = 0; k < 3; ++k) EXPECT_EQ(v[k].iteration, k);
  for (size_t i = 3; i < 2 * kNewtonTraceDepth + 1; ++i) {
    ring.push({i, 1.0 * static_cast<double>(i)});
  }
  v = ring.toVector();
  ASSERT_EQ(v.size(), kNewtonTraceDepth);
  for (size_t k = 0; k < v.size(); ++k) {
    EXPECT_EQ(v[k].iteration, kNewtonTraceDepth + 1 + k);
  }
}

TEST(Recovery, FaultInsideGminRungEscalatesToSourceStepping) {
  // Two firings: one kills direct Newton, the second fires *inside* the
  // first gmin rung. The ladder must escalate once more and land the
  // solve in source stepping.
  Circuit c;
  buildInverterOp(c);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;
  spec.stage_mask = recoveryStageBit(RecoveryStage::DirectNewton) |
                    recoveryStageBit(RecoveryStage::GminStepping);
  spec.max_fires = 2;
  Simulator sim(c, withFault(spec));
  const TransientResult r = sim.transient(1e-12, 1e-12);
  ASSERT_GE(r.recovery_events.size(), 1u);
  const ConvergenceDiagnostics& d = r.recovery_events.front();
  EXPECT_TRUE(d.recovered);
  ASSERT_EQ(d.stages.size(), 3u);
  EXPECT_EQ(d.stages[1].stage, RecoveryStage::GminStepping);
  EXPECT_EQ(d.stages[1].failure, NewtonFailureReason::InjectedFault);
  EXPECT_EQ(d.stages[2].stage, RecoveryStage::SourceStepping);
  EXPECT_TRUE(d.stages[2].converged);
}

TEST(Recovery, PseudoTransientIsTheLastResortRung) {
  Circuit c;
  buildInverterOp(c);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;
  spec.stage_mask = recoveryStageBit(RecoveryStage::DirectNewton) |
                    recoveryStageBit(RecoveryStage::GminStepping) |
                    recoveryStageBit(RecoveryStage::SourceStepping);
  Simulator sim(c, withFault(spec));
  const TransientResult r = sim.transient(1e-12, 1e-12);
  ASSERT_GE(r.recovery_events.size(), 1u);
  const ConvergenceDiagnostics& d = r.recovery_events.front();
  EXPECT_TRUE(d.recovered);
  ASSERT_EQ(d.stages.size(), 4u);
  EXPECT_EQ(d.stages.back().stage, RecoveryStage::PseudoTransient);
  EXPECT_TRUE(d.stages.back().converged);
  EXPECT_GT(d.stages.back().rungs, 1);
}

TEST(Recovery, SolveOpAtRunsTheLadder) {
  // Satellite: solveOpAt used to throw on the first Newton failure; it
  // must now escalate like every other DC entry point.
  Circuit c;
  const NodeId a = c.node("a");
  c.add<VoltageSource>("v", a, kGround, Waveform::pwl({0.0, 1e-9}, {0.0, 2.0}));
  c.add<Resistor>("r", a, kGround, 1000.0);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;
  spec.stage_mask = recoveryStageBit(RecoveryStage::DirectNewton);
  spec.max_fires = 1;
  Simulator sim(c, withFault(spec));
  const auto x = sim.solveOpAt(0.5e-9, std::vector<double>(sim.numUnknowns(), 0.0));
  EXPECT_NEAR(x[a], 1.0, 1e-9);
}

TEST(Recovery, DcSweepRecordsRescuedPoints) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  auto& vs = c.add<VoltageSource>("v", a, kGround, 0.0);
  c.add<Resistor>("r", a, b, 100.0);
  c.add<Diode>("d", b, kGround, DiodeParams{});
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;
  spec.stage_mask = recoveryStageBit(RecoveryStage::DirectNewton);
  Simulator sim(c, withFault(spec));
  const DcSweepResult r = sim.dcSweep(vs, 0.0, 1.0, 0.5);
  EXPECT_TRUE(r.allConverged());
  ASSERT_EQ(r.diagnostics.size(), 3u);  // every warm start was sabotaged
  for (size_t k = 0; k < r.diagnostics.size(); ++k) {
    EXPECT_EQ(r.diagnostics[k].point_index, k);
    const ConvergenceDiagnostics& d = r.diagnostics[k].diagnostics;
    EXPECT_TRUE(d.recovered);
    EXPECT_EQ(d.lastStageName(), "gmin-stepping");
    EXPECT_EQ(d.stages.front().failure, NewtonFailureReason::InjectedFault);
  }
}

TEST(Recovery, MidTransientUnderflowRescuedByGminLadder) {
  Circuit c;
  buildRc(c);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;
  spec.arm_time = 1e-9;
  spec.stage_mask = recoveryStageBit(RecoveryStage::TransientStep);
  spec.max_fires = 30;
  Simulator sim(c, withFault(spec));
  const TransientResult r = sim.transient(2e-9, 1e-10);
  ASSERT_GE(r.recovery_events.size(), 1u);
  const ConvergenceDiagnostics& d = r.recovery_events.front();
  EXPECT_EQ(d.context, "transient");
  EXPECT_TRUE(d.recovered);
  EXPECT_GT(d.time, 0.5e-9);
  EXPECT_GT(d.last_dt, 0.0);
  ASSERT_EQ(d.stages.size(), 2u);
  EXPECT_EQ(d.stages[0].stage, RecoveryStage::TransientStep);
  EXPECT_EQ(d.stages[0].failure, NewtonFailureReason::InjectedFault);
  EXPECT_EQ(d.stages[1].stage, RecoveryStage::GminStepping);
  EXPECT_TRUE(d.stages[1].converged);
  // The run itself must complete with the right physics.
  const Signal vb = r.node("b");
  EXPECT_NEAR(vb.value.back(), 1.0, 1e-3);
}

TEST(Recovery, TransientUnderflowCarriesDiagnosticsPayload) {
  Circuit c;
  buildRc(c);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;
  spec.arm_time = 1e-9;
  spec.stage_mask = recoveryStageBit(RecoveryStage::TransientStep) |
                    recoveryStageBit(RecoveryStage::GminStepping);
  Simulator sim(c, withFault(spec));
  try {
    sim.transient(2e-9, 1e-10);
    FAIL() << "expected RecoveryError";
  } catch (const RecoveryError& e) {
    EXPECT_NE(std::string(e.what()).find("underflow"), std::string::npos);
    const ConvergenceDiagnostics& d = e.diagnostics();
    EXPECT_EQ(d.context, "transient");
    EXPECT_FALSE(d.recovered);
    EXPECT_GT(d.time, 0.5e-9);   // failure time
    EXPECT_GT(d.last_dt, 0.0);   // last successfully accepted dt
    ASSERT_EQ(d.stages.size(), 2u);
    EXPECT_EQ(d.stages[0].stage, RecoveryStage::TransientStep);
    EXPECT_EQ(d.stages[1].stage, RecoveryStage::GminStepping);
    EXPECT_EQ(d.stages[1].failure, NewtonFailureReason::InjectedFault);
    // The message and the stage details carry readable magnitudes, not
    // fixed-point renderings that round a nanosecond to zero.
    const double t_msg = numberAfter(e.what(), "t = ");
    EXPECT_GT(t_msg, 0.5e-9);
    EXPECT_LT(t_msg, 1.5e-9);
    EXPECT_GT(numberAfter(d.stages[0].detail, "dt="), 0.0) << d.stages[0].detail;
    EXPECT_GT(numberAfter(d.stages[1].detail, "gmin="), 0.0) << d.stages[1].detail;
  }
}

// --- ensemble lane salvage & attribution ------------------------------

TEST(EnsembleRecovery, LaneFaultSalvagedByGminLadder) {
  Circuit ref_c;
  buildInverterOp(ref_c);
  Simulator ref(ref_c);
  const std::vector<double> expected = ref.solveOp();

  Circuit c;
  buildInverterOp(c);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;
  spec.stage_mask = recoveryStageBit(RecoveryStage::DirectNewton);
  spec.lane = 1;
  EnsembleSimulator ens(c, 3, withFault(spec));
  const std::vector<double> soa = ens.solveOp();
  EXPECT_EQ(ens.aliveLaneCount(), 3u);
  EXPECT_FALSE(ens.laneFailure(1).valid);
  for (size_t l = 0; l < 3; ++l) {
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(soa[i * 3 + l], expected[i], 1e-6) << "unknown " << i << " lane " << l;
    }
  }
}

TEST(EnsembleRecovery, ExhaustedLaneRecordsStageAndReason) {
  Circuit c;
  buildInverterOp(c);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;  // all ensemble stages for this lane
  spec.lane = 1;
  EnsembleSimulator ens(c, 3, withFault(spec));
  const std::vector<double> soa = ens.solveOp();
  EXPECT_EQ(ens.aliveLaneCount(), 2u);
  EXPECT_TRUE(ens.laneFailed(1));
  const LaneFailure& f = ens.laneFailure(1);
  ASSERT_TRUE(f.valid);
  EXPECT_EQ(f.stage, RecoveryStage::SourceStepping);
  EXPECT_EQ(f.reason, NewtonFailureReason::InjectedFault);
  EXPECT_FALSE(f.message.empty());
  // Siblings still solved.
  Circuit ref_c;
  buildInverterOp(ref_c);
  Simulator ref(ref_c);
  const std::vector<double> expected = ref.solveOp();
  EXPECT_NEAR(soa[ref_c.node("out") * 3 + 0], expected[ref_c.node("out")], 1e-6);
}

TEST(EnsembleRecovery, LanePivotFaultNamesCollapsedNode) {
  Circuit c;
  buildInverterOp(c);
  FaultSpec spec;
  spec.zero_pivot_node = "out";
  spec.lane = 0;
  EnsembleSimulator ens(c, 2, withFault(spec));
  ens.solveOp();
  EXPECT_TRUE(ens.laneFailed(0));
  EXPECT_FALSE(ens.laneFailed(1));
  const LaneFailure& f = ens.laneFailure(0);
  ASSERT_TRUE(f.valid);
  EXPECT_EQ(f.reason, NewtonFailureReason::SingularPivot);
  EXPECT_EQ(f.node, "out");
}

TEST(EnsembleRecovery, MidTransientLaneDropRecordsTransientStage) {
  Circuit c;
  buildRc(c);
  FaultSpec spec;
  spec.fail_newton_at_iteration = 0;
  spec.arm_time = 1e-9;
  spec.stage_mask = recoveryStageBit(RecoveryStage::TransientStep);
  spec.lane = 1;
  EnsembleSimulator ens(c, 2, withFault(spec));
  ens.transient(2e-9, 1e-10);
  EXPECT_TRUE(ens.laneFailed(1));
  EXPECT_FALSE(ens.laneFailed(0));
  const LaneFailure& f = ens.laneFailure(1);
  ASSERT_TRUE(f.valid);
  EXPECT_EQ(f.stage, RecoveryStage::TransientStep);
  EXPECT_EQ(f.reason, NewtonFailureReason::InjectedFault);
  // The surviving lane finishes the run with the right physics.
  const TransientResult lane0 = ens.laneResult(0);
  EXPECT_NEAR(lane0.node("b").value.back(), 1.0, 1e-3);

  // The same fault on every lane: all-lanes underflow, whose message
  // names the failure time.
  Circuit all_c;
  buildRc(all_c);
  spec.lane = -1;
  EnsembleSimulator all(all_c, 2, withFault(spec));
  try {
    all.transient(2e-9, 1e-10);
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("every lane"), std::string::npos) << e.what();
    const double t_msg = numberAfter(e.what(), "t = ");
    EXPECT_GT(t_msg, 0.5e-9) << e.what();
    EXPECT_LT(t_msg, 1.5e-9) << e.what();
  }
}

TEST(Recovery, SingularPivotAttributionSurvivesReordering) {
  // A zeroed column must be blamed on the same node whether or not the
  // LU runs behind a fill-reducing column permutation: singular-column
  // reports are always in original (un-permuted) coordinates.
  for (const LuOrdering ordering : {LuOrdering::Natural, LuOrdering::MinDegree}) {
    Circuit c;
    buildInverterOp(c);
    FaultSpec spec;
    spec.zero_pivot_node = "out";
    SimOptions opts = withFault(spec);
    opts.lu_ordering = ordering;
    Simulator sim(c, opts);
    try {
      sim.solveOp();
      FAIL() << "expected RecoveryError with ordering " << luOrderingName(ordering);
    } catch (const RecoveryError& e) {
      const ConvergenceDiagnostics& d = e.diagnostics();
      ASSERT_FALSE(d.stages.empty());
      for (const StageAttempt& a : d.stages) {
        EXPECT_EQ(a.failure, NewtonFailureReason::SingularPivot) << luOrderingName(ordering);
        EXPECT_EQ(a.singular_node, "out") << luOrderingName(ordering);
      }
    }
  }
}

}  // namespace
}  // namespace vls
