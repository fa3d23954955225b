#include "sim/ensemble.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/error.hpp"
#include "cells/gates.hpp"
#include "circuit/circuit.hpp"
#include "devices/mosfet.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "numeric/interpolation.hpp"
#include "numeric/lanes.hpp"
#include "sim/simulator.hpp"

namespace vls {
namespace {

// Resistive bridge shared by the linear tests.
void buildBridge(Circuit& c) {
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  c.add<VoltageSource>("v", a, kGround, 10.0);
  c.add<Resistor>("r1", a, b, 100.0);
  c.add<Resistor>("r2", b, kGround, 100.0);
  c.add<Resistor>("r3", a, d, 200.0);
  c.add<Resistor>("r4", d, kGround, 200.0);
  c.add<Resistor>("r5", b, d, 50.0);
}

TEST(Ensemble, RejectsBadLaneCount) {
  Circuit c;
  buildBridge(c);
  EXPECT_THROW(EnsembleSimulator(c, 0, SimOptions{}), InvalidInputError);
  EXPECT_THROW(EnsembleSimulator(c, kMaxLanes + 1, SimOptions{}), InvalidInputError);
}

TEST(Ensemble, OpMatchesScalarLinear) {
  Circuit c;
  buildBridge(c);
  Simulator scalar(c);
  const std::vector<double> ref = scalar.solveOp();

  EnsembleSimulator ens(c, 4, SimOptions{});
  const std::vector<double> soa = ens.solveOp();
  ASSERT_EQ(ens.aliveLaneCount(), 4u);
  for (size_t l = 0; l < 4; ++l) {
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(soa[i * 4 + l], ref[i], 1e-9) << "unknown " << i << " lane " << l;
    }
  }
}

TEST(Ensemble, OpMatchesScalarInverter) {
  // Nonlinear OP near the switching threshold: every identical lane
  // must land on the scalar operating point.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("vdd", vdd, kGround, 1.2);
  c.add<VoltageSource>("vin", in, kGround, 0.6);
  buildInverter(c, "x", in, out, vdd);

  Simulator scalar(c);
  const std::vector<double> ref = scalar.solveOp();

  EnsembleSimulator ens(c, 3, SimOptions{});
  const std::vector<double> soa = ens.solveOp();
  ASSERT_EQ(ens.aliveLaneCount(), 3u);
  for (size_t l = 0; l < 3; ++l) {
    EXPECT_NEAR(soa[out * 3 + l], ref[out], 1e-6) << "lane " << l;
  }
}

TEST(Ensemble, TransientMatchesScalarRc) {
  // Linear RC charge: with identical lanes the lockstep engine takes
  // the same adaptive steps as the scalar reference, so the time axes
  // and waveforms agree to solver precision.
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  PulseSpec p;
  p.v2 = 1.0;
  p.delay = 0.5e-9;
  p.width = 1e-6;
  c.add<VoltageSource>("v", a, kGround, Waveform::pulse(p));
  c.add<Resistor>("r", a, b, 1000.0);
  c.add<Capacitor>("cb", b, kGround, 1e-12);

  Simulator scalar(c);
  const TransientResult ref = scalar.transient(8e-9, 4e-11);

  EnsembleSimulator ens(c, 2, SimOptions{});
  ens.transient(8e-9, 4e-11);
  ASSERT_EQ(ens.aliveLaneCount(), 2u);
  ASSERT_EQ(ens.steps(), ref.time().size());
  for (size_t l = 0; l < 2; ++l) {
    const TransientResult lane = ens.laneResult(l);
    ASSERT_EQ(lane.time().size(), ref.time().size());
    for (size_t s = 0; s < ref.time().size(); ++s) {
      EXPECT_NEAR(lane.time()[s], ref.time()[s], 1e-18);
      EXPECT_NEAR(lane.solution(s)[b], ref.solution(s)[b], 1e-9);
    }
  }
}

TEST(Ensemble, ControlledSourcesAndInductorMatchScalar) {
  // VCVS, VCCS and an inductor on their own lane stamps: an RC-filtered
  // pulse, doubled by the VCVS, converted to a current by the VCCS and
  // driven through an RL branch. The controlled sources sit off ground
  // (on a 0.1 V reference) so every one of their stamp entries is live.
  // Every lane must track the scalar reference at the OP and along the
  // whole transient.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId vr = c.node("vr");
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId n = c.node("n");
  const NodeId m = c.node("m");
  const NodeId d = c.node("d");
  PulseSpec p;
  p.v1 = 0.2;
  p.v2 = 1.0;
  p.delay = 0.5e-9;
  p.width = 1e-6;
  c.add<VoltageSource>("v", in, kGround, Waveform::pulse(p));
  c.add<VoltageSource>("vref", vr, kGround, 0.1);
  c.add<Resistor>("r1", in, a, 1000.0);
  c.add<Capacitor>("c1", a, kGround, 1e-12);
  c.add<Vcvs>("e1", b, vr, a, vr, 2.0);
  c.add<Vccs>("g1", n, m, b, vr, 1e-3);
  c.add<Resistor>("rn", n, kGround, 1000.0);
  c.add<Resistor>("r2", m, kGround, 1000.0);
  c.add<Inductor>("l1", m, d, 10e-9);
  c.add<Resistor>("r3", d, kGround, 100.0);

  Simulator scalar(c);
  const std::vector<double> op = scalar.solveOp();
  const TransientResult ref = scalar.transient(8e-9, 4e-11);

  EnsembleSimulator ens(c, 3, SimOptions{});
  const std::vector<double> soa = ens.solveOp();
  ASSERT_EQ(ens.aliveLaneCount(), 3u);
  for (size_t l = 0; l < 3; ++l) {
    for (size_t i = 0; i < op.size(); ++i) {
      EXPECT_NEAR(soa[i * 3 + l], op[i], 1e-9) << "unknown " << i << " lane " << l;
    }
  }

  ens.transient(8e-9, 4e-11);
  ASSERT_EQ(ens.aliveLaneCount(), 3u);
  ASSERT_EQ(ens.steps(), ref.time().size());
  for (size_t l = 0; l < 3; ++l) {
    const TransientResult lane = ens.laneResult(l);
    ASSERT_EQ(lane.time().size(), ref.time().size());
    for (size_t s = 0; s < ref.time().size(); ++s) {
      EXPECT_NEAR(lane.time()[s], ref.time()[s], 1e-18);
      for (const NodeId node : {a, b, n, m, d}) {
        EXPECT_NEAR(lane.solution(s)[node], ref.solution(s)[node], 1e-9)
            << "node " << node << " step " << s << " lane " << l;
      }
    }
  }
}

TEST(Ensemble, PerturbedLanesTrackPerLaneScalar) {
  // Install a different NMOS width per lane and check each lane settles
  // where a scalar Simulator with the same geometry settles. This is
  // the Monte-Carlo contract at device granularity.
  const double widths[3] = {-20e-9, 0.0, 20e-9};

  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("vdd", vdd, kGround, 1.2);
  c.add<VoltageSource>("vin", in, kGround, 0.55);
  GateHandles inv = buildInverter(c, "x", in, out, vdd);
  Mosfet* nmos = inv.fets[1]->model().type == MosType::Nmos ? inv.fets[1] : inv.fets[0];

  EnsembleSimulator ens(c, 3, SimOptions{});
  auto* state = static_cast<MosfetLaneState*>(ens.laneState(*nmos));
  ASSERT_NE(state, nullptr);
  const MosGeometry base = nmos->geometry();
  for (size_t l = 0; l < 3; ++l) {
    MosGeometry g = base;
    g.delta_w = widths[l];
    state->setGeometry(l, g);
  }
  const std::vector<double> soa = ens.solveOp();
  ASSERT_EQ(ens.aliveLaneCount(), 3u);

  std::vector<double> lane_out(3);
  for (size_t l = 0; l < 3; ++l) {
    MosGeometry g = base;
    g.delta_w = widths[l];
    nmos->setGeometry(g);
    Simulator scalar(c);
    const std::vector<double> ref = scalar.solveOp();
    lane_out[l] = soa[out * 3 + l];
    EXPECT_NEAR(lane_out[l], ref[out], 1e-6) << "lane " << l;
  }
  nmos->setGeometry(base);
  // The perturbation must actually move the operating point.
  EXPECT_GT(std::abs(lane_out[0] - lane_out[2]), 1e-3);
}

TEST(Ensemble, BypassSkipsQuietDevicesAndPreservesWaveforms) {
  // Lane-widened SPICE bypass: with enable_bypass the assembler must
  // actually skip quiet-device model evaluations (the pulse leaves the
  // inverter idle most of the run) without moving the waveforms beyond
  // bypass-tolerance scale. Off by default.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("vdd", vdd, kGround, 1.2);
  PulseSpec p;
  p.v2 = 1.2;
  p.delay = 0.5e-9;
  p.width = 1.5e-9;
  p.rise = 50e-12;
  p.fall = 50e-12;
  c.add<VoltageSource>("vin", in, kGround, Waveform::pulse(p));
  buildInverter(c, "x", in, out, vdd);
  c.add<Capacitor>("cl", out, kGround, 2e-15);

  EnsembleSimulator plain(c, 2, SimOptions{});
  plain.transient(4e-9, 2e-11);
  ASSERT_EQ(plain.aliveLaneCount(), 2u);
  EXPECT_EQ(plain.bypassedEvaluations(), 0u);

  SimOptions opts;
  opts.enable_bypass = true;
  opts.bypass_settle_iterations = 1;
  EnsembleSimulator bypassed(c, 2, opts);
  bypassed.transient(4e-9, 2e-11);
  ASSERT_EQ(bypassed.aliveLaneCount(), 2u);
  EXPECT_GT(bypassed.bypassedEvaluations(), 0u);

  const Signal ref = plain.laneResult(0).node("out");
  const Signal got = bypassed.laneResult(1).node("out");
  for (double t = 0.0; t <= 4e-9; t += 0.05e-9) {
    EXPECT_NEAR(interpLinear(got.time, got.value, t), interpLinear(ref.time, ref.value, t), 1e-4)
        << "t = " << t;
  }
}

TEST(Ensemble, SolveOpAtEvaluatesSourcesAtTime) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add<VoltageSource>("v", a, kGround, Waveform::pwl({0.0, 1e-9}, {0.0, 2.0}));
  c.add<Resistor>("r", a, kGround, 1000.0);
  EnsembleSimulator ens(c, 2, SimOptions{});
  const std::vector<double> x =
      ens.solveOpAt(0.5e-9, std::vector<double>(ens.numUnknowns() * 2, 0.0));
  EXPECT_NEAR(x[a * 2 + 0], 1.0, 1e-9);
  EXPECT_NEAR(x[a * 2 + 1], 1.0, 1e-9);
}

}  // namespace
}  // namespace vls
