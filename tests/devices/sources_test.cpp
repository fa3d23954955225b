#include "devices/sources.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include "numeric/interpolation.hpp"

#include "circuit/circuit.hpp"
#include "devices/passive.hpp"
#include "sim/simulator.hpp"

namespace vls {
namespace {

TEST(VoltageSource, DcAndBranchCurrent) {
  Circuit c;
  const NodeId a = c.node("a");
  auto& v = c.add<VoltageSource>("v", a, kGround, 5.0);
  c.add<Resistor>("r", a, kGround, 1000.0);
  Simulator sim(c);
  const auto x = sim.solveOp();
  EXPECT_NEAR(x[a], 5.0, 1e-9);
  const EvalContext ctx = sim.contextFor(x);
  // 5 mA delivered: branch current (into +) is -5 mA.
  EXPECT_NEAR(v.branchCurrent(ctx), -5e-3, 1e-9);
  EXPECT_NEAR(v.terminalCurrent(0, ctx), -5e-3, 1e-9);
  EXPECT_NEAR(v.terminalCurrent(1, ctx), 5e-3, 1e-9);
}

TEST(CurrentSource, DrivesResistor) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add<CurrentSource>("i", kGround, a, 1e-3);  // 1 mA into node a
  c.add<Resistor>("r", a, kGround, 1000.0);
  Simulator sim(c);
  const auto x = sim.solveOp();
  EXPECT_NEAR(x[a], 1.0, 1e-9);
}

TEST(Vcvs, Gain) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("v", in, kGround, 0.25);
  c.add<Vcvs>("e", out, kGround, in, kGround, 4.0);
  c.add<Resistor>("r", out, kGround, 1000.0);
  Simulator sim(c);
  const auto x = sim.solveOp();
  EXPECT_NEAR(x[out], 1.0, 1e-9);
}

TEST(Vccs, Transconductance) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("v", in, kGround, 2.0);
  // gm*v(in) = 2 mA flows out -> gnd inside the source, i.e. pulled out
  // of node `out`.
  c.add<Vccs>("g", out, kGround, in, kGround, 1e-3);
  c.add<Resistor>("r", out, kGround, 500.0);
  Simulator sim(c);
  const auto x = sim.solveOp();
  EXPECT_NEAR(x[out], -1.0, 1e-9);
}

TEST(VoltageSource, PulseDrivesTransient) {
  Circuit c;
  const NodeId a = c.node("a");
  PulseSpec p;
  p.v1 = 0;
  p.v2 = 1;
  p.delay = 1e-9;
  p.rise = p.fall = 1e-11;
  p.width = 1e-9;
  c.add<VoltageSource>("v", a, kGround, Waveform::pulse(p));
  c.add<Resistor>("r", a, kGround, 1000.0);
  Simulator sim(c);
  const auto tr = sim.transient(3e-9, 5e-11);
  const Signal va = tr.node("a");
  EXPECT_NEAR(interpLinear(va.time, va.value, 0.5e-9), 0.0, 1e-9);
  EXPECT_NEAR(interpLinear(va.time, va.value, 1.5e-9), 1.0, 1e-9);
  EXPECT_NEAR(interpLinear(va.time, va.value, 2.9e-9), 0.0, 1e-9);
  // The breakpoint times must be hit exactly (samples exist there).
  bool found = false;
  for (double t : va.time) {
    if (std::fabs(t - 1e-9) < 1e-18) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace vls
