// Properties of the EKV MOSFET core: region behaviour, continuity,
// derivative consistency (AD vs finite differences), polarity symmetry,
// temperature response. These are the invariants the paper's leakage
// and delay results rest on.
#include "devices/mosfet.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/ensemble_assembly.hpp"
#include "circuit/mna.hpp"
#include "devices/model_library.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "sim/simulator.hpp"

namespace vls {
namespace {

MosOperating opFor(const MosModelCard& card, double w = 260e-9, double l = 100e-9,
                   double temp = 300.15) {
  MosGeometry g;
  g.w = w;
  g.l = l;
  return resolveOperating(card, g, temp);
}

TEST(MosCore, ZeroVdsZeroCurrent) {
  const MosModelCard& m = *nmos90();
  const MosOperating op = opFor(m);
  for (double vg : {0.0, 0.3, 0.6, 1.2}) {
    for (double v : {0.0, 0.4, 1.0}) {
      EXPECT_NEAR(mosCoreCurrent(m, op, vg, v, v), 0.0, 1e-18) << vg << " " << v;
    }
  }
}

TEST(MosCore, SignFlipsWithTerminalSwap) {
  // Without DIBL the core is source/drain symmetric: I(d,s) = -I(s,d).
  MosModelCard m = *nmos90();
  m.sigma_dibl = 0.0;
  const MosOperating op = opFor(m);
  const double i_fwd = mosCoreCurrent(m, op, 1.0, 0.8, 0.2);
  const double i_rev = mosCoreCurrent(m, op, 1.0, 0.2, 0.8);
  EXPECT_NEAR(i_fwd, -i_rev, std::fabs(i_fwd) * 1e-9);
}

TEST(MosCore, MonotonicInVgs) {
  const MosModelCard& m = *nmos90();
  const MosOperating op = opFor(m);
  double prev = -1.0;
  for (double vg = 0.0; vg <= 1.4; vg += 0.01) {
    const double i = mosCoreCurrent(m, op, vg, 1.2, 0.0);
    EXPECT_GT(i, prev) << "vg=" << vg;
    prev = i;
  }
}

TEST(MosCore, MonotonicInVds) {
  const MosModelCard& m = *nmos90();
  const MosOperating op = opFor(m);
  double prev = -1.0;
  for (double vd = 0.0; vd <= 1.4; vd += 0.01) {
    const double i = mosCoreCurrent(m, op, 0.9, vd, 0.0);
    EXPECT_GE(i, prev) << "vd=" << vd;
    prev = i;
  }
}

TEST(MosCore, SubthresholdSlopeMatchesSlopeFactor) {
  const MosModelCard& m = *nmos90();
  const MosOperating op = opFor(m);
  // Deep subthreshold: I ~ exp(vg / (n ut)).
  const double i1 = mosCoreCurrent(m, op, 0.10, 1.2, 0.0);
  const double i2 = mosCoreCurrent(m, op, 0.15, 1.2, 0.0);
  const double n_measured = 0.05 / (op.ut * std::log(i2 / i1));
  EXPECT_NEAR(n_measured, m.n_slope, 0.05);
}

TEST(MosCore, DiblRaisesLeakage) {
  const MosModelCard& m = *nmos90();
  const MosOperating op = opFor(m);
  const double i_lo = mosCoreCurrent(m, op, 0.0, 0.1, 0.0);
  const double i_hi = mosCoreCurrent(m, op, 0.0, 1.2, 0.0);
  // Expected boost ~ exp(sigma * dV / (n ut)) plus the drain-side term.
  EXPECT_GT(i_hi / i_lo, std::exp(m.sigma_dibl * 1.0 / (m.n_slope * op.ut)));
}

TEST(MosCore, BodyEffectThroughSourceVoltage) {
  // Raising the source (and gate with it) reduces current because the
  // bulk-referenced formulation embeds the (n-1)*vsb threshold shift.
  const MosModelCard& m = *nmos90();
  const MosOperating op = opFor(m);
  const double i0 = mosCoreCurrent(m, op, 0.8, 1.2, 0.0);
  const double i1 = mosCoreCurrent(m, op, 0.8 + 0.4, 1.2 + 0.4, 0.4);
  EXPECT_LT(i1, i0);
  // Effective VT shift ~ (n-1) * vsb ~ 0.11 V for 0.4 V of vsb.
  EXPECT_GT(i1, i0 * 0.05);
}

TEST(MosCore, HighVtLeaksLess) {
  const MosOperating nom = opFor(*nmos90());
  const MosOperating hvt = opFor(*nmos90Hvt());
  const double i_nom = mosCoreCurrent(*nmos90(), nom, 0.0, 1.2, 0.0);
  const double i_hvt = mosCoreCurrent(*nmos90Hvt(), hvt, 0.0, 1.2, 0.0);
  EXPECT_LT(i_hvt, i_nom / 5.0);
}

TEST(MosCore, LowVtLeaksMore) {
  const MosOperating nom = opFor(*nmos90());
  const MosOperating lvt = opFor(*nmos90Lvt());
  const double i_nom = mosCoreCurrent(*nmos90(), nom, 0.0, 1.2, 0.0);
  const double i_lvt = mosCoreCurrent(*nmos90Lvt(), lvt, 0.0, 1.2, 0.0);
  EXPECT_GT(i_lvt, i_nom * 5.0);
}

TEST(MosCore, TemperatureRaisesLeakageLowersDrive) {
  const MosModelCard& m = *nmos90();
  const MosOperating cold = opFor(m, 260e-9, 100e-9, celsiusToKelvin(27.0));
  const MosOperating hot = opFor(m, 260e-9, 100e-9, celsiusToKelvin(90.0));
  EXPECT_GT(mosCoreCurrent(m, hot, 0.0, 1.2, 0.0), mosCoreCurrent(m, cold, 0.0, 1.2, 0.0));
  EXPECT_LT(mosCoreCurrent(m, hot, 1.2, 1.2, 0.0), mosCoreCurrent(m, cold, 1.2, 1.2, 0.0));
}

TEST(MosCore, AdDerivativesMatchFiniteDifference) {
  const MosModelCard& m = *nmos90();
  const MosOperating op = opFor(m);
  const double h = 1e-6;
  for (double vg : {0.2, 0.5, 0.9, 1.3}) {
    for (double vd : {0.05, 0.4, 1.2}) {
      for (double vs : {0.0, 0.2}) {
        using D3 = Dual<3>;
        const D3 i = mosCoreCurrent(m, op, D3::seed(vg, 0), D3::seed(vd, 1), D3::seed(vs, 2));
        const double gm_fd = (mosCoreCurrent(m, op, vg + h, vd, vs) -
                              mosCoreCurrent(m, op, vg - h, vd, vs)) /
                             (2 * h);
        const double gd_fd = (mosCoreCurrent(m, op, vg, vd + h, vs) -
                              mosCoreCurrent(m, op, vg, vd - h, vs)) /
                             (2 * h);
        const double gs_fd = (mosCoreCurrent(m, op, vg, vd, vs + h) -
                              mosCoreCurrent(m, op, vg, vd, vs - h)) /
                             (2 * h);
        const double scale = std::max(std::fabs(i.v) / op.ut, 1e-9);
        EXPECT_NEAR(i.d[0], gm_fd, scale * 1e-3) << vg << " " << vd << " " << vs;
        EXPECT_NEAR(i.d[1], gd_fd, scale * 1e-3);
        EXPECT_NEAR(i.d[2], gs_fd, scale * 1e-3);
      }
    }
  }
}

TEST(MosCore, IonIoffRatioIsProcessLike) {
  const MosModelCard& m = *nmos90();
  const MosOperating op = opFor(m);
  const double ion = mosCoreCurrent(m, op, 1.2, 1.2, 0.0);
  const double ioff = mosCoreCurrent(m, op, 0.0, 1.2, 0.0);
  EXPECT_GT(ion / ioff, 1e4);
  EXPECT_LT(ion / ioff, 1e8);
  // Drive in the hundreds of uA/um class.
  const double ion_per_um = ion / 0.26;
  EXPECT_GT(ion_per_um, 300.0e-6);
  EXPECT_LT(ion_per_um, 3000.0e-6);
}

TEST(Mosfet, PmosInverterComplement) {
  // NMOS+PMOS inverter: out follows !in at both rails.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("vdd", vdd, kGround, 1.2);
  auto& vin = c.add<VoltageSource>("vin", in, kGround, 0.0);
  MosGeometry gp;
  gp.w = 520e-9;
  MosGeometry gn;
  gn.w = 260e-9;
  c.add<Mosfet>("mp", out, in, vdd, vdd, pmos90(), gp);
  c.add<Mosfet>("mn", out, in, kGround, kGround, nmos90(), gn);
  Simulator sim(c);
  auto x = sim.solveOp();
  EXPECT_NEAR(x[out], 1.2, 1e-3);
  vin.setWaveform(Waveform::dc(1.2));
  x = sim.solveOp();
  EXPECT_NEAR(x[out], 0.0, 1e-3);
}

TEST(Mosfet, PassGateThresholdDrop) {
  // NMOS pass device with gate at VDD passes VDD minus an effective VT.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId src = c.node("s");
  const NodeId dst = c.node("d");
  c.add<VoltageSource>("vdd", vdd, kGround, 1.2);
  c.add<VoltageSource>("vs", src, kGround, 1.2);
  MosGeometry g;
  g.w = 260e-9;
  c.add<Mosfet>("mn", src, vdd, dst, kGround, nmos90(), g);
  c.add<Resistor>("rl", dst, kGround, 1e9);  // tiny load defines the level
  Simulator sim(c);
  const auto x = sim.solveOp();
  // Expect roughly VDD - VT - body ~ 0.55..0.85 V.
  EXPECT_GT(x[dst], 0.5);
  EXPECT_LT(x[dst], 0.95);
}

TEST(Mosfet, GeometryVariationMovesCurrent) {
  const MosModelCard& m = *nmos90();
  MosGeometry g;
  g.w = 260e-9;
  g.l = 100e-9;
  const double i0 = mosCoreCurrent(m, resolveOperating(m, g, 300.15), 1.2, 1.2, 0.0);
  g.delta_w = 26e-9;  // +10% W
  const double i_w = mosCoreCurrent(m, resolveOperating(m, g, 300.15), 1.2, 1.2, 0.0);
  EXPECT_NEAR(i_w / i0, 1.1, 0.02);
  g.delta_w = 0.0;
  g.delta_vt = 0.05;
  const double i_vt = mosCoreCurrent(m, resolveOperating(m, g, 300.15), 1.2, 1.2, 0.0);
  EXPECT_LT(i_vt, i0);
}

TEST(Mosfet, InvalidGeometryThrows) {
  MosGeometry g;
  g.w = 100e-9;
  g.delta_w = -200e-9;
  EXPECT_THROW(resolveOperating(*nmos90(), g, 300.15), InvalidInputError);
}

TEST(Mosfet, GateLeakageOptIn) {
  MosModelCard card = *nmos90();
  card.jg = 10.0;  // strong for test visibility [A/m^2]
  auto ref = std::make_shared<const MosModelCard>(card);
  Circuit c;
  const NodeId g = c.node("g");
  c.add<VoltageSource>("vg", g, kGround, 1.2);
  MosGeometry geom;
  geom.w = 1e-6;
  geom.l = 1e-6;
  auto& fet = c.add<Mosfet>("m", kGround, g, kGround, kGround, ref, geom);
  (void)fet;
  Simulator sim(c);
  const auto x = sim.solveOp();
  const EvalContext ctx = sim.contextFor(x);
  // Gate current must flow (source delivers it).
  auto* vg = dynamic_cast<VoltageSource*>(c.findDevice("vg"));
  ASSERT_NE(vg, nullptr);
  EXPECT_GT(std::fabs(vg->branchCurrent(ctx)), 1e-12);
}

TEST(Mosfet, DeviceBatchAndLaneStampsAreBitIdentical) {
  // One lane kernel serves both entry points: device k of a same-card
  // batch through stampDeviceBatch and lane k of one device through
  // stampLanes, given the same geometry and terminal voltages, must
  // produce the same DC stamp ops with bitwise-equal values.
  MosModelCard leaky = *nmos90();
  leaky.jg = 10.0;  // exercise the gate-leakage branch too
  const std::array<MosModelRef, 2> cards = {std::make_shared<const MosModelCard>(leaky),
                                            pmos90()};
  constexpr size_t K = 4;
  std::array<MosGeometry, K> geoms{};
  geoms[1].w = 520e-9;
  geoms[1].delta_vt = 0.03;
  geoms[2].delta_w = -15e-9;
  geoms[2].delta_l = 4e-9;
  geoms[3].area_d = 1e-13;
  geoms[3].area_s = 2e-13;
  // {d, g, s, b} per lane: saturation, triode, subthreshold with a
  // forward-biased junction, and a reversed drain.
  const double volts[K][4] = {{1.0, 0.8, 0.0, 0.0},
                              {0.05, 1.2, 0.0, -0.1},
                              {0.6, 0.3, 0.1, 0.9},
                              {-0.2, 0.5, 0.4, 0.0}};

  for (const MosModelRef& card : cards) {
    const double pol = card->sign();

    // Batch side: K devices on disjoint nodes, recorded once through
    // scalar stamp(), then replayed through stampDeviceBatch.
    Circuit c;
    std::vector<Device*> devs;
    std::vector<double> x;
    for (size_t k = 0; k < K; ++k) {
      std::array<NodeId, 4> n{};
      for (size_t t = 0; t < 4; ++t) {
        n[t] = c.node("n" + std::to_string(k) + "_" + std::to_string(t));
        x.push_back(pol * volts[k][t]);
      }
      devs.push_back(&c.add<Mosfet>("m" + std::to_string(k), n[0], n[1], n[2], n[3], card,
                                    geoms[k]));
    }
    ASSERT_EQ(c.assignBranchIndices(), 0u);
    EvalContext ctx;
    ctx.x = x;
    MnaSystem sys(c.nodeCount(), 0);
    AssemblyTape tape;
    tape.beginRecording(&sys, c.revision());
    Stamper stamper(sys);
    stamper.startRecording(tape);
    for (Device* dev : devs) {
      tape.beginDevice();
      dev->stamp(stamper, ctx);
      tape.endDevice();
    }
    tape.finishRecording(sys.matrix(), sys.numNodes());
    for (size_t i = 0; i < tape.opCount(); ++i) {
      *tape.opValues(i) = std::numeric_limits<double>::quiet_NaN();
    }
    std::vector<uint32_t> op_begin, op_end;
    for (size_t k = 0; k < K; ++k) {
      op_begin.push_back(tape.span(k).op_begin);
      op_end.push_back(tape.span(k).op_end);
    }
    stamper.startReplay(tape);
    devs[0]->stampDeviceBatch(devs, op_begin, op_end, stamper, ctx);

    // Lane side: one device, lane k carrying device k's geometry and
    // terminal voltages.
    Circuit lc;
    std::array<NodeId, 4> ln{};
    for (size_t t = 0; t < 4; ++t) ln[t] = lc.node("t" + std::to_string(t));
    Mosfet& lane_fet = lc.add<Mosfet>("m", ln[0], ln[1], ln[2], ln[3], card, geoms[0]);
    ASSERT_EQ(lc.assignBranchIndices(), 0u);
    std::unique_ptr<DeviceLaneState> state = lane_fet.createLaneState(K);
    auto& mst = static_cast<MosfetLaneState&>(*state);
    std::vector<double> xs(lc.nodeCount() * K);
    for (size_t k = 0; k < K; ++k) {
      mst.setGeometry(k, geoms[k]);
      for (size_t t = 0; t < 4; ++t) xs[static_cast<size_t>(ln[t]) * K + k] = pol * volts[k][t];
    }
    const std::vector<double> zeros(K, 0.0);
    LaneContext lctx;
    lctx.x = xs;
    lctx.zero = zeros.data();
    lctx.lanes = K;
    EnsembleSystem esys(lc.nodeCount(), 0, K);
    AssemblyTape lane_tape;
    lane_tape.beginRecording(&esys, lc.revision(), K);
    LaneStamper lane_stamper(esys);
    lane_stamper.startRecording(lane_tape);
    lane_tape.beginDevice();
    lane_fet.stampLanes(lane_stamper, lctx, state.get());
    lane_tape.endDevice();

    for (size_t k = 0; k < K; ++k) {
      ASSERT_EQ(lane_tape.opCount(), op_end[k] - op_begin[k]) << "device " << k;
      for (size_t i = 0; i < lane_tape.opCount(); ++i) {
        const size_t j = op_begin[k] + i;
        EXPECT_EQ(lane_tape.op(i).kind, tape.op(j).kind) << "op " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(lane_tape.opValues(i)[k]),
                  std::bit_cast<uint64_t>(*tape.opValues(j)))
            << "polarity " << pol << " lane " << k << " op " << i << ": "
            << lane_tape.opValues(i)[k] << " vs " << *tape.opValues(j);
      }
    }
  }
}

/// One (geometry, bias) case of the lane-width test: terminal voltages
/// {d, g, s} (bulk 0) ramp from `v0` by `dv` per step.
struct LaneCase {
  MosGeometry geom;
  std::array<double, 3> v0;
  std::array<double, 3> dv;
};

/// Bit patterns of every value one Mosfet's lane kernel produces for
/// lane l when it carries cases[lane_case[l]]: the stamp op values of
/// two trapezoidal stamps around one accepted step, then the five
/// charge histories acceptStepLanes committed.
std::vector<std::vector<uint64_t>> laneKernelTrace(const MosModelRef& card,
                                                   const std::vector<LaneCase>& cases,
                                                   const std::vector<size_t>& lane_case) {
  const size_t K = lane_case.size();
  Circuit c;
  std::array<NodeId, 4> n{};
  for (size_t t = 0; t < 4; ++t) n[t] = c.node("t" + std::to_string(t));
  Mosfet& fet = c.add<Mosfet>("m", n[0], n[1], n[2], n[3], card, MosGeometry{});
  EXPECT_EQ(c.assignBranchIndices(), 0u);
  std::unique_ptr<DeviceLaneState> state = fet.createLaneState(K);
  auto& mst = static_cast<MosfetLaneState&>(*state);
  for (size_t l = 0; l < K; ++l) mst.setGeometry(l, cases[lane_case[l]].geom);

  const std::vector<double> zeros(K, 0.0);
  std::array<std::vector<double>, 3> xs;
  std::array<LaneContext, 3> ctx;
  for (size_t step = 0; step < 3; ++step) {
    xs[step].assign(c.nodeCount() * K, 0.0);
    for (size_t l = 0; l < K; ++l) {
      const LaneCase& lc = cases[lane_case[l]];
      for (size_t t = 0; t < 3; ++t) {
        xs[step][static_cast<size_t>(n[t]) * K + l] =
            card->sign() * (lc.v0[t] + static_cast<double>(step) * lc.dv[t]);
      }
    }
    ctx[step].x = xs[step];
    ctx[step].zero = zeros.data();
    ctx[step].lanes = K;
    ctx[step].dt = 2e-12;
    ctx[step].method = IntegrationMethod::Trapezoidal;
  }

  std::vector<std::vector<uint64_t>> trace(K);
  EnsembleSystem sys(c.nodeCount(), 0, K);
  const auto stamp = [&](const LaneContext& at) {
    AssemblyTape tape;
    tape.beginRecording(&sys, c.revision(), K);
    LaneStamper stamper(sys);
    stamper.startRecording(tape);
    tape.beginDevice();
    fet.stampLanes(stamper, at, state.get());
    tape.endDevice();
    for (size_t i = 0; i < tape.opCount(); ++i) {
      for (size_t l = 0; l < K; ++l) {
        trace[l].push_back(std::bit_cast<uint64_t>(tape.opValues(i)[l]));
      }
    }
  };
  fet.startTransientLanes(ctx[0], state.get());
  stamp(ctx[1]);
  fet.acceptStepLanes(ctx[1], state.get());
  stamp(ctx[2]);
  for (const MosfetLaneState::CapLanes* cap :
       {&mst.cap_gs, &mst.cap_gd, &mst.cap_gb, &mst.cap_bd, &mst.cap_bs}) {
    for (size_t l = 0; l < K; ++l) {
      for (double v : {cap->q[l], cap->i[l], cap->v_prev[l]}) {
        trace[l].push_back(std::bit_cast<uint64_t>(v));
      }
    }
  }
  return trace;
}

TEST(Mosfet, LaneKernelBitIdenticalAcrossWidths) {
  // The lane loops compile to a full-width vector body plus narrower
  // and scalar remainders, so which code path evaluates a lane depends
  // on the batch width and the lane's position in it. Every value a
  // lane produces must still be bitwise the value of the same case
  // evaluated alone (K = 1): each case is placed at every lane
  // position of every width.
  MosModelCard leaky = *nmos90();
  leaky.jg = 10.0;  // exercise the gate-leakage branch too
  const std::array<MosModelRef, 2> cards = {std::make_shared<const MosModelCard>(leaky),
                                            pmos90()};
  std::vector<LaneCase> cases(5);
  // Saturation, triode with a swing across the Meyer partition,
  // subthreshold with a forward-biased source junction, a reversed
  // drain, and a deep-off device past the softplus saturation.
  cases[0].v0 = {1.0, 0.8, 0.0};
  cases[0].dv = {-0.05, 0.04, 0.0};
  cases[1].geom.w = 520e-9;
  cases[1].geom.delta_vt = 0.03;
  cases[1].v0 = {0.05, 1.2, 0.0};
  cases[1].dv = {0.03, -0.02, 0.01};
  cases[2].geom.delta_w = -15e-9;
  cases[2].geom.delta_l = 4e-9;
  cases[2].v0 = {0.6, 0.3, -0.9};
  cases[2].dv = {0.01, 0.02, 0.05};
  cases[3].geom.area_d = 1e-13;
  cases[3].geom.area_s = 2e-13;
  cases[3].v0 = {-0.2, 0.5, 0.4};
  cases[3].dv = {0.02, 0.0, -0.03};
  cases[4].geom.l = 180e-9;
  cases[4].v0 = {1.4, -1.4, 0.0};
  cases[4].dv = {0.0, 0.01, 0.0};

  for (const MosModelRef& card : cards) {
    std::vector<std::vector<uint64_t>> alone;
    for (size_t ci = 0; ci < cases.size(); ++ci) {
      alone.push_back(laneKernelTrace(card, cases, {ci}).front());
    }
    for (size_t K : {1, 2, 3, 4, 5, 7, 8, 9, 16}) {
      for (size_t rot = 0; rot < cases.size(); ++rot) {
        std::vector<size_t> lane_case(K);
        for (size_t l = 0; l < K; ++l) lane_case[l] = (l + rot) % cases.size();
        const std::vector<std::vector<uint64_t>> got = laneKernelTrace(card, cases, lane_case);
        for (size_t l = 0; l < K; ++l) {
          const std::vector<uint64_t>& want = alone[lane_case[l]];
          ASSERT_EQ(got[l].size(), want.size());
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[l][i], want[i])
                << card->name << " K=" << K << " lane " << l << " case " << lane_case[l]
                << " value " << i << ": " << std::bit_cast<double>(got[l][i]) << " vs "
                << std::bit_cast<double>(want[i]);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace vls
