#include "analysis/shifter_harness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

namespace vls {
namespace {

TEST(Harness, RejectsEmptySequence) {
  HarnessConfig cfg;
  cfg.bits = {};
  EXPECT_THROW(ShifterTestbench tb(cfg), InvalidInputError);
}

TEST(Harness, KindNames) {
  EXPECT_STREQ(shifterKindName(ShifterKind::Sstvs), "SS-TVS");
  EXPECT_STREQ(shifterKindName(ShifterKind::CombinedVs), "Combined VS");
  EXPECT_STREQ(shifterKindName(ShifterKind::InverterOnly), "Inverter");
  EXPECT_STREQ(shifterKindName(ShifterKind::SsvsKhan), "SS-VS [6]");
}

TEST(Harness, LastRunRequiresMeasure) {
  HarnessConfig cfg;
  ShifterTestbench tb(cfg);
  EXPECT_THROW(tb.lastRun(), InvalidInputError);
  tb.measure();
  EXPECT_GT(tb.lastRun().steps(), 10u);
}

TEST(Harness, ProbeNodesIncludeSstvsInternals) {
  HarnessConfig cfg;
  cfg.kind = ShifterKind::Sstvs;
  ShifterTestbench tb(cfg);
  const auto probes = tb.probeNodes();
  EXPECT_GE(probes.size(), 5u);
  bool has_ctrl = false;
  for (const auto& p : probes) {
    if (p == "xdut.ctrl") has_ctrl = true;
  }
  EXPECT_TRUE(has_ctrl);
}

TEST(Harness, MetricsArePositiveAndOrdered) {
  HarnessConfig cfg;
  cfg.kind = ShifterKind::Sstvs;
  cfg.vddi = 0.8;
  cfg.vddo = 1.2;
  const ShifterMetrics m = measureShifter(cfg);
  EXPECT_TRUE(m.functional);
  EXPECT_GT(m.delay_rise, 1e-12);
  EXPECT_LT(m.delay_rise, 1e-9);
  EXPECT_GT(m.delay_fall, 1e-12);
  EXPECT_GT(m.power_rise, 0.0);
  EXPECT_GT(m.power_fall, 0.0);
  EXPECT_GT(m.leakage_high, 0.0);
  EXPECT_GT(m.leakage_low, 0.0);
}

TEST(Harness, InverterOnlyIsBestForDownShift) {
  // The paper: an inverter is the best level shifter when VDDI > VDDO.
  HarnessConfig inv;
  inv.kind = ShifterKind::InverterOnly;
  inv.vddi = 1.2;
  inv.vddo = 0.8;
  const ShifterMetrics mi = measureShifter(inv);
  EXPECT_TRUE(mi.functional);

  HarnessConfig tvs = inv;
  tvs.kind = ShifterKind::Sstvs;
  const ShifterMetrics mt = measureShifter(tvs);
  // The bare inverter should be at least as fast as anything else.
  EXPECT_LE(mi.delay_fall, mt.delay_fall * 1.5);
}

TEST(Harness, InverterLeaksBadlyOnUpShift) {
  // ... and the paper's premise: an inverter must NOT be used for
  // VDDI < VDDO because the PMOS cannot turn off.
  HarnessConfig inv;
  inv.kind = ShifterKind::InverterOnly;
  inv.vddi = 0.8;
  inv.vddo = 1.2;
  const ShifterMetrics m = measureShifter(inv);
  EXPECT_GT(m.leakage_low, 100e-9);  // input high: near-threshold PMOS path
}

TEST(Harness, DutFetsExcludeDriver) {
  HarnessConfig cfg;
  cfg.kind = ShifterKind::Sstvs;
  ShifterTestbench tb(cfg);
  for (const Mosfet* fet : tb.dutFets()) {
    EXPECT_EQ(fet->name().rfind("xdut.", 0), 0u) << fet->name();
  }
}

TEST(Harness, GeometryPerturbationChangesMetrics) {
  HarnessConfig cfg;
  cfg.kind = ShifterKind::Sstvs;
  ShifterTestbench nominal(cfg);
  const ShifterMetrics m0 = nominal.measure();

  ShifterTestbench skewed(cfg);
  for (Mosfet* fet : skewed.dutFets()) {
    MosGeometry g = fet->geometry();
    g.delta_vt = 0.03;  // slow corner
    fet->setGeometry(g);
  }
  const ShifterMetrics m1 = skewed.measure();
  EXPECT_TRUE(m1.functional);
  EXPECT_GT(m1.delay_rise, m0.delay_rise);
  EXPECT_LT(m1.leakage_high, m0.leakage_high * 1.001);
}

TEST(Harness, TemperatureRaisesLeakage) {
  HarnessConfig cold;
  cold.kind = ShifterKind::Sstvs;
  cold.temperature_c = 27.0;
  HarnessConfig hot = cold;
  hot.temperature_c = 90.0;
  const ShifterMetrics mc_ = measureShifter(cold);
  const ShifterMetrics mh = measureShifter(hot);
  EXPECT_TRUE(mh.functional);
  EXPECT_GT(mh.leakage_high + mh.leakage_low, (mc_.leakage_high + mc_.leakage_low) * 2.0);
}

TEST(WorstCase, ThreadInvariant) {
  // The three stimulus variants run as parallel units; the folded worst
  // case must not depend on how many workers ran them.
  const char* old = std::getenv("VLS_THREADS");
  const std::string saved = old != nullptr ? old : "";
  HarnessConfig cfg;
  setenv("VLS_THREADS", "1", 1);
  const ShifterMetrics serial = measureShifterWorstCase(cfg);
  setenv("VLS_THREADS", "4", 1);
  const ShifterMetrics parallel = measureShifterWorstCase(cfg);
  if (old != nullptr) {
    setenv("VLS_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("VLS_THREADS");
  }
  EXPECT_EQ(serial.delay_rise, parallel.delay_rise);
  EXPECT_EQ(serial.delay_fall, parallel.delay_fall);
  EXPECT_EQ(serial.power_rise, parallel.power_rise);
  EXPECT_EQ(serial.power_fall, parallel.power_fall);
  EXPECT_EQ(serial.leakage_high, parallel.leakage_high);
  EXPECT_EQ(serial.leakage_low, parallel.leakage_low);
  EXPECT_EQ(serial.leakage_high_vddi, parallel.leakage_high_vddi);
  EXPECT_EQ(serial.leakage_low_vddi, parallel.leakage_low_vddi);
  EXPECT_EQ(serial.functional, parallel.functional);
  EXPECT_TRUE(serial.functional);
}

}  // namespace
}  // namespace vls
