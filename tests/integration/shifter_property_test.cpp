// Cross-cell property sweeps: invariants that must hold for every
// shifter kind in its valid operating region, parameterized over
// (cell, direction).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "analysis/shifter_harness.hpp"
#include "io/netlist_writer.hpp"
#include "io/netlist_parser.hpp"
#include "sim/simulator.hpp"

namespace vls {
namespace {

// gtest prints a parameter that has no PrintTo as its raw bytes, and
// those bytes become part of every listed test name. `pad` fills the 4
// bytes after the enum, which would otherwise be uninitialised padding
// and make the names differ from run to run.
struct CellDir {
  ShifterKind kind;
  std::int32_t pad = 0;
  double vddi;
  double vddo;
};
static_assert(sizeof(CellDir) == sizeof(ShifterKind) + sizeof(std::int32_t) + 2 * sizeof(double),
              "CellDir must have no padding bytes");

std::string caseName(const ::testing::TestParamInfo<CellDir>& info) {
  std::string name = shifterKindName(info.param.kind);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name + (info.param.vddi < info.param.vddo ? "_up" : "_down");
}

class ShifterProperty : public ::testing::TestWithParam<CellDir> {};

TEST_P(ShifterProperty, FunctionalInValidRegion) {
  HarnessConfig cfg;
  cfg.kind = GetParam().kind;
  cfg.vddi = GetParam().vddi;
  cfg.vddo = GetParam().vddo;
  const ShifterMetrics m = measureShifter(cfg);
  EXPECT_TRUE(m.functional);
  EXPECT_GT(m.delay_rise, 0.0);
  EXPECT_GT(m.delay_fall, 0.0);
  EXPECT_GE(m.leakage_high, 0.0);
  EXPECT_GE(m.leakage_low, 0.0);
}

TEST_P(ShifterProperty, DelaysFiniteAndSubNanosecond) {
  HarnessConfig cfg;
  cfg.kind = GetParam().kind;
  cfg.vddi = GetParam().vddi;
  cfg.vddo = GetParam().vddo;
  const ShifterMetrics m = measureShifter(cfg);
  EXPECT_LT(m.delay_rise, 1e-9);
  EXPECT_LT(m.delay_fall, 1e-9);
}

TEST_P(ShifterProperty, DeterministicRemeasurement) {
  HarnessConfig cfg;
  cfg.kind = GetParam().kind;
  cfg.vddi = GetParam().vddi;
  cfg.vddo = GetParam().vddo;
  const ShifterMetrics a = measureShifter(cfg);
  const ShifterMetrics b = measureShifter(cfg);
  EXPECT_DOUBLE_EQ(a.delay_rise, b.delay_rise);
  EXPECT_DOUBLE_EQ(a.leakage_high, b.leakage_high);
}

TEST_P(ShifterProperty, SlowerEdgesOnlyStretchDelaysModerately) {
  // Doubling the input edge time must not break the cell and should not
  // scale the 50%-50% delay by more than the edge change itself.
  HarnessConfig fast;
  fast.kind = GetParam().kind;
  fast.vddi = GetParam().vddi;
  fast.vddo = GetParam().vddo;
  HarnessConfig slow = fast;
  slow.edge_time = fast.edge_time * 2.0;
  const ShifterMetrics mf = measureShifter(fast);
  const ShifterMetrics ms = measureShifter(slow);
  EXPECT_TRUE(ms.functional);
  EXPECT_LT(ms.delay_rise, mf.delay_rise + 2.0 * fast.edge_time);
}

TEST_P(ShifterProperty, TestbenchExportsToValidNetlist) {
  // The whole bench (DUT + driver + sources) must round-trip through
  // the netlist writer and parser into an equally solvable circuit.
  HarnessConfig cfg;
  cfg.kind = GetParam().kind;
  cfg.vddi = GetParam().vddi;
  cfg.vddo = GetParam().vddo;
  ShifterTestbench tb(cfg);
  const std::string deck = writeNetlist(tb.circuit(), "roundtrip");
  ParsedNetlist nl = parseNetlist(deck);
  EXPECT_EQ(nl.circuit.devices().size(), tb.circuit().devices().size());
  Simulator sim(nl.circuit);
  EXPECT_NO_THROW(sim.solveOp());
}

INSTANTIATE_TEST_SUITE_P(
    CellsAndDirections, ShifterProperty,
    ::testing::Values(CellDir{.kind = ShifterKind::Sstvs, .vddi = 0.8, .vddo = 1.2},
                      CellDir{.kind = ShifterKind::Sstvs, .vddi = 1.2, .vddo = 0.8},
                      CellDir{.kind = ShifterKind::CombinedVs, .vddi = 0.8, .vddo = 1.2},
                      CellDir{.kind = ShifterKind::CombinedVs, .vddi = 1.2, .vddo = 0.8},
                      CellDir{.kind = ShifterKind::SsvsKhan, .vddi = 0.8, .vddo = 1.2},
                      CellDir{.kind = ShifterKind::SsvsPuri, .vddi = 0.8, .vddo = 1.2},
                      CellDir{.kind = ShifterKind::Bootstrap, .vddi = 0.8, .vddo = 1.2},
                      CellDir{.kind = ShifterKind::InverterOnly, .vddi = 1.2, .vddo = 0.8}),
    caseName);

}  // namespace
}  // namespace vls
