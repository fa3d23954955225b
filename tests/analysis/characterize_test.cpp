// Characterization farm: the lane-batched engine must reproduce the
// scalar reference loop within CharGrid::lane_rel_tol; every unit is
// independent and cold-started, so the tables are bit-identical under
// the thread count, grid reordering (scalar path), the farm-vs-single
// -cell split and the width a lane batch happens to run at.
#include "analysis/characterize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>

#include "base/job_control.hpp"
#include "io/checkpoint.hpp"
#include "io/liberty_validate.hpp"
#include "io/liberty_writer.hpp"
#include "sim/fault_injection.hpp"

namespace vls {
namespace {

/// Small grid (3 slews x 2 loads) keeps each farm run to a handful of
/// transients; the production 5x5 grid exercises the same code paths.
CharGrid testGrid() {
  CharGrid g;
  g.slews = {20e-12, 60e-12, 150e-12};
  g.loads = {1e-15, 4e-15};
  return g;
}

CharCorner typicalCorner() { return CharCorner{}; }

/// Max full-scale relative table disagreement: for each metric family,
/// |a - b| normalized by the reference table's peak magnitude of that
/// family (the CharGrid::lane_rel_tol contract — per-entry relative
/// error would divide fs-level solver noise by near-zero entries like
/// a sub-ps inverter delay or the near-cancelling quiet-slot energy).
double maxRelDiff(const CharTable& a, const CharTable& b) {
  EXPECT_EQ(a.points.size(), b.points.size());
  auto metric = [](const CharPoint& p, int m) {
    switch (m) {
      case 0: return p.delay_rise;
      case 1: return p.delay_fall;
      case 2: return p.trans_rise;
      case 3: return p.trans_fall;
      case 4: return p.energy_rise;
      default: return p.energy_fall;
    }
  };
  double worst = 0.0;
  for (int m = 0; m < 6; ++m) {
    // The two power tables share one full scale — the cell's peak
    // switching energy — since the quieter slot's own peak is itself a
    // small difference of large integrals.
    const int peak_lo = m < 4 ? m : 4;
    const int peak_hi = m < 4 ? m : 5;
    double peak = 0.0;
    for (const CharPoint& q : b.points) {
      for (int pm = peak_lo; pm <= peak_hi; ++pm) peak = std::max(peak, std::fabs(metric(q, pm)));
    }
    if (peak <= 0.0) continue;
    for (size_t i = 0; i < a.points.size(); ++i) {
      worst = std::max(worst, std::fabs(metric(a.points[i], m) - metric(b.points[i], m)) / peak);
    }
  }
  return worst;
}

bool allOk(const CharTable& t) {
  return std::all_of(t.points.begin(), t.points.end(),
                     [](const CharPoint& p) { return p.ok; });
}

bool identicalTables(const CharTable& a, const CharTable& b) {
  if (a.points.size() != b.points.size()) return false;
  for (size_t i = 0; i < a.points.size(); ++i) {
    const CharPoint& p = a.points[i];
    const CharPoint& q = b.points[i];
    if (p.delay_rise != q.delay_rise || p.delay_fall != q.delay_fall ||
        p.trans_rise != q.trans_rise || p.trans_fall != q.trans_fall ||
        p.energy_rise != q.energy_rise || p.energy_fall != q.energy_fall || p.ok != q.ok) {
      return false;
    }
  }
  return true;
}

TEST(Characterize, LaneMatchesScalarAcrossWidths) {
  CharGrid grid = testGrid();
  const CharCorner corner = typicalCorner();
  const HarnessConfig base;

  grid.use_lanes = false;
  const CharTable scalar = characterizeCell(ShifterKind::Sstvs, corner, grid, base);
  ASSERT_TRUE(allOk(scalar));

  grid.use_lanes = true;
  grid.lane_width = 8;
  const CharTable lanes8 = characterizeCell(ShifterKind::Sstvs, corner, grid, base);
  EXPECT_TRUE(allOk(lanes8));
  EXPECT_EQ(lanes8.scalar_fallbacks, 0u);
  EXPECT_LE(maxRelDiff(lanes8, scalar), grid.lane_rel_tol);

  grid.lane_width = 1;
  const CharTable lanes1 = characterizeCell(ShifterKind::Sstvs, corner, grid, base);
  EXPECT_TRUE(allOk(lanes1));
  EXPECT_LE(maxRelDiff(lanes1, scalar), grid.lane_rel_tol);

  // Sanity on the physics: more load means more delay at fixed slew.
  EXPECT_GT(lanes8.at(0, 1).delay_rise, lanes8.at(0, 0).delay_rise);
}

// The production configuration for every default cell kind: typical
// corner, the default 5x5 grid with grid timing only, width-8 lanes
// against the scalar loop.
class CharProductionGrid : public ::testing::TestWithParam<ShifterKind> {};

TEST_P(CharProductionGrid, LaneMatchesScalarAtWidth8) {
  CharGrid grid;
  grid.static_metrics = false;
  const CharCorner corner = typicalCorner();
  const HarnessConfig base;

  grid.use_lanes = false;
  const CharTable scalar = characterizeCell(GetParam(), corner, grid, base);
  ASSERT_TRUE(allOk(scalar));

  grid.use_lanes = true;
  grid.lane_width = 8;
  const CharTable lanes8 = characterizeCell(GetParam(), corner, grid, base);
  EXPECT_TRUE(allOk(lanes8));
  EXPECT_LE(maxRelDiff(lanes8, scalar), grid.lane_rel_tol);
}

INSTANTIATE_TEST_SUITE_P(DefaultKinds, CharProductionGrid, ::testing::ValuesIn(CharRequest{}.kinds),
                         [](const ::testing::TestParamInfo<ShifterKind>& param_info) {
                           std::string name = shifterKindName(param_info.param);
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

TEST(Characterize, FarmInvariantUnderThreadCount) {
  CharGrid grid = testGrid();
  grid.slews = {30e-12, 120e-12};  // 2x2 grid: the farm axis is under test here
  CharRequest req;
  req.kinds = {ShifterKind::Sstvs, ShifterKind::InverterOnly};
  req.corners = {typicalCorner()};
  req.grid = grid;

  setenv("VLS_THREADS", "1", 1);
  const std::vector<CharTable> t1 = characterizeCells(req);
  setenv("VLS_THREADS", "4", 1);
  const std::vector<CharTable> t4 = characterizeCells(req);
  unsetenv("VLS_THREADS");

  ASSERT_EQ(t1.size(), 2u);
  ASSERT_EQ(t4.size(), 2u);
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_TRUE(identicalTables(t1[i], t4[i])) << "task " << i;
    // The lane engine's effort counters are summed per table and are
    // as deterministic as the tables themselves.
    const CharEngineStats& a = t1[i].engine;
    const CharEngineStats& b = t4[i].engine;
    EXPECT_GT(a.steps, 0u) << "task " << i;
    EXPECT_GT(a.rejected_steps, 0u) << "task " << i;
    EXPECT_GT(a.newton_iterations, 0u) << "task " << i;
    EXPECT_GT(a.bypassed_evaluations, 0u) << "task " << i;
    EXPECT_GT(a.lane_evaluations, 0u) << "task " << i;
    EXPECT_GT(a.phase_times.assembly_sec, 0.0) << "task " << i;
    EXPECT_EQ(a.steps, b.steps) << "task " << i;
    EXPECT_EQ(a.rejected_steps, b.rejected_steps) << "task " << i;
    EXPECT_EQ(a.newton_iterations, b.newton_iterations) << "task " << i;
    EXPECT_EQ(a.bypassed_evaluations, b.bypassed_evaluations) << "task " << i;
    EXPECT_EQ(a.lane_evaluations, b.lane_evaluations) << "task " << i;
  }
  EXPECT_EQ(t1[0].kind, ShifterKind::Sstvs);
  EXPECT_EQ(t1[1].kind, ShifterKind::InverterOnly);
}

TEST(Characterize, ScalarInvariantUnderGridShuffle) {
  CharGrid grid = testGrid();
  grid.use_lanes = false;
  const CharCorner corner = typicalCorner();
  const HarnessConfig base;

  const CharTable row_major = characterizeCell(ShifterKind::Sstvs, corner, grid, base);

  // Every scalar point is its own cold-started unit, so the evaluation
  // order cannot reach the results.
  const size_t n = grid.slews.size() * grid.loads.size();
  grid.point_order.resize(n);
  std::iota(grid.point_order.begin(), grid.point_order.end(), size_t{0});
  std::reverse(grid.point_order.begin(), grid.point_order.end());
  const CharTable shuffled = characterizeCell(ShifterKind::Sstvs, corner, grid, base);

  EXPECT_TRUE(allOk(shuffled));
  EXPECT_TRUE(identicalTables(shuffled, row_major));
}

TEST(Characterize, FarmMatchesPerTaskCell) {
  CharRequest req;
  req.kinds = {ShifterKind::Sstvs, ShifterKind::InverterOnly};
  req.corners = standardCharCorners();
  req.grid = testGrid();
  req.grid.lane_width = 4;  // 6 points: a full batch and a 2-wide tail
  const std::vector<CharTable> farm = characterizeCells(req);
  ASSERT_EQ(farm.size(), 4u);
  for (size_t t = 0; t < farm.size(); ++t) {
    const CharTable cell = characterizeCell(req.kinds[t / 2], req.corners[t % 2], req.grid,
                                            req.base);
    EXPECT_TRUE(identicalTables(farm[t], cell)) << "task " << t;
    EXPECT_EQ(farm[t].static_metrics.leakage_high, cell.static_metrics.leakage_high);
    EXPECT_EQ(farm[t].static_metrics.functional, cell.static_metrics.functional);
    EXPECT_EQ(farm[t].area_m2, cell.area_m2);
    EXPECT_EQ(farm[t].engine.newton_iterations, cell.engine.newton_iterations);
  }
}

TEST(Characterize, TailBatchMatchesPointAlone) {
  // 9 points at width 8: the last batch runs one lane at its true
  // width, which must be exactly the point characterized on its own.
  CharGrid grid = testGrid();
  grid.loads = {1e-15, 2e-15, 4e-15};
  grid.lane_width = 8;
  grid.static_metrics = false;
  const CharCorner corner = typicalCorner();
  const HarnessConfig base;
  const CharTable full = characterizeCell(ShifterKind::Sstvs, corner, grid, base);
  ASSERT_EQ(full.points.size(), 9u);

  CharGrid alone = grid;
  alone.slews = {grid.slews.back()};
  alone.loads = {grid.loads.back()};
  const CharTable single = characterizeCell(ShifterKind::Sstvs, corner, alone, base);
  ASSERT_EQ(single.points.size(), 1u);
  EXPECT_TRUE(single.points[0].ok);
  CharTable last = full;
  last.points = {full.points.back()};
  EXPECT_TRUE(identicalTables(last, single));
}

TEST(Characterize, RejectsBadGrids) {
  const CharCorner corner = typicalCorner();
  const HarnessConfig base;
  CharGrid grid = testGrid();
  grid.slews.clear();
  EXPECT_THROW(characterizeCell(ShifterKind::Sstvs, corner, grid, base), InvalidInputError);

  grid = testGrid();
  grid.slews.push_back(2e-9);  // ramp would outlast the bit slot
  EXPECT_THROW(characterizeCell(ShifterKind::Sstvs, corner, grid, base), InvalidInputError);

  grid = testGrid();
  grid.point_order = {0, 0, 1, 2, 3, 4};  // not a permutation
  grid.use_lanes = false;
  EXPECT_THROW(characterizeCell(ShifterKind::Sstvs, corner, grid, base), InvalidInputError);
}

TEST(Characterize, EndToEndLibertyIsValid) {
  CharGrid grid = testGrid();
  CharRequest req;
  req.kinds = {ShifterKind::Sstvs};
  req.corners = {typicalCorner()};
  req.grid = grid;
  const std::vector<CharTable> tables = characterizeCells(req);

  const std::vector<LibertyCellData> cells = libertyCellsFromCharacterization(tables);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].hasNldm());
  EXPECT_EQ(cells[0].cell_rise.index_1.size(), grid.slews.size());
  EXPECT_EQ(cells[0].cell_rise.index_2.size(), grid.loads.size());

  const std::string lib = writeLiberty(LibertyLibrarySpec{}, cells);
  const LibertyValidation v = validateLiberty(lib);
  EXPECT_TRUE(v.ok()) << v.summary();
  EXPECT_EQ(v.cell_count, 1u);
  EXPECT_EQ(v.table_count, 6u);  // 4 delay/transition + 2 power groups
}

// ---------------------------------------------------------------------
// Resilience: kill/resume bit-identity, incompatible-checkpoint
// rejection, and the degrade-don't-abort hole pipeline down to the
// annotated .lib output.

/// Removes the checkpoint file on construction and destruction.
struct ScopedCkpt {
  explicit ScopedCkpt(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~ScopedCkpt() { std::remove(path.c_str()); }
  std::string path;
};

/// The small farm the resilience tests run: 2 kinds x 1 corner, 2x2
/// grid (fast enough to run three full times per test).
CharRequest resilienceFarm() {
  CharGrid grid = testGrid();
  grid.slews = {30e-12, 120e-12};
  CharRequest req;
  req.kinds = {ShifterKind::Sstvs, ShifterKind::InverterOnly};
  req.corners = {typicalCorner()};
  req.grid = grid;
  return req;
}

void expectFarmsIdentical(const std::vector<CharTable>& a, const std::vector<CharTable>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(identicalTables(a[i], b[i])) << "task " << i;
    EXPECT_EQ(a[i].failures.size(), b[i].failures.size()) << "task " << i;
  }
  // The strongest form of the contract: the shipped artifact itself is
  // byte-identical.
  const std::string lib_a = writeLiberty(LibertyLibrarySpec{}, libertyCellsFromCharacterization(a));
  const std::string lib_b = writeLiberty(LibertyLibrarySpec{}, libertyCellsFromCharacterization(b));
  EXPECT_EQ(lib_a, lib_b);
}

TEST(CharFarmResilience, ScalarKillResumeBitIdentical) {
  CharRequest req = resilienceFarm();
  req.grid.use_lanes = false;
  const std::vector<CharTable> ref = characterizeCells(req);

  ScopedCkpt f("test_farm_scalar.vlsckpt");
  CharRequest killed = req;
  killed.checkpoint_path = f.path;
  killed.job = std::make_shared<JobControl>();
  killed.job->cancelAfterUnits(5);  // mid-grid, mid-task (8 points total)
  EXPECT_THROW(characterizeCells(killed), JobInterrupted);

  CharRequest resume = req;
  resume.checkpoint_path = f.path;
  const std::vector<CharTable> resumed = characterizeCells(resume);
  expectFarmsIdentical(ref, resumed);

  // The finished checkpoint short-circuits a re-run entirely.
  const std::vector<CharTable> rerun = characterizeCells(resume);
  expectFarmsIdentical(ref, rerun);
}

TEST(CharFarmResilience, LaneKillResumeBitIdentical) {
  CharRequest req = resilienceFarm();
  req.grid.use_lanes = true;
  req.grid.lane_width = 2;  // two batches per task: the cursor is mid-grid
  const std::vector<CharTable> ref = characterizeCells(req);

  ScopedCkpt f("test_farm_lanes.vlsckpt");
  CharRequest killed = req;
  killed.checkpoint_path = f.path;
  killed.job = std::make_shared<JobControl>();
  killed.job->cancelAfterUnits(2);
  EXPECT_THROW(characterizeCells(killed), JobInterrupted);

  CharRequest resume = req;
  resume.checkpoint_path = f.path;
  const std::vector<CharTable> resumed = characterizeCells(resume);
  expectFarmsIdentical(ref, resumed);
}

TEST(CharFarmResilience, IncompatibleCheckpointRejected) {
  ScopedCkpt f("test_farm_incompat.vlsckpt");
  CharRequest req = resilienceFarm();
  req.grid.use_lanes = false;
  req.checkpoint_path = f.path;
  characterizeCells(req);

  // A different grid must not resume against the stored progress.
  CharRequest other = req;
  other.grid.slews = {30e-12, 60e-12, 120e-12};
  EXPECT_THROW(characterizeCells(other), InvalidInputError);

  // A different corner set likewise.
  CharRequest corner = req;
  corner.corners[0].vddi = 0.7;
  EXPECT_THROW(characterizeCells(corner), InvalidInputError);
}

TEST(CharFarmResilience, OldPayloadVersionRejected) {
  // A farm checkpoint of an older payload sub-version cannot seed the
  // current per-unit layout.
  ScopedCkpt f("test_farm_v1.vlsckpt");
  CheckpointWriter fingerprint;
  fingerprint.u32(1);
  CheckpointWriter w;
  w.blob(fingerprint.bytes());
  w.u64(0);
  writeCheckpointFile(f.path, kCheckpointKindCharFarm, w);

  CharRequest req = resilienceFarm();
  req.checkpoint_path = f.path;
  EXPECT_THROW(characterizeCells(req), InvalidInputError);
}

TEST(CharFarmResilience, FaultedPointBecomesAnnotatedHole) {
  // Satellite acceptance: an unrecoverable injected fault at one grid
  // point must surface as a structured CharPointFailure — stage and
  // worst-node attributed — and flow through to a hole comment in a
  // still-valid .lib, instead of aborting the run.
  CharGrid grid = testGrid();
  grid.slews = {60e-12};
  grid.loads = {2e-15};  // 1x1 grid: exactly one (faulted) point
  grid.use_lanes = false;
  grid.static_metrics = false;
  HarnessConfig base;
  FaultSpec spec;
  spec.zero_pivot_node = "out";  // unlimited fires: defeats every attempt
  base.sim.fault_injector = std::make_shared<FaultInjector>(spec);

  const CharTable table =
      characterizeCell(ShifterKind::Sstvs, typicalCorner(), grid, base);
  ASSERT_EQ(table.points.size(), 1u);
  EXPECT_FALSE(table.points[0].ok);
  EXPECT_EQ(table.retried_points, 1u);
  ASSERT_EQ(table.failures.size(), 1u);
  const CharPointFailure& fail = table.failures[0];
  EXPECT_EQ(fail.point, 0u);
  EXPECT_EQ(fail.attempts, 2);  // 1 attempt + 1 escalated retry (default)
  EXPECT_FALSE(fail.stage.empty());
  EXPECT_EQ(fail.node, "out");
  EXPECT_FALSE(fail.message.empty());

  const std::vector<LibertyCellData> cells = libertyCellsFromCharacterization({table});
  ASSERT_EQ(cells.size(), 1u);
  ASSERT_EQ(cells[0].holes.size(), 1u);
  const std::string lib = writeLiberty(LibertyLibrarySpec{}, cells);
  EXPECT_NE(lib.find("characterization hole"), std::string::npos);
  EXPECT_NE(lib.find("node 'out'"), std::string::npos);
  const LibertyValidation v = validateLiberty(lib);
  EXPECT_TRUE(v.ok()) << v.summary();  // holes degrade the data, not the format
}

TEST(CharFarmResilience, CleanRunHasNoRetriesOrHoles) {
  CharRequest req = resilienceFarm();
  req.grid.use_lanes = false;
  const std::vector<CharTable> tables = characterizeCells(req);
  for (const CharTable& t : tables) {
    EXPECT_EQ(t.retried_points, 0u);
    EXPECT_TRUE(t.failures.empty());
    EXPECT_TRUE(allOk(t));
  }
}

}  // namespace
}  // namespace vls
