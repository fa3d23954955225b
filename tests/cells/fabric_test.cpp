#include "cells/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>

#include "analysis/fabric_bootstrap.hpp"
#include "base/error.hpp"
#include "circuit/circuit.hpp"
#include "devices/passive.hpp"
#include "numeric/interpolation.hpp"
#include "sim/fault_injection.hpp"
#include "sim/simulator.hpp"

namespace vls {
namespace {

FabricSpec smallSpec() {
  FabricSpec spec;
  spec.islands = 3;
  spec.logic_stages = 2;
  spec.wire.segments = 4;
  return spec;
}

// Shifter cascades defeat a cold zero start: every fabric solve gets
// the tiled nodeset and a patient pseudo-transient rung.
SimOptions fabricOptions(const Circuit& c, const FabricSpec& spec) {
  SimOptions opt;
  opt.nodeset = std::make_shared<const std::vector<double>>(fabricDcGuess(c, spec));
  opt.recovery.ptran_max_steps = 2000;
  opt.recovery.ptran_grow = 2.0;
  return opt;
}

TEST(Fabric, ValidatesSpec) {
  Circuit c;
  FabricSpec bad;
  bad.islands = 0;
  EXPECT_THROW(buildFabric(c, bad), InvalidInputError);
  bad = FabricSpec{};
  bad.supplies.clear();
  EXPECT_THROW(buildFabric(c, bad), InvalidInputError);
  c.add<Resistor>("r", c.node("a"), kGround, 1.0);
  EXPECT_THROW(buildFabric(c, FabricSpec{}), InvalidInputError);
}

TEST(Fabric, IslandAndBoundaryBookkeeping) {
  Circuit c;
  const FabricHandles fab = buildFabric(c, smallSpec());
  ASSERT_EQ(fab.islands.size(), 3u);
  ASSERT_EQ(fab.boundaries.size(), 2u);
  EXPECT_EQ(fab.final_out, fab.islands.back().out);
  ASSERT_NE(fab.input, nullptr);

  // Every device carries an island tag, and every island owns devices.
  ASSERT_EQ(fab.device_island.size(), c.devices().size());
  std::vector<size_t> per_island(3, 0);
  for (int32_t tag : fab.device_island) {
    ASSERT_GE(tag, 0);
    ASSERT_LT(tag, 3);
    ++per_island[static_cast<size_t>(tag)];
  }
  for (size_t k = 0; k < 3; ++k) EXPECT_GT(per_island[k], 0u);

  // Supplies cycle through the spec list; rails are distinct nets.
  const FabricSpec spec = smallSpec();
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(fab.islands[k].supply, spec.supplies[k % spec.supplies.size()]);
    for (size_t j = k + 1; j < 3; ++j) EXPECT_NE(fab.islands[k].rail, fab.islands[j].rail);
  }
  // Boundary k couples island k to island k+1 through a dedicated net.
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(fab.boundaries[k].from_island, static_cast<int>(k));
    EXPECT_EQ(fab.boundaries[k].to_island, static_cast<int>(k + 1));
    EXPECT_EQ(c.nodeName(fab.boundaries[k].node), "bnd" + std::to_string(k));
  }

  const auto part = makePartitionSpec(fab);
  EXPECT_EQ(part->num_blocks, 3);
  EXPECT_EQ(part->device_block, fab.device_island);
}

// The flat-vs-BBD Auto heuristic routes by island count alone: below
// kBbdAutoMinBlocks (24) blocks the flat solver runs, at it the
// partitioned one. Decided in the constructor, so nothing is solved.
TEST(Fabric, AutoPartitionRoutesByBlockCount) {
  Circuit small_c;
  const FabricHandles small_fab = buildFabric(small_c, smallSpec());
  SimOptions opt;
  opt.partition = makePartitionSpec(small_fab);
  ASSERT_EQ(opt.partition_use, PartitionUse::Auto);
  const Simulator small(small_c, opt);
  EXPECT_EQ(small.partitionDecision(), "flat (auto: 3 < 24 blocks)");
  EXPECT_EQ(small.bbdSolver(), nullptr);

  FabricSpec spec = smallSpec();
  spec.islands = 24;
  Circuit large_c;
  const FabricHandles large_fab = buildFabric(large_c, spec);
  opt.partition = makePartitionSpec(large_fab);
  const Simulator large(large_c, opt);
  EXPECT_TRUE(large.partitionDecision().starts_with("bbd (auto: 24 >= 24"))
      << large.partitionDecision();
  EXPECT_NE(large.bbdSolver(), nullptr);
}

TEST(Fabric, DcOpFlatMatchesBbd) {
  Circuit flat_c;
  const FabricHandles flat_fab = buildFabric(flat_c, smallSpec());
  Simulator flat(flat_c, fabricOptions(flat_c, smallSpec()));
  const auto x_flat = flat.solveOp();

  Circuit bbd_c;
  const FabricHandles bbd_fab = buildFabric(bbd_c, smallSpec());
  SimOptions opt = fabricOptions(bbd_c, smallSpec());
  opt.lu_ordering = LuOrdering::MinDegree;
  opt.partition = makePartitionSpec(bbd_fab);
  // 3 islands is below the Auto threshold — this test wants BBD.
  opt.partition_use = PartitionUse::ForceBbd;
  Simulator bbd(bbd_c, opt);
  ASSERT_NE(bbd.bbdSolver(), nullptr);
  EXPECT_EQ(bbd.partitionDecision(), "bbd (forced)");
  const auto x_bbd = bbd.solveOp();

  ASSERT_EQ(x_flat.size(), x_bbd.size());
  EXPECT_EQ(bbd.bbdSolver()->blockCount(), 3u);
  EXPECT_GT(bbd.bbdSolver()->borderSize(), 0u);
  for (size_t i = 0; i < x_flat.size(); ++i) EXPECT_NEAR(x_flat[i], x_bbd[i], 1e-7);

  // Rails sit at their programmed supplies in both solves.
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(x_flat[flat_fab.islands[k].rail], flat_fab.islands[k].supply, 1e-9);
    EXPECT_NEAR(x_bbd[bbd_fab.islands[k].rail], bbd_fab.islands[k].supply, 1e-9);
  }
}

TEST(Fabric, TransientFlatMatchesBbd) {
  const double t_stop = 3e-9;
  Circuit flat_c;
  const FabricHandles flat_fab = buildFabric(flat_c, smallSpec());
  Simulator flat(flat_c, fabricOptions(flat_c, smallSpec()));
  const TransientResult tr_flat = flat.transient(t_stop, 0.1e-9);

  Circuit bbd_c;
  const FabricHandles bbd_fab = buildFabric(bbd_c, smallSpec());
  SimOptions opt = fabricOptions(bbd_c, smallSpec());
  opt.lu_ordering = LuOrdering::MinDegree;
  opt.partition = makePartitionSpec(bbd_fab);
  opt.partition_use = PartitionUse::ForceBbd;
  Simulator bbd(bbd_c, opt);
  const TransientResult tr_bbd = bbd.transient(t_stop, 0.1e-9);

  // Same recovery behavior (a clean run on both sides).
  EXPECT_EQ(tr_flat.recovery_events.size(), tr_bbd.recovery_events.size());

  // Waveforms agree within LTE-level tolerance on a common grid.
  const std::string out = flat_c.nodeName(flat_fab.final_out);
  const Signal s_flat = tr_flat.node(out);
  const Signal s_bbd = tr_bbd.node(out);
  for (int i = 0; i <= 100; ++i) {
    const double t = t_stop * i / 100.0;
    const double vf = interpLinear(s_flat.time, s_flat.value, t);
    const double vb = interpLinear(s_bbd.time, s_bbd.value, t);
    EXPECT_NEAR(vf, vb, 5e-3) << "t=" << t;
  }
}

// Sets VLS_THREADS for one scope and restores the previous value.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) {
    if (const char* old = std::getenv("VLS_THREADS")) {
      saved_ = old;
      had_ = true;
    }
    setenv("VLS_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~ScopedThreads() {
    if (had_) {
      setenv("VLS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("VLS_THREADS");
    }
  }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  std::string saved_;
  bool had_ = false;
};

// One fabric transient under parallel sharded assembly on a pool of
// `threads` workers.
TransientResult runParallelFabricTransient(int threads,
                                           std::shared_ptr<FaultInjector> injector = nullptr) {
  const ScopedThreads pool_width(threads);
  Circuit c;
  const FabricHandles fab = buildFabric(c, smallSpec());
  SimOptions opt = fabricOptions(c, smallSpec());
  applyFabricSolverOptions(opt, fab);
  opt.fault_injector = std::move(injector);
  Simulator sim(c, opt);
  return sim.transient(3e-9, 0.1e-9);
}

// Every accepted step, every unknown, and every engine diagnostic must
// be bitwise identical: the sharded assembler's determinism contract.
void expectBitIdentical(const TransientResult& a, const TransientResult& b) {
  ASSERT_EQ(a.steps(), b.steps());
  for (size_t s = 0; s < a.steps(); ++s) {
    ASSERT_EQ(a.time()[s], b.time()[s]) << "step " << s;
    ASSERT_EQ(a.solution(s), b.solution(s)) << "step " << s;
  }
  EXPECT_EQ(a.total_newton_iterations, b.total_newton_iterations);
  EXPECT_EQ(a.rejected_steps, b.rejected_steps);
  ASSERT_EQ(a.recovery_events.size(), b.recovery_events.size());
  for (size_t e = 0; e < a.recovery_events.size(); ++e) {
    EXPECT_EQ(a.recovery_events[e].context, b.recovery_events[e].context);
    EXPECT_EQ(a.recovery_events[e].stages.size(), b.recovery_events[e].stages.size());
  }
}

TEST(Fabric, ParallelAssemblyInvariance) {
  const TransientResult t1 = runParallelFabricTransient(1);
  const TransientResult t4 = runParallelFabricTransient(4);
  expectBitIdentical(t1, t4);
}

TEST(Fabric, ParallelAssemblyMatchesSerial) {
  const double t_stop = 3e-9;
  Circuit serial_c;
  const FabricHandles serial_fab = buildFabric(serial_c, smallSpec());
  SimOptions opt = fabricOptions(serial_c, smallSpec());
  opt.lu_ordering = LuOrdering::MinDegree;
  Simulator serial(serial_c, opt);
  const TransientResult tr_serial = serial.transient(t_stop, 0.1e-9);

  const TransientResult tr_par = runParallelFabricTransient(4);
  EXPECT_EQ(tr_serial.recovery_events.size(), tr_par.recovery_events.size());

  // Lane-kernel vs scalar model evaluation differs at the ~1e-7 level,
  // so waveforms agree within LTE tolerance, not bitwise.
  const std::string out = serial_c.nodeName(serial_fab.final_out);
  const Signal s_serial = tr_serial.node(out);
  const Signal s_par = tr_par.node(out);
  for (int i = 0; i <= 100; ++i) {
    const double t = t_stop * i / 100.0;
    const double vs = interpLinear(s_serial.time, s_serial.value, t);
    const double vp = interpLinear(s_par.time, s_par.value, t);
    EXPECT_NEAR(vs, vp, 5e-3) << "t=" << t;
  }
}

TEST(Fabric, ParallelAssemblyFaultInjectionInvariant) {
  // A budgeted mid-transient Newton abort forces rejected steps and a
  // retry; the whole recovery trajectory must not depend on the worker
  // count.
  FaultSpec spec;
  spec.fail_newton_at_iteration = 1;
  spec.arm_time = 1e-9;
  spec.max_fires = 2;
  const TransientResult t1 =
      runParallelFabricTransient(1, std::make_shared<FaultInjector>(spec));
  const TransientResult t4 =
      runParallelFabricTransient(4, std::make_shared<FaultInjector>(spec));
  EXPECT_GE(t1.rejected_steps, 1u);
  expectBitIdentical(t1, t4);
}

TEST(Fabric, MinDegreeOrderingCutsFillAndReusesAnalysis) {
  FabricSpec spec;
  spec.islands = 50;
  spec.logic_stages = 2;
  spec.wire.segments = 4;
  spec.related_work_shifters = false;

  Circuit nat_c;
  buildFabric(nat_c, spec);
  SimOptions opt = fabricOptions(nat_c, spec);
  Simulator nat(nat_c, opt);
  nat.solveOp();
  const size_t fill_nat = nat.flatLu().fillCount();

  Circuit amd_c;
  buildFabric(amd_c, spec);
  opt.lu_ordering = LuOrdering::MinDegree;
  Simulator amd(amd_c, opt);
  const auto x = amd.solveOp();
  const size_t fill_amd = amd.flatLu().fillCount();

  // The global nets are numbered first, so natural order chews through
  // long-range fill; minimum degree must cut it by a wide margin.
  EXPECT_LT(fill_amd, fill_nat / 2);

  // On the warm path (no recovery ladder, no degraded pivots) the
  // ordered symbolic analysis is computed once and every later Newton
  // iteration replays it numerically.
  Simulator warm(amd_c, opt);
  warm.solveOp(x);
  EXPECT_EQ(warm.flatLu().symbolicFactorizations(), 1u);
  EXPECT_GE(warm.flatLu().numericRefactorizations(), 1u);
  // Row pivoting is value-dependent, so the exact fill can differ from
  // the laddered solve's — but it must stay in the ordered regime.
  EXPECT_LT(warm.flatLu().fillCount(), fill_nat / 2);
}

}  // namespace
}  // namespace vls
