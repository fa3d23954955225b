// Parallel sharded assembly: replayed sharded assembly must agree with
// hashed assembly (lane-kernel model evaluation differs from the
// scalar path at the ~1e-7 relative level, so agreement is near, not
// bitwise), and must be BIT-identical across worker counts, device-
// batch widths, and shard label sources. Bypass, stale-tape detection,
// and label validation carry over from the serial engine.
#include "circuit/assembly.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "cells/sstvs.hpp"
#include "circuit/circuit.hpp"
#include "circuit/ensemble_assembly.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"

namespace vls {
namespace {

/// A row of SS-TVS cells on a shared vddo rail, one island label per
/// cell; the supplies carry label -1 (hash-distributed). Many same-card
/// MOSFETs per shard, so the device-batched path really engages.
struct ShardedFixture {
  Circuit c;
  size_t branches = 0;
  std::vector<double> x;
  std::shared_ptr<std::vector<int32_t>> labels = std::make_shared<std::vector<int32_t>>();
  int num_islands;

  explicit ShardedFixture(int islands = 4) : num_islands(islands) {
    const NodeId vddo = c.node("vddo");
    c.add<VoltageSource>("vo", vddo, kGround, 1.2);
    labels->push_back(-1);
    for (int k = 0; k < islands; ++k) {
      const std::string p = "i" + std::to_string(k);
      const NodeId in = c.node(p + "_in");
      const NodeId out = c.node(p + "_out");
      c.add<VoltageSource>("v" + p, in, kGround, 0.8);
      labels->push_back(-1);
      buildSstvs(c, p, in, out, vddo, {});
      c.add<Resistor>("r" + p, out, kGround, 1e6);
      c.add<Capacitor>("c" + p, out, kGround, 1e-15);
      labels->resize(c.devices().size(), k);
    }
    branches = c.assignBranchIndices();
    x.resize(c.nodeCount() + branches);
    for (size_t i = 0; i < x.size(); ++i) {
      x[i] = 0.1 * static_cast<double>(i % 13);
    }
  }

  EvalContext ctx(IntegrationMethod method = IntegrationMethod::None, double dt = 0.0,
                  double gmin = 1e-12, double source_scale = 1.0) const {
    EvalContext e;
    e.x = x;
    e.method = method;
    e.dt = dt;
    e.gmin = gmin;
    e.source_scale = source_scale;
    return e;
  }

  MnaSystem system() const { return MnaSystem(c.nodeCount(), branches); }

  ShardedAssemblyConfig config(int threads = 1, int width = 8) const {
    ShardedAssemblyConfig cfg;
    cfg.device_shard = labels;
    cfg.num_shards = num_islands;
    cfg.num_threads = threads;
    cfg.device_batch_width = width;
    return cfg;
  }
};

/// Exact (bitwise) equality of two assembled systems.
void expectIdentical(const MnaSystem& actual, const MnaSystem& expected, const char* label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  const auto da = actual.matrix().toDense();
  const auto de = expected.matrix().toDense();
  for (size_t i = 0; i < da.size(); ++i) {
    for (size_t j = 0; j < da[i].size(); ++j) {
      EXPECT_EQ(da[i][j], de[i][j]) << label << ": matrix (" << i << ", " << j << ")";
    }
  }
  for (size_t i = 0; i < actual.rhs().size(); ++i) {
    EXPECT_EQ(actual.rhs()[i], expected.rhs()[i]) << label << ": rhs " << i;
  }
}

/// Near equality: lane-kernel (fastExp) vs scalar (std::exp) model
/// evaluation puts sharded replay within ~1e-7 relative of hashed
/// assembly, never bitwise.
void expectClose(const MnaSystem& actual, const MnaSystem& expected, const char* label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  const auto da = actual.matrix().toDense();
  const auto de = expected.matrix().toDense();
  for (size_t i = 0; i < da.size(); ++i) {
    for (size_t j = 0; j < da[i].size(); ++j) {
      const double tol = 1e-9 + 1e-5 * std::fabs(de[i][j]);
      EXPECT_NEAR(da[i][j], de[i][j], tol) << label << ": matrix (" << i << ", " << j << ")";
    }
  }
  for (size_t i = 0; i < actual.rhs().size(); ++i) {
    const double tol = 1e-9 + 1e-5 * std::fabs(expected.rhs()[i]);
    EXPECT_NEAR(actual.rhs()[i], expected.rhs()[i], tol) << label << ": rhs " << i;
  }
}

TEST(ShardedAssembly, RecordMatchesDirectReplayMatchesClosely) {
  ShardedFixture f;
  {
    const EvalContext tctx = f.ctx(IntegrationMethod::Trapezoidal, 1e-12);
    for (const auto& dev : f.c.devices()) dev->startTransient(tctx);
  }
  struct Case {
    const char* label;
    EvalContext ctx;
  };
  const Case cases[] = {
      {"op", f.ctx()},
      {"gmin step", f.ctx(IntegrationMethod::None, 0.0, 1e-3)},
      {"source step", f.ctx(IntegrationMethod::None, 0.0, 1e-12, 0.5)},
      {"tran trapezoidal", f.ctx(IntegrationMethod::Trapezoidal, 1e-12)},
  };

  MnaSystem reference = f.system();
  MnaSystem sys = f.system();
  ShardedAssembler sharded(f.config());
  for (const Case& kase : cases) {
    assembleDirect(reference, f.c, kase.ctx);
    // The recording pass evaluates models scalar — bit-identical to
    // hashed assembly. Replays go through the lane kernels — close.
    sharded.assemble(sys, f.c, kase.ctx);
    if (sharded.replays() == 0) expectIdentical(sys, reference, kase.label);
    sharded.assemble(sys, f.c, kase.ctx);
    expectClose(sys, reference, kase.label);
  }
  EXPECT_EQ(sharded.recordings(), 2u);
  EXPECT_GT(sharded.replays(), 0u);
  EXPECT_GT(sharded.batchedEvaluations(), 0u);
  EXPECT_EQ(sharded.shardCount(), 4u);
}

TEST(ShardedAssembly, BitIdenticalAcrossThreadCounts) {
  ShardedFixture f;
  const EvalContext ctx = f.ctx();
  MnaSystem sys1 = f.system();
  MnaSystem sys4 = f.system();
  ShardedAssembler a1(f.config(/*threads=*/1));
  ShardedAssembler a4(f.config(/*threads=*/4));
  for (int pass = 0; pass < 3; ++pass) {
    a1.assemble(sys1, f.c, ctx);
    a4.assemble(sys4, f.c, ctx);
    expectIdentical(sys4, sys1, "threads 4 vs 1");
  }
}

TEST(ShardedAssembly, BitIdenticalAcrossBatchWidths) {
  // Width only chunks the batch; every width runs the same elementwise
  // lane kernels, so assembled values are bitwise invariant — in DC and
  // trapezoidal contexts, and with bypass engaged for all or part of
  // the devices.
  ShardedFixture f;
  const EvalContext tctx = f.ctx(IntegrationMethod::Trapezoidal, 1e-12);
  for (const auto& dev : f.c.devices()) dev->startTransient(tctx);
  std::vector<double> half_moved = f.x;
  for (size_t i = 0; i < half_moved.size() / 2; ++i) half_moved[i] += 0.01;
  EvalContext moved_ctx = tctx;
  moved_ctx.x = half_moved;

  AssemblyOptions settle;  // bypass enabled but gated off (settle iterations)
  settle.enable_bypass = true;
  AssemblyOptions bypass = settle;
  bypass.allow_bypass_now = true;
  struct Pass {
    const char* label;
    EvalContext ctx;
    AssemblyOptions options;
  };
  const Pass passes[] = {
      {"op record", f.ctx(), {}},
      {"op replay", f.ctx(), {}},
      {"tran record", tctx, settle},
      {"tran replay", tctx, settle},
      {"tran bypass", tctx, bypass},
      {"tran partial bypass", moved_ctx, bypass},
  };

  MnaSystem sys_w8 = f.system();
  MnaSystem sys_w1 = f.system();
  MnaSystem sys_w3 = f.system();
  ShardedAssembler w8(f.config(1, /*width=*/8));
  ShardedAssembler w1(f.config(1, /*width=*/1));
  ShardedAssembler w3(f.config(1, /*width=*/3));
  for (const Pass& pass : passes) {
    w8.assemble(sys_w8, f.c, pass.ctx, pass.options);
    w1.assemble(sys_w1, f.c, pass.ctx, pass.options);
    w3.assemble(sys_w3, f.c, pass.ctx, pass.options);
    expectIdentical(sys_w1, sys_w8, pass.label);
    expectIdentical(sys_w3, sys_w8, pass.label);
  }
  EXPECT_GT(w1.batchedEvaluations(), 0u);
  EXPECT_GT(w1.bypassedEvaluations(), 0u);
  EXPECT_EQ(w1.bypassedEvaluations(), w8.bypassedEvaluations());
  EXPECT_EQ(w3.bypassedEvaluations(), w8.bypassedEvaluations());
}

TEST(ShardedAssembly, BypassReplaysExactValues) {
  ShardedFixture f;
  const EvalContext tctx = f.ctx(IntegrationMethod::Trapezoidal, 1e-12);
  for (const auto& dev : f.c.devices()) dev->startTransient(tctx);

  AssemblyOptions settle;  // bypass enabled but gated off (settle iterations)
  settle.enable_bypass = true;
  AssemblyOptions opts = settle;
  opts.allow_bypass_now = true;
  MnaSystem sys = f.system();
  MnaSystem sys_reference = f.system();
  ShardedAssembler sharded(f.config());
  sharded.assemble(sys, f.c, tctx, settle);  // records (scalar values)
  sharded.assemble(sys, f.c, tctx, settle);  // replays, stores lane-kernel values
  sharded.assemble(sys, f.c, tctx, opts);    // replays, bypass engages
  EXPECT_GT(sharded.bypassedEvaluations(), 0u);

  // A fully bypassed replay re-applies the values the previous replay
  // stored — bitwise equal to a fresh assembler's replay at the same x.
  ShardedAssembler fresh(f.config());
  fresh.assemble(sys_reference, f.c, tctx);
  fresh.assemble(sys_reference, f.c, tctx);
  expectIdentical(sys, sys_reference, "bypassed replay at unchanged x");
}

TEST(ShardedAssembly, HashFallbackWithoutLabels) {
  ShardedFixture f;
  const EvalContext ctx = f.ctx();
  MnaSystem reference = f.system();
  assembleDirect(reference, f.c, ctx);

  ShardedAssemblyConfig cfg;  // no labels: hash-distributed shards
  cfg.num_threads = 2;
  MnaSystem sys = f.system();
  ShardedAssembler sharded(cfg);
  sharded.assemble(sys, f.c, ctx);
  sharded.assemble(sys, f.c, ctx);
  expectClose(sys, reference, "hash fallback");
  EXPECT_GE(sharded.shardCount(), 1u);
}

TEST(ShardedAssembly, ValidatesLabels) {
  ShardedFixture f;
  const EvalContext ctx = f.ctx();
  {
    ShardedAssemblyConfig cfg = f.config();
    auto short_labels = std::make_shared<std::vector<int32_t>>(3, 0);
    cfg.device_shard = short_labels;
    MnaSystem sys = f.system();
    ShardedAssembler sharded(cfg);
    EXPECT_THROW(sharded.assemble(sys, f.c, ctx), InvalidInputError);
  }
  {
    ShardedAssemblyConfig cfg = f.config();
    auto big_labels = std::make_shared<std::vector<int32_t>>(*f.labels);
    (*big_labels)[2] = 1000;  // >= num_shards
    cfg.device_shard = big_labels;
    MnaSystem sys = f.system();
    ShardedAssembler sharded(cfg);
    EXPECT_THROW(sharded.assemble(sys, f.c, ctx), InvalidInputError);
  }
}

/// A device whose stamp sequence can be mutated without a topology
/// revision bump — illegal, and the sharded engine must detect it too.
class TogglingDevice : public Device {
 public:
  TogglingDevice(std::string name, NodeId a) : Device(std::move(name)), a_(a) {}
  void stamp(Stamper& stamper, const EvalContext&) override {
    stamper.currentSource(kGround, a_, 1e-6);
    if (extra) stamper.conductance(a_, kGround, 1e-6);
  }
  size_t terminalCount() const override { return 1; }
  NodeId terminalNode(size_t) const override { return a_; }

  bool extra = false;

 private:
  NodeId a_;
};

TEST(ShardedAssembly, StaleStampSequenceDetected) {
  Circuit c;
  const NodeId n0 = c.node("n0");
  TogglingDevice& toggle = c.add<TogglingDevice>("tg", n0);
  c.add<Resistor>("r0", n0, kGround, 1e3);
  const size_t branches = c.assignBranchIndices();
  std::vector<double> x(c.nodeCount() + branches, 0.0);
  EvalContext ctx;
  ctx.x = x;

  MnaSystem sys(c.nodeCount(), branches);
  ShardedAssembler sharded;
  sharded.assemble(sys, c, ctx);
  toggle.extra = true;  // changes the stamp sequence, no revision bump
  EXPECT_THROW(sharded.assemble(sys, c, ctx), Error);
}

/// Adds `value` into matrix entry (a, a) and RHS row a, in every lane;
/// bypass-capable, so a quiet replay keeps its slab values.
class OrderWriter : public Device {
 public:
  OrderWriter(std::string name, NodeId a, double value)
      : Device(std::move(name)), a_(a), value_(value) {}
  void stamp(Stamper& stamper, const EvalContext&) override {
    stamper.addMatrix(a_, a_, value_);
    stamper.addRhs(a_, value_);
  }
  void stampLanes(LaneStamper& stamper, const LaneContext& ctx, DeviceLaneState*) override {
    const std::vector<double> v(ctx.lanes, value_);
    stamper.addMatrix(a_, a_, v.data());
    stamper.addRhs(a_, v.data());
  }
  bool supportsBypass() const override { return true; }
  size_t terminalCount() const override { return 1; }
  NodeId terminalNode(size_t) const override { return a_; }

 private:
  NodeId a_;
  double value_;
};

/// conductance(a, a): four writes (+g, +g, -g, -g) to one entry.
class SelfConductance : public Device {
 public:
  SelfConductance(std::string name, NodeId a, double g) : Device(std::move(name)), a_(a), g_(g) {}
  void stamp(Stamper& stamper, const EvalContext&) override { stamper.conductance(a_, a_, g_); }
  void stampLanes(LaneStamper& stamper, const LaneContext&, DeviceLaneState*) override {
    stamper.conductanceUniform(a_, a_, g_);
  }
  size_t terminalCount() const override { return 1; }
  NodeId terminalNode(size_t) const override { return a_; }

 private:
  NodeId a_;
  double g_;
};

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Bitwise equality of an assembled system with the expected (a, a)
/// entry and row-a RHS values.
void expectAddition(const MnaSystem& sys, NodeId a, double matrix, double rhs, const char* label) {
  EXPECT_EQ(bits(sys.matrix().toDense()[a][a]), bits(matrix)) << label << ": matrix";
  EXPECT_EQ(bits(sys.rhs()[a]), bits(rhs)) << label << ": rhs";
}

TEST(ShardedAssembly, ScatterKeepsAdditionOrder) {
  // 1e16 + 1 rounds back to 1e16, so reordering these writes changes
  // their sum. In op order (a, a) gets 1e16, +1, +1, -1, -1, -1e16, 1
  // (sum 1) and row a gets 1e16, -1e16, 1 (sum 1); reversed, or with
  // the conductance's four writes moved behind the others, either sum
  // reads 0.
  constexpr double kBig = 1e16;
  Circuit c;
  const NodeId a = c.node("a");
  c.add<OrderWriter>("w_big", a, kBig);
  c.add<SelfConductance>("g_self", a, 1.0);
  c.add<OrderWriter>("w_neg", a, -kBig);
  c.add<OrderWriter>("w_one", a, 1.0);
  ASSERT_EQ(c.assignBranchIndices(), 0u);
  const std::vector<double> x(c.nodeCount(), 0.0);
  EvalContext ctx;
  ctx.x = x;

  MnaSystem reference(c.nodeCount(), 0);
  assembleDirect(reference, c, ctx);
  const double direct_matrix = reference.matrix().toDense()[a][a];
  const double direct_rhs = reference.rhs()[a];
  ASSERT_EQ(direct_rhs, 1.0);  // the op-order sum

  // Serial replay and a fully bypassed replay.
  {
    AssemblyOptions bypass;
    bypass.enable_bypass = true;
    bypass.allow_bypass_now = true;
    MnaSystem sys(c.nodeCount(), 0);
    Assembler assembler;
    assembler.assemble(sys, c, ctx, bypass);
    expectAddition(sys, a, direct_matrix, direct_rhs, "serial record");
    assembler.assemble(sys, c, ctx);
    expectAddition(sys, a, direct_matrix, direct_rhs, "serial replay");
    assembler.assemble(sys, c, ctx, bypass);
    EXPECT_EQ(assembler.bypassedEvaluations(), 3u);
    expectAddition(sys, a, direct_matrix, direct_rhs, "bypassed replay");
  }

  // Lane replay, every lane.
  for (const size_t K : {size_t{1}, size_t{4}}) {
    EnsembleSystem sys(c.nodeCount(), 0, K);
    EnsembleAssembler assembler(c, sys);
    const std::vector<double> xs(c.nodeCount() * K, 0.0);
    const std::vector<double> zeros(K, 0.0);
    LaneContext lctx;
    lctx.x = xs;
    lctx.zero = zeros.data();
    lctx.lanes = K;
    const std::vector<DeviceLaneState*> states(c.devices().size(), nullptr);
    for (int pass = 0; pass < 2; ++pass) {
      assembler.assemble(lctx, states);
      const size_t h = sys.matrix().entryHandle(a, a);
      for (size_t l = 0; l < K; ++l) {
        EXPECT_EQ(bits(sys.matrix().value(h, l)), bits(direct_matrix))
            << "K=" << K << " pass " << pass << " lane " << l << ": matrix";
        EXPECT_EQ(bits(sys.rhsLanes(a)[l]), bits(direct_rhs))
            << "K=" << K << " pass " << pass << " lane " << l << ": rhs";
      }
    }
  }

  // Sharded replay over 2 shards, w_neg alone on shard 1: each shard
  // sums its own writes in op order, and the shard sums are added in
  // shard order.
  ShardedAssemblyConfig cfg;
  cfg.device_shard = std::make_shared<const std::vector<int32_t>>(std::vector<int32_t>{0, 0, 1, 0});
  cfg.num_shards = 2;
  ShardedAssembler sharded(cfg);
  MnaSystem sys(c.nodeCount(), 0);
  sharded.assemble(sys, c, ctx);
  expectAddition(sys, a, direct_matrix, direct_rhs, "sharded record");
  sharded.assemble(sys, c, ctx);
  double matrix0 = 0.0;
  for (const double v : {kBig, 1.0, 1.0, -1.0, -1.0, 1.0}) matrix0 += v;
  double rhs0 = 0.0;
  for (const double v : {kBig, 1.0}) rhs0 += v;
  double shard1 = 0.0;
  shard1 += -kBig;
  const double sharded_matrix = 0.0 + matrix0 + shard1 + ctx.gmin;
  const double sharded_rhs = 0.0 + rhs0 + shard1;
  expectAddition(sys, a, sharded_matrix, sharded_rhs, "sharded replay");
  EXPECT_NE(bits(sharded_matrix), bits(direct_matrix));
  EXPECT_NE(bits(sharded_rhs), bits(direct_rhs));
}

}  // namespace
}  // namespace vls
