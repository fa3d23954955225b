#include "circuit/assembly.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <unordered_map>

#include "base/error.hpp"
#include "base/parallel.hpp"
#include "circuit/device.hpp"
#include "numeric/lanes.hpp"

namespace vls {
namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Records the whole circuit into `tape` (write-through, call order),
/// shared by the serial and sharded assemblers so their record
/// semantics cannot drift, and compiles the scatter program.
void recordTape(AssemblyTape& tape, MnaSystem& system, const Circuit& circuit,
                const EvalContext& ctx, std::span<const uint32_t> device_group = {},
                size_t parts = 1) {
  tape.beginRecording(&system, circuit.revision());
  Stamper stamper(system);
  stamper.startRecording(tape);
  for (const auto& dev : circuit.devices()) {
    tape.beginDevice();
    dev->stamp(stamper, ctx);
    for (size_t t = 0; t < dev->terminalCount(); ++t) {
      const double v = ctx.v(dev->terminalNode(t));
      tape.recordTerminalVoltages(&v);
    }
    tape.endDevice();
  }
  tape.finishRecording(system.matrix(), system.numNodes(), device_group, parts);
}

/// Scalar terminal voltages as one-lane runs for bypassDevice.
auto voltageRuns(const EvalContext& ctx) {
  static constexpr double kGroundVolts = 0.0;
  return [&ctx](NodeId n) {
    return isGround(n) ? &kGroundVolts : ctx.x.data() + static_cast<size_t>(n);
  };
}

[[noreturn]] void staleSequence(const Device& dev) {
  throw Error("Assembler: device '" + dev.name() +
              "' changed its stamp sequence without a topology revision bump");
}

}  // namespace

void Assembler::invalidate() {
  tape_dc_.reset();
  tape_tran_.reset();
}

void Assembler::assemble(MnaSystem& system, const Circuit& circuit, const EvalContext& ctx,
                         const AssemblyOptions& options) {
  system.clear();
  AssemblyTape& tape = tapeFor(ctx.method);
  const auto& devices = circuit.devices();

  if (!tape.matches(&system, circuit.revision(), devices.size())) {
    // Record: resolve every handle once for this topology + mode.
    ++recordings_;
    recordTape(tape, system, circuit, ctx);
  } else {
    ++replays_;
    const auto t0 = std::chrono::steady_clock::now();
    Stamper stamper(system);
    stamper.startReplay(tape);
    for (size_t i = 0; i < devices.size(); ++i) {
      Device& dev = *devices[i];
      const AssemblyTape::Span& sp = tape.span(i);
      if (bypassDevice(dev, tape, sp, options, voltageRuns(ctx))) {
        ++bypassed_;
        continue;
      }
      stamper.seek(sp.op_begin);
      dev.stamp(stamper, ctx);
      if (stamper.cursor() != sp.op_end) staleSequence(dev);
    }
    model_eval_sec_ += secondsSince(t0);
    tape.scatter(0, system.matrix().values(), system.rhs().data());
  }

  // gmin from every node to ground, through the cached diagonal
  // handles: keeps floating nodes solvable and Newton matrices
  // nonsingular in cutoff.
  tape.addGmin(system.matrix().values(), ctx.gmin);
}

void assembleDirect(MnaSystem& system, const Circuit& circuit, const EvalContext& ctx) {
  system.clear();
  Stamper stamper(system);
  for (const auto& dev : circuit.devices()) dev->stamp(stamper, ctx);
  for (size_t n = 0; n < system.numNodes(); ++n) {
    system.matrix().add(n, n, ctx.gmin);
  }
}

struct ShardedAssembler::Shard {
  /// One evaluation-schedule entry: a run of same-batch-key devices
  /// (batched) or of key-less devices stamped one by one (scalar).
  struct Group {
    std::vector<uint32_t> devices;  ///< circuit device indices, ascending
    bool batched = false;
  };

  std::vector<Group> groups;
  size_t bypassed = 0;
  size_t batched = 0;
};

struct ShardedAssembler::Plan {
  std::vector<Shard> shards;
};

ShardedAssembler::ShardedAssembler(ShardedAssemblyConfig config) : config_(std::move(config)) {}

ShardedAssembler::~ShardedAssembler() = default;

ShardedAssembler::Plan& ShardedAssembler::planFor(IntegrationMethod method) {
  std::unique_ptr<Plan>& plan = method == IntegrationMethod::None ? plan_dc_ : plan_tran_;
  if (plan == nullptr) plan = std::make_unique<Plan>();
  return *plan;
}

void ShardedAssembler::invalidate() {
  tape_dc_.reset();
  tape_tran_.reset();
  plan_dc_.reset();
  plan_tran_.reset();
}

std::vector<uint32_t> ShardedAssembler::buildPlan(Plan& plan, const Circuit& circuit) const {
  const auto& devices = circuit.devices();
  const size_t n_dev = devices.size();

  // Shard assignment from the labels (negative labels hash-distribute),
  // round-robin without them. Never depends on the thread count.
  const std::vector<int32_t>* labels = config_.device_shard.get();
  int num_shards = config_.num_shards;
  if (labels != nullptr) {
    if (labels->size() != n_dev) {
      throw InvalidInputError("ShardedAssembler: device_shard has " +
                              std::to_string(labels->size()) + " labels for " +
                              std::to_string(n_dev) + " devices");
    }
    int32_t max_label = -1;
    for (const int32_t l : *labels) max_label = std::max(max_label, l);
    if (num_shards <= 0) num_shards = static_cast<int>(max_label) + 1;
    if (max_label >= num_shards) {
      throw InvalidInputError("ShardedAssembler: shard label " + std::to_string(max_label) +
                              " out of range for " + std::to_string(num_shards) + " shards");
    }
  }
  if (num_shards <= 0) {
    num_shards = static_cast<int>(std::clamp<size_t>(n_dev / 64, size_t{1}, size_t{64}));
  }

  std::vector<uint32_t> shard_of(n_dev);
  for (size_t d = 0; d < n_dev; ++d) {
    const int32_t label = labels != nullptr ? (*labels)[d] : -1;
    shard_of[d] = label >= 0 ? static_cast<uint32_t>(label)
                             : static_cast<uint32_t>(d % static_cast<size_t>(num_shards));
  }

  plan.shards.assign(static_cast<size_t>(num_shards), Shard{});

  // Evaluation schedule: same-key devices of a shard share one batched
  // group (first-appearance order); key-less devices coalesce into
  // scalar runs. Device order within every group stays ascending.
  std::vector<std::unordered_map<const void*, size_t>> group_of(plan.shards.size());
  for (size_t d = 0; d < n_dev; ++d) {
    Shard& shard = plan.shards[shard_of[d]];
    const void* key = devices[d]->deviceBatchKey();
    if (key == nullptr) {
      if (shard.groups.empty() || shard.groups.back().batched) {
        shard.groups.push_back({{}, false});
      }
      shard.groups.back().devices.push_back(static_cast<uint32_t>(d));
      continue;
    }
    auto [it, inserted] = group_of[shard_of[d]].try_emplace(key, shard.groups.size());
    if (inserted) shard.groups.push_back({{}, true});
    shard.groups[it->second].devices.push_back(static_cast<uint32_t>(d));
  }
  return shard_of;
}

void ShardedAssembler::evalShard(Shard& shard, AssemblyTape& tape, MnaSystem& system,
                                 const Circuit& circuit, const EvalContext& ctx,
                                 const AssemblyOptions& options, int width) const {
  shard.bypassed = 0;
  shard.batched = 0;
  const auto& devices = circuit.devices();

  // Replay mode: values land in the shard's devices' slab spans —
  // disjoint across shards, so concurrent evaluation is race-free.
  Stamper stamper(system);
  stamper.startReplay(tape);

  Device* batch[kMaxLanes];
  uint32_t op_begin[kMaxLanes];
  uint32_t op_end[kMaxLanes];
  size_t pending = 0;
  const auto flush = [&]() {
    if (pending == 0) return;
    batch[0]->stampDeviceBatch({batch, pending}, {op_begin, pending}, {op_end, pending}, stamper,
                               ctx);
    shard.batched += pending;
    pending = 0;
  };

  for (const Shard::Group& group : shard.groups) {
    for (const uint32_t di : group.devices) {
      Device& dev = *devices[di];
      const AssemblyTape::Span& sp = tape.span(di);
      if (bypassDevice(dev, tape, sp, options, voltageRuns(ctx))) {
        ++shard.bypassed;
        continue;
      }
      if (!group.batched) {
        stamper.seek(sp.op_begin);
        dev.stamp(stamper, ctx);
        if (stamper.cursor() != sp.op_end) staleSequence(dev);
        continue;
      }
      batch[pending] = &dev;
      op_begin[pending] = sp.op_begin;
      op_end[pending] = sp.op_end;
      if (++pending == static_cast<size_t>(width)) flush();
    }
    flush();  // scalar tail of a batched group; no-op after scalar runs
  }
}

void ShardedAssembler::assemble(MnaSystem& system, const Circuit& circuit, const EvalContext& ctx,
                                const AssemblyOptions& options) {
  system.clear();
  AssemblyTape& tape = tapeFor(ctx.method);
  Plan& plan = planFor(ctx.method);
  double* matrix = system.matrix().values();

  if (!tape.matches(&system, circuit.revision(), circuit.devices().size())) {
    // Record serially (write-through, like the serial Assembler) with
    // one scatter group and one target range per shard.
    ++recordings_;
    const std::vector<uint32_t> shard_of = buildPlan(plan, circuit);
    last_shard_count_ = plan.shards.size();
    recordTape(tape, system, circuit, ctx, shard_of, plan.shards.size());
    tape.addGmin(system.matrix().values(), ctx.gmin);
    return;
  }

  ++replays_;
  const int width = std::clamp(config_.device_batch_width, 1, static_cast<int>(kMaxLanes));
  ParallelOptions popt;
  popt.num_threads = config_.num_threads;
  popt.chunk = 1;  // one shard / target range per work item; both are coarse

  // Pass 1 — device evaluation into the slab, batched groups K devices
  // per lane-kernel pass.
  const auto t0 = std::chrono::steady_clock::now();
  parallelForChunked(
      plan.shards.size(),
      [&](size_t s) { evalShard(plan.shards[s], tape, system, circuit, ctx, options, width); },
      popt);
  model_eval_sec_ += secondsSince(t0);

  // Pass 2 — the scatter, in parallel over disjoint target ranges.
  parallelForChunked(
      tape.scatterParts(), [&](size_t p) { tape.scatter(p, matrix, system.rhs().data()); },
      popt);
  for (const Shard& shard : plan.shards) {
    bypassed_ += shard.bypassed;
    batched_ += shard.batched;
  }
  tape.addGmin(matrix, ctx.gmin);
}

}  // namespace vls
