// Stamp-tape assembly engine. The Assembler owns one AssemblyTape per
// analysis mode (DC vs transient — the two modes stamp different call
// sequences) for a (circuit, MnaSystem) pairing. The first assembly of
// a given topology records every device's resolved entry handles and
// compiles the tape's scatter program; every later assembly is two
// passes: devices evaluate into the tape's value slab, then one scatter
// writes the matrix and RHS. With bypass enabled, a device whose
// terminal voltages are unchanged since its last linearization is not
// evaluated at all — its slab slice keeps its last values.
//
// The ShardedAssembler parallelizes both passes: devices are split into
// shards (island partition labels when available, hash fallback
// otherwise) evaluated on parallelForChunked workers into their own
// disjoint slab spans, then the scatter runs in parallel over disjoint
// target ranges. A target written by several shards sums each shard's
// writes apart and adds those sums in shard order, so results are
// bit-identical across every thread count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/mna.hpp"

namespace vls {

struct AssemblyOptions {
  /// Master switch for SPICE-style device bypass (see Device::supportsBypass).
  bool enable_bypass = false;
  /// Max terminal-voltage move [V] since the last linearization for a
  /// device to qualify for bypass.
  double bypass_tol = 1e-7;
  /// Caller-side gate: the Newton loop forces full re-evaluation on the
  /// first iterations of every solve (fresh dt / charge histories /
  /// post-breakpoint state), then sets this true.
  bool allow_bypass_now = false;
};

/// Bypass bookkeeping of one replayed device, shared by every
/// assembler; `voltage(node)` returns the node's tape-lanes-wide
/// voltage run. True when bypass applies: every terminal voltage moved
/// at most bypass_tol in every lane since the device's last
/// linearization, so it need not be evaluated — its slab slice keeps
/// its last values. Otherwise refreshes its voltage snapshot when
/// bypass is enabled. While bypass is disabled the snapshots are left
/// stale — harmless, because the forced full evaluations at the start
/// of every bypass-enabled Newton solve refresh them before any bypass
/// decision is taken.
template <class VoltageRun>
bool bypassDevice(const Device& dev, AssemblyTape& tape, const AssemblyTape::Span& sp,
                  const AssemblyOptions& options, VoltageRun&& voltage) {
  if (!options.enable_bypass) return false;
  const size_t K = tape.lanes();
  bool quiet = options.allow_bypass_now && dev.supportsBypass();
  for (uint32_t t = 0, k = sp.volt_begin; quiet && k < sp.volt_end; ++t, ++k) {
    const double* v = voltage(dev.terminalNode(t));
    const double* last = tape.vLast(k);
    for (size_t l = 0; l < K; ++l) {
      if (std::fabs(v[l] - last[l]) > options.bypass_tol) quiet = false;
    }
  }
  if (quiet) return true;
  for (uint32_t t = 0, k = sp.volt_begin; k < sp.volt_end; ++t, ++k) {
    const double* v = voltage(dev.terminalNode(t));
    std::copy(v, v + K, tape.vLast(k));
  }
  return false;
}

class Assembler {
 public:
  /// Assemble `circuit` linearized at `ctx` into `system`. Records a
  /// fresh tape when the topology revision, target system, or analysis
  /// mode changed; replays otherwise. The per-node gmin diagonal is
  /// routed through cached handles in both cases.
  void assemble(MnaSystem& system, const Circuit& circuit, const EvalContext& ctx,
                const AssemblyOptions& options = {});

  /// Drop all recorded tapes (next assemble re-records).
  void invalidate();

  // Introspection for tests and benchmarks.
  size_t recordings() const { return recordings_; }
  size_t replays() const { return replays_; }
  size_t bypassedEvaluations() const { return bypassed_; }
  /// Cumulative wall time of the device-evaluation pass across all
  /// replays — the phase-attribution number the bench reports.
  double modelEvalSeconds() const { return model_eval_sec_; }

 private:
  AssemblyTape& tapeFor(IntegrationMethod method) {
    return method == IntegrationMethod::None ? tape_dc_ : tape_tran_;
  }

  AssemblyTape tape_dc_;    ///< OP / DC sweep / gmin- and source-stepping
  AssemblyTape tape_tran_;  ///< BE and trapezoidal (identical stamp sequences)
  size_t recordings_ = 0;
  size_t replays_ = 0;
  size_t bypassed_ = 0;
  double model_eval_sec_ = 0.0;
};

/// One-shot hashed assembly — the reference implementation the tape is
/// tested against bit-for-bit, and the right tool for systems assembled
/// once (AC/noise linearization).
void assembleDirect(MnaSystem& system, const Circuit& circuit, const EvalContext& ctx);

/// Configuration of the parallel sharded assembler.
struct ShardedAssemblyConfig {
  /// Per-device shard labels (e.g. fabric island tags). Devices with a
  /// negative label, and all devices when the vector is null, are
  /// hash-distributed round-robin across the shards. Length must match
  /// the circuit's device count when set.
  std::shared_ptr<const std::vector<int32_t>> device_shard;
  /// Shard count. With labels, 0 means max(label)+1; without labels,
  /// 0 derives one shard per ~64 devices (clamped to [1, 64]). Shard
  /// composition never depends on the thread count.
  int num_shards = 0;
  /// Worker threads for the evaluate/scatter regions; 0 = the
  /// VLS_THREADS pool width (parallelThreadCount()).
  int num_threads = 0;
  /// Devices per batched model evaluation, clamped to [1, kMaxLanes].
  /// Width 1 still runs every batchable device through the same
  /// elementwise lane kernels one at a time, so assembled values are
  /// bit-identical for every width.
  int device_batch_width = 8;
};

/// Parallel replacement for Assembler::assemble with identical
/// observable semantics on the tape protocol (recording, revision
/// invalidation, divergence detection, gmin handles, bypass) — see the
/// file header for the evaluate/scatter structure. Model
/// evaluation of grouped same-key devices (Device::deviceBatchKey) goes
/// K-wide through Device::stampDeviceBatch.
class ShardedAssembler {
 public:
  explicit ShardedAssembler(ShardedAssemblyConfig config = {});
  ~ShardedAssembler();

  /// Parallel analogue of Assembler::assemble. Records serially (and
  /// builds the shard plan) when the topology revision, target system,
  /// or analysis mode changed; replays sharded otherwise.
  void assemble(MnaSystem& system, const Circuit& circuit, const EvalContext& ctx,
                const AssemblyOptions& options = {});

  /// Drop all recorded tapes and plans (next assemble re-records).
  void invalidate();

  // Introspection for tests and benchmarks.
  size_t recordings() const { return recordings_; }
  size_t replays() const { return replays_; }
  size_t bypassedEvaluations() const { return bypassed_; }
  /// Devices evaluated through stampDeviceBatch (any batch width).
  size_t batchedEvaluations() const { return batched_; }
  /// Shards of the most recently built plan.
  size_t shardCount() const { return last_shard_count_; }
  /// Cumulative wall time of the device-evaluation pass across all
  /// replays — the phase-attribution number the bench reports.
  double modelEvalSeconds() const { return model_eval_sec_; }

 private:
  struct Shard;
  struct Plan;

  AssemblyTape& tapeFor(IntegrationMethod method) {
    return method == IntegrationMethod::None ? tape_dc_ : tape_tran_;
  }
  Plan& planFor(IntegrationMethod method);

  /// Builds the shard evaluation schedule and returns each device's shard.
  std::vector<uint32_t> buildPlan(Plan& plan, const Circuit& circuit) const;
  void evalShard(Shard& shard, AssemblyTape& tape, MnaSystem& system, const Circuit& circuit,
                 const EvalContext& ctx, const AssemblyOptions& options, int width) const;

  ShardedAssemblyConfig config_;
  AssemblyTape tape_dc_;
  AssemblyTape tape_tran_;
  std::unique_ptr<Plan> plan_dc_;
  std::unique_ptr<Plan> plan_tran_;
  size_t recordings_ = 0;
  size_t replays_ = 0;
  size_t bypassed_ = 0;
  size_t batched_ = 0;
  size_t last_shard_count_ = 0;
  double model_eval_sec_ = 0.0;
};

}  // namespace vls
