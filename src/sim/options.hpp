// Simulator tolerance and control knobs (SPICE-equivalent names where
// they exist).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/job_control.hpp"
#include "circuit/device.hpp"
#include "numeric/ordering.hpp"

namespace vls {

class FaultInjector;

/// Partition for the bordered-block-diagonal solve: device_block[d]
/// names the diagonal block of device d (index into
/// Circuit::devices()), or -1 to pin the device's unknowns to the
/// border. The simulator derives the per-unknown partition from this:
/// a node interior to a block iff every device touching it is in that
/// block, border otherwise; branch unknowns follow their device. Cell
/// generators that know the island structure (src/cells/fabric) emit
/// this directly.
struct PartitionSpec {
  std::vector<int32_t> device_block;
  int32_t num_blocks = 0;
};

/// How SimOptions::partition routes the Newton linear solve. Auto picks
/// flat ordered LU vs the bordered-block-diagonal solver from the block
/// count (recommendPartitionedSolve in numeric/lu_bbd.hpp): small
/// fabrics solve faster flat, the BBD Schur overhead only pays off once
/// there are enough blocks to amortize and parallelize. The partition
/// itself stays available to the sharded assembler in every mode.
enum class PartitionUse : uint8_t { Auto, ForceBbd, ForceFlat };

/// Controls the convergence-recovery escalation ladder shared by the
/// scalar and ensemble engines (see sim/recovery.hpp). Stages run in
/// order — direct Newton, gmin stepping, source stepping, pseudo-
/// transient continuation — each only when the previous one failed.
struct RecoveryPolicy {
  bool gmin_stepping = true;
  bool source_stepping = true;
  bool pseudo_transient = true;

  // Gmin stepping: start at gmin_start, relax by 10x per rung down to
  // the operating gmin, at most gmin_steps rungs.
  int gmin_steps = 10;
  double gmin_start = 1e-2;

  // Source stepping: ramp source_scale over source_steps equal steps.
  int source_steps = 20;

  // Pseudo-transient continuation: an artificial conductance g anchors
  // every node to the last converged point; g relaxes by ptran_grow per
  // converged pseudo-step (growing the pseudo-timestep) until below
  // ptran_g_min, then a plain Newton polish finishes. A failed step
  // tightens g by ptran_shrink; exceeding ptran_g_abort gives up.
  int ptran_max_steps = 200;
  double ptran_g_start = 1.0;     ///< initial anchor conductance [S]
  double ptran_g_min = 1e-9;      ///< anchor below which ptran hands to Newton
  double ptran_grow = 4.0;        ///< anchor relaxation per converged step
  double ptran_shrink = 8.0;      ///< anchor tightening per failed step
  double ptran_g_abort = 1e6;     ///< give up when g grows past this [S]
};

struct SimOptions {
  // Newton iteration.
  double reltol = 1e-3;       ///< relative convergence tolerance
  double vntol = 1e-6;        ///< absolute node-voltage tolerance [V]
  double abstol = 1e-12;      ///< absolute branch-current tolerance [A]
  double gmin = 1e-12;        ///< node-to-ground convergence conductance [S]
  int max_newton_iter = 120;  ///< iterations before declaring failure
  double max_step_voltage = 0.4;  ///< per-iteration Newton damping clamp [V]
  double voltage_bound = 20.0;    ///< hard |v| clamp [V]

  // SPICE-style device bypass (assembly fast path). Off by default: a
  // device whose terminal voltages moved less than bypass_tol since
  // its last linearization replays its recorded stamp values instead
  // of re-evaluating the model. The first bypass_settle_iterations of
  // every Newton solve always re-evaluate, so new timesteps, fresh
  // charge histories, and post-breakpoint states are never bypassed.
  bool enable_bypass = false;
  double bypass_tol = 1e-7;         ///< terminal-voltage move threshold [V]
  int bypass_settle_iterations = 2; ///< forced full evaluations per solve

  // Sparse-LU column pre-ordering. Natural keeps the historical
  // elimination order; MinDegree enables the fill-reducing ordering
  // (src/numeric/ordering) — solutions agree to within pivot-tolerance
  // semantics, and singular-pivot diagnostics stay in original unknown
  // ids either way. Essential at fabric scale, harmless on cells.
  LuOrdering lu_ordering = LuOrdering::Natural;

  // Partitioned bordered-block-diagonal solve (src/numeric/lu_bbd).
  // When set, Newton systems factor per-block in parallel coupled by a
  // Schur complement over the border unknowns; null solves flat.
  // Blocks whose matrix values are unchanged since the previous
  // refactor keep their factors (quiet islands on the bypass tape cost
  // nothing).
  std::shared_ptr<const PartitionSpec> partition;
  // Flat-vs-BBD routing of the partition (see PartitionUse).
  PartitionUse partition_use = PartitionUse::Auto;

  // Parallel sharded assembly (circuit/assembly ShardedAssembler):
  // devices are sharded by the partition's island labels (hash fallback
  // without one), linearized on parallelForChunked workers with
  // same-model MOSFETs batched through the SoA lane kernels, and
  // applied with a deterministic border reduction — results are
  // bit-identical across every VLS_THREADS / assembly_threads /
  // device_batch_width setting, but differ from serial assembly at the
  // ~1e-7 relative level (lane kernels vs scalar exp). Off by default.
  bool parallel_assembly = false;
  int assembly_threads = 0;     ///< workers; 0 = the VLS_THREADS pool width
  int device_batch_width = 8;   ///< MOSFETs per lane-kernel pass [1, kMaxLanes]

  // SPICE-style .nodeset: initial guess for every cold operating-point
  // solve (solveOp, the transient/ac/noise OP, dcSweep homotopy
  // restarts), indexed by unknown. Shorter vectors are zero-padded, so
  // a node-only nodeset (branch currents start at 0) is fine. Deeply
  // cascaded fabrics (src/analysis/fabric_bootstrap) need this: a cold
  // zero start defeats the whole recovery ladder past ~10 islands.
  std::shared_ptr<const std::vector<double>> nodeset;

  // Convergence-recovery escalation ladder (gmin / source stepping,
  // pseudo-transient continuation) shared by every solve entry point.
  RecoveryPolicy recovery;

  // Deterministic fault injection (tests): when set, the installed
  // injector may poison stamps, abort Newton attempts, or zero pivots
  // according to its FaultSpec. Null in production runs. Shared_ptr so
  // SimOptions stays copyable; install a fresh injector per simulation
  // (the injector carries mutable firing state).
  std::shared_ptr<FaultInjector> fault_injector;

  // Cooperative cancellation / wall-clock deadline (base/job_control).
  // When set, the engines check it at the top of every Newton
  // iteration, every transient time step and every recovery ladder
  // stage; a cancel or deadline expiry throws JobInterrupted (which is
  // NOT a vls::Error — per-unit failure isolation never swallows it).
  // Null in unbudgeted runs.
  std::shared_ptr<JobControl> job_control;

  // Transient control.
  IntegrationMethod method = IntegrationMethod::Trapezoidal;
  double tran_reltol = 2e-3;  ///< LTE relative tolerance
  double tran_vntol = 50e-6;  ///< LTE absolute tolerance [V]
  double dt_min = 1e-18;      ///< give up below this step [s]
  double dt_shrink = 0.4;     ///< rejection shrink factor
  double dt_grow_max = 2.0;   ///< max growth per accepted step
  int be_steps_after_breakpoint = 2;  ///< BE damping steps after discontinuities

  // Environment.
  double temperature_c = 27.0;

  double temperatureK() const { return temperature_c + 273.15; }
};

}  // namespace vls
