// The analysis engine: Newton-Raphson nonlinear solve with homotopy
// fallbacks (gmin stepping, source stepping), DC operating point, DC
// sweep, and adaptive-timestep transient (trapezoidal with backward-
// Euler damping after discontinuities, predictor-based LTE control).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "circuit/assembly.hpp"
#include "circuit/circuit.hpp"
#include "circuit/mna.hpp"
#include "numeric/lu_bbd.hpp"
#include "numeric/lu_sparse.hpp"
#include "sim/ac.hpp"
#include "sim/noise.hpp"
#include "sim/options.hpp"
#include "sim/recovery.hpp"
#include "sim/result.hpp"

namespace vls {

class VoltageSource;

class Simulator {
 public:
  /// The circuit must outlive the simulator. Branch indices are
  /// assigned on construction; adding devices afterwards is an error.
  Simulator(Circuit& circuit, SimOptions options = {});

  /// Solve the DC operating point (sources at their t=0 values).
  /// Returns the full unknown vector.
  std::vector<double> solveOp();

  /// Solve OP starting from the supplied initial guess (warm start).
  std::vector<double> solveOp(std::vector<double> initial_guess);

  /// Warm-started DC solve with sources evaluated at `time` (used to
  /// measure true steady-state leakage after a transient has brought
  /// the circuit near the state of interest). Runs the full recovery
  /// ladder; throws RecoveryError (a ConvergenceError carrying the
  /// stage record) if every rung fails.
  std::vector<double> solveOpAt(double time, std::vector<double> initial_guess);

  /// Sweep the DC value of a source, warm-starting each point.
  DcSweepResult dcSweep(VoltageSource& source, double from, double to, double step);

  /// Adaptive transient from a fresh operating point.
  /// dt_max caps the step; dt_initial <= 0 picks dt_max / 100.
  TransientResult transient(double t_stop, double dt_max, double dt_initial = -1.0);

  /// AC small-signal sweep (log-spaced). Linearizes at the operating
  /// point; sources with a nonzero AC magnitude excite the system.
  AcResult ac(double f_start, double f_stop, int points_per_decade = 10);

  /// Output-referred noise analysis over [f_start, f_stop]: every
  /// device's physical generators (thermal/flicker/shot) are propagated
  /// to `output_node` through the linearized network.
  NoiseResult noise(const std::string& output_node, double f_start, double f_stop,
                    int points_per_decade = 10);

  size_t numUnknowns() const { return num_unknowns_; }
  const SimOptions& options() const { return options_; }
  SimOptions& options() { return options_; }

  /// Flat sparse LU used when no partition is installed (fill/ordering
  /// diagnostics for tests and benches).
  const SparseLu& flatLu() const { return lu_; }
  /// Partitioned BBD solver; null when solving flat.
  const BbdLu* bbdSolver() const { return bbd_.get(); }
  /// Parallel sharded assembler; null unless options.parallel_assembly.
  const ShardedAssembler* shardedAssembler() const { return sharded_.get(); }
  /// How the constructor routed the linear solve ("bbd (auto: 200 >= 24
  /// blocks)", "flat (forced)", "flat (no partition)", ...).
  const std::string& partitionDecision() const { return partition_decision_; }
  /// Phase wall-time attribution (see SimPhaseTimes).
  SimPhaseTimes phaseTimes() const;

  /// Evaluation context for post-processing a solution vector at a
  /// given time (measurement helpers).
  EvalContext contextFor(const std::vector<double>& x, double time = 0.0) const;

  /// Printable name of unknown `index` (node name or branch label) for
  /// diagnostics.
  std::string unknownName(size_t index) const;

 private:
  /// One Newton solve at fixed (time, dt, method, scale, gmin), with
  /// non-finite guards, fault-injection hooks, and (in the ptran stage)
  /// the anchor stamp. x holds the solution (or last iterate).
  NewtonOutcome newtonAttempt(double time, double dt, IntegrationMethod method,
                              double source_scale, double gmin, std::vector<double>& x,
                              const PtranAnchor* anchor = nullptr);

  /// DC solve through the recovery escalation ladder. Throws
  /// RecoveryError on failure; fills *diag (also on success) when given.
  std::vector<double> solveOpInternal(std::vector<double> x, const std::string& context,
                                      double time = 0.0,
                                      ConvergenceDiagnostics* diag = nullptr);

  /// Expand options_.partition's per-device labels into the per-unknown
  /// labels BbdLu consumes (shared nodes demote to the border).
  std::vector<int32_t> deriveUnknownPartition() const;

  /// Starting vector for cold OP solves: options_.nodeset (zero-padded
  /// to the unknown count) when installed, zeros otherwise.
  std::vector<double> coldStart() const;

  Circuit& circuit_;
  SimOptions options_;
  size_t num_unknowns_;
  size_t num_nodes_;
  /// Reused across Newton solves so the sparsity pattern (and its hash
  /// index) is built once per simulator, not once per iteration.
  MnaSystem system_;
  /// Stamp-tape assembly engine: the first Newton iteration of a given
  /// analysis mode records every device's entry handles; every later
  /// iteration replays with zero hash lookups (and, with
  /// options_.enable_bypass, skips unchanged-device model evaluation).
  Assembler assembler_;
  /// Parallel sharded assembly engine, constructed when
  /// options_.parallel_assembly; replaces assembler_ in the Newton loop.
  std::unique_ptr<ShardedAssembler> sharded_;
  /// Persistent factorization: the symbolic phase (pivot order + fill
  /// pattern) runs once per sparsity pattern; every later Newton
  /// iteration and transient step only refreshes the numeric values.
  /// Unused when bbd_ is active.
  SparseLu lu_;
  /// Partitioned bordered-block-diagonal solver, constructed when
  /// options_.partition is set and options_.partition_use routes to it
  /// (Auto consults recommendPartitionedSolve); replaces lu_ in the
  /// Newton loop.
  std::unique_ptr<BbdLu> bbd_;
  /// Constructor's flat-vs-BBD routing rationale (partitionDecision()).
  std::string partition_decision_;
  /// Cumulative phase wall times (phaseTimes()).
  SimPhaseTimes phases_;
  /// Per-iteration Newton scratch, allocated once per simulator.
  std::vector<double> x_new_;
};

}  // namespace vls
