// Structured convergence diagnostics. Every rung of the recovery
// escalation ladder (direct Newton, gmin stepping, source stepping,
// pseudo-transient continuation) records what it attempted, how far its
// Newton iterations got, and *why* it failed — by name: the worst-
// residual node, the node whose LU pivot collapsed, the device a fault
// was injected from. The record is attached to thrown ConvergenceErrors
// (as a RecoveryError) and to analysis results, so a failed Monte-Carlo
// sample or sweep point is attributable instead of a bare string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/error.hpp"

namespace vls {

/// Rungs of the convergence-recovery escalation ladder, in order.
/// TransientStep tags Newton attempts made by the transient timestep
/// loop (whose "ladder" is dt shrinking rather than homotopy).
enum class RecoveryStage : uint8_t {
  DirectNewton = 0,
  GminStepping = 1,
  SourceStepping = 2,
  PseudoTransient = 3,
  TransientStep = 4,
};

const char* recoveryStageName(RecoveryStage stage);

/// Bit for stage `s` in a stage mask (fault injection arming).
constexpr unsigned recoveryStageBit(RecoveryStage s) { return 1u << static_cast<unsigned>(s); }
constexpr unsigned kAllRecoveryStages = 0xffffffffu;

/// Why one Newton attempt gave up.
enum class NewtonFailureReason : uint8_t {
  None = 0,        ///< converged
  IterationLimit,  ///< ran out of iterations without meeting tolerances
  NonFinite,       ///< NaN/Inf in the residual or solution (aborted immediately)
  SingularPivot,   ///< the LU factorization hit a collapsed pivot
  InjectedFault,   ///< a fault-injection hook forced the failure
};

const char* newtonFailureReasonName(NewtonFailureReason reason);

/// One point of a Newton residual trace: the worst unknown move of one
/// iteration. Traces are depth-capped (kNewtonTraceDepth in
/// sim/recovery.hpp), keeping the most recent iterations.
struct NewtonTracePoint {
  size_t iteration = 0;
  double worst_delta = 0.0;
};

/// What one ladder rung (stage) did. A stage may contain several
/// homotopy sub-steps ("rungs": gmin values, source scales, pseudo-
/// timesteps); the Newton fields describe the last attempt made.
struct StageAttempt {
  RecoveryStage stage = RecoveryStage::DirectNewton;
  bool converged = false;
  int rungs = 0;                 ///< homotopy sub-steps attempted within the stage
  size_t newton_iterations = 0;  ///< Newton iterations across the whole stage
  NewtonFailureReason failure = NewtonFailureReason::None;
  double worst_residual = 0.0;   ///< last attempt's worst unknown move [V or A]
  std::string worst_node;        ///< unknown with the worst residual (or the non-finite one)
  std::string singular_node;     ///< node whose pivot collapsed (SingularPivot only)
  std::string injected_fault;    ///< fault-injection description, when one fired
  std::string detail;            ///< stage parameters, e.g. "gmin=1e-06" or "scale=0.45"
  std::vector<NewtonTracePoint> trace;  ///< last attempt's per-iteration residual trace
};

/// Full record of one recovery ladder run (or one transient failure).
struct ConvergenceDiagnostics {
  std::string context;  ///< "operatingPoint", "solveOpAt", "dcSweep v=...", "transient"
  double time = 0.0;    ///< solve time (transient: failure time)
  double last_dt = 0.0; ///< transient only: last successfully accepted dt
  bool recovered = false;  ///< true when a rung after the first succeeded
  std::vector<StageAttempt> stages;  ///< attempts in escalation order

  /// Deepest stage attempted (null when empty).
  const StageAttempt* lastAttempt() const { return stages.empty() ? nullptr : &stages.back(); }
  /// Worst-residual (or offending) node of the deepest attempt.
  std::string worstNode() const;
  /// Name of the deepest stage attempted ("" when empty).
  std::string lastStageName() const;
  /// Multi-line human-readable report.
  std::string summary() const;
};

/// ConvergenceError carrying the structured record. Existing
/// `catch (const ConvergenceError&)` sites keep working; sites that
/// want attribution catch this subtype (or dynamic_cast).
class RecoveryError : public ConvergenceError {
 public:
  RecoveryError(const std::string& message, ConvergenceDiagnostics diagnostics);
  const ConvergenceDiagnostics& diagnostics() const { return diagnostics_; }

 private:
  ConvergenceDiagnostics diagnostics_;
};

}  // namespace vls
