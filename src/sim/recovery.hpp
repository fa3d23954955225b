// Unified convergence-recovery engine: one escalation ladder — direct
// Newton, gmin stepping, source stepping, pseudo-transient continuation
// — shared by every solve entry point of the scalar simulator, with its
// homotopy schedules reused by the ensemble engine's lockstep ladder.
// The engine is generic over a "Newton attempt" callback so it knows
// nothing about assembly or LU; it owns only the escalation policy and
// the ConvergenceDiagnostics record, and throws RecoveryError (with the
// full record attached) when the whole ladder is exhausted.
//
// Pseudo-transient continuation is the standard last-resort homotopy:
// an artificial conductance g anchors every node voltage to the last
// converged point (diagonal += g, rhs += g * x_ref), equivalent to a
// backward-Euler step of size C/g with unit node capacitance. Each
// converged pseudo-step advances the anchor point and relaxes g (grows
// the pseudo-timestep); a failed step tightens g. When g falls below
// RecoveryPolicy::ptran_g_min the circuit is effectively at steady
// state and a plain Newton polish finishes the solve.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/diagnostics.hpp"
#include "sim/fault_injection.hpp"
#include "sim/options.hpp"

namespace vls {

/// Newton residual-trace depth: the most recent iterations kept per
/// stage attempt.
constexpr size_t kNewtonTraceDepth = 8;

/// The last kNewtonTraceDepth trace points of one Newton attempt, in a
/// fixed-capacity ring that never touches the heap (one is filled on
/// every transient step). Copied out, oldest first, only where a stage
/// attempt is recorded.
class NewtonTraceRing {
 public:
  void push(const NewtonTracePoint& p) { points_[count_++ % kNewtonTraceDepth] = p; }
  size_t size() const { return std::min(count_, kNewtonTraceDepth); }
  /// The kept points, oldest first.
  std::vector<NewtonTracePoint> toVector() const {
    std::vector<NewtonTracePoint> out;
    out.reserve(size());
    for (size_t i = count_ - size(); i < count_; ++i) out.push_back(points_[i % kNewtonTraceDepth]);
    return out;
  }

 private:
  std::array<NewtonTracePoint, kNewtonTraceDepth> points_{};
  size_t count_ = 0;  ///< points pushed so far
};

/// Result of one Newton attempt at fixed homotopy parameters.
struct NewtonOutcome {
  bool converged = false;
  size_t iterations = 0;     ///< Newton iterations actually run
  double worst_delta = 0.0;  ///< final worst unknown move [V or A]
  int worst_index = -1;      ///< unknown with the worst (or non-finite) move
  NewtonFailureReason failure = NewtonFailureReason::None;
  int singular_index = -1;   ///< unknown whose LU pivot collapsed
  std::string injected;      ///< fault-injection description, when one fired
  NewtonTraceRing trace;     ///< per-iteration worst moves (last kNewtonTraceDepth)
};

/// Pseudo-transient anchor passed to the attempt callback during the
/// ptran stage (null in every other stage): the callback must add `g`
/// to every node diagonal and `g * (*x_ref)[n]` to every node RHS row
/// after assembly.
struct PtranAnchor {
  double g = 0.0;
  const std::vector<double>* x_ref = nullptr;
};

/// One Newton solve at fixed (source_scale, gmin, anchor), iterating x
/// in place. Implemented by Simulator::newtonAttempt.
using NewtonAttemptFn = std::function<NewtonOutcome(
    double source_scale, double gmin, std::vector<double>& x, const PtranAnchor* anchor)>;

class RecoveryEngine {
 public:
  /// `unknown_name` maps an unknown index to a printable name (node
  /// name, or a branch label). `injector` may be null; when set, the
  /// engine reports the active ladder stage to it so stage-masked
  /// faults arm and disarm correctly.
  /// `job` may be null; when set, every ladder stage entry is a
  /// cancellation point (on top of the per-iteration checks the
  /// attempt callback itself makes).
  RecoveryEngine(const RecoveryPolicy& policy, double gmin_final, NewtonAttemptFn attempt,
                 std::function<std::string(size_t)> unknown_name, FaultInjector* injector,
                 const JobControl* job = nullptr)
      : policy_(policy),
        gmin_final_(gmin_final),
        attempt_(std::move(attempt)),
        unknown_name_(std::move(unknown_name)),
        injector_(injector),
        job_(job) {}

  /// Run the ladder from x0. Returns the solution and, when diag_out is
  /// non-null, the full stage record (also on success, so callers can
  /// surface silent recoveries). Throws RecoveryError when every
  /// enabled stage fails.
  std::vector<double> solve(const std::vector<double>& x0, const std::string& context,
                            double time, ConvergenceDiagnostics* diag_out = nullptr);

  /// Gmin ladder values: gmin_start relaxed by 10x per rung down to
  /// gmin_final, at most gmin_steps + 1 entries. Shared with the
  /// ensemble engine's lockstep gmin stage.
  static std::vector<double> gminSchedule(const RecoveryPolicy& policy, double gmin_final);

  /// Source-stepping scales {1/N, 2/N, ..., 1}. Shared with the
  /// ensemble engine's lockstep source stage.
  static std::vector<double> sourceSchedule(const RecoveryPolicy& policy);

 private:
  void setStage(RecoveryStage stage);
  /// Copies a NewtonOutcome into a StageAttempt (accumulating
  /// iterations; names resolved through unknown_name_).
  void recordOutcome(StageAttempt& attempt, const NewtonOutcome& out) const;

  bool runDirect(std::vector<double>& x, const std::vector<double>& x0,
                 ConvergenceDiagnostics& diag);
  bool runGminStepping(std::vector<double>& x, const std::vector<double>& x0,
                       ConvergenceDiagnostics& diag);
  bool runSourceStepping(std::vector<double>& x, ConvergenceDiagnostics& diag);
  bool runPseudoTransient(std::vector<double>& x, const std::vector<double>& x0,
                          ConvergenceDiagnostics& diag);

  const RecoveryPolicy& policy_;
  double gmin_final_;
  NewtonAttemptFn attempt_;
  std::function<std::string(size_t)> unknown_name_;
  FaultInjector* injector_;
  const JobControl* job_;
};

/// The degrade-don't-abort retry policy: one escalation of `base` for
/// the second attempt at a failed unit of work (Monte-Carlo sample,
/// characterization grid point). Tighter gmin schedule (higher start,
/// more rungs), doubled source stepping and a longer pseudo-transient
/// leash — strictly more patient than the base policy, never less.
RecoveryPolicy escalatedRecoveryPolicy(const RecoveryPolicy& base);

}  // namespace vls
