// Lockstep ensemble simulator: K Monte-Carlo variants of one circuit
// topology advance through the same adaptive-timestep transient with
// structure-of-arrays state. One shared stamp tape and one shared
// sparse-LU symbolic structure serve every lane; per-lane values live
// in contiguous double[K] runs so device evaluation, assembly scatter
// and the LU elimination all run as vectorizable lane loops.
//
// Step control and the Newton update are shared with the scalar
// Simulator (sim/step_control.hpp), so the engines cannot drift apart:
//  - Newton: applyNewtonUpdate per lane; converged lanes freeze (their
//    unknowns stop moving) while the rest keep iterating.
//  - Timestep: one StepController for the ensemble; its LTE error is
//    the max over live lanes, so the shared dt is the step every live
//    lane accepts.
//  - Failure is per-lane: a lane whose Newton or pivot fails drops out
//    (laneFailed) without disturbing its siblings; the Monte-Carlo
//    driver re-runs such samples through the scalar reference path.
//
// The scalar Simulator remains the reference implementation; this
// engine is an opt-in throughput path whose per-lane results must
// match it within transient-tolerance scale.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/ensemble_assembly.hpp"
#include "numeric/lu_ensemble.hpp"
#include "sim/diagnostics.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"

namespace vls {

/// Why one ensemble lane permanently dropped out: which ladder stage it
/// died in, why its last Newton attempt failed, and which unknown was
/// implicated (worst-residual node, non-finite row, or collapsed
/// pivot). The Monte-Carlo driver surfaces this next to the scalar
/// re-run's own diagnostics.
struct LaneFailure {
  bool valid = false;  ///< true once the lane has actually failed
  RecoveryStage stage = RecoveryStage::DirectNewton;
  NewtonFailureReason reason = NewtonFailureReason::None;
  std::string node;     ///< offending unknown, when attributable
  std::string message;  ///< human-readable detail (fault description etc.)
};

class EnsembleSimulator {
 public:
  /// Throws InvalidInputError if lanes is 0 or exceeds kMaxLanes, or if
  /// the circuit contains a device that neither supports lanes nor is
  /// safe to run through the per-lane scalar fallback.
  EnsembleSimulator(Circuit& circuit, size_t lanes, SimOptions options);

  size_t lanes() const { return lanes_; }
  size_t numUnknowns() const { return num_unknowns_; }

  /// Per-lane state of one device (null for stateless devices). Cast to
  /// the device's concrete state type to install per-lane parameters,
  /// e.g. MosfetLaneState::setGeometry for Monte-Carlo perturbations.
  DeviceLaneState* laneState(const Device& dev);

  /// True once lane l has permanently dropped out (Newton, pivot or
  /// timestep failure). Its waveforms are unusable from the failure
  /// point on; re-run the sample through the scalar path.
  bool laneFailed(size_t l) const { return failed_[l] != 0; }
  size_t aliveLaneCount() const;

  /// Structured record of why lane l dropped out (valid == false while
  /// the lane is alive).
  const LaneFailure& laneFailure(size_t l) const { return lane_failures_[l]; }

  /// Lockstep operating point from zeros: direct Newton on every lane,
  /// then per-lane gmin and source-stepping ladders (shared schedules
  /// with the scalar RecoveryEngine) for the holdouts. Lanes that still
  /// fail are marked failed with a LaneFailure record. Returns the SoA
  /// solution (numUnknowns() * lanes doubles, lane-major per unknown).
  std::vector<double> solveOp();

  /// Warm-started DC solve at `time` for every live lane (static
  /// leakage probes), with a per-lane gmin-ladder retry for holdouts.
  /// Lanes that fail are marked failed; their slots keep the initial
  /// guess.
  std::vector<double> solveOpAt(double time, std::vector<double> x0_soa);

  /// Lockstep adaptive transient over [0, t_stop]. Throws
  /// ConvergenceError only when every lane has failed; partial lane
  /// failures are recorded and the run continues.
  void transient(double t_stop, double dt_max, double dt_initial = 0.0);

  // --- results of the last transient() -------------------------------
  size_t steps() const { return time_.size(); }
  const std::vector<double>& time() const { return time_; }
  /// SoA solution snapshot at an accepted step.
  const std::vector<double>& solutionSoA(size_t step) const { return data_[step]; }
  /// Lane l's full run gathered into a scalar-compatible result.
  TransientResult laneResult(size_t l) const;

  size_t totalNewtonIterations() const { return total_newton_iterations_; }
  size_t rejectedSteps() const { return rejected_steps_; }
  /// Device model evaluations skipped by bypass (SimOptions::enable_bypass;
  /// a device counts once per Newton iteration it sat quiet in all lanes).
  size_t bypassedEvaluations() const { return assembler_.bypassedEvaluations(); }
  /// Lane model evaluations over every solve this ensemble has run
  /// (DeviceLaneState::lane_evaluations summed over the devices).
  size_t laneEvaluations() const;
  /// Phase wall-time attribution over every solve this ensemble has run
  /// (see SimPhaseTimes; model_eval_sec reads 0, the lane assembler
  /// evaluates and scatters in one pass).
  const SimPhaseTimes& phaseTimes() const { return phases_; }

 private:
  LaneContext contextFor(const std::vector<double>& x, double time, double dt,
                         IntegrationMethod method, double gmin) const;
  /// Lockstep Newton on the lanes selected by `live` (null = all lanes
  /// not yet failed). Per-lane convergence flags go to `converged`;
  /// returns true when every selected lane converged. Each lane takes
  /// applyNewtonUpdate with the same `iter > 0` requirement, non-finite
  /// guards and fault-injection hooks as Simulator::newtonAttempt.
  /// Per-lane failure details land in attempt_failure_ (reason and
  /// message of the last attempt) and attempt_node_ (its node index).
  bool newtonLanes(double time, double dt, IntegrationMethod method, double source_scale,
                   double gmin, std::vector<double>& x, const uint8_t* live,
                   uint8_t* converged, size_t* iterations);

  std::string unknownName(size_t index) const;
  /// Cold-start guess in SoA layout: zeros, or the options_.nodeset
  /// prefix broadcast to every lane.
  std::vector<double> coldStartSoA() const;
  /// Live lanes that did not converge.
  std::vector<uint8_t> holdouts(const std::vector<uint8_t>& conv) const;
  /// One recovery-ladder stage (GminStepping or SourceStepping) in
  /// lockstep over `lanes`: those lanes restart from x0, then each rung
  /// of the stage's schedule runs newtonLanes; a lane failing a rung
  /// leaves `lanes`. Returns the lanes lost.
  std::vector<uint8_t> ladderLanes(double time, RecoveryStage stage, std::vector<uint8_t>& lanes,
                                   std::vector<double>& x, const std::vector<double>& x0,
                                   std::vector<uint8_t>& conv);
  /// Mark `lanes` permanently failed: each lane's last attempt failure
  /// (attempt_failure_) becomes its LaneFailure record, tagged `stage`.
  void dropLanes(const std::vector<uint8_t>& lanes, RecoveryStage stage);

  Circuit& circuit_;
  SimOptions options_;
  size_t num_nodes_ = 0;
  size_t num_unknowns_ = 0;
  size_t lanes_ = 1;

  EnsembleSystem sys_;
  EnsembleAssembler assembler_;
  EnsembleLu lu_;

  std::vector<std::unique_ptr<DeviceLaneState>> states_;
  std::vector<DeviceLaneState*> state_ptrs_;
  std::unordered_map<const Device*, size_t> device_index_;
  std::vector<double> zeros_;
  std::vector<uint8_t> failed_;
  std::vector<LaneFailure> lane_failures_;

  // Newton workspaces.
  std::vector<double> x_new_;
  std::vector<uint8_t> pending_;
  std::vector<uint8_t> lane_ok_;
  /// Last newtonLanes attempt: per-lane failure details (reason None
  /// for lanes that converged or were not selected). The node is kept
  /// as an unknown index in attempt_node_ (-1 = none) and named only
  /// when dropLanes turns the attempt into a LaneFailure.
  std::vector<LaneFailure> attempt_failure_;
  std::vector<int> attempt_node_;

  // Last transient run (shared time axis, SoA snapshots).
  std::vector<double> time_;
  std::vector<std::vector<double>> data_;
  size_t total_newton_iterations_ = 0;
  size_t rejected_steps_ = 0;
  SimPhaseTimes phases_;
};

}  // namespace vls
