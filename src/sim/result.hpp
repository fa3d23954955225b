// Analysis result containers. A transient result stores the full
// solution vector at every accepted timepoint; signals are extracted by
// node name (voltages) or branch index (currents).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/node.hpp"
#include "sim/diagnostics.hpp"

namespace vls {

/// Cumulative wall-time attribution of the Newton loop's phases across
/// every solve an engine (Simulator or EnsembleSimulator) has run
/// (transient + OP + recovery rungs). model_eval_sec is the portion of
/// assembly_sec spent linearizing device models — only separable under
/// the scalar engine's parallel assembly, where the evaluate region is
/// timed apart from the apply/reduce; it reads 0 with the serial
/// assemblers.
struct SimPhaseTimes {
  double assembly_sec = 0.0;
  double model_eval_sec = 0.0;
  double factor_sec = 0.0;
  double solve_sec = 0.0;

  SimPhaseTimes& operator+=(const SimPhaseTimes& o) {
    assembly_sec += o.assembly_sec;
    model_eval_sec += o.model_eval_sec;
    factor_sec += o.factor_sec;
    solve_sec += o.solve_sec;
    return *this;
  }
};

/// A named time series extracted from a result.
struct Signal {
  std::vector<double> time;
  std::vector<double> value;
};

class TransientResult {
 public:
  TransientResult(std::vector<std::string> node_names, size_t num_unknowns);

  void append(double time, const std::vector<double>& x);
  /// Appends a time point and returns its stored solution vector
  /// (numUnknowns() zeros) for the caller to fill in place.
  std::vector<double>& appendStep(double time);
  /// Reserves room for `steps` time points.
  void reserve(size_t steps);

  size_t steps() const { return time_.size(); }
  const std::vector<double>& time() const { return time_; }

  /// Voltage waveform of a node by name; ground returns all-zeros.
  Signal node(const std::string& name) const;
  /// Any unknown (voltage or branch current) by solution index.
  Signal unknown(size_t index) const;
  /// Raw value of unknown `index` at step `step`.
  double at(size_t step, size_t index) const { return data_[step][index]; }
  /// Full solution vector at a step.
  const std::vector<double>& solution(size_t step) const { return data_[step]; }

  size_t numUnknowns() const { return num_unknowns_; }
  const std::vector<std::string>& nodeNames() const { return node_names_; }

  /// Total Newton iterations and rejected steps (engine diagnostics).
  size_t total_newton_iterations = 0;
  size_t rejected_steps = 0;
  /// Recovery-ladder interventions that rescued a timestep (or the
  /// initial operating point): each entry records the stages run. Empty
  /// on a clean run.
  std::vector<ConvergenceDiagnostics> recovery_events;

 private:
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, size_t> node_index_;
  size_t num_unknowns_;
  std::vector<double> time_;
  std::vector<std::vector<double>> data_;
};

/// DC sweep result: swept parameter values plus full solutions.
struct DcSweepResult {
  std::vector<double> sweep;
  std::vector<std::vector<double>> solutions;
  std::vector<std::string> node_names;
  /// Per-point convergence flag: a bistable cell mid-transition can
  /// defeat both warm-started and homotopy solves; such points repeat
  /// the previous solution and are flagged false.
  std::vector<bool> converged;
  /// Structured record for each non-converged point (and each point the
  /// cold homotopy had to rescue): which ladder stages ran and which
  /// node was worst.
  struct PointDiagnostics {
    size_t point_index = 0;
    ConvergenceDiagnostics diagnostics;
  };
  std::vector<PointDiagnostics> diagnostics;

  /// Voltage of `name` across the sweep.
  std::vector<double> node(const std::string& name) const;
  /// True when every point converged.
  bool allConverged() const;
};

}  // namespace vls
