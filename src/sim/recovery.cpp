#include "sim/recovery.hpp"

#include <algorithm>
#include <sstream>

#include "base/logging.hpp"

namespace vls {

namespace {

std::string formatValue(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::vector<double> RecoveryEngine::gminSchedule(const RecoveryPolicy& policy,
                                                 double gmin_final) {
  std::vector<double> schedule;
  double g = policy.gmin_start;
  for (int step = 0; step <= policy.gmin_steps; ++step) {
    schedule.push_back(g);
    if (g <= gmin_final) break;
    g = std::max(g * 0.1, gmin_final);
  }
  return schedule;
}

std::vector<double> RecoveryEngine::sourceSchedule(const RecoveryPolicy& policy) {
  std::vector<double> schedule;
  const int n = std::max(1, policy.source_steps);
  for (int step = 1; step <= n; ++step) {
    schedule.push_back(static_cast<double>(step) / n);
  }
  return schedule;
}

RecoveryPolicy escalatedRecoveryPolicy(const RecoveryPolicy& base) {
  RecoveryPolicy p = base;
  p.gmin_stepping = true;
  p.source_stepping = true;
  p.pseudo_transient = true;
  p.gmin_steps = std::max(base.gmin_steps * 2, base.gmin_steps + 4);
  p.gmin_start = std::max(base.gmin_start, 1e-1);
  p.source_steps = std::max(base.source_steps * 2, base.source_steps + 10);
  p.ptran_max_steps = std::max(base.ptran_max_steps * 2, base.ptran_max_steps + 100);
  return p;
}

void RecoveryEngine::setStage(RecoveryStage stage) {
  if (injector_ != nullptr) injector_->setStage(stage);
}

void RecoveryEngine::recordOutcome(StageAttempt& attempt, const NewtonOutcome& out) const {
  attempt.newton_iterations += out.iterations;
  attempt.converged = out.converged;
  attempt.failure = out.failure;
  attempt.worst_residual = out.worst_delta;
  attempt.worst_node = out.worst_index >= 0 ? unknown_name_(out.worst_index) : "";
  attempt.singular_node = out.singular_index >= 0 ? unknown_name_(out.singular_index) : "";
  if (!out.injected.empty()) attempt.injected_fault = out.injected;
  attempt.trace = out.trace.toVector();
}

bool RecoveryEngine::runDirect(std::vector<double>& x, const std::vector<double>& x0,
                               ConvergenceDiagnostics& diag) {
  setStage(RecoveryStage::DirectNewton);
  if (job_ != nullptr) job_->throwIfInterrupted("recovery:direct-newton", diag.time);
  StageAttempt& attempt = diag.stages.emplace_back();
  attempt.stage = RecoveryStage::DirectNewton;
  attempt.rungs = 1;
  x = x0;
  recordOutcome(attempt, attempt_(1.0, gmin_final_, x, nullptr));
  return attempt.converged;
}

bool RecoveryEngine::runGminStepping(std::vector<double>& x, const std::vector<double>& x0,
                                     ConvergenceDiagnostics& diag) {
  setStage(RecoveryStage::GminStepping);
  if (job_ != nullptr) job_->throwIfInterrupted("recovery:gmin-stepping", diag.time);
  StageAttempt& attempt = diag.stages.emplace_back();
  attempt.stage = RecoveryStage::GminStepping;
  x = x0;
  for (const double g : gminSchedule(policy_, gmin_final_)) {
    ++attempt.rungs;
    attempt.detail = "gmin=" + formatValue(g);
    recordOutcome(attempt, attempt_(1.0, g, x, nullptr));
    if (!attempt.converged) return false;
  }
  return true;
}

bool RecoveryEngine::runSourceStepping(std::vector<double>& x, ConvergenceDiagnostics& diag) {
  setStage(RecoveryStage::SourceStepping);
  if (job_ != nullptr) job_->throwIfInterrupted("recovery:source-stepping", diag.time);
  StageAttempt& attempt = diag.stages.emplace_back();
  attempt.stage = RecoveryStage::SourceStepping;
  x.assign(x.size(), 0.0);
  for (const double scale : sourceSchedule(policy_)) {
    ++attempt.rungs;
    attempt.detail = "scale=" + formatValue(scale);
    recordOutcome(attempt, attempt_(scale, gmin_final_, x, nullptr));
    if (!attempt.converged) return false;
  }
  return true;
}

bool RecoveryEngine::runPseudoTransient(std::vector<double>& x, const std::vector<double>& x0,
                                        ConvergenceDiagnostics& diag) {
  setStage(RecoveryStage::PseudoTransient);
  if (job_ != nullptr) job_->throwIfInterrupted("recovery:pseudo-transient", diag.time);
  StageAttempt& attempt = diag.stages.emplace_back();
  attempt.stage = RecoveryStage::PseudoTransient;
  x = x0;
  std::vector<double> x_ref = x0;  // last converged pseudo-state
  double g = policy_.ptran_g_start;
  for (int step = 0; step < policy_.ptran_max_steps; ++step) {
    if (g < policy_.ptran_g_min) break;  // effectively steady state
    ++attempt.rungs;
    attempt.detail = "g_anchor=" + formatValue(g);
    const PtranAnchor anchor{g, &x_ref};
    recordOutcome(attempt, attempt_(1.0, gmin_final_, x, &anchor));
    if (attempt.converged) {
      x_ref = x;
      g /= policy_.ptran_grow;
    } else {
      g *= policy_.ptran_shrink;
      x = x_ref;
      if (g > policy_.ptran_g_abort) return false;
    }
  }
  // Polish: plain Newton from the relaxed pseudo-steady state.
  ++attempt.rungs;
  attempt.detail = "polish";
  recordOutcome(attempt, attempt_(1.0, gmin_final_, x, nullptr));
  return attempt.converged;
}

std::vector<double> RecoveryEngine::solve(const std::vector<double>& x0,
                                          const std::string& context, double time,
                                          ConvergenceDiagnostics* diag_out) {
  ConvergenceDiagnostics diag;
  diag.context = context;
  diag.time = time;

  std::vector<double> x;
  bool done = runDirect(x, x0, diag);
  if (!done && policy_.gmin_stepping) {
    VLS_LOG_DEBUG("recovery: direct Newton failed, trying gmin stepping");
    done = runGminStepping(x, x0, diag);
  }
  if (!done && policy_.source_stepping) {
    VLS_LOG_DEBUG("recovery: gmin stepping failed, trying source stepping");
    done = runSourceStepping(x, diag);
  }
  if (!done && policy_.pseudo_transient) {
    VLS_LOG_DEBUG("recovery: source stepping failed, trying pseudo-transient continuation");
    done = runPseudoTransient(x, x0, diag);
  }

  setStage(RecoveryStage::DirectNewton);  // reset for the caller's next solve
  diag.recovered = done && diag.stages.size() > 1;
  if (diag_out != nullptr) *diag_out = diag;
  if (!done) {
    // Build the message before handing diag to the constructor: argument
    // evaluation order is unspecified, and the move may win.
    const std::string message = context + ": failed to converge after " +
                                std::to_string(diag.stages.size()) + " recovery stage(s)";
    throw RecoveryError(message, std::move(diag));
  }
  return x;
}

}  // namespace vls
