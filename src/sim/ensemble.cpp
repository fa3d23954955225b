#include "sim/ensemble.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <string>

#include "base/error.hpp"
#include "numeric/lanes.hpp"
#include "sim/fault_injection.hpp"
#include "sim/recovery.hpp"
#include "sim/step_control.hpp"

namespace vls {

namespace {

size_t checkedLanes(size_t lanes) {
  if (lanes == 0 || lanes > kMaxLanes) {
    throw InvalidInputError("EnsembleSimulator: lanes must be in [1, " +
                            std::to_string(kMaxLanes) + "], got " + std::to_string(lanes));
  }
  return lanes;
}

}  // namespace

EnsembleSimulator::EnsembleSimulator(Circuit& circuit, size_t lanes, SimOptions options)
    : circuit_(circuit),
      options_(options),
      num_nodes_(circuit.nodeCount()),
      num_unknowns_(circuit.nodeCount() + circuit.assignBranchIndices()),
      lanes_(checkedLanes(lanes)),
      sys_(num_nodes_, num_unknowns_ - num_nodes_, lanes_),
      assembler_(circuit, sys_) {
  const auto& devices = circuit_.devices();
  states_.resize(devices.size());
  state_ptrs_.resize(devices.size(), nullptr);
  for (size_t i = 0; i < devices.size(); ++i) {
    Device* dev = devices[i].get();
    states_[i] = dev->createLaneState(lanes_);
    state_ptrs_[i] = states_[i].get();
    device_index_[dev] = i;
  }
  zeros_.assign(lanes_, 0.0);
  failed_.assign(lanes_, 0);
  lane_failures_.resize(lanes_);
  x_new_.resize(num_unknowns_ * lanes_);
  pending_.assign(lanes_, 0);
  lane_ok_.assign(lanes_, 1);
  attempt_failure_.resize(lanes_);
  attempt_node_.assign(lanes_, -1);
}

std::vector<double> EnsembleSimulator::coldStartSoA() const {
  std::vector<double> x(num_unknowns_ * lanes_, 0.0);
  if (options_.nodeset) {
    const std::vector<double>& ns = *options_.nodeset;
    const size_t n = std::min(ns.size(), num_unknowns_);
    for (size_t i = 0; i < n; ++i) {
      for (size_t l = 0; l < lanes_; ++l) x[i * lanes_ + l] = ns[i];
    }
  }
  return x;
}

std::string EnsembleSimulator::unknownName(size_t index) const {
  if (index < num_nodes_) return circuit_.nodeName(static_cast<NodeId>(index));
  return "branch#" + std::to_string(index - num_nodes_);
}

DeviceLaneState* EnsembleSimulator::laneState(const Device& dev) {
  auto it = device_index_.find(&dev);
  if (it == device_index_.end()) {
    throw InvalidInputError("EnsembleSimulator: device " + dev.name() +
                            " is not part of this circuit");
  }
  return state_ptrs_[it->second];
}

size_t EnsembleSimulator::aliveLaneCount() const {
  size_t n = 0;
  for (uint8_t f : failed_) n += f == 0 ? 1 : 0;
  return n;
}

LaneContext EnsembleSimulator::contextFor(const std::vector<double>& x, double time, double dt,
                                          IntegrationMethod method, double gmin) const {
  LaneContext ctx;
  ctx.x = std::span<const double>(x);
  ctx.zero = zeros_.data();
  ctx.lanes = lanes_;
  ctx.time = time;
  ctx.dt = dt;
  ctx.method = method;
  ctx.temperature = options_.temperatureK();
  ctx.gmin = gmin;
  return ctx;
}

bool EnsembleSimulator::newtonLanes(double time, double dt, IntegrationMethod method,
                                    double source_scale, double gmin, std::vector<double>& x,
                                    const uint8_t* live, uint8_t* converged,
                                    size_t* iterations) {
  const size_t K = lanes_;
  LaneContext ctx = contextFor(x, time, dt, method, gmin);
  ctx.source_scale = source_scale;

  FaultInjector* injector = options_.fault_injector.get();

  AssemblyOptions assembly_opts;
  assembly_opts.enable_bypass = options_.enable_bypass;
  assembly_opts.bypass_tol = options_.bypass_tol;
  // Iteration 0 of every solve must fully re-linearize (fresh dt,
  // committed charge histories, post-breakpoint state), so the settle
  // count is clamped to at least one — after that the stored op values
  // replayed for quiet devices were computed in this same solve.
  const int bypass_settle = std::max(1, options_.bypass_settle_iterations);

  bool any_selected = false;
  for (size_t l = 0; l < K; ++l) {
    pending_[l] = live ? live[l] : static_cast<uint8_t>(failed_[l] == 0);
    converged[l] = 0;
    if (pending_[l]) {
      attempt_failure_[l] = LaneFailure{};
      attempt_node_[l] = -1;
    }
    any_selected = any_selected || pending_[l] != 0;
  }
  if (!any_selected) return true;

  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  for (int iter = 0; iter < options_.max_newton_iter; ++iter) {
    // Cancellation point: interrupts stop the lockstep run within one
    // Newton iteration, same contract as the scalar engine.
    if (options_.job_control != nullptr) {
      options_.job_control->throwIfInterrupted("ensemble-newton", time);
    }
    bool any_pending = false;
    for (size_t l = 0; l < K; ++l) any_pending = any_pending || pending_[l] != 0;
    if (!any_pending) break;
    if (iterations) ++*iterations;

    if (injector != nullptr && injector->shouldFailNewton(iter, time)) {
      for (size_t l = 0; l < K; ++l) {
        if (!pending_[l] || !injector->laneAffected(l)) continue;
        pending_[l] = 0;
        attempt_failure_[l].reason = NewtonFailureReason::InjectedFault;
        attempt_failure_[l].message = injector->describeNewtonFault();
      }
      continue;
    }

    ctx.x = std::span<const double>(x);
    assembly_opts.allow_bypass_now = iter >= bypass_settle;
    {
      const auto t0 = Clock::now();
      assembler_.assemble(ctx, state_ptrs_, assembly_opts);
      phases_.assembly_sec += seconds_since(t0);
    }

    // Post-assembly fault injection (applying faults inside device
    // stamps would desync the shared lane tape).
    std::string stamp_fault;
    if (injector != nullptr) {
      std::string what;
      if (injector->applyLaneStampFault(sys_, circuit_, time, &what)) stamp_fault = what;
      if (injector->applyLanePivotFault(sys_, circuit_, time, &what)) stamp_fault = what;
    }

    // Residual guard: a non-finite RHS row names the offending node
    // before the solve smears it across the lane.
    for (size_t l = 0; l < K; ++l) {
      if (!pending_[l]) continue;
      for (size_t i = 0; i < num_unknowns_; ++i) {
        if (std::isfinite(sys_.rhs()[i * K + l])) continue;
        pending_[l] = 0;
        attempt_failure_[l].reason = NewtonFailureReason::NonFinite;
        attempt_node_[l] = static_cast<int>(i);
        attempt_failure_[l].message = stamp_fault;
        break;
      }
    }

    try {
      // Shared symbolic structure, per-lane numeric refactorization. A
      // lane whose pivot degrades under the shared order is deadened
      // (lane_ok_ = 0) without disturbing its siblings.
      const auto t_factor = Clock::now();
      lu_.refactor(sys_.matrix(), pending_.data(), lane_ok_.data());
      phases_.factor_sec += seconds_since(t_factor);
    } catch (const NumericalError& e) {
      // Every selected lane is singular (the re-analyze found no viable
      // pivot source). The numeric pass that preceded it still recorded
      // each lane's first collapsed column, so attribution survives.
      for (size_t l = 0; l < K; ++l) {
        if (!pending_[l]) continue;
        pending_[l] = 0;
        attempt_failure_[l].reason = NewtonFailureReason::SingularPivot;
        const int col = lu_.laneSingularColumn(l);
        if (col >= 0) attempt_node_[l] = col;
        if (attempt_failure_[l].message.empty()) attempt_failure_[l].message = e.what();
        if (!stamp_fault.empty()) attempt_failure_[l].message = stamp_fault;
      }
      break;
    }
    for (size_t l = 0; l < K; ++l) {
      if (pending_[l] && !lane_ok_[l]) {
        pending_[l] = 0;
        attempt_failure_[l].reason = NewtonFailureReason::SingularPivot;
        const int col = lu_.laneSingularColumn(l);
        if (col >= 0) attempt_node_[l] = col;
        if (!stamp_fault.empty()) attempt_failure_[l].message = stamp_fault;
      }
    }
    {
      const auto t_solve = Clock::now();
      x_new_ = sys_.rhs();
      lu_.solveInPlace(x_new_, pending_.data());
      phases_.solve_sec += seconds_since(t_solve);
    }

    // Per-lane Newton update (non-finite guard, damping, bounding,
    // convergence check). Converged lanes freeze: their unknowns stop
    // moving while siblings keep iterating.
    for (size_t l = 0; l < K; ++l) {
      if (!pending_[l]) continue;
      const NewtonUpdate update =
          applyNewtonUpdate(options_, num_nodes_, num_unknowns_, x_new_.data(), x.data(), K, l);
      if (update.non_finite >= 0) {
        pending_[l] = 0;
        attempt_failure_[l].reason = NewtonFailureReason::NonFinite;
        attempt_node_[l] = update.non_finite;
        if (!stamp_fault.empty()) attempt_failure_[l].message = stamp_fault;
        continue;
      }
      if (update.worst >= 0) attempt_node_[l] = update.worst;
      if (update.converged && iter > 0) {
        converged[l] = 1;
        pending_[l] = 0;
      }
    }
  }

  for (size_t l = 0; l < K; ++l) {
    const bool selected = live ? live[l] != 0 : failed_[l] == 0;
    if (selected && !converged[l]) return false;
  }
  return true;
}

std::vector<uint8_t> EnsembleSimulator::holdouts(const std::vector<uint8_t>& conv) const {
  std::vector<uint8_t> out(lanes_, 0);
  for (size_t l = 0; l < lanes_; ++l) out[l] = failed_[l] == 0 && !conv[l];
  return out;
}

std::vector<uint8_t> EnsembleSimulator::ladderLanes(double time, RecoveryStage stage,
                                                    std::vector<uint8_t>& lanes,
                                                    std::vector<double>& x,
                                                    const std::vector<double>& x0,
                                                    std::vector<uint8_t>& conv) {
  const size_t K = lanes_;
  std::vector<uint8_t> lost(K, 0);
  if (std::find(lanes.begin(), lanes.end(), 1) == lanes.end()) return lost;
  if (FaultInjector* injector = options_.fault_injector.get()) injector->setStage(stage);
  for (size_t k = 0; k < x.size(); ++k) {
    if (lanes[k % K]) x[k] = x0[k];
  }
  const bool gmin_rungs = stage == RecoveryStage::GminStepping;
  const std::vector<double> schedule =
      gmin_rungs ? RecoveryEngine::gminSchedule(options_.recovery, options_.gmin)
                 : RecoveryEngine::sourceSchedule(options_.recovery);
  for (const double rung : schedule) {
    newtonLanes(time, 0.0, IntegrationMethod::None, gmin_rungs ? 1.0 : rung,
                gmin_rungs ? rung : options_.gmin, x, lanes.data(), conv.data(), nullptr);
    bool any_left = false;
    for (size_t l = 0; l < K; ++l) {
      if (lanes[l] && !conv[l]) {
        lanes[l] = 0;
        lost[l] = 1;
      }
      any_left = any_left || lanes[l] != 0;
    }
    if (!any_left) break;
  }
  return lost;
}

void EnsembleSimulator::dropLanes(const std::vector<uint8_t>& lanes, RecoveryStage stage) {
  for (size_t l = 0; l < lanes_; ++l) {
    if (!lanes[l]) continue;
    failed_[l] = 1;
    LaneFailure& failure = lane_failures_[l];
    failure = attempt_failure_[l];
    if (attempt_node_[l] >= 0) failure.node = unknownName(static_cast<size_t>(attempt_node_[l]));
    failure.valid = true;
    failure.stage = stage;
    if (failure.reason == NewtonFailureReason::None) {
      failure.reason = NewtonFailureReason::IterationLimit;
    }
  }
}

std::vector<double> EnsembleSimulator::solveOp() {
  FaultInjector* injector = options_.fault_injector.get();
  const std::vector<double> cold = coldStartSoA();
  std::vector<double> x = cold;
  std::vector<uint8_t> conv(lanes_, 0);

  // 1) Direct Newton on every live lane.
  if (injector != nullptr) injector->setStage(RecoveryStage::DirectNewton);
  newtonLanes(0.0, 0.0, IntegrationMethod::None, 1.0, options_.gmin, x, nullptr, conv.data(),
              nullptr);

  // 2) Gmin ladder, in lockstep, for the holdouts — the same schedule
  // the scalar RecoveryEngine runs — then 3) source stepping for the
  // lanes it lost. Lanes failing that drop out permanently with their
  // failure record (the Monte-Carlo driver re-runs them through the
  // scalar reference path, which additionally owns pseudo-transient).
  std::vector<uint8_t> retry = holdouts(conv);
  std::vector<uint8_t> lost = ladderLanes(0.0, RecoveryStage::GminStepping, retry, x, cold, conv);
  if (options_.recovery.source_stepping) {
    dropLanes(ladderLanes(0.0, RecoveryStage::SourceStepping, lost, x, cold, conv),
              RecoveryStage::SourceStepping);
  } else {
    dropLanes(lost, RecoveryStage::GminStepping);
  }
  if (injector != nullptr) injector->setStage(RecoveryStage::DirectNewton);

  if (aliveLaneCount() == 0) {
    throw ConvergenceError("EnsembleSimulator: operating point failed on every lane");
  }
  return x;
}

std::vector<double> EnsembleSimulator::solveOpAt(double time, std::vector<double> x0_soa) {
  FaultInjector* injector = options_.fault_injector.get();
  x0_soa.resize(num_unknowns_ * lanes_, 0.0);
  const std::vector<double> x0 = x0_soa;  // pristine guess for ladder restarts
  std::vector<uint8_t> conv(lanes_, 0);
  if (injector != nullptr) injector->setStage(RecoveryStage::DirectNewton);
  newtonLanes(time, 0.0, IntegrationMethod::None, 1.0, options_.gmin, x0_soa, nullptr,
              conv.data(), nullptr);

  // Gmin-ladder retry for the holdouts, from the pristine guess — the
  // same escalation solveOpAt gets on the scalar path.
  std::vector<uint8_t> retry = holdouts(conv);
  if (options_.recovery.gmin_stepping) {
    dropLanes(ladderLanes(time, RecoveryStage::GminStepping, retry, x0_soa, x0, conv),
              RecoveryStage::GminStepping);
    if (injector != nullptr) injector->setStage(RecoveryStage::DirectNewton);
  } else {
    dropLanes(retry, RecoveryStage::DirectNewton);
  }
  if (aliveLaneCount() == 0) {
    throw ConvergenceError(
        formatMessage("EnsembleSimulator: solveOpAt failed on every lane at t = %g", time));
  }
  return x0_soa;
}

void EnsembleSimulator::transient(double t_stop, double dt_max, double dt_initial) {
  if (t_stop <= 0.0 || dt_max <= 0.0) throw InvalidInputError("transient: bad time arguments");
  const size_t K = lanes_;

  time_.clear();
  data_.clear();
  total_newton_iterations_ = 0;
  rejected_steps_ = 0;
  std::fill(failed_.begin(), failed_.end(), 0);
  std::fill(lane_failures_.begin(), lane_failures_.end(), LaneFailure{});

  // Operating point at t = 0 (per-lane failures already handled there).
  std::vector<double> x = solveOp();
  {
    const LaneContext ctx = contextFor(x, 0.0, 0.0, IntegrationMethod::None, options_.gmin);
    const auto& devices = circuit_.devices();
    for (size_t i = 0; i < devices.size(); ++i) {
      devices[i]->startTransientLanes(ctx, state_ptrs_[i]);
    }
  }
  time_.push_back(0.0);
  data_.push_back(x);

  // Breakpoints: the union over lanes — devices carrying per-lane
  // waveforms (parameter lanes) contribute every lane's corner times,
  // so the lockstep time axis never steps over any lane's input edge.
  std::vector<double> breaks;
  {
    const auto& devices = circuit_.devices();
    for (size_t i = 0; i < devices.size(); ++i) {
      devices[i]->collectLaneBreakpoints(t_stop, state_ptrs_[i], breaks);
    }
  }
  StepController steps(options_, t_stop, dt_max, dt_initial, std::move(breaks));

  std::vector<double> x_prev = x;
  std::vector<double> x_try(num_unknowns_ * K);
  std::vector<uint8_t> conv(K, 0);
  while (!steps.finished()) {
    const double t = steps.time();
    if (options_.job_control != nullptr) {
      options_.job_control->throwIfInterrupted("ensemble-transient", t);
    }
    const TransientStep& step = steps.propose();

    // Predictor warm start: seed Newton with the forward-Euler
    // extrapolation instead of the previous solution. The converged
    // answer is unchanged (Newton solves the same system to the same
    // tolerances); active-region steps just start one update closer,
    // which trims the per-step iteration count the K-wide device
    // evaluations are multiplied by. Skipped right after breakpoints,
    // where the history slope spans a discontinuity.
    x_try = x;
    if (steps.hasHistory()) {
      const double r = step.dt / steps.lastAcceptedDt();
      for (size_t k = 0; k < x_try.size(); ++k) x_try[k] += (x[k] - x_prev[k]) * r;
    }
    size_t iters = 0;
    if (FaultInjector* injector = options_.fault_injector.get()) {
      injector->setStage(RecoveryStage::TransientStep);
    }
    const bool all_converged = newtonLanes(step.t_new, step.dt, step.method, 1.0, options_.gmin,
                                           x_try, nullptr, conv.data(), &iters);
    total_newton_iterations_ += iters;

    if (!all_converged) {
      // Lockstep reject: every lane retries the smaller step, so the
      // shared time axis stays shared.
      if (steps.rejectNewton()) {
        // Lanes that cannot advance even at dt_min drop out (with their
        // last attempt's failure record); survivors resume from a
        // cautious restart scale.
        dropLanes(holdouts(conv), RecoveryStage::TransientStep);
        if (aliveLaneCount() == 0) {
          rejected_steps_ = steps.rejectedSteps();
          throw ConvergenceError(formatMessage(
              "EnsembleSimulator: timestep underflow at t = %g on every lane", t));
        }
        steps.restartCautious();
      }
      continue;
    }

    // LTE maxed over live lanes: the ensemble advances with the dt
    // every live lane accepts.
    const double err = steps.lteError(x, x_prev, x_try, K, failed_.data());
    if (steps.rejectLte(err)) continue;

    // Accept on every lane.
    {
      const LaneContext ctx = contextFor(x_try, step.t_new, step.dt, step.method, options_.gmin);
      const auto& devices = circuit_.devices();
      for (size_t i = 0; i < devices.size(); ++i) {
        devices[i]->acceptStepLanes(ctx, state_ptrs_[i]);
      }
    }
    x_prev = x;
    x = x_try;
    time_.push_back(step.t_new);
    data_.push_back(x);
    steps.accept(err);
  }
  rejected_steps_ = steps.rejectedSteps();
}

std::vector<double> EnsembleSimulator::laneSolution(size_t step, size_t l) const {
  const std::vector<double>& soa = data_[step];
  std::vector<double> x(num_unknowns_);
  for (size_t i = 0; i < num_unknowns_; ++i) x[i] = soa[i * lanes_ + l];
  return x;
}

TransientResult EnsembleSimulator::laneResult(size_t l) const {
  TransientResult result(circuit_.nodeNames(), num_unknowns_);
  for (size_t step = 0; step < time_.size(); ++step) {
    result.append(time_[step], laneSolution(step, l));
  }
  result.total_newton_iterations = total_newton_iterations_;
  result.rejected_steps = rejected_steps_;
  return result;
}

}  // namespace vls
