#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "base/error.hpp"
#include "base/logging.hpp"
#include "devices/sources.hpp"
#include "numeric/lu_sparse.hpp"
#include "sim/fault_injection.hpp"
#include "sim/recovery.hpp"
#include "sim/step_control.hpp"

namespace vls {

Simulator::Simulator(Circuit& circuit, SimOptions options)
    : circuit_(circuit), options_(options), num_nodes_(circuit.nodeCount()), system_(0, 0) {
  const size_t branches = circuit_.assignBranchIndices();
  num_unknowns_ = num_nodes_ + branches;
  system_ = MnaSystem(num_nodes_, branches);
  lu_.setOrdering(options_.lu_ordering);
  // Flat-vs-BBD routing: forcing wins, Auto consults the block-count
  // heuristic. Either way the partition stays available to the sharded
  // assembler below.
  if (options_.partition == nullptr) {
    partition_decision_ = "flat (no partition)";
  } else {
    const int32_t blocks = options_.partition->num_blocks;
    bool use_bbd = false;
    switch (options_.partition_use) {
      case PartitionUse::ForceBbd:
        use_bbd = true;
        partition_decision_ = "bbd (forced)";
        break;
      case PartitionUse::ForceFlat:
        partition_decision_ = "flat (forced)";
        break;
      case PartitionUse::Auto:
        use_bbd = recommendPartitionedSolve(blocks);
        partition_decision_ = std::string(use_bbd ? "bbd" : "flat") + " (auto: " +
                              std::to_string(blocks) + (use_bbd ? " >= " : " < ") +
                              std::to_string(kBbdAutoMinBlocks) + " blocks)";
        break;
    }
    if (use_bbd) {
      bbd_ = std::make_unique<BbdLu>(deriveUnknownPartition(), blocks, options_.lu_ordering);
    }
  }
  if (options_.parallel_assembly) {
    ShardedAssemblyConfig cfg;
    if (options_.partition != nullptr) {
      // Alias the partition's device labels without copying.
      cfg.device_shard = std::shared_ptr<const std::vector<int32_t>>(
          options_.partition, &options_.partition->device_block);
      cfg.num_shards = options_.partition->num_blocks;
    }
    sharded_ = std::make_unique<ShardedAssembler>(std::move(cfg));
  }
}

SimPhaseTimes Simulator::phaseTimes() const {
  SimPhaseTimes t = phases_;
  t.model_eval_sec = assembler_.modelEvalSeconds();
  if (sharded_ != nullptr) t.model_eval_sec += sharded_->modelEvalSeconds();
  return t;
}

std::vector<int32_t> Simulator::deriveUnknownPartition() const {
  const PartitionSpec& spec = *options_.partition;
  const auto& devices = circuit_.devices();
  if (spec.device_block.size() != devices.size()) {
    throw InvalidInputError("PartitionSpec labels " + std::to_string(spec.device_block.size()) +
                            " devices, circuit has " + std::to_string(devices.size()));
  }
  // -2 = not yet touched by any device. A node interior to block b iff
  // every touching device is labelled b; any disagreement (including an
  // explicit -1 label) demotes it to the border. Branch unknowns follow
  // their device (assignBranchIndices hands them out in device order
  // starting at nodeCount()).
  std::vector<int32_t> part(num_unknowns_, -2);
  size_t next_branch = num_nodes_;
  for (size_t d = 0; d < devices.size(); ++d) {
    const int32_t blk = spec.device_block[d];
    const Device& dev = *devices[d];
    for (size_t t = 0; t < dev.terminalCount(); ++t) {
      const NodeId node = dev.terminalNode(t);
      if (isGround(node)) continue;
      int32_t& p = part[static_cast<size_t>(node)];
      if (p == -2) {
        p = blk;
      } else if (p != blk) {
        p = -1;
      }
    }
    for (size_t b = 0; b < dev.branchCount(); ++b) part[next_branch++] = blk;
  }
  // Unknowns no device touches (floating nodes) go to the border.
  for (int32_t& p : part) {
    if (p == -2) p = -1;
  }
  return part;
}

EvalContext Simulator::contextFor(const std::vector<double>& x, double time) const {
  EvalContext ctx;
  ctx.x = std::span<const double>(x);
  ctx.time = time;
  ctx.dt = 0.0;
  ctx.method = IntegrationMethod::None;
  ctx.temperature = options_.temperatureK();
  ctx.gmin = options_.gmin;
  return ctx;
}

std::string Simulator::unknownName(size_t index) const {
  if (index < num_nodes_) return circuit_.nodeName(static_cast<NodeId>(index));
  return "branch#" + std::to_string(index - num_nodes_);
}

NewtonOutcome Simulator::newtonAttempt(double time, double dt, IntegrationMethod method,
                                       double source_scale, double gmin,
                                       std::vector<double>& x, const PtranAnchor* anchor) {
  MnaSystem& system = system_;
  FaultInjector* injector = options_.fault_injector.get();

  EvalContext ctx = contextFor(x, time);
  ctx.dt = dt;
  ctx.method = method;
  ctx.source_scale = source_scale;
  ctx.gmin = gmin;

  AssemblyOptions assembly_opts;
  assembly_opts.enable_bypass = options_.enable_bypass;
  assembly_opts.bypass_tol = options_.bypass_tol;

  NewtonOutcome out;
  std::vector<double>& x_new = x_new_;
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  for (int iter = 0; iter < options_.max_newton_iter; ++iter) {
    // Cancellation point: a cancel or deadline expiry stops the run
    // within one Newton iteration (the job-control contract).
    if (options_.job_control != nullptr) {
      options_.job_control->throwIfInterrupted("newton", time);
    }
    ++out.iterations;
    if (injector != nullptr && injector->shouldFailNewton(iter, time)) {
      out.failure = NewtonFailureReason::InjectedFault;
      out.injected = injector->describeNewtonFault();
      return out;
    }
    ctx.x = std::span<const double>(x);
    // Bypass only after the settle iterations: every Newton solve
    // starts with full evaluations so fresh timesteps, committed
    // charge histories, and post-breakpoint states are re-linearized.
    assembly_opts.allow_bypass_now = iter >= options_.bypass_settle_iterations;
    {
      const auto t0 = Clock::now();
      if (sharded_ != nullptr) {
        sharded_->assemble(system, circuit_, ctx, assembly_opts);
      } else {
        assembler_.assemble(system, circuit_, ctx, assembly_opts);
      }
      phases_.assembly_sec += seconds_since(t0);
    }

    // Pseudo-transient anchor: g on every node diagonal pulling toward
    // the last converged pseudo-state. Node diagonals already exist
    // (gmin stamps), so this never grows the pattern.
    if (anchor != nullptr) {
      SparseMatrix& m = system.matrix();
      std::vector<double>& rhs = system.rhs();
      for (size_t n = 0; n < num_nodes_; ++n) {
        m.add(n, n, anchor->g);
        rhs[n] += anchor->g * (*anchor->x_ref)[n];
      }
    }

    // Fault injection happens on the assembled system — never inside
    // device stamps, which would desync the record/replay tape.
    if (injector != nullptr) {
      std::string what;
      if (injector->applyStampFault(system, circuit_, time, &what)) out.injected = what;
      if (injector->applyPivotFault(system, circuit_, time, &what)) out.injected = what;
    }

    // Residual guard: a non-finite RHS entry names the offending row
    // directly (before the solve smears it over every unknown).
    for (size_t i = 0; i < num_unknowns_; ++i) {
      if (!std::isfinite(system.rhs()[i])) {
        out.failure = NewtonFailureReason::NonFinite;
        out.worst_index = static_cast<int>(i);
        return out;
      }
    }

    try {
      // Numeric-only refactorization on the fixed MNA pattern; the first
      // call (and any pivot degradation) runs the full symbolic pass.
      const auto t_factor = Clock::now();
      if (bbd_ != nullptr) {
        bbd_->refactor(system.matrix());
        phases_.factor_sec += seconds_since(t_factor);
        const auto t_solve = Clock::now();
        x_new = system.rhs();
        bbd_->solveInPlace(x_new);
        phases_.solve_sec += seconds_since(t_solve);
      } else {
        lu_.refactor(system.matrix());
        phases_.factor_sec += seconds_since(t_factor);
        const auto t_solve = Clock::now();
        x_new = system.rhs();
        lu_.solveInPlace(x_new);
        phases_.solve_sec += seconds_since(t_solve);
      }
    } catch (const NumericalError&) {
      out.failure = NewtonFailureReason::SingularPivot;
      out.singular_index = bbd_ != nullptr ? bbd_->lastSingularColumn() : lu_.lastSingularColumn();
      return out;
    }

    // Non-finite guard, damping, bounding and the convergence check.
    const NewtonUpdate update =
        applyNewtonUpdate(options_, num_nodes_, num_unknowns_, x_new.data(), x.data());
    if (update.non_finite >= 0) {
      out.failure = NewtonFailureReason::NonFinite;
      out.worst_index = update.non_finite;
      return out;
    }
    out.worst_delta = update.max_delta;
    out.worst_index = update.worst;
    out.trace.push({static_cast<size_t>(iter), update.max_delta});
    if (update.converged && iter > 0) {
      out.converged = true;
      return out;
    }
  }
  out.failure = NewtonFailureReason::IterationLimit;
  return out;
}

std::vector<double> Simulator::coldStart() const {
  std::vector<double> x(num_unknowns_, 0.0);
  if (options_.nodeset != nullptr) {
    const std::vector<double>& ns = *options_.nodeset;
    const size_t n = std::min(ns.size(), num_unknowns_);
    std::copy(ns.begin(), ns.begin() + static_cast<ptrdiff_t>(n), x.begin());
  }
  return x;
}

std::vector<double> Simulator::solveOp() {
  return solveOpInternal(coldStart(), "operatingPoint");
}

std::vector<double> Simulator::solveOp(std::vector<double> initial_guess) {
  initial_guess.resize(num_unknowns_, 0.0);
  return solveOpInternal(std::move(initial_guess), "operatingPoint");
}

std::vector<double> Simulator::solveOpAt(double time, std::vector<double> initial_guess) {
  initial_guess.resize(num_unknowns_, 0.0);
  return solveOpInternal(std::move(initial_guess), "solveOpAt", time);
}

std::vector<double> Simulator::solveOpInternal(std::vector<double> x0, const std::string& context,
                                               double time, ConvergenceDiagnostics* diag) {
  RecoveryEngine engine(
      options_.recovery, options_.gmin,
      [this, time](double scale, double gmin, std::vector<double>& x,
                   const PtranAnchor* anchor) {
        return newtonAttempt(time, 0.0, IntegrationMethod::None, scale, gmin, x, anchor);
      },
      [this](size_t i) { return unknownName(i); }, options_.fault_injector.get(),
      options_.job_control.get());
  return engine.solve(x0, context, time, diag);
}

DcSweepResult Simulator::dcSweep(VoltageSource& source, double from, double to, double step) {
  if (step <= 0.0) throw InvalidInputError("dcSweep: step must be positive");
  DcSweepResult result;
  result.node_names = circuit_.nodeNames();
  const Waveform saved = source.waveform();
  std::vector<double> x = solveOp();  // bias with original value for a warm start

  const double span = to - from;
  const int points = static_cast<int>(std::floor(std::fabs(span) / step + 0.5)) + 1;
  const double dir = span >= 0.0 ? 1.0 : -1.0;
  FaultInjector* injector = options_.fault_injector.get();
  for (int k = 0; k < points; ++k) {
    const double v = from + dir * static_cast<double>(k) * step;
    source.setWaveform(Waveform::dc(v));
    if (injector != nullptr) injector->setStage(RecoveryStage::DirectNewton);
    bool ok = newtonAttempt(0.0, 0.0, IntegrationMethod::None, 1.0, options_.gmin, x).converged;
    if (!ok) {
      // Fall back to a cold homotopy solve through the full recovery
      // ladder; a bistable cell caught mid-transition can defeat that
      // too — keep the previous point's solution and flag it rather
      // than aborting the sweep. Either way the stage record lands in
      // result.diagnostics for this point.
      const std::string context = "dcSweep v=" + std::to_string(v);
      ConvergenceDiagnostics diag;
      try {
        x = solveOpInternal(coldStart(), context, 0.0, &diag);
        ok = true;
        result.diagnostics.push_back({static_cast<size_t>(k), std::move(diag)});
      } catch (const RecoveryError& e) {
        ok = false;
        result.diagnostics.push_back({static_cast<size_t>(k), e.diagnostics()});
      }
    }
    result.sweep.push_back(v);
    result.solutions.push_back(x);
    result.converged.push_back(ok);
  }
  source.setWaveform(saved);
  return result;
}

AcResult Simulator::ac(double f_start, double f_stop, int points_per_decade) {
  if (f_start <= 0.0 || f_stop < f_start || points_per_decade < 1) {
    throw InvalidInputError("ac: bad frequency arguments");
  }
  // Linearization point.
  const std::vector<double> x_op =
      solveOpInternal(coldStart(), "ac operating point");
  EvalContext ctx = contextFor(x_op, 0.0);

  // Conductance part: the assembled Newton Jacobian at the OP.
  // One-shot system — the hashed path is the right tool here.
  MnaSystem g_sys(num_nodes_, num_unknowns_ - num_nodes_);
  assembleDirect(g_sys, circuit_, ctx);

  // Reactive part and AC excitation.
  SparseMatrix c_mat(num_unknowns_);
  ReactiveStamper reactive(c_mat, num_nodes_);
  std::vector<double> rhs_ac(num_unknowns_, 0.0);
  for (const auto& dev : circuit_.devices()) {
    dev->stampReactive(reactive, ctx);
    dev->stampAcSource(rhs_ac);
  }

  AcResult result(circuit_.nodeNames(), num_unknowns_);
  const size_t n = num_unknowns_;
  const double decades = std::log10(f_stop / f_start);
  const int total = std::max(1, static_cast<int>(std::ceil(decades * points_per_decade))) + 1;
  // Real-equivalent 2n system: the pattern is frequency-independent, so
  // build it once and refactor numerically per point.
  SparseMatrix big(2 * n);
  SparseLu lu;
  lu.setOrdering(options_.lu_ordering);
  for (int k = 0; k < total; ++k) {
    const double f =
        total == 1 ? f_start
                   : f_start * std::pow(10.0, decades * static_cast<double>(k) / (total - 1));
    const double w = 2.0 * M_PI * f;
    big.clearValues();
    for (size_t e = 0; e < g_sys.matrix().entries().size(); ++e) {
      const auto& ent = g_sys.matrix().entries()[e];
      const double v = g_sys.matrix().value(e);
      big.add(ent.row, ent.col, v);
      big.add(ent.row + n, ent.col + n, v);
    }
    for (size_t e = 0; e < c_mat.entries().size(); ++e) {
      const auto& ent = c_mat.entries()[e];
      const double v = c_mat.value(e) * w;
      big.add(ent.row, ent.col + n, -v);
      big.add(ent.row + n, ent.col, v);
    }
    std::vector<double> rhs(2 * n, 0.0);
    for (size_t i = 0; i < n; ++i) rhs[i] = rhs_ac[i];
    lu.refactor(big);
    const std::vector<double> sol = lu.solve(rhs);
    AcPoint point;
    point.freq = f;
    point.x.resize(n);
    for (size_t i = 0; i < n; ++i) point.x[i] = {sol[i], sol[i + n]};
    result.append(std::move(point));
  }
  return result;
}

NoiseResult Simulator::noise(const std::string& output_node, double f_start, double f_stop,
                             int points_per_decade) {
  if (f_start <= 0.0 || f_stop < f_start || points_per_decade < 1) {
    throw InvalidInputError("noise: bad frequency arguments");
  }
  const auto out_id = circuit_.findNode(output_node);
  if (!out_id || isGround(*out_id)) {
    throw InvalidInputError("noise: unknown output node '" + output_node + "'");
  }
  const size_t out_idx = static_cast<size_t>(*out_id);

  const std::vector<double> x_op =
      solveOpInternal(coldStart(), "noise operating point");
  EvalContext ctx = contextFor(x_op, 0.0);

  MnaSystem g_sys(num_nodes_, num_unknowns_ - num_nodes_);
  assembleDirect(g_sys, circuit_, ctx);
  SparseMatrix c_mat(num_unknowns_);
  ReactiveStamper reactive(c_mat, num_nodes_);
  std::vector<NoiseSource> sources;
  for (const auto& dev : circuit_.devices()) {
    dev->stampReactive(reactive, ctx);
    dev->collectNoiseSources(sources, ctx);
  }

  NoiseResult result;
  result.output_node = output_node;
  result.contributions.resize(sources.size());
  for (size_t s = 0; s < sources.size(); ++s) result.contributions[s].label = sources[s].label;

  const size_t n = num_unknowns_;
  const double decades = std::log10(f_stop / f_start);
  const int total = std::max(1, static_cast<int>(std::ceil(decades * points_per_decade))) + 1;
  std::vector<double> prev_psd_per_src(sources.size(), 0.0);
  double prev_f = 0.0;
  SparseMatrix big(2 * n);
  SparseLu lu;
  lu.setOrdering(options_.lu_ordering);
  for (int k = 0; k < total; ++k) {
    const double f =
        total == 1 ? f_start
                   : f_start * std::pow(10.0, decades * static_cast<double>(k) / (total - 1));
    const double w = 2.0 * M_PI * f;
    big.clearValues();
    for (size_t e = 0; e < g_sys.matrix().entries().size(); ++e) {
      const auto& ent = g_sys.matrix().entries()[e];
      const double v = g_sys.matrix().value(e);
      big.add(ent.row, ent.col, v);
      big.add(ent.row + n, ent.col + n, v);
    }
    for (size_t e = 0; e < c_mat.entries().size(); ++e) {
      const auto& ent = c_mat.entries()[e];
      const double v = c_mat.value(e) * w;
      big.add(ent.row, ent.col + n, -v);
      big.add(ent.row + n, ent.col, v);
    }
    lu.refactor(big);

    double psd_total = 0.0;
    for (size_t s = 0; s < sources.size(); ++s) {
      std::vector<double> rhs(2 * n, 0.0);
      // Unit current a -> b through the generator: leaves a, enters b.
      if (!isGround(sources[s].a)) rhs[static_cast<size_t>(sources[s].a)] -= 1.0;
      if (!isGround(sources[s].b)) rhs[static_cast<size_t>(sources[s].b)] += 1.0;
      const std::vector<double> sol = lu.solve(rhs);
      const double h2 = sol[out_idx] * sol[out_idx] + sol[out_idx + n] * sol[out_idx + n];
      const double psd = h2 * sources[s].psd(f);
      psd_total += psd;
      // Band integration (trapezoid in linear f) per source.
      if (k > 0) {
        result.contributions[s].v2 += 0.5 * (psd + prev_psd_per_src[s]) * (f - prev_f);
      }
      prev_psd_per_src[s] = psd;
    }
    result.freqs.push_back(f);
    result.output_psd.push_back(psd_total);
    prev_f = f;
  }
  for (const auto& c : result.contributions) result.total_v2 += c.v2;
  std::sort(result.contributions.begin(), result.contributions.end(),
            [](const NoiseContribution& a, const NoiseContribution& b) { return a.v2 > b.v2; });
  return result;
}

TransientResult Simulator::transient(double t_stop, double dt_max, double dt_initial) {
  if (t_stop <= 0.0 || dt_max <= 0.0) throw InvalidInputError("transient: bad time arguments");

  TransientResult result(circuit_.nodeNames(), num_unknowns_);

  // Operating point at t = 0 (surface a rescued OP as a recovery event).
  ConvergenceDiagnostics op_diag;
  std::vector<double> x = solveOpInternal(coldStart(), "transient operating point", 0.0, &op_diag);
  if (op_diag.recovered) result.recovery_events.push_back(std::move(op_diag));
  {
    EvalContext ctx = contextFor(x, 0.0);
    for (const auto& dev : circuit_.devices()) dev->startTransient(ctx);
  }
  result.append(0.0, x);

  // Breakpoints: source corners are hard barriers.
  std::vector<double> breaks;
  for (const auto& dev : circuit_.devices()) dev->collectBreakpoints(t_stop, breaks);
  StepController steps(options_, t_stop, dt_max, dt_initial, std::move(breaks));

  FaultInjector* injector = options_.fault_injector.get();
  const auto recordStep = [this](StageAttempt& attempt, const NewtonOutcome& o) {
    attempt.newton_iterations += o.iterations;
    attempt.converged = o.converged;
    attempt.failure = o.failure;
    attempt.worst_residual = o.worst_delta;
    attempt.worst_node = o.worst_index >= 0 ? unknownName(o.worst_index) : "";
    attempt.singular_node = o.singular_index >= 0 ? unknownName(o.singular_index) : "";
    if (!o.injected.empty()) attempt.injected_fault = o.injected;
    attempt.trace = o.trace.toVector();
  };

  std::vector<double> x_prev = x;  // solution one accepted step back
  std::vector<double> x_try(num_unknowns_);
  while (!steps.finished()) {
    const double t = steps.time();
    if (options_.job_control != nullptr) {
      options_.job_control->throwIfInterrupted("transient", t);
    }
    const TransientStep& step = steps.propose();

    x_try = x;
    if (injector != nullptr) injector->setStage(RecoveryStage::TransientStep);
    const NewtonOutcome step_out =
        newtonAttempt(step.t_new, step.dt, step.method, 1.0, options_.gmin, x_try);
    result.total_newton_iterations += step_out.iterations;

    if (!step_out.converged) {
      if (!steps.rejectNewton()) continue;
      // dt is exhausted: one last gmin-ladder rescue at this very step
      // (the fixed-dt analogue of the OP ladder) before declaring
      // underflow — with the full stage record either way.
      ConvergenceDiagnostics diag;
      diag.context = "transient";
      diag.time = t;
      diag.last_dt = steps.lastAcceptedDt();
      StageAttempt& step_attempt = diag.stages.emplace_back();
      step_attempt.stage = RecoveryStage::TransientStep;
      step_attempt.rungs = 1;
      step_attempt.detail = formatMessage("dt=%g", step.dt);
      recordStep(step_attempt, step_out);
      bool rescued = false;
      if (options_.recovery.gmin_stepping) {
        if (injector != nullptr) injector->setStage(RecoveryStage::GminStepping);
        StageAttempt& gmin_attempt = diag.stages.emplace_back();
        gmin_attempt.stage = RecoveryStage::GminStepping;
        x_try = x;
        rescued = true;
        for (const double g : RecoveryEngine::gminSchedule(options_.recovery, options_.gmin)) {
          ++gmin_attempt.rungs;
          gmin_attempt.detail = formatMessage("gmin=%g", g);
          const NewtonOutcome o = newtonAttempt(step.t_new, step.dt, step.method, 1.0, g, x_try);
          result.total_newton_iterations += o.iterations;
          recordStep(gmin_attempt, o);
          if (!o.converged) {
            rescued = false;
            break;
          }
        }
        if (injector != nullptr) injector->setStage(RecoveryStage::TransientStep);
      }
      if (!rescued) {
        throw RecoveryError(formatMessage("transient: timestep underflow at t = %g", t),
                            std::move(diag));
      }
      diag.recovered = true;
      result.recovery_events.push_back(std::move(diag));
    }

    const double err = steps.lteError(x, x_prev, x_try);
    if (steps.rejectLte(err)) continue;

    // Accept.
    {
      EvalContext ctx = contextFor(x_try, step.t_new);
      ctx.dt = step.dt;
      ctx.method = step.method;
      for (const auto& dev : circuit_.devices()) dev->acceptStep(ctx);
    }
    x_prev = x;
    x = x_try;
    result.append(step.t_new, x);
    steps.accept(err);
  }
  result.rejected_steps = steps.rejectedSteps();
  return result;
}

}  // namespace vls
