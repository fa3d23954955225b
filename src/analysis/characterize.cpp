#include "analysis/characterize.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

#include "analysis/area.hpp"
#include "analysis/measure.hpp"
#include "analysis/unit_runner.hpp"
#include "base/error.hpp"
#include "base/logging.hpp"
#include "base/parallel.hpp"
#include "io/checkpoint.hpp"
#include "numeric/lanes.hpp"
#include "sim/simulator.hpp"

namespace vls {

namespace {

/// A linear 0-100% PWL ramp whose 10-90% portion equals `slew`.
double rampFor(double slew) { return slew / 0.8; }

/// Metric extraction of one grid point from one transient run. The
/// stimulus is bits {1, 0, 1}: the input falls at t = period and rises
/// at t = 2*period, so each run carries exactly one output rise and one
/// output fall (in DUT-polarity-dependent order).
CharPoint measurePoint(const TransientResult& run, const HarnessConfig& cfg, bool inverting,
                       const VoltageSource& vddo_src, double slew, double load) {
  CharPoint p;
  p.slew = slew;
  p.load = load;

  const Signal in_sig = run.node("in");
  const Signal out_sig = run.node("out");
  const double vmi = 0.5 * cfg.vddi;
  const double vmo = 0.5 * cfg.vddo;
  const double period = cfg.bit_period;

  // Cubic-refined crossings: the lane and scalar engines integrate the
  // same waveform on different adaptive time grids, and the linear
  // interpolant's O(dt^2) crossing error is the dominant disagreement
  // between them at these tolerances.
  const auto t_in_fall = crossTimeCubic(in_sig, vmi, CrossDir::Falling, 0.5 * period);
  const auto t_in_rise = crossTimeCubic(in_sig, vmi, CrossDir::Rising, 1.5 * period);
  if (!t_in_fall || !t_in_rise) return p;  // ok stays false

  // Inverting DUTs: falling input -> rising output (slot 1), rising
  // input -> falling output (slot 2). Non-inverting: the reverse map.
  const double t_rise_in = inverting ? *t_in_fall : *t_in_rise;
  const double t_fall_in = inverting ? *t_in_rise : *t_in_fall;
  const double rise_slot = inverting ? period : 2.0 * period;
  const double fall_slot = inverting ? 2.0 * period : period;

  const auto t_out_rise = crossTimeCubic(out_sig, vmo, CrossDir::Rising, t_rise_in);
  const auto t_out_fall = crossTimeCubic(out_sig, vmo, CrossDir::Falling, t_fall_in);
  const auto tr = transitionTimeCubic(out_sig, 0.1 * cfg.vddo, 0.9 * cfg.vddo, CrossDir::Rising,
                                      rise_slot);
  const auto tf = transitionTimeCubic(out_sig, 0.1 * cfg.vddo, 0.9 * cfg.vddo, CrossDir::Falling,
                                      fall_slot);
  if (!t_out_rise || !t_out_fall || !tr || !tf) return p;
  p.delay_rise = *t_out_rise - t_rise_in;
  p.delay_fall = *t_out_fall - t_fall_in;
  p.trans_rise = *tr;
  p.trans_fall = *tf;

  // Output-domain supply energy of each transition's bit slot. The slot
  // is long relative to the edge, so this is the NLDM switching energy
  // plus one slot of leakage (negligible at these periods).
  p.energy_rise = averageSupplyPower(run, vddo_src, rise_slot, rise_slot + period) * period;
  p.energy_fall = averageSupplyPower(run, vddo_src, fall_slot, fall_slot + period) * period;

  // Functional gate: the output must settle within 10% of the correct
  // rail at the end of every bit slot.
  const double tol = 0.1 * cfg.vddo;
  bool ok = true;
  for (size_t k = 0; k < cfg.bits.size(); ++k) {
    const double t1 = static_cast<double>(k + 1) * period;
    const bool high = inverting ? cfg.bits[k] == 0 : cfg.bits[k] != 0;
    const double target = high ? cfg.vddo : 0.0;
    if (std::fabs(averageValue(out_sig, t1 - 0.15 * period, t1) - target) > tol) ok = false;
  }
  p.ok = ok;
  return p;
}

/// Evaluation order of the flattened grid: the configured permutation
/// when it is one, row-major otherwise.
std::vector<size_t> gridOrder(const CharGrid& grid) {
  const size_t n = grid.slews.size() * grid.loads.size();
  if (grid.point_order.size() == n) {
    std::vector<size_t> seen(n, 0);
    for (size_t idx : grid.point_order) {
      if (idx >= n || seen[idx]++) {
        throw InvalidInputError("CharGrid::point_order is not a permutation of the grid");
      }
    }
    return grid.point_order;
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

/// One scalar reference point under recovery `policy`: fresh Simulator
/// over the (re-stimulated) shared testbench, warm-started from
/// `nodeset` when given. Returns the converged t=0 operating point
/// through `op_out` for chaining. Any configured fault injector is
/// re-instantiated fresh per call, so its firing budget re-fires on
/// every attempt — retries cannot silently out-wait an injected fault.
CharPoint runScalarPoint(ShifterTestbench& tb, const CharGrid& grid, double slew, double load,
                         const std::shared_ptr<const std::vector<double>>& nodeset,
                         std::shared_ptr<const std::vector<double>>* op_out,
                         const RecoveryPolicy& policy) {
  const HarnessConfig& cfg = tb.config();
  const double ramp = rampFor(slew);
  tb.vinSource()->setWaveform(tb.stimulusWaveform(ramp));
  tb.loadCapacitor()->setCapacitance(load);

  SimOptions opts = attemptOptions(cfg.sim, policy);
  opts.temperature_c = cfg.temperature_c;
  opts.tran_reltol = grid.tran_reltol;
  if (grid.warm_start) opts.nodeset = nodeset;
  Simulator sim(tb.circuit(), opts);
  const TransientResult run = sim.transient(tb.tStop(), grid.dt_max, ramp / 4.0);
  if (op_out != nullptr && grid.warm_start) {
    *op_out = std::make_shared<const std::vector<double>>(run.solution(0));
  }
  return measurePoint(run, cfg, tb.inverting(), *tb.vddoSource(), slew, load);
}

// ---------------------------------------------------------------------------
// Per-task checkpoint payload: the full measured-point store, the
// batch cursor (in grid-order-entry units, batch-aligned on the lane
// path), the pending scalar-retry list and the warm-start chain state.
// Completed tasks store the finished table (incl. static metrics and
// failure records) so a resumed farm skips them entirely. Doubles are
// raw IEEE-754 bits end to end, which is what makes a killed-then-
// resumed farm reproduce the uninterrupted .lib text bit for bit.
// ---------------------------------------------------------------------------

void writeCharPoint(CheckpointWriter& w, const CharPoint& p) {
  w.f64(p.slew);
  w.f64(p.load);
  w.f64(p.delay_rise);
  w.f64(p.delay_fall);
  w.f64(p.trans_rise);
  w.f64(p.trans_fall);
  w.f64(p.energy_rise);
  w.f64(p.energy_fall);
  w.u8(p.ok ? 1 : 0);
}

CharPoint readCharPoint(CheckpointReader& r) {
  CharPoint p;
  p.slew = r.f64();
  p.load = r.f64();
  p.delay_rise = r.f64();
  p.delay_fall = r.f64();
  p.trans_rise = r.f64();
  p.trans_fall = r.f64();
  p.energy_rise = r.f64();
  p.energy_fall = r.f64();
  p.ok = r.u8() != 0;
  return p;
}

/// Serialized task progress: the point store, then — for an unfinished
/// task (`retry` non-null) — the batch cursor, the pending retry list
/// and the warm-start chain state `op` (may be null), or the rest of
/// the finished table.
std::vector<uint8_t> serializeProgress(const CharTable& table, size_t cursor = 0,
                                       const std::vector<size_t>* retry = nullptr,
                                       const std::vector<double>* op = nullptr) {
  CheckpointWriter w;
  w.u8(retry == nullptr ? 1 : 0);
  w.u64(table.points.size());
  for (const CharPoint& p : table.points) writeCharPoint(w, p);
  if (retry != nullptr) {
    w.u64(cursor);
    w.u64(retry->size());
    for (size_t idx : *retry) w.u64(idx);
    w.u8(op != nullptr ? 1 : 0);
    w.f64vec(op != nullptr ? *op : std::vector<double>{});
  } else {
    w.u64(table.scalar_fallbacks);
    w.u64(table.retried_points);
    w.u64(table.failures.size());
    for (const CharPointFailure& f : table.failures) {
      w.u64(f.point);
      w.f64(f.slew);
      w.f64(f.load);
      w.u64(static_cast<uint64_t>(f.attempts));
      w.str(f.stage);
      w.str(f.node);
      w.str(f.message);
    }
    writeShifterMetrics(w, table.static_metrics);
    w.f64(table.area_m2);
    w.u8(table.inverting ? 1 : 0);
  }
  return w.bytes();
}

/// Restores serialized progress into `table` (whose points are
/// pre-sized to the grid). Returns true for a finished task; otherwise
/// restores the cursor, retry list and chain state as well.
bool deserializeProgress(const std::vector<uint8_t>& bytes, CharTable& table, size_t& cursor,
                         std::vector<size_t>& retry,
                         std::shared_ptr<const std::vector<double>>& op) {
  CheckpointReader r{bytes};
  const bool done = r.u8() != 0;
  const size_t n = table.points.size();
  if (r.u64() != n) {
    throw InvalidInputError("characterize: checkpointed task has a different grid size");
  }
  for (CharPoint& p : table.points) p = readCharPoint(r);
  if (!done) {
    cursor = r.u64();
    const uint64_t n_retry = r.u64();
    for (uint64_t i = 0; i < n_retry; ++i) {
      retry.push_back(r.u64());
      if (retry.back() >= n) {
        throw InvalidInputError("characterize: checkpointed retry index out of range");
      }
    }
    const bool has_op = r.u8() != 0;
    std::vector<double> x = r.f64vec();
    if (has_op) op = std::make_shared<const std::vector<double>>(std::move(x));
    if (cursor > n) throw InvalidInputError("characterize: checkpointed cursor out of range");
    return false;
  }
  table.scalar_fallbacks = r.u64();
  table.retried_points = r.u64();
  const uint64_t n_fail = r.u64();
  for (uint64_t i = 0; i < n_fail; ++i) {
    CharPointFailure& f = table.failures.emplace_back();
    f.point = r.u64();
    f.slew = r.f64();
    f.load = r.f64();
    f.attempts = static_cast<int>(r.u64());
    f.stage = r.str();
    f.node = r.str();
    f.message = r.str();
  }
  table.static_metrics = readShifterMetrics(r);
  table.area_m2 = r.f64();
  table.inverting = r.u8() != 0;
  return true;
}

}  // namespace

std::vector<CharCorner> standardCharCorners() {
  std::vector<CharCorner> out;
  {
    CharCorner c;
    c.name = "tt_0p80v_1p20v_25c";
    out.push_back(c);
  }
  {
    // Slow-hot sign-off corner: slow devices, derated supplies, 85 C.
    CharCorner c;
    c.name = "ss_0p72v_1p08v_85c";
    c.vddi = 0.72;
    c.vddo = 1.08;
    c.temperature_c = 85.0;
    c.process = {"SS", +0.039, +0.039, -0.05, +0.05, 85.0, 1.0};
    out.push_back(c);
  }
  return out;
}

CharTable characterizeCell(ShifterKind kind, const CharCorner& corner, const CharGrid& grid,
                           const HarnessConfig& base, const CharCellControl& control) {
  if (grid.slews.empty() || grid.loads.empty()) {
    throw InvalidInputError("characterizeCell: empty slew or load axis");
  }
  for (double s : grid.slews) {
    if (rampFor(s) >= grid.bit_period) {
      throw InvalidInputError("characterizeCell: input ramp exceeds the bit period");
    }
  }

  HarnessConfig cfg = base;
  cfg.kind = kind;
  cfg.direct_drive = true;
  cfg.vddi = corner.vddi;
  cfg.vddo = corner.vddo;
  cfg.temperature_c = corner.temperature_c;
  cfg.bits = {1, 0, 1};  // one falling and one rising input edge
  cfg.bit_period = grid.bit_period;
  cfg.leak_settle = grid.settle;
  cfg.edge_time = rampFor(grid.slews.front());
  cfg.load_cap = grid.loads.front();
  cfg.dt_max = grid.dt_max;
  cfg.sim.tran_reltol = grid.tran_reltol;
  cfg.sim.job_control = control.job;

  CharTable table;
  table.kind = kind;
  table.corner = corner;
  table.slews = grid.slews;
  table.loads = grid.loads;
  table.inverting = shifterKindInverting(kind);
  const size_t n_points = grid.slews.size() * grid.loads.size();
  table.points.resize(n_points);

  const std::vector<size_t> order = gridOrder(grid);
  const size_t n_loads = grid.loads.size();

  // Resume: a completed task short-circuits from its stored table; a
  // partial one restores the point store, cursor, retry list and
  // warm-start chain state and continues mid-grid.
  std::shared_ptr<const std::vector<double>> op;
  std::vector<size_t> retry;  // points pending the scalar retry phase
  size_t cursor = 0;
  if (control.resume != nullptr &&
      deserializeProgress(*control.resume, table, cursor, retry, op)) {
    return table;
  }

  ShifterTestbench tb(cfg);
  applyProcessSkew(tb, corner.process);
  table.area_m2 = estimateCellArea(tb.dutFets());

  auto save_partial = [&](size_t new_cursor) {
    if (control.save) control.save(serializeProgress(table, new_cursor, &retry, op.get()));
  };
  auto unit_done = [&] {
    if (control.job) control.job->unitDone();
  };

  if (!grid.use_lanes) {
    for (size_t oi = cursor; oi < order.size(); ++oi) {
      const size_t idx = order[oi];
      try {
        table.points[idx] = runScalarPoint(tb, grid, grid.slews[idx / n_loads],
                                           grid.loads[idx % n_loads], op, &op,
                                           cfg.sim.recovery);
      } catch (const Error& e) {
        // Degrade, don't abort: queue for the escalated retry phase.
        VLS_LOG_WARN("characterize %s/%s: point %zu threw (%s); queued for escalated retry",
                     shifterKindName(kind), corner.name.c_str(), idx, e.what());
        retry.push_back(idx);
      }
      save_partial(oi + 1);
      unit_done();
    }
  } else {
    const size_t K = std::clamp<size_t>(grid.lane_width, 1, kMaxLanes);
    SimOptions opts = cfg.sim;
    opts.temperature_c = cfg.temperature_c;
    // Lane-engine tuning: SPICE device bypass. Iteration 0 of every
    // solve still fully re-linearizes, so stored values replayed for
    // quiet devices always come from the same timestep; the scalar
    // reference loop keeps bypass off (accuracy is checked against it
    // within grid.lane_rel_tol).
    opts.enable_bypass = true;
    opts.bypass_settle_iterations = 1;
    // 1e-4 V quiet threshold: devices are only bypassed while their
    // terminals sit still (supply rails, settled internal nodes), far
    // from the measured 10/50/90% crossings; the residual error this
    // admits is well inside lane_rel_tol and is covered by the
    // lane-vs-scalar checks in tests and the bench.
    opts.bypass_tol = 1e-4;
    EnsembleSimulator sim(tb.circuit(), K, opts);
    auto* src_state = static_cast<SourceLaneState*>(sim.laneState(*tb.vinSource()));
    auto* cap_state = static_cast<CapacitorLaneState*>(sim.laneState(*tb.loadCapacitor()));

    for (size_t b = cursor; b < order.size(); b += K) {
      double min_ramp = rampFor(grid.slews.back());
      for (size_t l = 0; l < K; ++l) {
        // Short batches pad by repeating the last point: padded lanes
        // converge trivially and their results are simply discarded.
        const size_t idx = order[std::min(b + l, order.size() - 1)];
        const double ramp = rampFor(grid.slews[idx / n_loads]);
        src_state->setWaveform(l, tb.stimulusWaveform(ramp));
        cap_state->setCapacitance(l, grid.loads[idx % n_loads]);
        min_ramp = std::min(min_ramp, ramp);
      }
      if (grid.warm_start) sim.setNodeset(op);
      bool batch_ok = true;
      try {
        sim.transient(tb.tStop(), grid.dt_max, min_ramp / 4.0);
      } catch (const Error& e) {
        // Degrade, don't abort: the whole batch falls back to the
        // scalar path (JobInterrupted is not an Error and propagates).
        VLS_LOG_WARN("characterize %s/%s: lane batch at %zu threw (%s); scalar fallback",
                     shifterKindName(kind), corner.name.c_str(), b, e.what());
        batch_ok = false;
        for (size_t l = 0; l < K && b + l < order.size(); ++l) retry.push_back(order[b + l]);
      }
      if (batch_ok) {
        if (grid.warm_start) {
          // Seed the next batch from this batch's converged t=0 state
          // (lane 0 by convention; all lanes share the same DC state).
          op = std::make_shared<const std::vector<double>>(sim.laneSolution(0, 0));
        }
        for (size_t l = 0; l < K && b + l < order.size(); ++l) {
          const size_t idx = order[b + l];
          if (sim.laneFailed(l)) {
            retry.push_back(idx);
            continue;
          }
          table.points[idx] = measurePoint(sim.laneResult(l), cfg, table.inverting,
                                           *tb.vddoSource(), grid.slews[idx / n_loads],
                                           grid.loads[idx % n_loads]);
        }
      }
      save_partial(std::min(b + K, order.size()));
      unit_done();
    }
    // Lane dropouts re-run through the scalar reference path.
    table.scalar_fallbacks = retry.size();
  }

  // Escalated retry phase (degrade-don't-abort): every queued point —
  // lane dropout, failed batch member, or thrown scalar run — goes
  // through the unit ladder, 1 + max_retries scalar attempts, the later
  // ones under a tightened recovery ladder. A point that exhausts its
  // attempts is recorded as a structured CharPointFailure and left as a
  // table hole (ok == false) — the farm keeps going and the .lib writer
  // annotates the gap. This phase runs serially on the task's shared
  // testbench and is not checkpointed mid-flight: it re-runs
  // deterministically from the stored chain state on resume.
  const UnitRunOptions run{.max_retries = control.max_retries, .recovery = cfg.sim.recovery};
  for (size_t idx : retry) {
    const double slew = grid.slews[idx / n_loads];
    const double load = grid.loads[idx % n_loads];
    VLS_LOG_WARN("characterize %s/%s: point %zu re-run scalar", shifterKindName(kind),
                 corner.name.c_str(), idx);
    UnitResult<CharPoint> r = runUnitAttempts<CharPoint>(
        idx,
        [&](const RecoveryPolicy& policy) {
          return runScalarPoint(tb, grid, slew, load, op, nullptr, policy);
        },
        run);
    if (r.attempts > 1) ++table.retried_points;
    table.points[idx] = r.ok() ? r.value : CharPoint{.slew = slew, .load = load};
    if (!r.ok()) {
      VLS_LOG_WARN("characterize %s/%s: point %zu failed all %d attempt(s) (%s); "
                   "leaving table hole",
                   shifterKindName(kind), corner.name.c_str(), idx, r.attempts,
                   r.failure->message.c_str());
      table.failures.push_back(
          {idx, slew, load, r.attempts, r.failure->stage, r.failure->node, r.failure->message});
    }
    unit_done();
  }

  // Static .lib data (leakage, functionality) from the paper's own
  // driver-loaded harness at this corner.
  if (grid.static_metrics) {
    HarnessConfig mcfg = base;
    mcfg.kind = kind;
    mcfg.vddi = corner.vddi;
    mcfg.vddo = corner.vddo;
    mcfg.temperature_c = corner.temperature_c;
    mcfg.sim.job_control = control.job;
    ShifterTestbench mtb(mcfg);
    applyProcessSkew(mtb, corner.process);
    try {
      table.static_metrics = mtb.measure();
    } catch (const Error& e) {
      VLS_LOG_WARN("characterize %s/%s: static harness failed: %s", shifterKindName(kind),
                   corner.name.c_str(), e.what());
      table.static_metrics.functional = false;
    }
  }

  if (control.save) control.save(serializeProgress(table));
  return table;
}

std::vector<CharTable> characterizeCells(const CharRequest& request) {
  const std::vector<CharCorner> corners =
      request.corners.empty() ? standardCharCorners() : request.corners;
  const size_t n_tasks = request.kinds.size() * corners.size();
  std::vector<CharTable> tables(n_tasks);

  // Request fingerprint stored in (and validated against) a farm
  // checkpoint: every request knob that shapes the task list, the grid
  // or the engine configuration. (Device sizing in `base` is assumed
  // constant across a resume, like the netlist itself.)
  const std::vector<uint8_t> fingerprint = [&] {
    CheckpointWriter w;
    w.u32(1);  // farm payload sub-version
    w.u64(request.kinds.size());
    for (ShifterKind k : request.kinds) w.u8(static_cast<uint8_t>(k));
    w.u64(corners.size());
    for (const CharCorner& c : corners) {
      w.str(c.name);
      w.f64(c.vddi);
      w.f64(c.vddo);
      w.f64(c.temperature_c);
      w.str(c.process.name);
      w.f64(c.process.nmos_dvt);
      w.f64(c.process.pmos_dvt);
      w.f64(c.process.dw_frac);
      w.f64(c.process.dl_frac);
      w.f64(c.process.temperature_c);
      w.f64(c.process.supply_scale);
    }
    w.f64vec(request.grid.slews);
    w.f64vec(request.grid.loads);
    w.u8(request.grid.use_lanes ? 1 : 0);
    w.u64(request.grid.lane_width);
    w.u8(request.grid.warm_start ? 1 : 0);
    w.u8(request.grid.static_metrics ? 1 : 0);
    w.u64(request.grid.point_order.size());
    for (size_t idx : request.grid.point_order) w.u64(idx);
    w.f64(request.grid.bit_period);
    w.f64(request.grid.settle);
    w.f64(request.grid.dt_max);
    w.f64(request.grid.tran_reltol);
    w.u64(static_cast<uint64_t>(std::max(0, request.max_retries)));
    return w.bytes();
  }();

  // Whole-farm checkpoint: a blob of serialized per-task progress,
  // atomically rewritten after every completed batch/point anywhere in
  // the farm (writes serialized under one mutex).
  const bool use_ckpt = !request.checkpoint_path.empty();
  std::vector<std::vector<uint8_t>> progress(n_tasks);
  std::vector<uint8_t> have_progress(n_tasks, 0);
  if (use_ckpt && checkpointFileExists(request.checkpoint_path)) {
    CheckpointReader r = readCheckpointFile(request.checkpoint_path, kCheckpointKindCharFarm);
    if (r.blob() != fingerprint) {
      throw InvalidInputError("characterizeCells: checkpoint '" + request.checkpoint_path +
                              "' was written by an incompatible request");
    }
    const uint64_t n_entries = r.u64();
    for (uint64_t i = 0; i < n_entries; ++i) {
      const uint64_t t = r.u64();
      if (t >= n_tasks) {
        throw InvalidInputError("characterizeCells: checkpointed task index out of range");
      }
      progress[t] = r.blob();
      have_progress[t] = 1;
    }
    VLS_LOG_INFO("characterizeCells: resuming %llu task(s) from '%s'",
                 static_cast<unsigned long long>(n_entries), request.checkpoint_path.c_str());
  }
  std::mutex ckpt_mutex;
  auto save_farm = [&] {  // callers hold ckpt_mutex
    CheckpointWriter w;
    w.blob(fingerprint);
    uint64_t count = 0;
    for (size_t t = 0; t < n_tasks; ++t) count += have_progress[t] ? 1 : 0;
    w.u64(count);
    for (size_t t = 0; t < n_tasks; ++t) {
      if (!have_progress[t]) continue;
      w.u64(t);
      w.blob(progress[t]);
    }
    writeCheckpointFile(request.checkpoint_path, kCheckpointKindCharFarm, w);
  };

  // (cell, corner) tasks are independent; the grid inside each one
  // runs lane-batched, so the farm fills both axes of the machine.
  parallelForChunked(
      n_tasks,
      [&](size_t t) {
        const ShifterKind kind = request.kinds[t / corners.size()];
        const CharCorner& corner = corners[t % corners.size()];
        CharCellControl control;
        control.job = request.job;
        control.max_retries = request.max_retries;
        std::vector<uint8_t> resume_bytes;
        if (have_progress[t]) {
          resume_bytes = progress[t];
          control.resume = &resume_bytes;
        }
        if (use_ckpt) {
          control.save = [&, t](const std::vector<uint8_t>& bytes) {
            std::lock_guard<std::mutex> lock(ckpt_mutex);
            progress[t] = bytes;
            have_progress[t] = 1;
            save_farm();
          };
        }
        tables[t] = characterizeCell(kind, corner, request.grid, request.base, control);
      },
      ParallelOptions{0, 1, request.job.get()});

  // Exit report: the farm finishes with holes instead of aborting —
  // say so loudly, once, with per-table attribution in the records.
  size_t holes = 0;
  size_t retried = 0;
  for (const CharTable& t : tables) {
    holes += t.failures.size();
    retried += t.retried_points;
  }
  if (holes > 0 || retried > 0) {
    VLS_LOG_WARN(
        "characterizeCells: completed degraded — %zu retried point(s), %zu unrecovered "
        "hole(s) across %zu task(s); holes are annotated in the .lib output",
        retried, holes, n_tasks);
  }
  return tables;
}

}  // namespace vls
