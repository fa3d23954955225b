#include "analysis/characterize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// One (kind, corner) task: the harness configuration every grid unit
/// builds its testbench from.
struct FarmTask {
  ShifterKind kind = ShifterKind::Sstvs;
  const CharCorner* corner = nullptr;
  HarnessConfig cfg;
};

/// One unit of the farm's flat dispatch: the grid-order slice
/// [begin, end) of task `task` (a lane batch, or one scalar point), or
/// the task's static harness when the slice is empty.
struct FarmUnit {
  size_t task = 0;
  size_t begin = 0;
  size_t end = 0;
  bool isStatic() const { return begin == end; }
};

/// What one unit produced. A grid unit (lane batch, scalar point or
/// escalated retry) holds one point per grid index of its slice, in
/// slice order, with `requeue` flagging the ones its engine dropped for
/// the scalar retry pass; the static unit holds the static metrics.
struct UnitOutput {
  std::vector<CharPoint> points;
  std::vector<uint8_t> requeue;
  CharEngineStats engine;
  ShifterMetrics static_metrics;
};

/// `cfg`'s testbench with the corner's process skew applied.
std::unique_ptr<ShifterTestbench> skewedTestbench(const HarnessConfig& cfg,
                                                  const CornerSpec& process) {
  auto tb = std::make_unique<ShifterTestbench>(cfg);
  applyProcessSkew(*tb, process);
  return tb;
}

/// One scalar reference point under recovery `policy`, cold-started on
/// a fresh testbench. attemptOptions re-instantiates any configured
/// fault injector, so its firing budget re-fires on every attempt —
/// retries cannot silently out-wait an injected fault.
UnitOutput runScalarPoint(const FarmTask& task, const CharGrid& grid, size_t idx,
                          const RecoveryPolicy& policy) {
  const double slew = grid.slews[idx / grid.loads.size()];
  const double load = grid.loads[idx % grid.loads.size()];
  const double ramp = rampFor(slew);
  const auto tb = skewedTestbench(task.cfg, task.corner->process);
  tb->vinSource()->setWaveform(tb->stimulusWaveform(ramp));
  tb->loadCapacitor()->setCapacitance(load);

  SimOptions opts = attemptOptions(task.cfg.sim, policy);
  opts.temperature_c = task.cfg.temperature_c;
  Simulator sim(tb->circuit(), opts);
  const TransientResult run = sim.transient(tb->tStop(), grid.dt_max, ramp / 4.0);
  UnitOutput out;
  out.points = {measurePoint(run, task.cfg, tb->inverting(), *tb->vddoSource(), slew, load)};
  out.requeue = {0};
  out.engine = {run.steps(), run.rejected_steps, run.total_newton_iterations, 0, 0,
                sim.phaseTimes()};
  return out;
}

/// One lane batch: grid points `idx[0, width)` as the lanes of one
/// cold-started ensemble transient. Lanes that drop out — or the whole
/// batch, when it throws — are flagged for the scalar retry pass
/// (JobInterrupted is not an Error and propagates).
UnitOutput runLaneBatch(const FarmTask& task, const CharGrid& grid, const size_t* idx,
                        size_t width) {
  const size_t n_loads = grid.loads.size();
  const auto tb = skewedTestbench(task.cfg, task.corner->process);
  SimOptions opts = task.cfg.sim;
  opts.temperature_c = task.cfg.temperature_c;
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
  EnsembleSimulator sim(tb->circuit(), width, opts);
  auto* src_state = static_cast<SourceLaneState*>(sim.laneState(*tb->vinSource()));
  auto* cap_state = static_cast<CapacitorLaneState*>(sim.laneState(*tb->loadCapacitor()));
  double min_ramp = std::numeric_limits<double>::infinity();
  for (size_t l = 0; l < width; ++l) {
    const double ramp = rampFor(grid.slews[idx[l] / n_loads]);
    src_state->setWaveform(l, tb->stimulusWaveform(ramp));
    cap_state->setCapacitance(l, grid.loads[idx[l] % n_loads]);
    min_ramp = std::min(min_ramp, ramp);
  }

  UnitOutput out;
  out.points.resize(width);
  out.requeue.assign(width, 1);
  try {
    sim.transient(tb->tStop(), grid.dt_max, min_ramp / 4.0);
  } catch (const Error& e) {
    VLS_LOG_WARN("characterize %s/%s: lane batch at point %zu threw (%s); scalar fallback",
                 shifterKindName(task.kind), task.corner->name.c_str(), idx[0], e.what());
    return out;
  }
  for (size_t l = 0; l < width; ++l) {
    if (sim.laneFailed(l)) continue;
    out.points[l] = measurePoint(sim.laneResult(l), task.cfg, shifterKindInverting(task.kind),
                                 *tb->vddoSource(), grid.slews[idx[l] / n_loads],
                                 grid.loads[idx[l] % n_loads]);
    out.requeue[l] = 0;
  }
  out.engine = {sim.steps(),
                sim.rejectedSteps(),
                sim.totalNewtonIterations(),
                sim.bypassedEvaluations(),
                sim.laneEvaluations(),
                sim.phaseTimes()};
  return out;
}

/// Static .lib data (leakage, functionality) from the paper's own
/// buffered-input harness (direct_drive off) at the task's corner.
UnitOutput runStaticHarness(const FarmTask& task, const HarnessConfig& base) {
  HarnessConfig cfg = base;
  cfg.kind = task.kind;
  cfg.vddi = task.corner->vddi;
  cfg.vddo = task.corner->vddo;
  cfg.temperature_c = task.corner->temperature_c;
  cfg.sim.job_control = task.cfg.sim.job_control;
  UnitOutput out;
  try {
    out.static_metrics = skewedTestbench(cfg, task.corner->process)->measure();
  } catch (const Error& e) {
    VLS_LOG_WARN("characterize %s/%s: static harness failed: %s", shifterKindName(task.kind),
                 task.corner->name.c_str(), e.what());
    out.static_metrics.functional = false;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Farm checkpoint payload: the request fingerprint, then the output of
// every completed unit of the flat dispatch, keyed by unit id. Doubles
// are raw IEEE-754 bits end to end, which is what makes a killed-then-
// resumed farm reproduce the uninterrupted .lib text bit for bit. The
// scalar retry pass is not recorded: it re-runs from the restored unit
// outputs, cold-started and hence deterministic.
// ---------------------------------------------------------------------------

/// Payload sub-version, the first field of the fingerprint.
constexpr uint32_t kFarmPayloadVersion = 3;

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

std::vector<uint8_t> serializeUnitOutput(const UnitOutput& out) {
  CheckpointWriter w;
  w.u64(out.points.size());
  for (size_t i = 0; i < out.points.size(); ++i) {
    writeCharPoint(w, out.points[i]);
    w.u8(out.requeue[i]);
  }
  const CharEngineStats& e = out.engine;
  w.u64(e.steps);
  w.u64(e.rejected_steps);
  w.u64(e.newton_iterations);
  w.u64(e.bypassed_evaluations);
  w.u64(e.lane_evaluations);
  w.f64(e.phase_times.assembly_sec);
  w.f64(e.phase_times.model_eval_sec);
  w.f64(e.phase_times.factor_sec);
  w.f64(e.phase_times.solve_sec);
  writeShifterMetrics(w, out.static_metrics);
  return w.bytes();
}

/// Restores a unit's recorded output; `width` is the unit's slice length.
UnitOutput deserializeUnitOutput(const std::vector<uint8_t>& bytes, size_t width) {
  CheckpointReader r{bytes};
  if (r.u64() != width) {
    throw InvalidInputError("characterizeCells: checkpointed unit has a different width");
  }
  UnitOutput out;
  for (size_t i = 0; i < width; ++i) {
    out.points.push_back(readCharPoint(r));
    out.requeue.push_back(r.u8());
  }
  CharEngineStats& e = out.engine;
  e.steps = r.u64();
  e.rejected_steps = r.u64();
  e.newton_iterations = r.u64();
  e.bypassed_evaluations = r.u64();
  e.lane_evaluations = r.u64();
  e.phase_times.assembly_sec = r.f64();
  e.phase_times.model_eval_sec = r.f64();
  e.phase_times.factor_sec = r.f64();
  e.phase_times.solve_sec = r.f64();
  out.static_metrics = readShifterMetrics(r);
  return out;
}

/// Request fingerprint stored in (and validated against) a farm
/// checkpoint: every request knob that shapes the task list, the grid,
/// the unit slicing or the engine configuration. (Device sizing in
/// `base` is assumed constant across a resume, like the netlist itself.)
std::vector<uint8_t> farmFingerprint(const CharRequest& request,
                                     const std::vector<CharCorner>& corners) {
  CheckpointWriter w;
  w.u32(kFarmPayloadVersion);
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
  const CharGrid& grid = request.grid;
  w.f64vec(grid.slews);
  w.f64vec(grid.loads);
  w.u8(grid.use_lanes ? 1 : 0);
  w.u64(grid.lane_width);
  w.u8(grid.static_metrics ? 1 : 0);
  w.u64(grid.point_order.size());
  for (size_t idx : grid.point_order) w.u64(idx);
  w.f64(grid.bit_period);
  w.f64(grid.settle);
  w.f64(grid.dt_max);
  w.f64(grid.tran_reltol);
  w.u64(static_cast<uint64_t>(std::max(0, request.max_retries)));
  return w.bytes();
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

CharEngineStats& CharEngineStats::operator+=(const CharEngineStats& o) {
  steps += o.steps;
  rejected_steps += o.rejected_steps;
  newton_iterations += o.newton_iterations;
  bypassed_evaluations += o.bypassed_evaluations;
  lane_evaluations += o.lane_evaluations;
  phase_times += o.phase_times;
  return *this;
}

CharTable characterizeCell(ShifterKind kind, const CharCorner& corner, const CharGrid& grid,
                           const HarnessConfig& base, const CharCellControl& control) {
  CharRequest request;
  request.kinds = {kind};
  request.corners = {corner};
  request.grid = grid;
  request.base = base;
  request.max_retries = control.max_retries;
  request.job = control.job;
  return std::move(characterizeCells(request).front());
}

std::vector<CharTable> characterizeCells(const CharRequest& request) {
  const CharGrid& grid = request.grid;
  if (grid.slews.empty() || grid.loads.empty()) {
    throw InvalidInputError("characterize: empty slew or load axis");
  }
  for (double s : grid.slews) {
    if (rampFor(s) >= grid.bit_period) {
      throw InvalidInputError("characterize: input ramp exceeds the bit period");
    }
  }
  const std::vector<size_t> order = gridOrder(grid);
  const size_t n_points = order.size();
  const std::vector<CharCorner> corners =
      request.corners.empty() ? standardCharCorners() : request.corners;
  const size_t n_tasks = request.kinds.size() * corners.size();

  // Tasks and their table skeletons, kinds-major.
  std::vector<FarmTask> tasks(n_tasks);
  std::vector<CharTable> tables(n_tasks);
  for (size_t t = 0; t < n_tasks; ++t) {
    FarmTask& task = tasks[t];
    task.kind = request.kinds[t / corners.size()];
    task.corner = &corners[t % corners.size()];
    HarnessConfig& cfg = task.cfg;
    cfg = request.base;
    cfg.kind = task.kind;
    cfg.direct_drive = true;
    cfg.vddi = task.corner->vddi;
    cfg.vddo = task.corner->vddo;
    cfg.temperature_c = task.corner->temperature_c;
    cfg.bits = {1, 0, 1};  // one falling and one rising input edge
    cfg.bit_period = grid.bit_period;
    cfg.leak_settle = grid.settle;
    cfg.edge_time = rampFor(grid.slews.front());
    cfg.load_cap = grid.loads.front();
    cfg.dt_max = grid.dt_max;
    cfg.sim.tran_reltol = grid.tran_reltol;
    cfg.sim.job_control = request.job;

    CharTable& table = tables[t];
    table.kind = task.kind;
    table.corner = *task.corner;
    table.slews = grid.slews;
    table.loads = grid.loads;
    table.inverting = shifterKindInverting(task.kind);
    table.points.resize(n_points);
    table.area_m2 = estimateCellArea(skewedTestbench(cfg, task.corner->process)->dutFets());
  }

  // The flat unit list: each task's lane batches (scalar points), in
  // grid order, then its static harness.
  const size_t width = grid.use_lanes ? std::clamp<size_t>(grid.lane_width, 1, kMaxLanes) : 1;
  std::vector<FarmUnit> units;
  for (size_t t = 0; t < n_tasks; ++t) {
    for (size_t b = 0; b < n_points; b += width) {
      units.push_back({t, b, std::min(b + width, n_points)});
    }
    if (grid.static_metrics) units.push_back({t, 0, 0});
  }
  auto run_unit = [&](const FarmUnit& u) -> UnitOutput {
    const FarmTask& task = tasks[u.task];
    if (u.isStatic()) return runStaticHarness(task, request.base);
    if (grid.use_lanes) return runLaneBatch(task, grid, order.data() + u.begin, u.end - u.begin);
    try {
      return runScalarPoint(task, grid, order[u.begin], task.cfg.sim.recovery);
    } catch (const Error& e) {
      // Degrade, don't abort: queue for the escalated retry pass.
      VLS_LOG_WARN("characterize %s/%s: point %zu threw (%s); queued for escalated retry",
                   shifterKindName(task.kind), task.corner->name.c_str(), order[u.begin],
                   e.what());
      UnitOutput out;
      out.points.resize(1);
      out.requeue = {1};
      return out;
    }
  };

  // Checkpoint: the recorded output of every completed unit, restored
  // up front; the file is atomically rewritten after every unit that
  // completes anywhere in the farm (writes serialized under one mutex).
  const std::vector<uint8_t> fingerprint = farmFingerprint(request, corners);
  const bool use_ckpt = !request.checkpoint_path.empty();
  std::vector<UnitOutput> outputs(units.size());
  std::vector<std::vector<uint8_t>> records(units.size());
  std::vector<uint8_t> done(units.size(), 0);
  if (use_ckpt && checkpointFileExists(request.checkpoint_path)) {
    CheckpointReader r = readCheckpointFile(request.checkpoint_path, kCheckpointKindCharFarm);
    const std::vector<uint8_t> stored = r.blob();
    const uint32_t version = CheckpointReader{stored}.u32();
    if (version != kFarmPayloadVersion) {
      throw InvalidInputError(formatMessage(
          "characterizeCells: checkpoint '%s' has farm payload version %u, this build reads %u",
          request.checkpoint_path.c_str(), version, kFarmPayloadVersion));
    }
    if (stored != fingerprint) {
      throw InvalidInputError("characterizeCells: checkpoint '" + request.checkpoint_path +
                              "' was written by an incompatible request");
    }
    const uint64_t n_done = r.u64();
    for (uint64_t i = 0; i < n_done; ++i) {
      const uint64_t u = r.u64();
      if (u >= units.size()) {
        throw InvalidInputError("characterizeCells: checkpointed unit index out of range");
      }
      records[u] = r.blob();
      outputs[u] = deserializeUnitOutput(records[u], units[u].end - units[u].begin);
      done[u] = 1;
    }
    VLS_LOG_INFO("characterizeCells: resuming with %llu of %zu unit(s) done from '%s'",
                 static_cast<unsigned long long>(n_done), units.size(),
                 request.checkpoint_path.c_str());
  }
  std::mutex ckpt_mutex;
  auto save_farm = [&] {  // callers hold ckpt_mutex
    CheckpointWriter w;
    w.blob(fingerprint);
    w.u64(static_cast<uint64_t>(std::count(done.begin(), done.end(), 1)));
    for (size_t u = 0; u < units.size(); ++u) {
      if (!done[u]) continue;
      w.u64(u);
      w.blob(records[u]);
    }
    writeCheckpointFile(request.checkpoint_path, kCheckpointKindCharFarm, w);
  };

  // One flat dispatch over every pending unit: each writes only its own
  // output slot, so the tables below are bit-identical for any thread
  // count and completion order. The pool starts each worker on a
  // contiguous slice of the dispatch list, so the pending units are
  // dealt round-robin into one slice per worker: every slice strides
  // through all tasks, costly and cheap cells alike (they differ ~9x),
  // and stealing only has the remainder to even out.
  std::vector<size_t> pending;
  for (size_t u = 0; u < units.size(); ++u) {
    if (!done[u]) pending.push_back(u);
  }
  const size_t slices = std::clamp<size_t>(static_cast<size_t>(parallelThreadCount()), 1,
                                           std::max<size_t>(pending.size(), 1));
  std::vector<size_t> dispatch;
  dispatch.reserve(pending.size());
  for (size_t q = 0; q < slices; ++q) {
    for (size_t i = q; i < pending.size(); i += slices) dispatch.push_back(pending[i]);
  }
  runUnitGroups(
      dispatch.size(), 1,
      [&](size_t i, size_t) {
        const size_t u = dispatch[i];
        outputs[u] = run_unit(units[u]);
        if (use_ckpt) {
          std::vector<uint8_t> record = serializeUnitOutput(outputs[u]);
          std::lock_guard<std::mutex> lock(ckpt_mutex);
          records[u] = std::move(record);
          done[u] = 1;
          save_farm();
        }
      },
      UnitRunOptions{.job = request.job.get()});

  // Serial reduce in unit order: points into their tables, engine
  // effort summed, dropped points queued (task-major, grid order).
  struct Requeued {
    size_t task;
    size_t point;
  };
  std::vector<Requeued> retry;
  for (size_t u = 0; u < units.size(); ++u) {
    const FarmUnit& unit = units[u];
    const UnitOutput& out = outputs[u];
    CharTable& table = tables[unit.task];
    table.engine += out.engine;
    if (unit.isStatic()) {
      table.static_metrics = out.static_metrics;
      continue;
    }
    for (size_t i = 0; i < out.points.size(); ++i) {
      const size_t idx = order[unit.begin + i];
      if (out.requeue[i]) {
        retry.push_back({unit.task, idx});
        // Lane dropouts re-run through the scalar reference path.
        if (grid.use_lanes) ++table.scalar_fallbacks;
      } else {
        table.points[idx] = out.points[i];
      }
    }
  }

  // Escalated retry pass (degrade-don't-abort): every queued point —
  // lane dropout, failed batch member, or thrown scalar run — goes
  // through the unit ladder, 1 + max_retries scalar attempts, the later
  // ones under a tightened recovery ladder. A point that exhausts its
  // attempts is recorded as a structured CharPointFailure and left as a
  // table hole (ok == false) — the farm keeps going and the .lib writer
  // annotates the gap.
  const UnitRunOptions run{.max_retries = request.max_retries,
                           .recovery = request.base.sim.recovery,
                           .job = request.job.get()};
  const std::vector<UnitResult<UnitOutput>> reruns = runUnits<UnitOutput>(
      retry.size(),
      [&](size_t j, const RecoveryPolicy& policy) {
        const FarmTask& task = tasks[retry[j].task];
        VLS_LOG_WARN("characterize %s/%s: point %zu re-run scalar", shifterKindName(task.kind),
                     task.corner->name.c_str(), retry[j].point);
        return runScalarPoint(task, grid, retry[j].point, policy);
      },
      run);
  for (size_t j = 0; j < retry.size(); ++j) {
    const size_t idx = retry[j].point;
    CharTable& table = tables[retry[j].task];
    const UnitResult<UnitOutput>& r = reruns[j];
    if (r.attempts > 1) ++table.retried_points;
    if (r.ok()) {
      table.points[idx] = r.value.points.front();
      table.engine += r.value.engine;
      continue;
    }
    const double slew = grid.slews[idx / grid.loads.size()];
    const double load = grid.loads[idx % grid.loads.size()];
    table.points[idx] = CharPoint{.slew = slew, .load = load};
    VLS_LOG_WARN("characterize %s/%s: point %zu failed all %d attempt(s) (%s); "
                 "leaving table hole",
                 shifterKindName(table.kind), table.corner.name.c_str(), idx, r.attempts,
                 r.failure->message.c_str());
    table.failures.push_back(
        {idx, slew, load, r.attempts, r.failure->stage, r.failure->node, r.failure->message});
  }

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
