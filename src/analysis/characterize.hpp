// Lane-batched Liberty NLDM characterization farm. Every cell kind is
// swept over an input-slew x output-load grid at several (VDDI, VDDO,
// temperature, process) corners, producing the delay / transition /
// switching-energy tables a .lib NLDM group needs.
//
// Perf core: grid points of one (cell, corner) share the testbench
// topology and differ only in the PWL input edge time and the load
// capacitance — *parameter* lanes. Up to K grid points at a time are
// mapped onto the SoA ensemble engine (SourceLaneState waveform
// overrides + CapacitorLaneState load overrides), so one stamp tape and
// one symbolic LU factorization serve the whole batch. Every lane batch
// (and every task's static harness) is one independent unit of a
// single flat dispatch over the VLS_THREADS worker pool: each builds
// its own testbench, starts its operating point cold and runs at its
// true width, so no unit waits on another and the pool balances at
// batch granularity rather than at whole (cell, corner) tasks.
//
// The scalar per-point loop (use_lanes = false) is the reference
// implementation; the lane path must reproduce its tables within
// CharGrid::lane_rel_tol (enforced by tests and the perf-smoke CI).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/corners.hpp"
#include "analysis/shifter_harness.hpp"
#include "base/job_control.hpp"
#include "sim/result.hpp"

namespace vls {

/// One library characterization corner: supplies, die temperature and
/// a process skew applied to the DUT transistors.
struct CharCorner {
  std::string name = "tt_0p80v_1p20v_25c";
  double vddi = 0.8;
  double vddo = 1.2;
  double temperature_c = 25.0;
  CornerSpec process{};  ///< DUT device skew (dvt / dw / dl); supplies above win
};

/// The default library corner set: typical and slow-hot (the sign-off
/// pair a timing library ships at minimum).
std::vector<CharCorner> standardCharCorners();

/// Characterization grid and engine knobs.
struct CharGrid {
  /// index_1: input transition times, 10-90% [s].
  std::vector<double> slews = {10e-12, 30e-12, 60e-12, 120e-12, 240e-12};
  /// index_2: output load capacitances [F].
  std::vector<double> loads = {0.5e-15, 1e-15, 2e-15, 4e-15, 8e-15};

  /// Lane-batched engine (false = scalar per-point reference loop).
  bool use_lanes = true;
  /// Grid points per ensemble batch, clamped to [1, kMaxLanes]; the
  /// last batch of a task runs at whatever width is left.
  size_t lane_width = 8;
  /// Run the driver-loaded static harness (leakage / functional) per
  /// cell. Perf benches turn it off to time the grid alone.
  bool static_metrics = true;
  /// Optional evaluation order of the flattened grid (size slews*loads;
  /// empty = row-major): consecutive runs of lane_width entries form
  /// the lane batches.
  std::vector<size_t> point_order;

  /// Documented agreement bound between the lane and scalar paths:
  /// full-scale relative error per metric family — for each of the
  /// four timing tables, max |lane - scalar| over the grid divided by
  /// the scalar table's peak magnitude; the two power tables share one
  /// full scale, the cell's peak switching energy. Full-scale is the
  /// NLDM-meaningful contract: per-entry relative error would divide
  /// femtosecond-level solver reproducibility noise by near-zero
  /// entries (a sub-picosecond inverter delay, the near-cancelling
  /// quiet-slot energy integral) and report unbounded disagreement
  /// where the tables are in fact bit-for-bit usable.
  double lane_rel_tol = 1e-3;

  double bit_period = 1e-9;     ///< slot length per stimulus bit
  double settle = 0.05e-9;      ///< appended static-state hold (stimulus tail)
  double dt_max = 5e-12;        ///< transient step ceiling (accuracy floor)
  double tran_reltol = 1e-4;    ///< tightened LTE tolerance for table accuracy
};

/// One grid point's measured metrics (all SI units).
struct CharPoint {
  double slew = 0.0;        ///< input transition (10-90%) [s]
  double load = 0.0;        ///< output load [F]
  double delay_rise = 0.0;  ///< 50% input -> 50% rising output [s]
  double delay_fall = 0.0;  ///< 50% input -> 50% falling output [s]
  double trans_rise = 0.0;  ///< 10-90% rising output transition [s]
  double trans_fall = 0.0;  ///< 90-10% falling output transition [s]
  double energy_rise = 0.0; ///< supply energy of the rising-output slot [J]
  double energy_fall = 0.0; ///< supply energy of the falling-output slot [J]
  bool ok = false;          ///< converged and output reached both rails
};

/// Structured per-unit failure record (degrade-don't-abort): one grid
/// point whose simulation kept throwing through the scalar fallback
/// AND an escalated-recovery retry. The point stays in the table as a
/// hole (ok == false); the .lib writer annotates it and the farm's
/// exit report lists it instead of aborting the run.
struct CharPointFailure {
  size_t point = 0;    ///< flattened grid index (si * loads + li)
  double slew = 0.0;   ///< input transition of the failed point [s]
  double load = 0.0;   ///< output load of the failed point [F]
  int attempts = 0;    ///< scalar attempts made (1 + retries)
  std::string stage;   ///< deepest recovery ladder stage reached
  std::string node;    ///< worst/offending unknown, when attributed
  std::string message; ///< the final thrown message
};

/// Engine effort summed over every transient a table's points came
/// from (lane batches, scalar points and escalated retries that
/// converged). The counts are deterministic — identical for every
/// thread count; phase_times is wall time and is not.
struct CharEngineStats {
  size_t steps = 0;                 ///< accepted time points (t = 0 included)
  size_t rejected_steps = 0;        ///< Newton and LTE rejections
  size_t newton_iterations = 0;     ///< transient Newton iterations
  size_t bypassed_evaluations = 0;  ///< device evaluations skipped by bypass
  SimPhaseTimes phase_times{};

  CharEngineStats& operator+=(const CharEngineStats& o);
};

/// The full table set of one (cell, corner): points in row-major
/// slews-major order (point index = si * loads.size() + li).
struct CharTable {
  ShifterKind kind = ShifterKind::Sstvs;
  CharCorner corner{};
  std::vector<double> slews;
  std::vector<double> loads;
  std::vector<CharPoint> points;
  ShifterMetrics static_metrics{};  ///< leakage / functional (scalar harness)
  double area_m2 = 0.0;
  bool inverting = true;

  /// Points that dropped out of a lane batch and were re-run through
  /// the scalar reference path.
  size_t scalar_fallbacks = 0;
  /// Points whose scalar run threw and needed an escalated-recovery
  /// retry (degrade-don't-abort); includes both recovered points and
  /// the ones that ended up in `failures`.
  size_t retried_points = 0;
  /// Grid points that failed every attempt: holes in the table
  /// (ok == false), annotated in the .lib output.
  std::vector<CharPointFailure> failures;
  CharEngineStats engine{};

  const CharPoint& at(size_t si, size_t li) const { return points[si * loads.size() + li]; }
};

struct CharRequest {
  std::vector<ShifterKind> kinds = {ShifterKind::Sstvs, ShifterKind::CombinedVs,
                                    ShifterKind::InverterOnly, ShifterKind::SsvsPuri};
  std::vector<CharCorner> corners;  ///< empty = standardCharCorners()
  CharGrid grid{};
  HarnessConfig base{};  ///< sizing / sim-option seed (supplies overridden per corner)

  /// Degrade-don't-abort retry budget per grid point: a point whose
  /// scalar run throws is retried this many times under
  /// escalatedRecoveryPolicy before being recorded as a
  /// CharPointFailure hole. 0 disables retries (a failing point holes
  /// immediately).
  int max_retries = 1;
  /// Cooperative cancellation / deadline, threaded into every solver
  /// loop of every unit (see base/job_control). unitDone() fires once
  /// per completed unit: lane batch or scalar point, static harness,
  /// escalated retry.
  std::shared_ptr<JobControl> job;
  /// Checkpoint/resume: when non-empty, the output of every completed
  /// lane batch / scalar point / static harness is recorded in this
  /// file, atomically rewritten after each one. An existing compatible
  /// file resumes with those units skipped; resumed farms produce
  /// bit-identical tables (and .lib text) to uninterrupted runs. An
  /// incompatible file throws.
  std::string checkpoint_path;
};

/// Resilience plumbing of a standalone characterizeCell call;
/// default-constructed = no job control, one retry.
struct CharCellControl {
  std::shared_ptr<JobControl> job;  ///< cancellation/deadline token
  int max_retries = 1;              ///< escalated retries per failing point
};

/// Characterize every (kind, corner) pair. Every lane batch (scalar
/// point when grid.use_lanes is false) and every task's static harness
/// is one unit of one flat dispatch over the VLS_THREADS pool; points
/// the engine drops then go through a second pass of escalated scalar
/// retries. Results are ordered kinds-major: result[k * corners + c],
/// bit-identical for every thread count.
std::vector<CharTable> characterizeCells(const CharRequest& request);

/// One (kind, corner) grid through the same units as characterizeCells,
/// so its table equals the farm's bit for bit; exposed for tests and
/// benches.
CharTable characterizeCell(ShifterKind kind, const CharCorner& corner, const CharGrid& grid,
                           const HarnessConfig& base, const CharCellControl& control = {});

}  // namespace vls
