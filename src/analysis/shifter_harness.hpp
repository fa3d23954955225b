// Level-shifter characterization testbench, mirroring the paper's
// experimental setup: the DUT is driven through a same-sized inverter
// from the VDDI domain, loaded with a fixed 1 fF capacitor, and
// characterized for rising/falling delay, rising/falling switching
// power, and leakage with the output high and low. All DUTs here are
// inverting (the paper's comparison baseline has the same property).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cells/level_shifters.hpp"
#include "cells/related_work.hpp"
#include "cells/sstvs.hpp"
#include "circuit/circuit.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "sim/ensemble.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"

namespace vls {

class CheckpointReader;
class CheckpointWriter;

enum class ShifterKind {
  Sstvs,        ///< the paper's cell
  CombinedVs,   ///< Figure 6 baseline (inverter + Khan SS-VS + steering)
  InverterOnly, ///< bare inverter (best cell when VDDI > VDDO)
  SsvsKhan,     ///< bare Khan [6] SS-VS (valid VDDI < VDDO only)
  SsvsPuri,     ///< Puri et al. [13] diode-rail shifter (related work)
  Bootstrap,    ///< Tan & Sun [9]-style bootstrapped shifter (related work)
};

const char* shifterKindName(ShifterKind kind);

/// Whether the DUT inverts (most do; [13]'s two-stage version does not).
bool shifterKindInverting(ShifterKind kind);

struct HarnessConfig {
  ShifterKind kind = ShifterKind::Sstvs;
  double vddi = 0.8;
  double vddo = 1.2;
  double temperature_c = 27.0;
  double load_cap = 1e-15;

  /// Drive the DUT input node directly from the PWL source instead of
  /// through the restoring driver inverter. The characterization farm
  /// uses this so the input slew of a grid point is exactly the PWL
  /// edge time, not the driver's (load-dependent) output slope.
  bool direct_drive = false;

  /// Input stimulus: logic levels of the DUT input node per bit slot.
  /// Sequences start with 1 so the t=0 operating point is the unique,
  /// well-conditioned in=1 state (the SS-TVS latch is bistable at in=0
  /// before its ctrl node has ever been charged — same as real silicon
  /// at power-up, resolved by the first input pulse).
  std::vector<int> bits = {1, 0, 1, 0};
  double bit_period = 1e-9;
  double edge_time = 20e-12;
  /// Hold time for each static leakage state appended after the bits.
  double leak_settle = 2e-9;
  /// Leakage averaging window (fraction of leak_settle, taken at the end).
  double leak_window_frac = 0.25;

  SstvsSizing sstvs{};
  CombinedVsSizing combined{};
  SsvsKhanSizing ssvs{};
  InverterSizing inverter{};
  SsvsPuriSizing puri{};
  BootstrapSizing bootstrap{};

  SimOptions sim{};
  double dt_max = 50e-12;
};

struct ShifterMetrics {
  double delay_rise = 0.0;    ///< worst rising-output delay [s]
  double delay_fall = 0.0;    ///< worst falling-output delay [s]
  double power_rise = 0.0;    ///< mean VDDO power around rising-output edges [W]
  double power_fall = 0.0;    ///< mean VDDO power around falling-output edges [W]
  double leakage_high = 0.0;  ///< VDDO leakage, output high [A]
  double leakage_low = 0.0;   ///< VDDO leakage, output low [A]
  double leakage_high_vddi = 0.0;  ///< input-domain leakage share [A]
  double leakage_low_vddi = 0.0;
  bool functional = false;    ///< output reached both rails correctly
};

/// Checkpoint codec of one ShifterMetrics record (raw IEEE-754 bits, so
/// a resumed run reproduces the uninterrupted one bit for bit).
void writeShifterMetrics(CheckpointWriter& w, const ShifterMetrics& m);
ShifterMetrics readShifterMetrics(CheckpointReader& r);

/// One lane's outcome of an ensemble measurement. `ok` is false when
/// the lane dropped out of the lockstep run (Newton / pivot / timestep
/// failure); such samples must be re-run through the scalar path.
/// `failure` carries the lane's drop-out attribution (stage, reason,
/// implicated node) when one was recorded.
struct EnsembleSample {
  ShifterMetrics metrics{};
  bool ok = false;
  LaneFailure failure{};
};

/// Builds the full testbench circuit for one configuration. The
/// transistor list of the DUT is exposed for Monte-Carlo perturbation;
/// call measure() after any perturbation.
class ShifterTestbench {
 public:
  explicit ShifterTestbench(HarnessConfig config);

  ShifterTestbench(const ShifterTestbench&) = delete;
  ShifterTestbench& operator=(const ShifterTestbench&) = delete;

  /// DUT transistors (driver and supplies excluded).
  const MosList& dutFets() const { return dut_fets_; }
  MosList& dutFets() { return dut_fets_; }

  /// Run the transient and extract all metrics.
  ShifterMetrics measure();

  /// Lockstep ensemble measurement: one EnsembleSimulator run covering
  /// lane_geoms.size() Monte-Carlo variants of this testbench.
  /// lane_geoms[lane][f] is the geometry of dutFets()[f] in that lane.
  /// The scalar measure() path is untouched — this never perturbs the
  /// Mosfet objects themselves.
  std::vector<EnsembleSample> measureEnsemble(
      const std::vector<std::vector<MosGeometry>>& lane_geoms);

  /// The transient of the last measure() call (waveform export).
  const TransientResult& lastRun() const;

  Circuit& circuit() { return circuit_; }
  const HarnessConfig& config() const { return config_; }

  /// Names of the DUT-internal probe nodes (for the Fig. 5 bench).
  std::vector<std::string> probeNodes() const;

  // --- characterization-farm hooks -----------------------------------
  /// The configured input stimulus rebuilt with a different edge time:
  /// same bit sequence, periods and leak phases, only the ramps change.
  /// The farm installs one of these per lane (SourceLaneState) to sweep
  /// input slew across an ensemble.
  Waveform stimulusWaveform(double edge_time) const;

  VoltageSource* vinSource() { return vin_src_; }
  VoltageSource* vddoSource() { return vddo_src_; }
  VoltageSource* vddiSource() { return vddi_src_; }
  Capacitor* loadCapacitor() { return load_cap_; }
  double tBitsEnd() const { return t_bits_end_; }
  double tStop() const { return t_stop_; }
  bool inverting() const { return inverting_; }

 private:
  void build();

  /// Shared metric extraction for the scalar and ensemble paths:
  /// delays/powers/functionality from the run's waveforms, leakage from
  /// `solve_op_at(t_probe, warm_start)` — a warm-started DC solve in
  /// the scalar path, a gather from the ensemble's batched leak solves
  /// in the lane path.
  using LeakSolver =
      std::function<std::vector<double>(double t_probe, const std::vector<double>& x0)>;
  ShifterMetrics extractMetrics(const TransientResult& run, const LeakSolver& solve_op_at) const;

  HarnessConfig config_;
  Circuit circuit_;
  MosList dut_fets_;
  VoltageSource* vddo_src_ = nullptr;
  VoltageSource* vddi_src_ = nullptr;
  VoltageSource* vin_src_ = nullptr;
  Capacitor* load_cap_ = nullptr;
  std::vector<std::string> probe_nodes_;
  bool inverting_ = true;
  std::unique_ptr<TransientResult> last_run_;
  double t_bits_end_ = 0.0;
  double t_leak_high_start_ = 0.0;
  double t_leak_low_start_ = 0.0;
  double t_stop_ = 0.0;
};

/// Characterize one configuration with its given stimulus.
ShifterMetrics measureShifter(const HarnessConfig& config);

/// The paper reports worst-case delays over input sequences (the ctrl
/// node voltage at the falling input edge depends on history). Runs a
/// canned set of adversarial sequences (long high, double high, fast
/// toggling, short runt pulse) and returns per-metric worst cases. The
/// sequences run as parallel units; one that throws on its first
/// attempt and its escalated retry fails the call with that exception.
ShifterMetrics measureShifterWorstCase(const HarnessConfig& config);

}  // namespace vls
