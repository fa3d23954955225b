// Device abstraction. Each device knows how to linearize itself around a
// candidate solution and stamp the companion (conductance + current
// source) into the MNA system. Reactive devices keep their own
// integration state (previous charge / current) which the transient
// engine commits via acceptStep().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/node.hpp"

namespace vls {

class Stamper;
class ReactiveStamper;
class LaneStamper;

/// One physical noise generator: a current source a -> b with the given
/// one-sided PSD [A^2/Hz] as a function of frequency. Devices register
/// these during noise analysis (see Device::collectNoiseSources).
struct NoiseSource {
  std::string label;  ///< "r1.thermal", "m1.flicker", ...
  NodeId a = kGround;
  NodeId b = kGround;
  std::function<double(double freq)> psd;
};

/// Numerical integration scheme for charge storage elements.
enum class IntegrationMethod { None, BackwardEuler, Trapezoidal };

/// Everything a device needs to evaluate itself at a candidate solution.
struct EvalContext {
  std::span<const double> x;  ///< candidate unknowns (node voltages then branch currents)
  double time = 0.0;          ///< simulation time [s]
  double dt = 0.0;            ///< current timestep [s]; 0 in DC analyses
  IntegrationMethod method = IntegrationMethod::None;
  double temperature = 300.15;  ///< device temperature [K]
  double source_scale = 1.0;    ///< homotopy scale for source stepping (0..1)
  double gmin = 1e-12;          ///< minimum conductance for convergence aid

  /// Voltage of node n (0 for ground).
  double v(NodeId n) const { return isGround(n) ? 0.0 : x[static_cast<size_t>(n)]; }
  /// Value of branch unknown b (absolute index into x).
  double branch(size_t b) const { return x[b]; }
};

/// State carried across timesteps by one charge-storage element.
struct ChargeHistory {
  double q = 0.0;  ///< charge at last accepted step
  double i = 0.0;  ///< capacitive current at last accepted step
};

/// Companion model of dQ/dt for the active integration method:
/// i(v) = geq * v + (ieq evaluated at the linearization point).
struct ChargeCompanion {
  double geq = 0.0;     ///< equivalent conductance dI/dV
  double i_now = 0.0;   ///< capacitive current at the candidate point
};

/// Linearized capacitive current for candidate charge `q` with local
/// capacitance `c` = dq/dv, given the element history.
ChargeCompanion integrateCharge(IntegrationMethod method, double dt, double q, double c,
                                const ChargeHistory& history);

/// Evaluation context for the ensemble (lane-batched) engine: K
/// Monte-Carlo variants of one topology advance in lockstep, with every
/// unknown stored structure-of-arrays as x[i * lanes + lane].
struct LaneContext {
  std::span<const double> x;         ///< SoA unknowns, size() * lanes doubles
  const double* zero = nullptr;      ///< shared double[lanes] of zeros (ground voltages)
  size_t lanes = 1;
  double time = 0.0;
  double dt = 0.0;
  IntegrationMethod method = IntegrationMethod::None;
  double temperature = 300.15;      ///< device temperature [K]
  double source_scale = 1.0;        ///< homotopy scale for source stepping (0..1)
  double gmin = 1e-12;

  /// Contiguous double[lanes] run of node n's candidate voltages.
  const double* v(NodeId n) const {
    return isGround(n) ? zero : &x[static_cast<size_t>(n) * lanes];
  }
  /// Contiguous double[lanes] run of branch unknown b (absolute index).
  const double* branch(size_t b) const { return &x[b * lanes]; }
};

/// Opaque per-device ensemble state: per-lane geometry overrides,
/// cached operating points, and charge histories. Created by the device
/// (createLaneState), owned by the EnsembleSimulator, and passed back
/// into every lane-wise call — the device object itself stays untouched
/// so the scalar reference path is never perturbed by ensemble runs.
struct DeviceLaneState {
  virtual ~DeviceLaneState() = default;
  /// Lanes of model evaluation run on this state: ctx.lanes per
  /// stampLanes and acceptStepLanes call. Only the MOSFET lane kernel
  /// counts; other devices leave it 0.
  size_t lane_evaluations = 0;
};

/// Base class of all circuit elements.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Number of extra MNA branch unknowns this device needs (voltage
  /// sources and inductors carry their current as an unknown).
  virtual size_t branchCount() const { return 0; }
  /// Called once by the simulator with the absolute index of the first
  /// branch unknown allocated to this device.
  virtual void assignBranches(size_t first_index) { (void)first_index; }

  /// Linearize at ctx.x and stamp the companion into the system.
  virtual void stamp(Stamper& stamper, const EvalContext& ctx) = 0;

  /// Whether stamp() may be bypassed — its last recorded values
  /// replayed without re-evaluating the model — when the terminal
  /// voltages are unchanged since the last linearization. Only safe
  /// for devices whose stamps depend solely on terminal voltages,
  /// temperature, and per-timestep state that is constant within one
  /// Newton solve (charge histories, dt). Time-dependent sources and
  /// externally tunable elements must return false.
  virtual bool supportsBypass() const { return false; }

  // --- device-batched evaluation (parallel sharded assembly) ---------
  /// Devices returning the same non-null key (e.g. the shared model
  /// card) may be linearized together, K at a time, through
  /// stampDeviceBatch — the sharded assembler groups same-key devices
  /// within a shard. Null (the default) means scalar stamp() only.
  virtual const void* deviceBatchKey() const { return nullptr; }

  /// Evaluate a batch of same-key devices (`this` is devs.front()) at
  /// ctx and emit every device's stamp sequence through `stamper`,
  /// which is consuming a recorded tape: implementations must
  /// stamper.seek(op_begin[i]) before device i's stamps and leave the
  /// cursor exactly at op_end[i] — a mismatch means the stamp sequence
  /// changed without a topology revision bump and must throw. The base
  /// implementation evaluates each device through scalar stamp();
  /// devices with SoA lane kernels override it to evaluate the whole
  /// batch per model-card pass. Must produce identical values for
  /// every batch width (elementwise math only).
  virtual void stampDeviceBatch(std::span<Device* const> devs, std::span<const uint32_t> op_begin,
                                std::span<const uint32_t> op_end, Stamper& stamper,
                                const EvalContext& ctx);

  /// Initialize integration state from a converged DC solution (called
  /// once when a transient starts).
  virtual void startTransient(const EvalContext& ctx) { (void)ctx; }

  /// Commit integration state after an accepted timestep.
  virtual void acceptStep(const EvalContext& ctx) { (void)ctx; }

  // --- ensemble (lane-batched) evaluation ----------------------------
  // Every device of the library evaluates K lanes through this API —
  // there is no per-lane scalar fallback. The ensemble engine calls
  // createLaneState once per run, stampLanes per Newton iteration and
  // startTransientLanes / acceptStepLanes around every accepted step.

  /// Allocate per-lane state for an ensemble of the given width; null
  /// for devices whose lane stamps carry no state (resistor, VCVS, ...).
  virtual std::unique_ptr<DeviceLaneState> createLaneState(size_t lanes) const {
    (void)lanes;
    return nullptr;
  }

  /// Linearize all lanes at ctx.x and stamp companion models for every
  /// lane through `stamper`, in the same op sequence for every call of
  /// one analysis mode (the lane tape replays it). `state` is what
  /// createLaneState returned. The base implementation throws: a device
  /// without a lane evaluation runs through the scalar Simulator only.
  virtual void stampLanes(LaneStamper& stamper, const LaneContext& ctx, DeviceLaneState* state);

  /// Lane-wise analogue of startTransient / acceptStep, operating purely
  /// on `state`.
  virtual void startTransientLanes(const LaneContext& ctx, DeviceLaneState* state) {
    (void)ctx;
    (void)state;
  }
  virtual void acceptStepLanes(const LaneContext& ctx, DeviceLaneState* state) {
    (void)ctx;
    (void)state;
  }

  /// Lane-aware breakpoint collection: devices whose lane state carries
  /// per-lane waveforms (parameter lanes) append the union of every
  /// lane's corner times, so the lockstep transient never steps over
  /// any lane's input edge. Defaults to the scalar breakpoints.
  virtual void collectLaneBreakpoints(double t_stop, const DeviceLaneState* state,
                                      std::vector<double>& times) const {
    (void)state;
    collectBreakpoints(t_stop, times);
  }

  /// Terminals (for netlist export and current probes).
  virtual size_t terminalCount() const = 0;
  virtual NodeId terminalNode(size_t t) const = 0;

  /// Current flowing *into* terminal t at the given solution, amperes.
  /// Devices that cannot report (ideal elements without branch vars)
  /// return 0; all physical devices implement this.
  virtual double terminalCurrent(size_t t, const EvalContext& ctx) const {
    (void)t;
    (void)ctx;
    return 0.0;
  }

  /// Hard timepoints this device requires the transient engine to hit
  /// (e.g. PWL/PULSE corners). Appends to `times`.
  virtual void collectBreakpoints(double t_stop, std::vector<double>& times) const {
    (void)t_stop;
    (void)times;
  }

  /// AC analysis: contribute small-signal capacitances (evaluated at
  /// the operating point in ctx) to the imaginary part of the system.
  /// The conductive part reuses stamp() — the Newton Jacobian IS the
  /// small-signal conductance matrix.
  virtual void stampReactive(ReactiveStamper& stamper, const EvalContext& ctx) {
    (void)stamper;
    (void)ctx;
  }

  /// AC analysis: contribute the independent AC excitation (magnitude
  /// into the real RHS; sources default to zero AC).
  virtual void stampAcSource(std::vector<double>& rhs_real) const { (void)rhs_real; }

  /// Noise analysis: register physical noise generators evaluated at
  /// the operating point in ctx. Defaults to noiseless.
  virtual void collectNoiseSources(std::vector<NoiseSource>& sources,
                                   const EvalContext& ctx) const {
    (void)sources;
    (void)ctx;
  }

 private:
  std::string name_;
};

}  // namespace vls
