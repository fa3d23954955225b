// Independent and controlled sources.
#pragma once

#include "circuit/device.hpp"
#include "devices/waveform.hpp"

namespace vls {

/// Per-lane waveform overrides of an independent source — *parameter*
/// lanes, as opposed to the Monte-Carlo *variation* lanes carried by
/// device geometry states: every lane excites the same topology with
/// its own drive waveform (e.g. one input-slew grid point per lane in
/// the characterization farm). Lanes without an override keep the
/// device's own waveform, so an ensemble with no overrides installed
/// stamps bit-identically to the lane-invariant path.
struct SourceLaneState : DeviceLaneState {
  explicit SourceLaneState(size_t n) : wave(n), has_override(n, 0) {}

  void setWaveform(size_t lane, Waveform w) {
    wave[lane] = std::move(w);
    has_override[lane] = 1;
    any_override = true;
  }

  std::vector<Waveform> wave;
  std::vector<uint8_t> has_override;
  bool any_override = false;
};

/// Independent voltage source (MNA branch element). Participates in
/// source-stepping homotopy: its value scales with ctx.source_scale.
class VoltageSource : public Device {
 public:
  VoltageSource(std::string name, NodeId plus, NodeId minus, Waveform waveform);
  VoltageSource(std::string name, NodeId plus, NodeId minus, double dc_value);

  size_t branchCount() const override { return 1; }
  void assignBranches(size_t first_index) override { branch_ = first_index; }
  void stamp(Stamper& stamper, const EvalContext& ctx) override;
  bool supportsLanes() const override { return true; }
  std::unique_ptr<DeviceLaneState> createLaneState(size_t lanes) const override;
  void stampLanes(LaneStamper& stamper, const LaneContext& ctx,
                  DeviceLaneState* state) override;
  size_t terminalCount() const override { return 2; }
  NodeId terminalNode(size_t t) const override { return t == 0 ? plus_ : minus_; }
  /// Current into the + terminal; -current() is the delivered current.
  double terminalCurrent(size_t t, const EvalContext& ctx) const override;
  void collectBreakpoints(double t_stop, std::vector<double>& times) const override;
  void collectLaneBreakpoints(double t_stop, const DeviceLaneState* state,
                              std::vector<double>& times) const override;

  const Waveform& waveform() const { return waveform_; }
  void setWaveform(Waveform w) { waveform_ = std::move(w); }
  size_t branchIndex() const { return branch_; }

  /// AC excitation magnitude [V] (0 = quiet supply in AC analysis).
  void setAcMagnitude(double mag) { ac_magnitude_ = mag; }
  double acMagnitude() const { return ac_magnitude_; }
  void stampAcSource(std::vector<double>& rhs_real) const override;

  /// Branch current (positive flows + -> - inside the source, i.e. the
  /// source is absorbing). Supply current delivered = -branchCurrent.
  double branchCurrent(const EvalContext& ctx) const { return ctx.branch(branch_); }

 private:
  NodeId plus_;
  NodeId minus_;
  Waveform waveform_;
  size_t branch_ = 0;
  double ac_magnitude_ = 0.0;
};

/// Independent current source; current flows from + through the source
/// to - (i.e. injected into the - node).
class CurrentSource : public Device {
 public:
  CurrentSource(std::string name, NodeId plus, NodeId minus, Waveform waveform);
  CurrentSource(std::string name, NodeId plus, NodeId minus, double dc_value);

  void stamp(Stamper& stamper, const EvalContext& ctx) override;
  bool supportsLanes() const override { return true; }
  std::unique_ptr<DeviceLaneState> createLaneState(size_t lanes) const override;
  void stampLanes(LaneStamper& stamper, const LaneContext& ctx,
                  DeviceLaneState* state) override;
  size_t terminalCount() const override { return 2; }
  NodeId terminalNode(size_t t) const override { return t == 0 ? plus_ : minus_; }
  double terminalCurrent(size_t t, const EvalContext& ctx) const override;
  void collectBreakpoints(double t_stop, std::vector<double>& times) const override;
  void collectLaneBreakpoints(double t_stop, const DeviceLaneState* state,
                              std::vector<double>& times) const override;

  const Waveform& waveform() const { return waveform_; }

 private:
  NodeId plus_;
  NodeId minus_;
  Waveform waveform_;
};

/// Voltage-controlled voltage source: v(p,m) = gain * v(cp,cm).
class Vcvs : public Device {
 public:
  Vcvs(std::string name, NodeId plus, NodeId minus, NodeId ctrl_plus, NodeId ctrl_minus,
       double gain);

  size_t branchCount() const override { return 1; }
  void assignBranches(size_t first_index) override { branch_ = first_index; }
  void stamp(Stamper& stamper, const EvalContext& ctx) override;
  size_t terminalCount() const override { return 4; }
  NodeId terminalNode(size_t t) const override;
  double terminalCurrent(size_t t, const EvalContext& ctx) const override;

 private:
  NodeId plus_;
  NodeId minus_;
  NodeId cp_;
  NodeId cm_;
  double gain_;
  size_t branch_ = 0;
};

/// Voltage-controlled current source: i(p->m) = gm * v(cp,cm).
class Vccs : public Device {
 public:
  Vccs(std::string name, NodeId plus, NodeId minus, NodeId ctrl_plus, NodeId ctrl_minus, double gm);

  void stamp(Stamper& stamper, const EvalContext& ctx) override;
  size_t terminalCount() const override { return 4; }
  NodeId terminalNode(size_t t) const override;
  double terminalCurrent(size_t t, const EvalContext& ctx) const override;

 private:
  NodeId plus_;
  NodeId minus_;
  NodeId cp_;
  NodeId cm_;
  double gm_;
};

}  // namespace vls
