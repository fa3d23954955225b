#include "devices/sources.hpp"

#include "circuit/ensemble_assembly.hpp"
#include "circuit/mna.hpp"
#include "numeric/lanes.hpp"

namespace vls {

VoltageSource::VoltageSource(std::string name, NodeId plus, NodeId minus, Waveform waveform)
    : Device(std::move(name)), plus_(plus), minus_(minus), waveform_(std::move(waveform)) {}

VoltageSource::VoltageSource(std::string name, NodeId plus, NodeId minus, double dc_value)
    : VoltageSource(std::move(name), plus, minus, Waveform::dc(dc_value)) {}

void VoltageSource::stamp(Stamper& stamper, const EvalContext& ctx) {
  const double v = waveform_.at(ctx.time) * ctx.source_scale;
  stamper.voltageBranch(branch_, plus_, minus_, v);
}

std::unique_ptr<DeviceLaneState> VoltageSource::createLaneState(size_t lanes) const {
  return std::make_unique<SourceLaneState>(lanes);
}

void VoltageSource::stampLanes(LaneStamper& stamper, const LaneContext& ctx,
                               DeviceLaneState* state) {
  const auto* st = static_cast<const SourceLaneState*>(state);
  if (st == nullptr || !st->any_override) {
    // No parameter lanes installed: the same drive waveform excites
    // every variant (the Monte-Carlo case).
    const double v = waveform_.at(ctx.time) * ctx.source_scale;
    stamper.voltageBranchUniform(branch_, plus_, minus_, v);
    return;
  }
  double v[kMaxLanes];
  for (size_t l = 0; l < ctx.lanes; ++l) {
    const Waveform& w = st->has_override[l] ? st->wave[l] : waveform_;
    v[l] = w.at(ctx.time) * ctx.source_scale;
  }
  stamper.voltageBranch(branch_, plus_, minus_, v);
}

double VoltageSource::terminalCurrent(size_t t, const EvalContext& ctx) const {
  const double i = ctx.branch(branch_);
  return t == 0 ? i : -i;
}

void VoltageSource::collectBreakpoints(double t_stop, std::vector<double>& times) const {
  waveform_.collectBreakpoints(t_stop, times);
}

void VoltageSource::collectLaneBreakpoints(double t_stop, const DeviceLaneState* state,
                                           std::vector<double>& times) const {
  const auto* st = static_cast<const SourceLaneState*>(state);
  if (st == nullptr || !st->any_override) {
    collectBreakpoints(t_stop, times);
    return;
  }
  for (size_t l = 0; l < st->wave.size(); ++l) {
    (st->has_override[l] ? st->wave[l] : waveform_).collectBreakpoints(t_stop, times);
  }
}

void VoltageSource::stampAcSource(std::vector<double>& rhs_real) const {
  if (ac_magnitude_ != 0.0) rhs_real[branch_] += ac_magnitude_;
}

CurrentSource::CurrentSource(std::string name, NodeId plus, NodeId minus, Waveform waveform)
    : Device(std::move(name)), plus_(plus), minus_(minus), waveform_(std::move(waveform)) {}

CurrentSource::CurrentSource(std::string name, NodeId plus, NodeId minus, double dc_value)
    : CurrentSource(std::move(name), plus, minus, Waveform::dc(dc_value)) {}

void CurrentSource::stamp(Stamper& stamper, const EvalContext& ctx) {
  stamper.currentSource(plus_, minus_, waveform_.at(ctx.time) * ctx.source_scale);
}

std::unique_ptr<DeviceLaneState> CurrentSource::createLaneState(size_t lanes) const {
  return std::make_unique<SourceLaneState>(lanes);
}

void CurrentSource::stampLanes(LaneStamper& stamper, const LaneContext& ctx,
                               DeviceLaneState* state) {
  const auto* st = static_cast<const SourceLaneState*>(state);
  if (st == nullptr || !st->any_override) {
    stamper.currentSourceUniform(plus_, minus_, waveform_.at(ctx.time) * ctx.source_scale);
    return;
  }
  double i[kMaxLanes];
  for (size_t l = 0; l < ctx.lanes; ++l) {
    const Waveform& w = st->has_override[l] ? st->wave[l] : waveform_;
    i[l] = w.at(ctx.time) * ctx.source_scale;
  }
  stamper.currentSource(plus_, minus_, i);
}

double CurrentSource::terminalCurrent(size_t t, const EvalContext& ctx) const {
  const double i = waveform_.at(ctx.time) * ctx.source_scale;
  return t == 0 ? i : -i;
}

void CurrentSource::collectBreakpoints(double t_stop, std::vector<double>& times) const {
  waveform_.collectBreakpoints(t_stop, times);
}

void CurrentSource::collectLaneBreakpoints(double t_stop, const DeviceLaneState* state,
                                           std::vector<double>& times) const {
  const auto* st = static_cast<const SourceLaneState*>(state);
  if (st == nullptr || !st->any_override) {
    collectBreakpoints(t_stop, times);
    return;
  }
  for (size_t l = 0; l < st->wave.size(); ++l) {
    (st->has_override[l] ? st->wave[l] : waveform_).collectBreakpoints(t_stop, times);
  }
}

Vcvs::Vcvs(std::string name, NodeId plus, NodeId minus, NodeId ctrl_plus, NodeId ctrl_minus,
           double gain)
    : Device(std::move(name)), plus_(plus), minus_(minus), cp_(ctrl_plus), cm_(ctrl_minus),
      gain_(gain) {}

void Vcvs::stamp(Stamper& stamper, const EvalContext&) {
  // Branch row: v(p) - v(m) - gain*(v(cp) - v(cm)) = 0.
  stamper.voltageBranch(branch_, plus_, minus_, 0.0);
  const int row = static_cast<int>(branch_);
  const int icp = stamper.nodeIndex(cp_);
  const int icm = stamper.nodeIndex(cm_);
  if (icp >= 0) stamper.addMatrix(row, icp, -gain_);
  if (icm >= 0) stamper.addMatrix(row, icm, gain_);
}

NodeId Vcvs::terminalNode(size_t t) const {
  switch (t) {
    case 0: return plus_;
    case 1: return minus_;
    case 2: return cp_;
    default: return cm_;
  }
}

double Vcvs::terminalCurrent(size_t t, const EvalContext& ctx) const {
  if (t == 0) return ctx.branch(branch_);
  if (t == 1) return -ctx.branch(branch_);
  return 0.0;
}

Vccs::Vccs(std::string name, NodeId plus, NodeId minus, NodeId ctrl_plus, NodeId ctrl_minus,
           double gm)
    : Device(std::move(name)), plus_(plus), minus_(minus), cp_(ctrl_plus), cm_(ctrl_minus),
      gm_(gm) {}

void Vccs::stamp(Stamper& stamper, const EvalContext&) {
  stamper.transconductance(plus_, minus_, cp_, cm_, gm_);
}

NodeId Vccs::terminalNode(size_t t) const {
  switch (t) {
    case 0: return plus_;
    case 1: return minus_;
    case 2: return cp_;
    default: return cm_;
  }
}

double Vccs::terminalCurrent(size_t t, const EvalContext& ctx) const {
  const double i = gm_ * (ctx.v(cp_) - ctx.v(cm_));
  if (t == 0) return i;
  if (t == 1) return -i;
  return 0.0;
}

}  // namespace vls
