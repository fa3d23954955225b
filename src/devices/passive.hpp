// Linear passive elements: resistor, capacitor, inductor.
#pragma once

#include <memory>
#include <vector>

#include "circuit/device.hpp"

namespace vls {

/// Per-lane charge history of a linear capacitor, plus an optional
/// per-lane capacitance override (*parameter* lanes: e.g. one output
/// load per characterization grid point). Lanes default to the
/// device's own C, so an ensemble without overrides stamps
/// bit-identically to the lane-invariant path.
struct CapacitorLaneState : DeviceLaneState {
  CapacitorLaneState(size_t n, double c) : q(n, 0.0), i(n, 0.0), cap(n, c) {}

  void setCapacitance(size_t lane, double c) { cap[lane] = c; }

  std::vector<double> q, i, cap;
};

/// Per-lane branch-current and voltage history of an inductor.
struct InductorLaneState : DeviceLaneState {
  explicit InductorLaneState(size_t n) : i_prev(n, 0.0), v_prev(n, 0.0) {}

  std::vector<double> i_prev, v_prev;
};

class Resistor : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double resistance);

  void stamp(Stamper& stamper, const EvalContext& ctx) override;
  void stampLanes(LaneStamper& stamper, const LaneContext& ctx,
                  DeviceLaneState* state) override;
  void collectNoiseSources(std::vector<NoiseSource>& sources,
                           const EvalContext& ctx) const override;
  size_t terminalCount() const override { return 2; }
  NodeId terminalNode(size_t t) const override { return t == 0 ? a_ : b_; }
  double terminalCurrent(size_t t, const EvalContext& ctx) const override;

  double resistance() const { return resistance_; }
  void setResistance(double r);

 private:
  NodeId a_;
  NodeId b_;
  double resistance_;
};

class Capacitor : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double capacitance, double initial_voltage = 0.0,
            bool use_ic = false);

  void stamp(Stamper& stamper, const EvalContext& ctx) override;
  void startTransient(const EvalContext& ctx) override;
  void acceptStep(const EvalContext& ctx) override;
  std::unique_ptr<DeviceLaneState> createLaneState(size_t lanes) const override;
  void stampLanes(LaneStamper& stamper, const LaneContext& ctx,
                  DeviceLaneState* state) override;
  void startTransientLanes(const LaneContext& ctx, DeviceLaneState* state) override;
  void acceptStepLanes(const LaneContext& ctx, DeviceLaneState* state) override;
  void stampReactive(ReactiveStamper& stamper, const EvalContext& ctx) override;
  size_t terminalCount() const override { return 2; }
  NodeId terminalNode(size_t t) const override { return t == 0 ? a_ : b_; }
  double terminalCurrent(size_t t, const EvalContext& ctx) const override;

  double capacitance() const { return capacitance_; }
  /// Replace the capacitance (characterization load sweeps). Only valid
  /// between simulations: the charge history is in C*V units.
  void setCapacitance(double c);

 private:
  NodeId a_;
  NodeId b_;
  double capacitance_;
  double initial_voltage_;
  bool use_ic_;
  ChargeHistory history_;
  ChargeCompanion last_companion_;
};

class Inductor : public Device {
 public:
  Inductor(std::string name, NodeId a, NodeId b, double inductance);

  size_t branchCount() const override { return 1; }
  void assignBranches(size_t first_index) override { branch_ = first_index; }
  void stamp(Stamper& stamper, const EvalContext& ctx) override;
  void startTransient(const EvalContext& ctx) override;
  void acceptStep(const EvalContext& ctx) override;
  std::unique_ptr<DeviceLaneState> createLaneState(size_t lanes) const override;
  void stampLanes(LaneStamper& stamper, const LaneContext& ctx,
                  DeviceLaneState* state) override;
  void startTransientLanes(const LaneContext& ctx, DeviceLaneState* state) override;
  void acceptStepLanes(const LaneContext& ctx, DeviceLaneState* state) override;
  void stampReactive(ReactiveStamper& stamper, const EvalContext& ctx) override;
  size_t terminalCount() const override { return 2; }
  NodeId terminalNode(size_t t) const override { return t == 0 ? a_ : b_; }
  double terminalCurrent(size_t t, const EvalContext& ctx) const override;

  double inductance() const { return inductance_; }

 private:
  NodeId a_;
  NodeId b_;
  double inductance_;
  size_t branch_ = 0;
  double i_prev_ = 0.0;
  double v_prev_ = 0.0;
};

}  // namespace vls
