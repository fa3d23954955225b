// Standalone junction diode (exponential DC + depletion capacitance).
#pragma once

#include <memory>

#include "circuit/device.hpp"

namespace vls {

struct DiodeParams {
  double i_sat = 1e-14;   ///< saturation current [A]
  double n_ideal = 1.0;   ///< ideality factor
  double cj0 = 0.0;       ///< zero-bias junction capacitance [F]
  double pb = 0.8;        ///< built-in potential [V]
  double mj = 0.5;        ///< grading coefficient
  double r_series = 0.0;  ///< series resistance folded into the stamp via gmin-safe limit
};

class Diode : public Device {
 public:
  Diode(std::string name, NodeId anode, NodeId cathode, DiodeParams params);

  void stamp(Stamper& stamper, const EvalContext& ctx) override;
  bool supportsBypass() const override { return true; }
  void startTransient(const EvalContext& ctx) override;
  void acceptStep(const EvalContext& ctx) override;
  std::unique_ptr<DeviceLaneState> createLaneState(size_t lanes) const override;
  void stampLanes(LaneStamper& stamper, const LaneContext& ctx,
                  DeviceLaneState* state) override;
  void startTransientLanes(const LaneContext& ctx, DeviceLaneState* state) override;
  void acceptStepLanes(const LaneContext& ctx, DeviceLaneState* state) override;
  void stampReactive(ReactiveStamper& stamper, const EvalContext& ctx) override;
  void collectNoiseSources(std::vector<NoiseSource>& sources,
                           const EvalContext& ctx) const override;
  size_t terminalCount() const override { return 2; }
  NodeId terminalNode(size_t t) const override { return t == 0 ? anode_ : cathode_; }
  double terminalCurrent(size_t t, const EvalContext& ctx) const override;

 private:
  double capAt(double v) const;

  NodeId anode_;
  NodeId cathode_;
  DiodeParams params_;
  ChargeHistory cap_hist_;
  double v_prev_ = 0.0;
};

}  // namespace vls
