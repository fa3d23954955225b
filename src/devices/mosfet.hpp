// Four-terminal MOSFET circuit element: EKV DC core (exact Jacobian via
// forward-mode AD), smooth Meyer gate capacitances with incremental
// charge integration, junction diodes with depletion capacitance, and
// optional gate leakage.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "circuit/device.hpp"
#include "devices/mos_model.hpp"

namespace vls {

/// Per-lane ensemble state of one Mosfet: per-sample geometry
/// overrides, lazily resolved per-lane derived quantities, and the
/// Meyer/junction charge histories. Public so the Monte-Carlo driver
/// can install per-sample geometry before an ensemble run; the Mosfet
/// object itself is never mutated by ensemble evaluation.
struct MosfetLaneState : DeviceLaneState {
  MosfetLaneState(const MosGeometry& base, size_t lane_count);

  void setGeometry(size_t lane, const MosGeometry& g) {
    geom[lane] = g;
    derived_valid = false;
  }

  size_t lanes;
  std::vector<MosGeometry> geom;

  // Derived per-lane quantities (resolved on first stamp per temperature).
  bool derived_valid = false;
  double temperature = -1.0;
  std::vector<double> vt, beta;          // core variation (SoA)
  std::vector<double> w_eff, l_eff;      // caps / gate leakage
  std::vector<double> l_gate;            // drawn gate length (gate leakage)
  std::vector<double> jarea[2];          // [drain, source] junction areas [m^2]
  std::vector<double> jc0[2];            // [drain, source] junction cap prefactors [F]

  struct CapLanes {
    std::vector<double> q, i, v_prev;
    explicit CapLanes(size_t n) : q(n, 0.0), i(n, 0.0), v_prev(n, 0.0) {}
  };
  CapLanes cap_gs, cap_gd, cap_gb, cap_bd, cap_bs;
};

class Mosfet : public Device {
 public:
  /// Terminal order follows SPICE: drain, gate, source, bulk.
  Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source, NodeId bulk,
         std::shared_ptr<const MosModelCard> card, MosGeometry geometry);

  void stamp(Stamper& stamper, const EvalContext& ctx) override;
  bool supportsBypass() const override { return true; }
  /// Same-card MOSFETs batch together: the card fixes polarity and all
  /// model parameters, so one SoA lane-kernel pass covers the batch.
  const void* deviceBatchKey() const override { return card_.get(); }
  void stampDeviceBatch(std::span<Device* const> devs, std::span<const uint32_t> op_begin,
                        std::span<const uint32_t> op_end, Stamper& stamper,
                        const EvalContext& ctx) override;
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

  size_t terminalCount() const override { return 4; }
  NodeId terminalNode(size_t t) const override { return nodes_[t]; }
  /// DC (channel + junction + gate-leak) current into terminal t.
  /// Capacitive displacement currents are excluded.
  double terminalCurrent(size_t t, const EvalContext& ctx) const override;

  const MosModelCard& model() const { return *card_; }
  const MosGeometry& geometry() const { return geometry_; }
  /// Mutable geometry access invalidates the cached derived quantities
  /// (operating point, junction areas/capacitance prefactors).
  MosGeometry& geometry() {
    invalidateDerived();
    return geometry_;
  }
  /// Replace instance geometry (Monte-Carlo perturbations).
  void setGeometry(const MosGeometry& g) {
    geometry_ = g;
    invalidateDerived();
  }

  /// Drain current (positive = conventional current into the drain for
  /// NMOS in normal operation) at the given solution.
  double drainCurrent(const EvalContext& ctx) const;

 private:
  struct DcEval {
    double ids;  // current d -> s (device polarity applied)
    double g_g, g_d, g_s, g_b;
  };
  DcEval evalDc(const EvalContext& ctx) const;

  struct CapState {
    ChargeHistory hist;
    double v_prev = 0.0;
  };

  // Meyer capacitance values at the given terminal voltages.
  struct MeyerCaps {
    double cgs, cgd, cgb;
  };
  MeyerCaps meyerCaps(const EvalContext& ctx) const;
  double junctionArea(bool drain) const;
  /// Zero-bias junction capacitance prefactor (area + sidewall terms).
  double junctionC0(bool drain) const;
  double junctionCap(double v_anode_cathode, double c0) const;

  /// Temperature/geometry-derived operating point, memoized so it is
  /// resolved once per analysis instead of several times per stamp.
  const MosOperating& operating(double temperature) const;
  void invalidateDerived() {
    op_temperature_ = -1.0;
    junction_area_[0] = junction_area_[1] = -1.0;
    junction_c0_[0] = junction_c0_[1] = -1.0;
  }

  void stampCap(Stamper& stamper, const EvalContext& ctx, NodeId a, NodeId b, double c,
                CapState& state);
  void acceptCap(const EvalContext& ctx, NodeId a, NodeId b, double c, CapState& state);

  /// Resolves the per-lane operating points and junction terms of `s`
  /// (once per geometry install and temperature).
  void resolveLaneDerived(MosfetLaneState& s, double temperature) const;

  std::array<NodeId, 4> nodes_;  // d, g, s, b
  std::shared_ptr<const MosModelCard> card_;
  MosGeometry geometry_;

  // Charge histories: gs, gd, gb, bd, bs.
  CapState cap_gs_, cap_gd_, cap_gb_, cap_bd_, cap_bs_;

  // Memoized derived quantities (-1 = unresolved). Temperatures are in
  // kelvin (always positive), areas/prefactors strictly positive.
  mutable MosOperating op_cache_{};
  mutable double op_temperature_ = -1.0;
  mutable double junction_area_[2] = {-1.0, -1.0};  // [drain, source]
  mutable double junction_c0_[2] = {-1.0, -1.0};
};

}  // namespace vls
