#include "devices/passive.hpp"

#include "base/error.hpp"
#include "base/units.hpp"
#include "circuit/ensemble_assembly.hpp"
#include "circuit/mna.hpp"
#include "numeric/lanes.hpp"

namespace vls {

Resistor::Resistor(std::string name, NodeId a, NodeId b, double resistance)
    : Device(std::move(name)), a_(a), b_(b), resistance_(resistance) {
  if (resistance <= 0.0) throw InvalidInputError("Resistor " + this->name() + ": R must be > 0");
}

void Resistor::setResistance(double r) {
  if (r <= 0.0) throw InvalidInputError("Resistor " + name() + ": R must be > 0");
  resistance_ = r;
}

void Resistor::stamp(Stamper& stamper, const EvalContext&) {
  stamper.conductance(a_, b_, 1.0 / resistance_);
}

void Resistor::stampLanes(LaneStamper& stamper, const LaneContext&, DeviceLaneState*) {
  stamper.conductanceUniform(a_, b_, 1.0 / resistance_);
}

double Resistor::terminalCurrent(size_t t, const EvalContext& ctx) const {
  const double i = (ctx.v(a_) - ctx.v(b_)) / resistance_;
  return t == 0 ? i : -i;
}

void Resistor::collectNoiseSources(std::vector<NoiseSource>& sources,
                                   const EvalContext& ctx) const {
  // Johnson-Nyquist: S_i = 4kT/R [A^2/Hz], white.
  const double psd = 4.0 * kBoltzmann * ctx.temperature / resistance_;
  sources.push_back({name() + ".thermal", a_, b_, [psd](double) { return psd; }});
}

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double capacitance,
                     double initial_voltage, bool use_ic)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      capacitance_(capacitance),
      initial_voltage_(initial_voltage),
      use_ic_(use_ic) {
  if (capacitance <= 0.0) throw InvalidInputError("Capacitor " + this->name() + ": C must be > 0");
}

void Capacitor::setCapacitance(double c) {
  if (c <= 0.0) throw InvalidInputError("Capacitor " + name() + ": C must be > 0");
  capacitance_ = c;
}

void Capacitor::stamp(Stamper& stamper, const EvalContext& ctx) {
  if (ctx.method == IntegrationMethod::None) {
    // DC: open circuit. A tiny conductance keeps otherwise-floating
    // nodes pinned (the solver adds gmin separately; nothing needed).
    return;
  }
  const double v = ctx.v(a_) - ctx.v(b_);
  const double q = capacitance_ * v;
  const ChargeCompanion comp = integrateCharge(ctx.method, ctx.dt, q, capacitance_, history_);
  last_companion_ = comp;
  stamper.conductance(a_, b_, comp.geq);
  stamper.currentSource(a_, b_, comp.i_now - comp.geq * v);
}

void Capacitor::startTransient(const EvalContext& ctx) {
  const double v = use_ic_ ? initial_voltage_ : ctx.v(a_) - ctx.v(b_);
  history_.q = capacitance_ * v;
  history_.i = 0.0;
}

void Capacitor::acceptStep(const EvalContext& ctx) {
  const double v = ctx.v(a_) - ctx.v(b_);
  const double q = capacitance_ * v;
  const ChargeCompanion comp = integrateCharge(ctx.method, ctx.dt, q, capacitance_, history_);
  history_.q = q;
  history_.i = comp.i_now;
}

std::unique_ptr<DeviceLaneState> Capacitor::createLaneState(size_t lanes) const {
  return std::make_unique<CapacitorLaneState>(lanes, capacitance_);
}

void Capacitor::stampLanes(LaneStamper& stamper, const LaneContext& ctx,
                           DeviceLaneState* state) {
  if (ctx.method == IntegrationMethod::None) return;  // DC: open circuit
  auto& st = static_cast<CapacitorLaneState&>(*state);
  const double* va = ctx.v(a_);
  const double* vb = ctx.v(b_);
  const double k_g = (ctx.method == IntegrationMethod::Trapezoidal ? 2.0 : 1.0) / ctx.dt;
  const double tr = ctx.method == IntegrationMethod::Trapezoidal ? 1.0 : 0.0;
  double geq[kMaxLanes] = {};
  double ieq[kMaxLanes] = {};
  for (size_t l = 0; l < ctx.lanes; ++l) {
    const double v = va[l] - vb[l];
    const double q = st.cap[l] * v;
    geq[l] = k_g * st.cap[l];
    const double i_now = k_g * (q - st.q[l]) - tr * st.i[l];
    ieq[l] = i_now - geq[l] * v;
  }
  stamper.conductance(a_, b_, geq);
  stamper.currentSource(a_, b_, ieq);
}

void Capacitor::startTransientLanes(const LaneContext& ctx, DeviceLaneState* state) {
  auto& st = static_cast<CapacitorLaneState&>(*state);
  const double* va = ctx.v(a_);
  const double* vb = ctx.v(b_);
  for (size_t l = 0; l < ctx.lanes; ++l) {
    const double v = use_ic_ ? initial_voltage_ : va[l] - vb[l];
    st.q[l] = st.cap[l] * v;
    st.i[l] = 0.0;
  }
}

void Capacitor::acceptStepLanes(const LaneContext& ctx, DeviceLaneState* state) {
  auto& st = static_cast<CapacitorLaneState&>(*state);
  const double* va = ctx.v(a_);
  const double* vb = ctx.v(b_);
  const double k_g = (ctx.method == IntegrationMethod::Trapezoidal ? 2.0 : 1.0) / ctx.dt;
  const double tr = ctx.method == IntegrationMethod::Trapezoidal ? 1.0 : 0.0;
  for (size_t l = 0; l < ctx.lanes; ++l) {
    const double q = st.cap[l] * (va[l] - vb[l]);
    st.i[l] = k_g * (q - st.q[l]) - tr * st.i[l];
    st.q[l] = q;
  }
}

void Capacitor::stampReactive(ReactiveStamper& stamper, const EvalContext&) {
  stamper.capacitance(a_, b_, capacitance_);
}

double Capacitor::terminalCurrent(size_t t, const EvalContext& ctx) const {
  if (ctx.method == IntegrationMethod::None) return 0.0;
  const double v = ctx.v(a_) - ctx.v(b_);
  const double q = capacitance_ * v;
  const ChargeCompanion comp = integrateCharge(ctx.method, ctx.dt, q, capacitance_, history_);
  return t == 0 ? comp.i_now : -comp.i_now;
}

Inductor::Inductor(std::string name, NodeId a, NodeId b, double inductance)
    : Device(std::move(name)), a_(a), b_(b), inductance_(inductance) {
  if (inductance <= 0.0) throw InvalidInputError("Inductor " + this->name() + ": L must be > 0");
}

void Inductor::stamp(Stamper& stamper, const EvalContext& ctx) {
  // Branch row: v(a) - v(b) - L di/dt = 0, discretized per method.
  const int row = static_cast<int>(branch_);
  const int ia = stamper.nodeIndex(a_);
  const int ib = stamper.nodeIndex(b_);
  if (ia >= 0) {
    stamper.addMatrix(ia, row, 1.0);
    stamper.addMatrix(row, ia, 1.0);
  }
  if (ib >= 0) {
    stamper.addMatrix(ib, row, -1.0);
    stamper.addMatrix(row, ib, -1.0);
  }
  switch (ctx.method) {
    case IntegrationMethod::None:
      // DC short: v(a) - v(b) = 0 (coefficient on branch current is 0).
      // Add a tiny series resistance for pivot stability.
      stamper.addMatrix(row, row, -1e-9);
      break;
    case IntegrationMethod::BackwardEuler: {
      const double req = inductance_ / ctx.dt;
      stamper.addMatrix(row, row, -req);
      stamper.addRhs(row, -req * i_prev_);
      break;
    }
    case IntegrationMethod::Trapezoidal: {
      const double req = 2.0 * inductance_ / ctx.dt;
      stamper.addMatrix(row, row, -req);
      stamper.addRhs(row, -req * i_prev_ - v_prev_);
      break;
    }
  }
}

void Inductor::startTransient(const EvalContext& ctx) {
  i_prev_ = ctx.branch(branch_);
  v_prev_ = ctx.v(a_) - ctx.v(b_);
}

void Inductor::acceptStep(const EvalContext& ctx) {
  i_prev_ = ctx.branch(branch_);
  v_prev_ = ctx.v(a_) - ctx.v(b_);
}

std::unique_ptr<DeviceLaneState> Inductor::createLaneState(size_t lanes) const {
  return std::make_unique<InductorLaneState>(lanes);
}

void Inductor::stampLanes(LaneStamper& stamper, const LaneContext& ctx,
                          DeviceLaneState* state) {
  // Same stamp sequence as stamp(); only the history term varies by lane.
  const int row = static_cast<int>(branch_);
  const int ia = stamper.nodeIndex(a_);
  const int ib = stamper.nodeIndex(b_);
  if (ia >= 0) {
    stamper.addMatrixUniform(ia, row, 1.0);
    stamper.addMatrixUniform(row, ia, 1.0);
  }
  if (ib >= 0) {
    stamper.addMatrixUniform(ib, row, -1.0);
    stamper.addMatrixUniform(row, ib, -1.0);
  }
  if (ctx.method == IntegrationMethod::None) {
    stamper.addMatrixUniform(row, row, -1e-9);
    return;
  }
  const auto& st = static_cast<const InductorLaneState&>(*state);
  const bool trap = ctx.method == IntegrationMethod::Trapezoidal;
  const double req = (trap ? 2.0 * inductance_ : inductance_) / ctx.dt;
  double rhs[kMaxLanes] = {};
  for (size_t l = 0; l < ctx.lanes; ++l) {
    rhs[l] = trap ? -req * st.i_prev[l] - st.v_prev[l] : -req * st.i_prev[l];
  }
  stamper.addMatrixUniform(row, row, -req);
  stamper.addRhs(row, rhs);
}

void Inductor::startTransientLanes(const LaneContext& ctx, DeviceLaneState* state) {
  acceptStepLanes(ctx, state);
}

void Inductor::acceptStepLanes(const LaneContext& ctx, DeviceLaneState* state) {
  auto& st = static_cast<InductorLaneState&>(*state);
  const double* i = ctx.branch(branch_);
  const double* va = ctx.v(a_);
  const double* vb = ctx.v(b_);
  for (size_t l = 0; l < ctx.lanes; ++l) {
    st.i_prev[l] = i[l];
    st.v_prev[l] = va[l] - vb[l];
  }
}

void Inductor::stampReactive(ReactiveStamper& stamper, const EvalContext&) {
  stamper.branchInductance(branch_, inductance_);
}

double Inductor::terminalCurrent(size_t t, const EvalContext& ctx) const {
  const double i = ctx.branch(branch_);
  return t == 0 ? i : -i;
}

}  // namespace vls
