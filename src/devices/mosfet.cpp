#include "devices/mosfet.hpp"

#include <algorithm>
#include <cmath>

#include "base/error.hpp"
#include "circuit/ensemble_assembly.hpp"
#include "circuit/mna.hpp"
#include "numeric/lanes.hpp"

namespace vls {
namespace {

constexpr size_t kD = 0;
constexpr size_t kG = 1;
constexpr size_t kS = 2;
constexpr size_t kB = 3;

double sigmoid(double x) {
  if (x > 40.0) return 1.0;
  if (x < -40.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

/// Effective channel length (Meyer caps): drawn length plus the
/// instance shift, less the card's lateral diffusion on both sides.
double effL(const MosModelCard& m, const MosGeometry& g) { return g.l + g.delta_l - 2.0 * m.dl; }

/// Junction area [m^2]: the configured one, else a diffusion 2.5 gate
/// lengths long.
double junctionAreaOf(const MosGeometry& g, bool drain) {
  const double configured = drain ? g.area_d : g.area_s;
  return configured > 0.0 ? configured : g.effW() * 2.5 * g.l;
}

/// Zero-bias junction capacitance prefactor: area plus sidewall
/// perimeter terms (square-diffusion estimate).
double junctionC0Of(const MosModelCard& m, double area) {
  return m.cj * area + m.cjsw * 2.0 * (std::sqrt(area) * 2.0);
}

// --- lane kernel ---------------------------------------------------------
// One SoA evaluation of K variants of one model card, shared by both lane
// entry points: K same-card devices of a sharded-assembly batch
// (stampDeviceBatch) and K Monte-Carlo or farm variants of one device
// (stampLanes / acceptStepLanes). Only the gathers and the emitters
// differ between them.

/// Per-lane parameters, each a double[K] run.
struct LaneParams {
  const double* vt;
  const double* beta;
  const double* w_eff;
  const double* l_eff;
  const double* l_gate;    // drawn gate length (gate-leakage area)
  const double* jarea[2];  // [drain, source] junction areas [m^2]
  const double* jc0[2];    // [drain, source] junction cap prefactors [F]
};

/// Terminal voltages of every lane, each a double[K] run.
struct LaneTerminals {
  const double* d;
  const double* g;
  const double* s;
  const double* b;
};

/// Kernel results per lane, in the form stamp() emits them.
struct LaneEval {
  // DC channel: Jacobian row and linearized current d -> s.
  double gg[kMaxLanes], gd[kMaxLanes], gs[kMaxLanes], gb[kMaxLanes], i_const[kMaxLanes];
  // Junction diodes [drain, source]: conductance and companion current.
  double gj[2][kMaxLanes], j_rhs[2][kMaxLanes];
  // Gate leakage (card.jg > 0 only).
  double g_gl[kMaxLanes], i_gl[kMaxLanes];
  // Meyer and junction depletion capacitances (caps only).
  double cgs[kMaxLanes], cgd[kMaxLanes], cgb[kMaxLanes], cbd[kMaxLanes], cbs[kMaxLanes];
};

/// Depletion cap for all lanes: junctionCap's knee linearization,
/// evaluated branch-free.
void junctionCapLanes(const MosModelCard& m, const MosCardConstants& mk, size_t lanes,
                      const double* v, const double* c0, double* c) {
  const double v_knee = m.fc * m.pb;
  const double k_knee = mk.knee_factor;
  const double k_slope = mk.knee_slope;
  const double inv_pb = 1.0 / m.pb;
#pragma omp simd
  for (size_t l = 0; l < lanes; ++l) {
    // Clamp the depletion argument: lanes above the knee take the linear
    // branch, so the clamped value only keeps the dead computation finite.
    const double arg = std::max(1.0 - v[l] * inv_pb, 1e-9);
    const double c_dep = c0[l] * fastExp(-m.mj * fastLog(arg));
    const double c_lin = c0[l] * (k_knee + k_slope * (v[l] - v_knee));
    c[l] = v[l] < v_knee ? c_dep : c_lin;
  }
}

/// Evaluates K lanes of card `m`: the DC companions (channel, junction
/// diodes, gate leakage) when `dc`, the five capacitances when `caps`.
void evalLanes(const MosModelCard& m, const MosCardConstants& mk, size_t K, double temperature,
               const LaneParams& p, const LaneTerminals& v, bool dc, bool caps, LaneEval& out) {
  // Scratch runs are not zero-filled: every loop writes lanes [0, K)
  // before any reads them. The guard lets the compiler see that too.
  if (K == 0) return;
  const double s = m.sign();
  const double ut = thermalVoltage(temperature);
  const double n = m.n_slope;

  // Polarity-normalized, bulk-referenced voltages.
  double vgn[kMaxLanes], vdn[kMaxLanes], vsn[kMaxLanes];
#pragma omp simd
  for (size_t l = 0; l < K; ++l) {
    vgn[l] = s * (v.g[l] - v.b[l]);
    vdn[l] = s * (v.d[l] - v.b[l]);
    vsn[l] = s * (v.s[l] - v.b[l]);
  }

  if (dc) {
    // --- DC channel current (SoA core + hand-derived Jacobian) --------
    double ids[kMaxLanes];
    mosCoreCurrentLanes(m, K, ut, n, p.vt, p.beta, vgn, vdn, vsn, ids, out.gg, out.gd, out.gs);
#pragma omp simd
    for (size_t l = 0; l < K; ++l) {
      ids[l] *= s;
      out.gb[l] = -(out.gg[l] + out.gd[l] + out.gs[l]);
      out.i_const[l] = ids[l] - out.gg[l] * v.g[l] - out.gd[l] * v.d[l] -
                       out.gs[l] * v.s[l] - out.gb[l] * v.b[l];
    }

    // --- Junction diodes (bulk-drain, bulk-source) --------------------
    double i_sat[kMaxLanes], v_ac[kMaxLanes], ij[kMaxLanes];
    for (int which = 0; which < 2; ++which) {
      const double* vdiff = which == 0 ? v.d : v.s;
      for (size_t l = 0; l < K; ++l) {
        i_sat[l] = m.js * p.jarea[which][l];
        v_ac[l] = s * (v.b[l] - vdiff[l]);
      }
      junctionCurrentLanes(K, i_sat, m.n_j, ut, v_ac, ij, out.gj[which]);
      for (size_t l = 0; l < K; ++l) {
        out.j_rhs[which][l] = s * ij[l] - out.gj[which][l] * (v.b[l] - vdiff[l]);
      }
    }

    // --- Gate leakage (optional; card-wide switch) --------------------
    if (m.jg > 0.0) {
      const double j_scale = mk.gate_leak_scale;
#pragma omp simd
      for (size_t l = 0; l < K; ++l) {
        const double scale = j_scale * p.w_eff[l] * p.l_gate[l];
        const double vgb = v.g[l] - v.b[l];
        const double e = fastExp(2.0 * vgb);
        const double ei = 1.0 / e;
        out.g_gl[l] = scale * (e + ei);                          // scale * 2 cosh(2 vgb)
        out.i_gl[l] = scale * 0.5 * (e - ei) - out.g_gl[l] * vgb;  // sinh term minus g*v
      }
    }
  }

  if (caps) {
    // --- Meyer partition (see meyerCaps) -------------------------------
    const double cox = m.cox();
    const double k_soft = 2.0 * n * ut;
    const double inv_k = 1.0 / k_soft;
    const double inv_2ut = 1.0 / (2.0 * ut);
#pragma omp simd
    for (size_t l = 0; l < K; ++l) {
      const double cox_area = cox * p.w_eff[l] * p.l_eff[l];
      const double v_min =
          -k_soft * fastLog(fastExp(-vdn[l] * inv_k) + fastExp(-vsn[l] * inv_k));
      const double vp = (vgn[l] - p.vt[l]) / n;
      const double x_inv = fastSigmoid((vp - v_min) * inv_2ut);
      const double vgt = std::max(n * (vp - v_min), 0.0);
      const double vdsat = std::max(vgt / n, 4.0 * ut);
      const double sp = 0.5 * (1.0 + fastTanh((vdn[l] - vsn[l]) / vdsat));
      const double sp_m = 1.0 - sp;
      const double meyer_s = (-2.0 / 3.0) * sp * sp + (4.0 / 3.0) * sp;
      const double meyer_d = (-2.0 / 3.0) * sp_m * sp_m + (4.0 / 3.0) * sp_m;
      out.cgs[l] = cox_area * x_inv * meyer_s + m.cgso * p.w_eff[l];
      out.cgd[l] = cox_area * x_inv * meyer_d + m.cgdo * p.w_eff[l];
      out.cgb[l] = cox_area * (1.0 - x_inv) * 0.7 + m.cgbo * p.l_eff[l];
    }

    // --- Junction depletion (bulk-drain, bulk-source) -----------------
    double vj[kMaxLanes];
    for (int which = 0; which < 2; ++which) {
      const double* vdiff = which == 0 ? v.d : v.s;
      for (size_t l = 0; l < K; ++l) vj[l] = s * (v.b[l] - vdiff[l]);
      junctionCapLanes(m, mk, K, vj, p.jc0[which], which == 0 ? out.cbd : out.cbs);
    }
  }
}

LaneParams laneParams(const MosfetLaneState& st) {
  return {st.vt.data(),
          st.beta.data(),
          st.w_eff.data(),
          st.l_eff.data(),
          st.l_gate.data(),
          {st.jarea[0].data(), st.jarea[1].data()},
          {st.jc0[0].data(), st.jc0[1].data()}};
}

/// Lane companion of one incremental Meyer/junction charge (the lane
/// form of Mosfet::stampCap).
void stampCapLanes(LaneStamper& stamper, const LaneContext& ctx, NodeId a, NodeId b,
                   const double* c, const MosfetLaneState::CapLanes& state) {
  const double* va = ctx.v(a);
  const double* vb = ctx.v(b);
  const double k_g = (ctx.method == IntegrationMethod::Trapezoidal ? 2.0 : 1.0) / ctx.dt;
  const double tr = ctx.method == IntegrationMethod::Trapezoidal ? 1.0 : 0.0;
  double geq[kMaxLanes], ieq[kMaxLanes];
  for (size_t l = 0; l < ctx.lanes; ++l) {
    const double v = va[l] - vb[l];
    const double dq = c[l] * (v - state.v_prev[l]);  // q - hist.q
    const double g_eq = k_g * c[l];
    const double i_now = k_g * dq - tr * state.i[l];
    geq[l] = g_eq;
    ieq[l] = i_now - g_eq * v;
  }
  stamper.conductance(a, b, geq);
  stamper.currentSource(a, b, ieq);
}

/// Commits one lane charge history (the lane form of Mosfet::acceptCap).
void acceptCapLanes(const LaneContext& ctx, NodeId a, NodeId b, const double* c,
                    MosfetLaneState::CapLanes& state) {
  const double* va = ctx.v(a);
  const double* vb = ctx.v(b);
  const double k_g = (ctx.method == IntegrationMethod::Trapezoidal ? 2.0 : 1.0) / ctx.dt;
  const double tr = ctx.method == IntegrationMethod::Trapezoidal ? 1.0 : 0.0;
#pragma omp simd
  for (size_t l = 0; l < ctx.lanes; ++l) {
    const double v = va[l] - vb[l];
    const double dq = c[l] * (v - state.v_prev[l]);
    state.i[l] = k_g * dq - tr * state.i[l];
    state.q[l] += dq;
    state.v_prev[l] = v;
  }
}

}  // namespace

Mosfet::Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source, NodeId bulk,
               std::shared_ptr<const MosModelCard> card, MosGeometry geometry)
    : Device(std::move(name)), nodes_{drain, gate, source, bulk}, card_(std::move(card)),
      geometry_(geometry) {
  if (!card_) throw InvalidInputError("Mosfet " + this->name() + ": null model card");
  card_consts_ = cardConstants(*card_);
}

const MosOperating& Mosfet::operating(double temperature) const {
  if (temperature != op_temperature_) {
    op_cache_ = resolveOperating(*card_, geometry_, temperature);
    op_temperature_ = temperature;
  }
  return op_cache_;
}

Mosfet::DcEval Mosfet::evalDc(const EvalContext& ctx) const {
  const double s = card_->sign();
  const MosOperating& op = operating(ctx.temperature);

  // Polarity-normalized, bulk-referenced voltages.
  const double vb = ctx.v(nodes_[kB]);
  using D3 = Dual<3>;
  const D3 vg = D3::seed(s * (ctx.v(nodes_[kG]) - vb), 0);
  const D3 vd = D3::seed(s * (ctx.v(nodes_[kD]) - vb), 1);
  const D3 vs = D3::seed(s * (ctx.v(nodes_[kS]) - vb), 2);

  const D3 i_norm = mosCoreCurrent(*card_, op, vg, vd, vs);

  DcEval out;
  out.ids = s * i_norm.v;
  // d(actual I)/d(actual v_k) = dI'/dv'_k for k in {g, d, s} (the two
  // polarity signs cancel); bulk partial follows from translation
  // invariance in the primed frame.
  out.g_g = i_norm.d[0];
  out.g_d = i_norm.d[1];
  out.g_s = i_norm.d[2];
  out.g_b = -(out.g_g + out.g_d + out.g_s);
  return out;
}

double Mosfet::drainCurrent(const EvalContext& ctx) const { return evalDc(ctx).ids; }

double Mosfet::junctionArea(bool drain) const {
  double& cached = junction_area_[drain ? 0 : 1];
  if (cached < 0.0) cached = junctionAreaOf(geometry_, drain);
  return cached;
}

double Mosfet::junctionC0(bool drain) const {
  double& cached = junction_c0_[drain ? 0 : 1];
  if (cached < 0.0) cached = junctionC0Of(*card_, junctionArea(drain));
  return cached;
}

double Mosfet::junctionCap(double v, double c0) const {
  // Depletion capacitance c0/(1 - v/pb)^mj, linearized above fc*pb.
  const MosModelCard& m = *card_;
  const double v_knee = m.fc * m.pb;
  if (v < v_knee) {
    return c0 / std::pow(1.0 - v / m.pb, m.mj);
  }
  const double c_knee = c0 / card_consts_.knee_pow;
  const double slope = c_knee * m.mj / (m.pb * (1.0 - m.fc));
  return c_knee + slope * (v - v_knee);
}

Mosfet::MeyerCaps Mosfet::meyerCaps(const EvalContext& ctx) const {
  const double s = card_->sign();
  const MosOperating& op = operating(ctx.temperature);
  const MosModelCard& m = *card_;

  const double vb = ctx.v(nodes_[kB]);
  const double vg = s * (ctx.v(nodes_[kG]) - vb);
  const double vd = s * (ctx.v(nodes_[kD]) - vb);
  const double vs = s * (ctx.v(nodes_[kS]) - vb);

  const double w_eff = geometry_.effW();
  const double l_eff = effL(m, geometry_);
  const double cox_area = m.cox() * w_eff * l_eff;

  // Smooth, polarity-symmetric Meyer partition. `sp` sweeps 0 (reverse
  // saturation) .. 0.5 (vds = 0) .. 1 (forward saturation); the
  // quadratic interpolant hits the Meyer landmarks Cgs/Cox = {0, 1/2,
  // 2/3} at those points and Cgd mirrors it, so nothing jumps when a
  // pass transistor's terminals swap roles mid-transient.
  const double k_soft = 2.0 * op.n * op.ut;
  const double v_min =
      -k_soft * std::log(std::exp(-vd / k_soft) + std::exp(-vs / k_soft));  // soft min(vd, vs)
  const double vp = (vg - op.vt) / op.n;
  const double x_inv = sigmoid((vp - v_min) / (2.0 * op.ut));  // 0 cutoff .. 1 inversion
  const double vgt = std::max(op.n * (vp - v_min), 0.0);
  const double vdsat = std::max(vgt / op.n, 4.0 * op.ut);
  const double sp = 0.5 * (1.0 + std::tanh((vd - vs) / vdsat));
  auto meyer = [&](double x) { return (-2.0 / 3.0) * x * x + (4.0 / 3.0) * x; };

  MeyerCaps caps;
  caps.cgs = cox_area * x_inv * meyer(sp) + m.cgso * w_eff;
  caps.cgd = cox_area * x_inv * meyer(1.0 - sp) + m.cgdo * w_eff;
  caps.cgb = cox_area * (1.0 - x_inv) * 0.7 + m.cgbo * l_eff;
  return caps;
}

void Mosfet::stampCap(Stamper& stamper, const EvalContext& ctx, NodeId a, NodeId b, double c,
                      CapState& state) {
  if (ctx.method == IntegrationMethod::None) return;
  const double v = ctx.v(a) - ctx.v(b);
  // Incremental (SPICE2 Meyer) charge: trapezoid of C over the voltage step.
  const double q = state.hist.q + c * (v - state.v_prev);
  const ChargeCompanion comp = integrateCharge(ctx.method, ctx.dt, q, c, state.hist);
  stamper.conductance(a, b, comp.geq);
  stamper.currentSource(a, b, comp.i_now - comp.geq * v);
}

void Mosfet::acceptCap(const EvalContext& ctx, NodeId a, NodeId b, double c, CapState& state) {
  const double v = ctx.v(a) - ctx.v(b);
  const double q = state.hist.q + c * (v - state.v_prev);
  const ChargeCompanion comp = integrateCharge(ctx.method, ctx.dt, q, c, state.hist);
  state.hist.q = q;
  state.hist.i = comp.i_now;
  state.v_prev = v;
}

void Mosfet::stamp(Stamper& stamper, const EvalContext& ctx) {
  const NodeId d = nodes_[kD];
  const NodeId g = nodes_[kG];
  const NodeId s_node = nodes_[kS];
  const NodeId b = nodes_[kB];

  // --- DC channel current: nonlinear 4-terminal companion ------------
  const DcEval dc = evalDc(ctx);
  const int id = stamper.nodeIndex(d);
  const int ig = stamper.nodeIndex(g);
  const int is = stamper.nodeIndex(s_node);
  const int ib = stamper.nodeIndex(b);
  const double vg0 = ctx.v(g);
  const double vd0 = ctx.v(d);
  const double vs0 = ctx.v(s_node);
  const double vb0 = ctx.v(b);

  // Current dc.ids flows d -> s. Jacobian rows for d (+) and s (-).
  auto stamp_row = [&](int row, double sign) {
    if (row < 0) return;
    if (ig >= 0) stamper.addMatrix(row, ig, sign * dc.g_g);
    if (id >= 0) stamper.addMatrix(row, id, sign * dc.g_d);
    if (is >= 0) stamper.addMatrix(row, is, sign * dc.g_s);
    if (ib >= 0) stamper.addMatrix(row, ib, sign * dc.g_b);
  };
  stamp_row(id, 1.0);
  stamp_row(is, -1.0);
  const double i_const =
      dc.ids - dc.g_g * vg0 - dc.g_d * vd0 - dc.g_s * vs0 - dc.g_b * vb0;
  stamper.currentSource(d, s_node, i_const);

  // --- Junction diodes (bulk-drain, bulk-source) ----------------------
  const double sgn = card_->sign();
  const MosOperating& op = operating(ctx.temperature);
  for (int which = 0; which < 2; ++which) {
    const NodeId diff = which == 0 ? d : s_node;
    const double area = junctionArea(which == 0);
    const double i_sat = card_->js * area;
    // Anode/cathode depend on polarity: NMOS junction conducts when
    // bulk is above diffusion.
    const Dual<1> v_ac = Dual<1>::seed(sgn * (ctx.v(b) - ctx.v(diff)), 0);
    const Dual<1> i_j = junctionCurrent(i_sat, card_->n_j, op.ut, v_ac);
    const double g_j = i_j.d[0];
    const double i0 = sgn * i_j.v;  // current bulk -> diffusion
    const double v_actual = ctx.v(b) - ctx.v(diff);
    stamper.conductance(b, diff, g_j);
    stamper.currentSource(b, diff, i0 - g_j * v_actual);
  }

  // --- Gate leakage (optional) ----------------------------------------
  if (card_->jg > 0.0) {
    const double area = geometry_.effW() * geometry_.l;
    const double vgb = ctx.v(g) - ctx.v(b);
    // Odd, smooth in vgb: i = Jg*A*sinh(2 vgb)/sinh(2).
    const double scale = card_->jg * area / std::sinh(2.0);
    const double i_gl = scale * std::sinh(2.0 * vgb);
    const double g_gl = scale * 2.0 * std::cosh(2.0 * vgb);
    stamper.conductance(g, b, g_gl);
    stamper.currentSource(g, b, i_gl - g_gl * vgb);
  }

  // --- Capacitances ----------------------------------------------------
  if (ctx.method != IntegrationMethod::None) {
    const MeyerCaps caps = meyerCaps(ctx);
    stampCap(stamper, ctx, g, s_node, caps.cgs, cap_gs_);
    stampCap(stamper, ctx, g, d, caps.cgd, cap_gd_);
    stampCap(stamper, ctx, g, b, caps.cgb, cap_gb_);
    const double cbd = junctionCap(sgn * (ctx.v(b) - ctx.v(d)), junctionC0(true));
    const double cbs = junctionCap(sgn * (ctx.v(b) - ctx.v(s_node)), junctionC0(false));
    stampCap(stamper, ctx, b, d, cbd, cap_bd_);
    stampCap(stamper, ctx, b, s_node, cbs, cap_bs_);
  }
}

void Mosfet::stampDeviceBatch(std::span<Device* const> devs, std::span<const uint32_t> op_begin,
                              std::span<const uint32_t> op_end, Stamper& stamper,
                              const EvalContext& ctx) {
  const size_t K = devs.size();
  // Every batch member shares card_ (the batch key), so polarity and
  // all card parameters are common; vt/beta/geometry vary per device.
  // The lane kernel is strictly elementwise — assembled values are
  // bit-identical for every batch width.
  const bool tran = ctx.method != IntegrationMethod::None;

  // --- gather device SoA (AoS state -> lanes across devices) ----------
  Mosfet* mos[kMaxLanes];
  double vt[kMaxLanes], beta[kMaxLanes];
  double w_eff[kMaxLanes], l_eff[kMaxLanes], l_gate[kMaxLanes];
  double jarea[2][kMaxLanes], jc0[2][kMaxLanes];
  double vd0[kMaxLanes], vg0[kMaxLanes], vs0[kMaxLanes], vb0[kMaxLanes];
  for (size_t l = 0; l < K; ++l) {
    mos[l] = static_cast<Mosfet*>(devs[l]);
    const MosOperating& op = mos[l]->operating(ctx.temperature);
    const MosGeometry& g = mos[l]->geometry_;
    vt[l] = op.vt;
    beta[l] = op.beta;
    w_eff[l] = g.effW();
    l_eff[l] = effL(*card_, g);
    l_gate[l] = g.l;
    for (int which = 0; which < 2; ++which) {
      jarea[which][l] = mos[l]->junctionArea(which == 0);
      jc0[which][l] = mos[l]->junctionC0(which == 0);
    }
    vd0[l] = ctx.v(mos[l]->nodes_[kD]);
    vg0[l] = ctx.v(mos[l]->nodes_[kG]);
    vs0[l] = ctx.v(mos[l]->nodes_[kS]);
    vb0[l] = ctx.v(mos[l]->nodes_[kB]);
  }
  const LaneParams params{vt, beta, w_eff, l_eff, l_gate, {jarea[0], jarea[1]}, {jc0[0], jc0[1]}};
  LaneEval ev;
  evalLanes(*card_, card_consts_, K, ctx.temperature, params, {vd0, vg0, vs0, vb0}, /*dc=*/true,
            tran, ev);

  // --- per-device emission, mirroring stamp()'s exact call order ------
  for (size_t l = 0; l < K; ++l) {
    Mosfet& dev = *mos[l];
    stamper.seek(op_begin[l]);
    const NodeId d = dev.nodes_[kD];
    const NodeId g = dev.nodes_[kG];
    const NodeId s_node = dev.nodes_[kS];
    const NodeId b = dev.nodes_[kB];
    const int id = stamper.nodeIndex(d);
    const int ig = stamper.nodeIndex(g);
    const int is = stamper.nodeIndex(s_node);
    const int ib = stamper.nodeIndex(b);
    const auto stamp_row = [&](int row, double sign) {
      if (row < 0) return;
      if (ig >= 0) stamper.addMatrix(row, ig, sign * ev.gg[l]);
      if (id >= 0) stamper.addMatrix(row, id, sign * ev.gd[l]);
      if (is >= 0) stamper.addMatrix(row, is, sign * ev.gs[l]);
      if (ib >= 0) stamper.addMatrix(row, ib, sign * ev.gb[l]);
    };
    stamp_row(id, 1.0);
    stamp_row(is, -1.0);
    stamper.currentSource(d, s_node, ev.i_const[l]);
    for (int which = 0; which < 2; ++which) {
      const NodeId diff = which == 0 ? d : s_node;
      stamper.conductance(b, diff, ev.gj[which][l]);
      stamper.currentSource(b, diff, ev.j_rhs[which][l]);
    }
    if (card_->jg > 0.0) {
      stamper.conductance(g, b, ev.g_gl[l]);
      stamper.currentSource(g, b, ev.i_gl[l]);
    }
    if (tran) {
      dev.stampCap(stamper, ctx, g, s_node, ev.cgs[l], dev.cap_gs_);
      dev.stampCap(stamper, ctx, g, d, ev.cgd[l], dev.cap_gd_);
      dev.stampCap(stamper, ctx, g, b, ev.cgb[l], dev.cap_gb_);
      dev.stampCap(stamper, ctx, b, d, ev.cbd[l], dev.cap_bd_);
      dev.stampCap(stamper, ctx, b, s_node, ev.cbs[l], dev.cap_bs_);
    }
    if (stamper.cursor() != op_end[l]) {
      throw Error("Mosfet '" + dev.name() +
                  "' changed its stamp sequence without a topology revision bump");
    }
  }
}

void Mosfet::stampReactive(ReactiveStamper& stamper, const EvalContext& ctx) {
  const MeyerCaps caps = meyerCaps(ctx);
  const double sgn = card_->sign();
  stamper.capacitance(nodes_[kG], nodes_[kS], caps.cgs);
  stamper.capacitance(nodes_[kG], nodes_[kD], caps.cgd);
  stamper.capacitance(nodes_[kG], nodes_[kB], caps.cgb);
  stamper.capacitance(nodes_[kB], nodes_[kD],
                      junctionCap(sgn * (ctx.v(nodes_[kB]) - ctx.v(nodes_[kD])),
                                  junctionC0(true)));
  stamper.capacitance(nodes_[kB], nodes_[kS],
                      junctionCap(sgn * (ctx.v(nodes_[kB]) - ctx.v(nodes_[kS])),
                                  junctionC0(false)));
}

void Mosfet::collectNoiseSources(std::vector<NoiseSource>& sources,
                                 const EvalContext& ctx) const {
  const DcEval dc = evalDc(ctx);
  const MosModelCard& m = *card_;
  // Channel thermal: S_i = 4kT * gamma * gm_eff across drain-source.
  // gm_eff uses the gate transconductance magnitude, which reduces to
  // the standard 2/3*gm in saturation and to g_channel in triode-ish
  // operation within the gamma factor's accuracy.
  const double gm_eff = std::max(std::fabs(dc.g_g), std::fabs(dc.g_d));
  const double s_thermal = 4.0 * kBoltzmann * ctx.temperature * m.gamma_noise * gm_eff;
  const NodeId d = nodes_[kD];
  const NodeId s_node = nodes_[kS];
  if (s_thermal > 0.0) {
    sources.push_back({name() + ".thermal", d, s_node, [s_thermal](double) { return s_thermal; }});
  }
  // Flicker: S_i = KF * |Id|^AF / (Cox W L f).
  const double id_abs = std::fabs(dc.ids);
  if (m.kf > 0.0 && id_abs > 0.0) {
    const double denom = m.cox() * geometry_.effW() * geometry_.l;
    const double scale = m.kf * std::pow(id_abs, m.af) / denom;
    sources.push_back(
        {name() + ".flicker", d, s_node, [scale](double f) { return scale / f; }});
  }
}

void Mosfet::startTransient(const EvalContext& ctx) {
  auto init = [&](NodeId a, NodeId b, CapState& state) {
    state.v_prev = ctx.v(a) - ctx.v(b);
    state.hist.q = 0.0;  // incremental Meyer charge: relative origin is fine
    state.hist.i = 0.0;
  };
  init(nodes_[kG], nodes_[kS], cap_gs_);
  init(nodes_[kG], nodes_[kD], cap_gd_);
  init(nodes_[kG], nodes_[kB], cap_gb_);
  init(nodes_[kB], nodes_[kD], cap_bd_);
  init(nodes_[kB], nodes_[kS], cap_bs_);
}

void Mosfet::acceptStep(const EvalContext& ctx) {
  const double sgn = card_->sign();
  const MeyerCaps caps = meyerCaps(ctx);
  acceptCap(ctx, nodes_[kG], nodes_[kS], caps.cgs, cap_gs_);
  acceptCap(ctx, nodes_[kG], nodes_[kD], caps.cgd, cap_gd_);
  acceptCap(ctx, nodes_[kG], nodes_[kB], caps.cgb, cap_gb_);
  const double cbd = junctionCap(sgn * (ctx.v(nodes_[kB]) - ctx.v(nodes_[kD])), junctionC0(true));
  const double cbs =
      junctionCap(sgn * (ctx.v(nodes_[kB]) - ctx.v(nodes_[kS])), junctionC0(false));
  acceptCap(ctx, nodes_[kB], nodes_[kD], cbd, cap_bd_);
  acceptCap(ctx, nodes_[kB], nodes_[kS], cbs, cap_bs_);
}

// --- lane-batched (ensemble) evaluation ------------------------------

MosfetLaneState::MosfetLaneState(const MosGeometry& base, size_t lane_count)
    : lanes(lane_count), geom(lane_count, base), vt(lane_count, 0.0),
      beta(lane_count, 0.0), w_eff(lane_count, 0.0), l_eff(lane_count, 0.0),
      l_gate(lane_count, 0.0),
      jarea{std::vector<double>(lane_count, 0.0), std::vector<double>(lane_count, 0.0)},
      jc0{std::vector<double>(lane_count, 0.0), std::vector<double>(lane_count, 0.0)},
      cap_gs(lane_count), cap_gd(lane_count), cap_gb(lane_count), cap_bd(lane_count),
      cap_bs(lane_count) {}

std::unique_ptr<DeviceLaneState> Mosfet::createLaneState(size_t lanes) const {
  return std::make_unique<MosfetLaneState>(geometry_, lanes);
}

void Mosfet::resolveLaneDerived(MosfetLaneState& s, double temperature) const {
  if (s.derived_valid && s.temperature == temperature) return;
  for (size_t l = 0; l < s.lanes; ++l) {
    const MosGeometry& g = s.geom[l];
    const MosOperating op = resolveOperating(*card_, g, temperature);
    s.vt[l] = op.vt;
    s.beta[l] = op.beta;
    s.w_eff[l] = g.effW();
    s.l_eff[l] = effL(*card_, g);
    s.l_gate[l] = g.l;
    for (int which = 0; which < 2; ++which) {
      s.jarea[which][l] = junctionAreaOf(g, which == 0);
      s.jc0[which][l] = junctionC0Of(*card_, s.jarea[which][l]);
    }
  }
  s.derived_valid = true;
  s.temperature = temperature;
}

void Mosfet::stampLanes(LaneStamper& stamper, const LaneContext& ctx,
                        DeviceLaneState* state) {
  auto& st = static_cast<MosfetLaneState&>(*state);
  resolveLaneDerived(st, ctx.temperature);
  st.lane_evaluations += ctx.lanes;
  const NodeId d = nodes_[kD];
  const NodeId g = nodes_[kG];
  const NodeId s_node = nodes_[kS];
  const NodeId b = nodes_[kB];
  const bool tran = ctx.method != IntegrationMethod::None;
  LaneEval ev;
  evalLanes(*card_, card_consts_, ctx.lanes, ctx.temperature, laneParams(st),
            {ctx.v(d), ctx.v(g), ctx.v(s_node), ctx.v(b)}, /*dc=*/true, tran, ev);

  // --- lane emission, mirroring stamp()'s exact call order ------------
  const int id = stamper.nodeIndex(d);
  const int ig = stamper.nodeIndex(g);
  const int is = stamper.nodeIndex(s_node);
  const int ib = stamper.nodeIndex(b);
  auto stamp_row = [&](int row, double sign) {
    if (row < 0) return;
    if (ig >= 0) stamper.addMatrix(row, ig, ev.gg, sign);
    if (id >= 0) stamper.addMatrix(row, id, ev.gd, sign);
    if (is >= 0) stamper.addMatrix(row, is, ev.gs, sign);
    if (ib >= 0) stamper.addMatrix(row, ib, ev.gb, sign);
  };
  stamp_row(id, 1.0);
  stamp_row(is, -1.0);
  stamper.currentSource(d, s_node, ev.i_const);
  for (int which = 0; which < 2; ++which) {
    const NodeId diff = which == 0 ? d : s_node;
    stamper.conductance(b, diff, ev.gj[which]);
    stamper.currentSource(b, diff, ev.j_rhs[which]);
  }
  // Gate leakage is a card-wide switch: constant per topology, tape-safe.
  if (card_->jg > 0.0) {
    stamper.conductance(g, b, ev.g_gl);
    stamper.currentSource(g, b, ev.i_gl);
  }
  if (tran) {
    stampCapLanes(stamper, ctx, g, s_node, ev.cgs, st.cap_gs);
    stampCapLanes(stamper, ctx, g, d, ev.cgd, st.cap_gd);
    stampCapLanes(stamper, ctx, g, b, ev.cgb, st.cap_gb);
    stampCapLanes(stamper, ctx, b, d, ev.cbd, st.cap_bd);
    stampCapLanes(stamper, ctx, b, s_node, ev.cbs, st.cap_bs);
  }
}

void Mosfet::startTransientLanes(const LaneContext& ctx, DeviceLaneState* state) {
  auto& st = static_cast<MosfetLaneState&>(*state);
  auto init = [&](NodeId a, NodeId b, MosfetLaneState::CapLanes& cap) {
    const double* va = ctx.v(a);
    const double* vb = ctx.v(b);
    for (size_t l = 0; l < ctx.lanes; ++l) {
      cap.v_prev[l] = va[l] - vb[l];
      cap.q[l] = 0.0;
      cap.i[l] = 0.0;
    }
  };
  init(nodes_[kG], nodes_[kS], st.cap_gs);
  init(nodes_[kG], nodes_[kD], st.cap_gd);
  init(nodes_[kG], nodes_[kB], st.cap_gb);
  init(nodes_[kB], nodes_[kD], st.cap_bd);
  init(nodes_[kB], nodes_[kS], st.cap_bs);
}

void Mosfet::acceptStepLanes(const LaneContext& ctx, DeviceLaneState* state) {
  auto& st = static_cast<MosfetLaneState&>(*state);
  resolveLaneDerived(st, ctx.temperature);
  st.lane_evaluations += ctx.lanes;
  const NodeId d = nodes_[kD];
  const NodeId g = nodes_[kG];
  const NodeId s_node = nodes_[kS];
  const NodeId b = nodes_[kB];
  LaneEval ev;
  evalLanes(*card_, card_consts_, ctx.lanes, ctx.temperature, laneParams(st),
            {ctx.v(d), ctx.v(g), ctx.v(s_node), ctx.v(b)}, /*dc=*/false, /*caps=*/true, ev);
  acceptCapLanes(ctx, g, s_node, ev.cgs, st.cap_gs);
  acceptCapLanes(ctx, g, d, ev.cgd, st.cap_gd);
  acceptCapLanes(ctx, g, b, ev.cgb, st.cap_gb);
  acceptCapLanes(ctx, b, d, ev.cbd, st.cap_bd);
  acceptCapLanes(ctx, b, s_node, ev.cbs, st.cap_bs);
}

double Mosfet::terminalCurrent(size_t t, const EvalContext& ctx) const {
  const DcEval dc = evalDc(ctx);
  const double sgn = card_->sign();
  const MosOperating& op = operating(ctx.temperature);
  auto junction = [&](bool drain_side) {
    const NodeId diff = drain_side ? nodes_[kD] : nodes_[kS];
    const double i_sat = card_->js * junctionArea(drain_side);
    const double v_ac = sgn * (ctx.v(nodes_[kB]) - ctx.v(diff));
    return sgn * junctionCurrent(i_sat, card_->n_j, op.ut, Dual<1>(v_ac)).v;
  };
  switch (t) {
    case kD: return dc.ids - junction(true);
    case kG: return 0.0;
    case kS: return -dc.ids - junction(false);
    case kB: return junction(true) + junction(false);
    default: throw InvalidInputError("Mosfet::terminalCurrent: bad terminal");
  }
}

}  // namespace vls
