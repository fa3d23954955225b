#include "devices/mos_model.hpp"

#include <algorithm>
#include <cmath>

#include "base/error.hpp"
#include "numeric/lanes.hpp"

namespace vls {

MosCardConstants cardConstants(const MosModelCard& m) {
  MosCardConstants k;
  k.knee_pow = std::pow(1.0 - m.fc, m.mj);
  k.knee_factor = std::pow(1.0 - m.fc, -m.mj);
  k.knee_slope = k.knee_factor * m.mj / (m.pb * (1.0 - m.fc));
  k.gate_leak_scale = m.jg / std::sinh(2.0);
  return k;
}

MosOperating resolveOperating(const MosModelCard& card, const MosGeometry& geom,
                              double temperature) {
  const double w_eff = geom.w + geom.delta_w;
  const double l_eff = geom.l + geom.delta_l - 2.0 * card.dl;
  if (w_eff <= 0.0 || l_eff <= 0.0) {
    throw InvalidInputError("MOSFET geometry non-positive after variation");
  }
  MosOperating op;
  op.ut = thermalVoltage(temperature);
  op.vt = card.vt0 + geom.delta_vt - card.vt_tc * (temperature - card.tnom);
  op.beta = card.kp * std::pow(temperature / card.tnom, card.mu_exp) * (w_eff / l_eff);
  op.n = card.n_slope;
  return op;
}

void mosCoreCurrentLanes(const MosModelCard& card, size_t lanes, double ut, double n,
                         const double* vt, const double* beta, const double* vg,
                         const double* vd, const double* vs, double* ids, double* gg,
                         double* gd, double* gs) {
  const double sd = card.sigma_dibl;
  const double theta = card.theta;
  const double lambda = card.lambda;
  const double inv_2ut = 1.0 / (2.0 * ut);
  const double nut = n * ut;
  const double inv_nut = 1.0 / nut;
  // Partials of the forward/reverse softplus arguments w.r.t. the
  // normalized terminal voltages are lane-invariant:
  //   u_f = (vp - vs) / 2ut,  u_r = (vp - vd) / 2ut,
  //   vp  = (vg - vt + sd*(vd - vs)) / n.
  const double duf_g = inv_2ut / n;
  const double duf_d = sd * inv_2ut / n;
  const double duf_s = (-sd / n - 1.0) * inv_2ut;
  const double dur_g = inv_2ut / n;
  const double dur_d = (sd / n - 1.0) * inv_2ut;
  const double dur_s = -sd * inv_2ut / n;
#pragma omp simd
  for (size_t l = 0; l < lanes; ++l) {
    const double vp = (vg[l] - vt[l] + sd * (vd[l] - vs[l])) / n;
    const SoftplusVD f = fastSoftplus((vp - vs[l]) * inv_2ut);
    const SoftplusVD r = fastSoftplus((vp - vd[l]) * inv_2ut);
    const double ff = f.v * f.v;
    const double fr = r.v * r.v;
    const double is2 = 2.0 * n * beta[l] * ut * ut;
    const double i0 = is2 * (ff - fr);
    const double cf = 2.0 * f.v * f.d;  // d(ff)/d(u_f)
    const double cr = 2.0 * r.v * r.d;

    const double denom = 1.0 + theta * nut * (f.v + r.v);
    const double inv_den = 1.0 / denom;
    // d(denom) = theta * nut * (f.d * du_f + r.d * du_r)
    const double cden = theta * nut;

    // Channel-length modulation: sqrt(f_max) is the softplus value of
    // the higher-inverted side (ff = softplus^2).
    const bool use_f = ff > fr;
    const double sp_m = use_f ? f.v : r.v;
    const double dsp_g = use_f ? f.d * duf_g : r.d * dur_g;
    const double dsp_d = use_f ? f.d * duf_d : r.d * dur_d;
    const double dsp_s = use_f ? f.d * duf_s : r.d * dur_s;
    const double vds = vd[l] - vs[l];
    const double vabs = std::sqrt(vds * vds + 1e-8);
    const double dvabs_d = vds / vabs;
    const double vdsat = 2.0 * nut * sp_m + 4.0 * nut;
    const SoftplusVD spa = fastSoftplus((vabs - vdsat) * inv_nut);
    const double m_clm = 1.0 + lambda * nut * spa.v;
    // d(m_clm) = lambda * spa.d * (d(vabs) - 2*nut*d(sp_m))
    const double two_nut = 2.0 * nut;
    const double dmc_g = lambda * spa.d * (-two_nut * dsp_g);
    const double dmc_d = lambda * spa.d * (dvabs_d - two_nut * dsp_d);
    const double dmc_s = lambda * spa.d * (-dvabs_d - two_nut * dsp_s);

    const double i_val = i0 * m_clm * inv_den;
    ids[l] = i_val;
    gg[l] = (is2 * (cf * duf_g - cr * dur_g) * m_clm + i0 * dmc_g) * inv_den -
            i_val * cden * (f.d * duf_g + r.d * dur_g) * inv_den;
    gd[l] = (is2 * (cf * duf_d - cr * dur_d) * m_clm + i0 * dmc_d) * inv_den -
            i_val * cden * (f.d * duf_d + r.d * dur_d) * inv_den;
    gs[l] = (is2 * (cf * duf_s - cr * dur_s) * m_clm + i0 * dmc_s) * inv_den -
            i_val * cden * (f.d * duf_s + r.d * dur_s) * inv_den;
  }
}

void junctionCurrentLanes(size_t lanes, const double* i_sat, double n_j, double ut,
                          const double* v, double* i, double* g) {
  const double u_lim = 40.0;
  const double e_lim = std::exp(u_lim);
  const double inv_nut = 1.0 / (n_j * ut);
#pragma omp simd
  for (size_t l = 0; l < lanes; ++l) {
    const double u = v[l] * inv_nut;
    const double e = fastExp(u < u_lim ? u : u_lim);
    // Above the limit: value e_lim*(1 + (u - u_lim)) - 1, slope e_lim.
    const double i_exp = i_sat[l] * (e - 1.0);
    const double i_lin = i_sat[l] * (e_lim * (1.0 + (u - u_lim)) - 1.0);
    i[l] = u > u_lim ? i_lin : i_exp;
    g[l] = i_sat[l] * (u > u_lim ? e_lim : e) * inv_nut;
  }
}

}  // namespace vls
