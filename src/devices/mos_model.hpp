// EKV-style MOSFET model card and core current evaluation.
//
// The paper's experiments hinge on behaviours a digital table model
// cannot give: subthreshold leakage over a 0.8–1.4 V supply range,
// threshold drops across pass transistors (the ctrl node charges to
// min(VDDI, VDDO-VT8)), DIBL-driven leakage at high VDS, and smooth
// delay surfaces. The EKV charge-linearized core is continuous from
// weak to strong inversion with well-behaved derivatives, which keeps
// Newton iterations stable on floating storage nodes.
//
// Current (polarity-normalized, bulk-referenced voltages):
//   vp  = (vg - VTeff) / n,     VTeff = vt0 - sigma*vds
//   (body effect is intrinsic: effective source-referred VT shifts by
//    (n-1)*vsb through the bulk-referenced F terms)
//   F(u) = ln^2(1 + e^(u/2))    (interpolates e^u .. (u/2)^2)
//   I0  = 2 n beta Ut^2 [F((vp-vs)/Ut) - F((vp-vd)/Ut)]
//   I   = I0 * (1 + lambda*dv_clm) / (1 + theta*v_inv)
// evaluated on Dual<3> so the Jacobian stamps are exact.
#pragma once

#include <string>

#include "base/units.hpp"
#include "numeric/dual.hpp"

namespace vls {

enum class MosType { Nmos, Pmos };

/// Process model card (shared between instances).
struct MosModelCard {
  std::string name = "nmos";
  MosType type = MosType::Nmos;

  // DC core.
  double vt0 = 0.39;        ///< zero-bias threshold magnitude [V]
  double n_slope = 1.35;    ///< subthreshold slope / body-effect factor
  double gamma = 0.35;      ///< documentary body coefficient (= n-1) [V/V]
  double phi = 0.85;        ///< surface potential 2*phiF [V]
  double kp = 420e-6;       ///< transconductance mu*Cox [A/V^2]
  double theta = 0.90;      ///< mobility/velocity degradation [1/V]
  double lambda = 0.12;     ///< channel-length modulation [1/V]
  double sigma_dibl = 0.10; ///< VT reduction per volt of VDS [V/V]
  double dl = 10e-9;        ///< length reduction per side [m]

  // Capacitance.
  double tox = 2.05e-9;     ///< gate oxide thickness [m]
  double cgso = 2.0e-10;    ///< G-S overlap [F/m of width]
  double cgdo = 2.0e-10;    ///< G-D overlap [F/m of width]
  double cgbo = 1.0e-10;    ///< G-B overlap [F/m of length]
  double cj = 1.1e-3;       ///< junction area capacitance [F/m^2]
  double cjsw = 1.0e-10;    ///< junction sidewall capacitance [F/m]
  double pb = 0.80;         ///< junction built-in potential [V]
  double mj = 0.40;         ///< area grading coefficient
  double fc = 0.5;          ///< forward-bias linearization fraction

  // Junction leakage.
  double js = 1.0e-6;       ///< junction saturation density [A/m^2]
  double n_j = 1.2;         ///< junction ideality

  // Gate leakage (0 disables; direct-tunneling-like density).
  double jg = 0.0;          ///< [A/m^2] at |vgb| = 1 V

  // Noise.
  double gamma_noise = 0.85;  ///< channel thermal noise factor (2/3..1+)
  double kf = 2.0e-26;        ///< flicker coefficient [A^2 * m^2 * F / Hz ... KF/(Cox W L f)]
  double af = 1.0;            ///< flicker current exponent

  // Temperature behaviour (tnom = 300.15 K reference).
  double tnom = 300.15;
  double vt_tc = 1.0e-3;    ///< VT magnitude decrease [V/K]
  double mu_exp = -1.5;     ///< mobility exponent: kp*(T/tnom)^mu_exp

  /// Gate oxide capacitance per area [F/m^2].
  double cox() const { return kEpsilon0 * kEpsSiO2 / tox; }
  /// Polarity: +1 for NMOS, -1 for PMOS.
  double sign() const { return type == MosType::Nmos ? 1.0 : -1.0; }
};

/// Bias-independent constants derived from a card: the junction
/// depletion-cap knee and the gate-leakage normalization. A card never
/// changes once a device holds it, so a Mosfet computes these once at
/// construction instead of per evaluation (each is the exact expression
/// its evaluation used before, so results do not move).
struct MosCardConstants {
  double knee_pow = 1.0;         ///< (1-fc)^mj: the scalar junctionCap divides by it
  double knee_factor = 1.0;      ///< (1-fc)^-mj: the lane kernel multiplies by it
  double knee_slope = 0.0;       ///< knee_factor * mj / (pb (1-fc)), lane kernel
  double gate_leak_scale = 0.0;  ///< jg / sinh(2), lane kernel (per unit gate area)
};
MosCardConstants cardConstants(const MosModelCard& card);

/// Per-instance geometry and Monte-Carlo deviations.
struct MosGeometry {
  double w = 200e-9;        ///< drawn width [m]
  double l = 100e-9;        ///< drawn length [m]
  double delta_vt = 0.0;    ///< instance VT shift (process variation) [V]
  double delta_w = 0.0;     ///< instance width shift [m]
  double delta_l = 0.0;     ///< instance length shift [m]
  /// Junction areas; <=0 means derive from width (w * 2.5*l_min style).
  double area_d = -1.0;
  double area_s = -1.0;

  double effW() const { return w + delta_w; }
};

/// Temperature-resolved operating parameters for one instance.
struct MosOperating {
  double ut;       ///< thermal voltage [V]
  double vt;       ///< effective zero-bias threshold magnitude [V]
  double beta;     ///< kp(T) * Weff / Leff [A/V^2]
  double n;        ///< slope factor
};

/// Resolve temperature- and geometry-dependent quantities once per eval.
MosOperating resolveOperating(const MosModelCard& card, const MosGeometry& geom,
                              double temperature);

/// Core drain current on any scalar type (double or Dual<3>). All
/// voltages are bulk-referenced and polarity-normalized (NMOS view).
/// Returns the drain->source current of the normalized device.
template <typename T>
T mosCoreCurrent(const MosModelCard& card, const MosOperating& op, const T& vg, const T& vd,
                 const T& vs) {
  using std::sqrt;
  const double ut = op.ut;
  // Body effect is intrinsic to the bulk-referenced EKV formulation:
  // the effective source-referred threshold is vt + (n-1)*vsb, so the
  // slope factor doubles as the body-effect coefficient. No explicit
  // gamma term — adding one would double-count and cripple pass
  // transistors (gate overdrive would shrink by gamma AND 1/n).
  const T vt_eff = T(op.vt) - card.sigma_dibl * (vd - vs);
  const T vp = (vg - vt_eff) / op.n;

  const T ff = [&] { const T sp = softplus((vp - vs) / (2.0 * ut)); return sp * sp; }();
  const T fr = [&] { const T sp = softplus((vp - vd) / (2.0 * ut)); return sp * sp; }();

  const double is2 = 2.0 * op.n * op.beta * ut * ut;
  const T i0 = is2 * (ff - fr);

  // Mobility / velocity-saturation degradation: v_inv ~ inversion level
  // expressed in volts; reduces to (vgs-vt) in strong inversion.
  const T v_inv = op.n * ut * (sqrt(ff) + sqrt(fr));
  const T denom = 1.0 + card.theta * v_inv;

  // Channel-length modulation beyond saturation. Built from |vds| and
  // the higher-inverted side so the core stays drain/source
  // antisymmetric; zero at vds = 0 because (ff - fr) already vanishes
  // there (|vds| is smoothed to keep derivatives bounded).
  const T f_max = scalarValue(ff) > scalarValue(fr) ? ff : fr;
  const T vds_abs = sqrt((vd - vs) * (vd - vs) + T(1e-8));
  const T vdsat = 2.0 * op.n * ut * sqrt(f_max) + 4.0 * op.n * ut;
  const T dv_clm = op.n * ut * softplus((vds_abs - vdsat) / (op.n * ut));
  const T m_clm = 1.0 + card.lambda * dv_clm;

  return i0 * m_clm / denom;
}

/// Lane-wise (structure-of-arrays) core evaluation for the ensemble
/// engine: drain current and its partials w.r.t. the polarity-normalized
/// (vg, vd, vs) for `lanes` Monte-Carlo variants of one device in a
/// single pass. `ut` and `n` are temperature/process quantities shared
/// by every lane; `vt` and `beta` carry the per-sample variation. The
/// math mirrors mosCoreCurrent<Dual<3>> exactly (same softplus
/// saturation branches) but uses hand-derived partials and the
/// branch-free fastExp/fastLog kernels, so the per-lane loop body
/// auto-vectorizes (32-byte vectors on the SSTVS_SIMD build). That
/// needs the lanes.hpp kernels inlined into the loop, which their
/// always_inline attribute forces and a CI objdump step guards. Scalar
/// simulation remains the reference; agreement is enforced by a
/// differential test.
void mosCoreCurrentLanes(const MosModelCard& card, size_t lanes, double ut, double n,
                         const double* vt, const double* beta, const double* vg,
                         const double* vd, const double* vs, double* ids, double* gg,
                         double* gd, double* gs);

/// Lane-wise junction diode current + conductance, matching
/// junctionCurrent's linearized exponential (switch at 40
/// ideality-units, value and slope continuous).
void junctionCurrentLanes(size_t lanes, const double* i_sat, double n_j, double ut,
                          const double* v, double* i, double* g);

/// Junction (bulk-to-diffusion) diode current, polarity-normalized: the
/// anode-cathode voltage is `v` (negative when reverse biased). The
/// exponential is linearized above 10 ideality-units so a wild Newton
/// iterate cannot overflow; value and slope stay continuous at the
/// switch point.
template <typename T>
T junctionCurrent(double i_sat, double n_j, double ut, const T& v) {
  using std::exp;
  // 40 ideality-units (~1 V): far past any physical operating point, so
  // the linear extension only ever guards Newton iterates, never the
  // converged solution.
  const double u_lim = 40.0;
  const T u = v / (n_j * ut);
  if (u > T(u_lim)) {
    const double e = std::exp(u_lim);
    return i_sat * (e * (1.0 + (u - T(u_lim))) - 1.0);
  }
  return i_sat * (exp(u) - T(1.0));
}

}  // namespace vls
