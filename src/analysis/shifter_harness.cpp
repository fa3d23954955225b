#include "analysis/shifter_harness.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/measure.hpp"
#include "analysis/unit_runner.hpp"
#include "base/error.hpp"
#include "devices/mosfet.hpp"
#include "devices/passive.hpp"
#include "io/checkpoint.hpp"
#include "sim/ensemble.hpp"
#include "sim/simulator.hpp"

namespace vls {

const char* shifterKindName(ShifterKind kind) {
  switch (kind) {
    case ShifterKind::Sstvs: return "SS-TVS";
    case ShifterKind::CombinedVs: return "Combined VS";
    case ShifterKind::InverterOnly: return "Inverter";
    case ShifterKind::SsvsKhan: return "SS-VS [6]";
    case ShifterKind::SsvsPuri: return "SS-VS [13]";
    case ShifterKind::Bootstrap: return "Bootstrap [9]";
  }
  return "?";
}

bool shifterKindInverting(ShifterKind kind) {
  return kind != ShifterKind::SsvsPuri;  // [13] here is two cascaded inverters
}

ShifterTestbench::ShifterTestbench(HarnessConfig config) : config_(std::move(config)) {
  if (config_.bits.empty()) throw InvalidInputError("HarnessConfig: empty bit sequence");
  build();
}

Waveform ShifterTestbench::stimulusWaveform(double edge_time) const {
  // PWL over the bit slots plus the two static leakage states: in=0
  // (output high for inverting DUTs), then in=1. Through the driver
  // inverter the PWL carries the *complement* of the bit sequence (the
  // driver restores polarity); direct drive carries the bits verbatim.
  std::vector<int> levels = config_.bits;
  levels.push_back(0);
  levels.push_back(1);

  std::vector<double> ts;
  std::vector<double> vs;
  auto slot_duration = [&](size_t k) {
    return k < config_.bits.size() ? config_.bit_period : config_.leak_settle;
  };
  double t = 0.0;
  for (size_t k = 0; k < levels.size(); ++k) {
    const bool high = config_.direct_drive ? levels[k] != 0 : levels[k] == 0;
    const double v = high ? config_.vddi : 0.0;
    if (k == 0) {
      ts.push_back(0.0);
      vs.push_back(v);
    } else {
      // The edge must land inside its slot — slow characterization
      // ramps can exceed the short static-state slots appended after
      // the bits, where only the settled level matters.
      ts.push_back(t + std::min(edge_time, 0.9 * slot_duration(k)));
      vs.push_back(v);
    }
    t += slot_duration(k);
    ts.push_back(t);
    vs.push_back(v);
  }
  return Waveform::pwl(ts, vs);
}

void ShifterTestbench::build() {
  Circuit& c = circuit_;
  const NodeId vddo = c.node("vddo");
  const NodeId vddi = c.node("vddi");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");

  vddo_src_ = &c.add<VoltageSource>("v_vddo", vddo, kGround, config_.vddo);
  vddi_src_ = &c.add<VoltageSource>("v_vddi", vddi, kGround, config_.vddi);

  t_bits_end_ = static_cast<double>(config_.bits.size()) * config_.bit_period;
  t_leak_high_start_ = t_bits_end_;
  t_leak_low_start_ = t_bits_end_ + config_.leak_settle;
  t_stop_ = t_bits_end_ + 2.0 * config_.leak_settle;

  if (config_.direct_drive) {
    // The PWL drives the DUT input directly: the input slew is exactly
    // the PWL edge time (characterization farm).
    vin_src_ = &c.add<VoltageSource>("v_in", in, kGround, stimulusWaveform(config_.edge_time));
  } else {
    const NodeId drv = c.node("drv");
    vin_src_ = &c.add<VoltageSource>("v_in", drv, kGround, stimulusWaveform(config_.edge_time));
    // Same-sized driver inverter in the VDDI domain.
    buildInverter(c, "xdrv", drv, in, vddi, config_.inverter);
  }

  // Fixed output load (the paper: 1 fF).
  load_cap_ = &c.add<Capacitor>("c_load", out, kGround, config_.load_cap);

  probe_nodes_ = {"in", "out"};

  switch (config_.kind) {
    case ShifterKind::Sstvs: {
      SstvsHandles h = buildSstvs(c, "xdut", in, out, vddo, config_.sstvs);
      dut_fets_ = h.fets;
      probe_nodes_.push_back(c.nodeName(h.node1));
      probe_nodes_.push_back(c.nodeName(h.node2));
      probe_nodes_.push_back(c.nodeName(h.ctrl));
      break;
    }
    case ShifterKind::CombinedVs: {
      const NodeId sel = c.node("sel");
      const NodeId sel_b = c.node("selb");
      const bool up_shift = config_.vddi < config_.vddo;
      c.add<VoltageSource>("v_sel", sel, kGround, up_shift ? config_.vddo : 0.0);
      c.add<VoltageSource>("v_selb", sel_b, kGround, up_shift ? 0.0 : config_.vddo);
      CombinedVsHandles h = buildCombinedVs(c, "xdut", in, out, sel, sel_b, vddo,
                                            config_.combined);
      dut_fets_ = h.fets;
      probe_nodes_.push_back(c.nodeName(h.inv_out));
      probe_nodes_.push_back(c.nodeName(h.ssvs_out));
      break;
    }
    case ShifterKind::InverterOnly: {
      GateHandles h = buildInverter(c, "xdut", in, out, vddo, config_.inverter);
      dut_fets_ = h.fets;
      break;
    }
    case ShifterKind::SsvsKhan: {
      SsvsKhanHandles h = buildSsvsKhan(c, "xdut", in, out, vddo, config_.ssvs);
      dut_fets_ = h.fets;
      probe_nodes_.push_back(c.nodeName(h.vvdd));
      probe_nodes_.push_back(c.nodeName(h.in_b));
      break;
    }
    case ShifterKind::SsvsPuri: {
      SsvsPuriHandles h = buildSsvsPuri(c, "xdut", in, out, vddo, config_.puri);
      dut_fets_ = h.fets;
      probe_nodes_.push_back(c.nodeName(h.vvdd));
      probe_nodes_.push_back(c.nodeName(h.in_b));
      break;
    }
    case ShifterKind::Bootstrap: {
      BootstrapHandles h = buildBootstrapShifter(c, "xdut", in, out, vddo, config_.bootstrap);
      dut_fets_ = h.fets;
      probe_nodes_.push_back(c.nodeName(h.boot));
      break;
    }
  }
  inverting_ = shifterKindInverting(config_.kind);
}

const TransientResult& ShifterTestbench::lastRun() const {
  if (!last_run_) throw InvalidInputError("ShifterTestbench: no run yet");
  return *last_run_;
}

std::vector<std::string> ShifterTestbench::probeNodes() const { return probe_nodes_; }

ShifterMetrics ShifterTestbench::measure() {
  SimOptions opts = config_.sim;
  opts.temperature_c = config_.temperature_c;
  Simulator sim(circuit_, opts);
  last_run_ = std::make_unique<TransientResult>(
      sim.transient(t_stop_, config_.dt_max, config_.edge_time / 4.0));
  return extractMetrics(*last_run_, [&](double t_probe, const std::vector<double>& x0) {
    return sim.solveOpAt(t_probe, x0);
  });
}

std::vector<EnsembleSample> ShifterTestbench::measureEnsemble(
    const std::vector<std::vector<MosGeometry>>& lane_geoms) {
  const size_t lanes = lane_geoms.size();
  if (lanes == 0) throw InvalidInputError("measureEnsemble: no lanes");
  SimOptions opts = config_.sim;
  opts.temperature_c = config_.temperature_c;
  EnsembleSimulator sim(circuit_, lanes, opts);
  for (size_t f = 0; f < dut_fets_.size(); ++f) {
    auto* state = static_cast<MosfetLaneState*>(sim.laneState(*dut_fets_[f]));
    for (size_t l = 0; l < lanes; ++l) {
      if (lane_geoms[l].size() != dut_fets_.size()) {
        throw InvalidInputError("measureEnsemble: geometry row size != dutFets() size");
      }
      state->setGeometry(l, lane_geoms[l][f]);
    }
  }
  sim.transient(t_stop_, config_.dt_max, config_.edge_time / 4.0);

  // Static leakage probes, ensemble-native: both probe instants are
  // shared by every lane (the stimulus is lane-invariant), so solve
  // each once for all lanes and gather per lane below. The probe times
  // mirror extractMetrics' leak_at calls exactly.
  const double win = config_.leak_settle * config_.leak_window_frac;
  const double t_probe_a = t_leak_high_start_ + config_.leak_settle - 0.5 * win;
  const double t_probe_b = t_stop_ - 0.5 * win;
  auto warm_step = [&](double t_probe) {
    size_t step = sim.steps() - 1;
    while (step > 0 && sim.time()[step] > t_probe) --step;
    return step;
  };
  const std::vector<double> leak_a = sim.solveOpAt(t_probe_a, sim.solutionSoA(warm_step(t_probe_a)));
  const std::vector<double> leak_b = sim.solveOpAt(t_probe_b, sim.solutionSoA(warm_step(t_probe_b)));

  std::vector<EnsembleSample> out(lanes);
  for (size_t l = 0; l < lanes; ++l) {
    if (sim.laneFailed(l)) {
      out[l].failure = sim.laneFailure(l);  // ok stays false: re-run scalar
      continue;
    }
    const TransientResult run = sim.laneResult(l);
    auto gather = [&](const std::vector<double>& soa) {
      std::vector<double> x(sim.numUnknowns());
      for (size_t i = 0; i < x.size(); ++i) x[i] = soa[i * lanes + l];
      return x;
    };
    const std::vector<double> x_a = gather(leak_a);
    const std::vector<double> x_b = gather(leak_b);
    out[l].metrics = extractMetrics(run, [&](double t_probe, const std::vector<double>&) {
      return t_probe < 0.5 * (t_probe_a + t_probe_b) ? x_a : x_b;
    });
    out[l].ok = true;
  }
  return out;
}

ShifterMetrics ShifterTestbench::extractMetrics(const TransientResult& run,
                                                const LeakSolver& solve_op_at) const {
  const Signal in_sig = run.node("in");
  const Signal out_sig = run.node("out");
  const double vmi = 0.5 * config_.vddi;
  const double vmo = 0.5 * config_.vddo;

  ShifterMetrics m;

  // Delays: every input edge inside the bit phase maps to an output
  // edge — of the opposite direction for inverting DUTs, the same
  // direction otherwise. Worst case wins.
  const std::vector<double> all_rise = crossTimes(in_sig, vmi, CrossDir::Rising, 0.0);
  const std::vector<double> all_fall = crossTimes(in_sig, vmi, CrossDir::Falling, 0.0);
  const std::vector<double>& in_fall = inverting_ ? all_fall : all_rise;  // -> output rises
  const std::vector<double>& in_rise = inverting_ ? all_rise : all_fall;  // -> output falls
  std::vector<double> powers_rise;
  std::vector<double> powers_fall;
  for (double t_edge : in_fall) {
    if (t_edge > t_bits_end_) continue;  // transition into the leak phases
    const auto t_out = crossTime(out_sig, vmo, CrossDir::Rising, t_edge);
    if (t_out) m.delay_rise = std::max(m.delay_rise, *t_out - t_edge);
    const double w1 = std::min(t_edge + config_.bit_period, run.time().back());
    powers_rise.push_back(averageSupplyPower(run, *vddo_src_, t_edge, w1));
  }
  for (double t_edge : in_rise) {
    if (t_edge > t_bits_end_) continue;  // transition into the leak phases
    const auto t_out = crossTime(out_sig, vmo, CrossDir::Falling, t_edge);
    if (t_out) m.delay_fall = std::max(m.delay_fall, *t_out - t_edge);
    const double w1 = std::min(t_edge + config_.bit_period, run.time().back());
    powers_fall.push_back(averageSupplyPower(run, *vddo_src_, t_edge, w1));
  }
  auto mean_of = [](const std::vector<double>& xs) {
    if (xs.empty()) return 0.0;
    double acc = 0.0;
    for (double x : xs) acc += x;
    return acc / static_cast<double>(xs.size());
  };
  m.power_rise = mean_of(powers_rise);
  m.power_fall = mean_of(powers_fall);

  // Leakage: true steady state, obtained by warm-starting a DC solve
  // from the end of each settled transient phase. A finite averaging
  // window would still contain the (subthreshold-limited, ~1/t) ctrl
  // recharge current of the SS-TVS and overstate its leakage.
  const double win = config_.leak_settle * config_.leak_window_frac;
  const double t_high_1 = t_leak_high_start_ + config_.leak_settle;
  const double t_low_1 = t_stop_;
  auto leak_at = [&](double t_probe, double& vddo_leak, double& vddi_leak) {
    size_t step = run.steps() - 1;
    while (step > 0 && run.time()[step] > t_probe) --step;
    const std::vector<double> x = solve_op_at(t_probe, run.solution(step));
    vddo_leak = std::fabs(x[vddo_src_->branchIndex()]);
    vddi_leak = std::fabs(x[vddi_src_->branchIndex()]);
  };
  // The first appended phase holds in=0 (output high for inverting
  // DUTs, low otherwise); the second holds in=1.
  if (inverting_) {
    leak_at(t_high_1 - 0.5 * win, m.leakage_high, m.leakage_high_vddi);
    leak_at(t_low_1 - 0.5 * win, m.leakage_low, m.leakage_low_vddi);
  } else {
    leak_at(t_high_1 - 0.5 * win, m.leakage_low, m.leakage_low_vddi);
    leak_at(t_low_1 - 0.5 * win, m.leakage_high, m.leakage_high_vddi);
  }

  // Functional check: in each settled window the output must sit within
  // 10% of the correct rail.
  const double tol = 0.1 * config_.vddo;
  bool ok = true;
  auto settled_out = [&](double t0, double t1) { return averageValue(out_sig, t0, t1); };
  auto out_for_bit = [&](int bit) {
    const bool high = inverting_ ? bit == 0 : bit != 0;
    return high ? config_.vddo : 0.0;
  };
  for (size_t k = 0; k < config_.bits.size(); ++k) {
    const double t1 = static_cast<double>(k + 1) * config_.bit_period;
    const double t0 = t1 - 0.15 * config_.bit_period;
    if (std::fabs(settled_out(t0, t1) - out_for_bit(config_.bits[k])) > tol) ok = false;
  }
  if (std::fabs(settled_out(t_high_1 - win, t_high_1) - out_for_bit(0)) > tol) ok = false;
  if (std::fabs(settled_out(t_low_1 - win, t_low_1) - out_for_bit(1)) > tol) ok = false;
  m.functional = ok;
  return m;
}

void writeShifterMetrics(CheckpointWriter& w, const ShifterMetrics& m) {
  w.f64(m.delay_rise);
  w.f64(m.delay_fall);
  w.f64(m.power_rise);
  w.f64(m.power_fall);
  w.f64(m.leakage_high);
  w.f64(m.leakage_low);
  w.f64(m.leakage_high_vddi);
  w.f64(m.leakage_low_vddi);
  w.u8(m.functional ? 1 : 0);
}

ShifterMetrics readShifterMetrics(CheckpointReader& r) {
  ShifterMetrics m;
  m.delay_rise = r.f64();
  m.delay_fall = r.f64();
  m.power_rise = r.f64();
  m.power_fall = r.f64();
  m.leakage_high = r.f64();
  m.leakage_low = r.f64();
  m.leakage_high_vddi = r.f64();
  m.leakage_low_vddi = r.f64();
  m.functional = r.u8() != 0;
  return m;
}

ShifterMetrics measureShifter(const HarnessConfig& config) {
  ShifterTestbench tb(config);
  return tb.measure();
}

ShifterMetrics measureShifterWorstCase(const HarnessConfig& config) {
  // Adversarial input histories: what matters is how much charge the
  // ctrl node holds when the input falls (the paper's "worst-case input
  // sequence"). A runt high pulse leaves ctrl lowest.
  std::vector<HarnessConfig> variants(3, config);
  variants[0].bits = {1, 0, 1, 0};
  variants[1].bits = {1, 1, 0, 1, 0};
  variants[2].bits = {1, 0, 1, 0, 1, 0, 1, 0};
  variants[2].bit_period = config.bit_period * 0.4;

  // The variants are independent runner units; they fold in this fixed
  // order, and a variant that still throws after its escalated retry
  // fails the call with its own exception.
  const std::vector<ShifterMetrics> metrics = unitValuesOrRethrow(runUnits<ShifterMetrics>(
      variants.size(),
      [&](size_t i, const RecoveryPolicy& policy) {
        HarnessConfig v = variants[i];
        v.sim = attemptOptions(config.sim, policy);
        return measureShifter(v);
      },
      {.recovery = config.sim.recovery}));

  ShifterMetrics worst = metrics.front();
  for (size_t i = 1; i < metrics.size(); ++i) {
    const ShifterMetrics& m = metrics[i];
    worst.delay_rise = std::max(worst.delay_rise, m.delay_rise);
    worst.delay_fall = std::max(worst.delay_fall, m.delay_fall);
    worst.power_rise = std::max(worst.power_rise, m.power_rise);
    worst.power_fall = std::max(worst.power_fall, m.power_fall);
    worst.leakage_high = std::max(worst.leakage_high, m.leakage_high);
    worst.leakage_low = std::max(worst.leakage_low, m.leakage_low);
    worst.leakage_high_vddi = std::max(worst.leakage_high_vddi, m.leakage_high_vddi);
    worst.leakage_low_vddi = std::max(worst.leakage_low_vddi, m.leakage_low_vddi);
    worst.functional = worst.functional && m.functional;
  }
  return worst;
}

}  // namespace vls
