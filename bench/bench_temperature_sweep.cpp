// Extension bench: temperature dependence of the SS-TVS and combined VS
// (the paper reports 27/60/90 C Monte-Carlo runs as "substantially
// similar"; this sweeps the nominal cells over 0..100 C and shows the
// expected trends: leakage exponential in T, delays mildly increasing).
#include <iostream>

#include "analysis/unit_runner.hpp"
#include "bench_util.hpp"
#include "io/csv.hpp"

int main(int argc, char** argv) {
  using namespace vls;
  using namespace vls::bench;
  const Flags flags(argc, argv);
  const double step = flags.getDouble("step", 20.0);

  std::cout << "bench_temperature_sweep: 0.8 -> 1.2 V characterization vs temperature\n";
  Table t({"T (C)", "TVS rise (ps)", "TVS leak hi (nA)", "TVS leak lo (nA)",
           "Comb rise (ps)", "Comb leak lo (nA)", "both functional"});
  std::vector<CsvColumn> cols = {{"temp_c", {}},    {"tvs_rise_s", {}}, {"tvs_leak_hi_a", {}},
                                 {"tvs_leak_lo_a", {}}, {"comb_rise_s", {}}, {"comb_leak_lo_a", {}}};
  // Temperatures by the accumulated sum the serial loop used, so the
  // printed and written values stay the same; one runner unit per
  // (temperature, cell), SS-TVS first.
  std::vector<double> temps;
  for (double temp = 0.0; temp <= 100.0 + 1e-9; temp += step) temps.push_back(temp);
  UnitRunOptions run;
  const std::vector<ShifterMetrics> metrics = unitValuesOrRethrow(runUnits<ShifterMetrics>(
      2 * temps.size(),
      [&](size_t u, const RecoveryPolicy& policy) {
        HarnessConfig cfg;
        cfg.vddi = 0.8;
        cfg.vddo = 1.2;
        cfg.temperature_c = temps[u / 2];
        cfg.kind = u % 2 == 0 ? ShifterKind::Sstvs : ShifterKind::CombinedVs;
        cfg.sim.recovery = policy;
        return measureShifter(cfg);
      },
      run));

  bool all_ok = true;
  double leak_0c = 0.0;
  double leak_100c = 0.0;
  for (size_t k = 0; k < temps.size(); ++k) {
    const double temp = temps[k];
    const ShifterMetrics& tvs = metrics[2 * k];
    const ShifterMetrics& comb = metrics[2 * k + 1];
    all_ok = all_ok && tvs.functional && comb.functional;
    if (temp == 0.0) leak_0c = tvs.leakage_high;
    leak_100c = tvs.leakage_high;
    t.addRow({Table::fmt(temp, 3), Table::fmtScaled(tvs.delay_rise, 1e-12, 1),
              Table::fmtScaled(tvs.leakage_high, 1e-9, 3),
              Table::fmtScaled(tvs.leakage_low, 1e-9, 3),
              Table::fmtScaled(comb.delay_rise, 1e-12, 1),
              Table::fmtScaled(comb.leakage_low, 1e-9, 1),
              (tvs.functional && comb.functional) ? "yes" : "NO"});
    cols[0].values.push_back(temp);
    cols[1].values.push_back(tvs.delay_rise);
    cols[2].values.push_back(tvs.leakage_high);
    cols[3].values.push_back(tvs.leakage_low);
    cols[4].values.push_back(comb.delay_rise);
    cols[5].values.push_back(comb.leakage_low);
  }
  t.print(std::cout);
  writeCsv("temperature_sweep.csv", cols);
  std::cout << "curves written to temperature_sweep.csv\n";
  std::cout << "leakage growth 0C -> 100C: " << Table::fmt(leak_100c / leak_0c, 3)
            << "x (expect ~1.5-2 decades for subthreshold conduction)\n";
  return all_ok ? 0 : 1;
}
