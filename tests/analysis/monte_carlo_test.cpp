#include "analysis/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/job_control.hpp"
#include "io/checkpoint.hpp"

namespace vls {
namespace {

MonteCarloConfig smallMc(int samples = 12) {
  MonteCarloConfig mc;
  mc.samples = samples;
  mc.seed = 7;
  return mc;
}

/// Closed-form response-surface stand-in for the transient testbench:
/// metric scales and W/L/VT/temperature sensitivities representative of
/// the SS-TVS cell, plus a deterministic rare non-functional region in
/// the deep VT tail (~0.1% of samples at paper sigmas). Microseconds
/// per sample instead of tens of milliseconds, so the tests below can
/// exercise scheduling, streaming statistics and QMC convergence at
/// 10^5 samples. Not a circuit model.
std::function<ShifterMetrics(const MonteCarloSample&)> makeSurrogateEvaluator(
    const HarnessConfig& harness) {
  // Metric scales loosely calibrated to the nominal SS-TVS testbench
  // at 0.8 V -> 1.2 V, 27 C, with first-order supply scaling so
  // surrogate sweeps still react to harness settings. Sensitivities:
  // delays grow with VT and L, shrink with W; switching power moves the
  // other way; leakage is exponentially VT- and temperature-sensitive
  // (subthreshold).
  const double supply = harness.vddo > 0.0 ? harness.vddo / 1.2 : 1.0;
  const double t0 = harness.temperature_c;
  return [supply, t0](const MonteCarloSample& sample) {
    double a_vt = 0.0, a_w = 0.0, a_l = 0.0, worst_vt = 0.0;
    for (const MosGeometry& g : sample.geometries) {
      a_vt += g.delta_vt;
      a_w += g.delta_w / g.w;
      a_l += g.delta_l / g.l;
      worst_vt = std::max(worst_vt, std::fabs(g.delta_vt));
    }
    const double nf = sample.geometries.empty() ? 1.0 : double(sample.geometries.size());
    a_vt /= nf * 0.39;  // normalize to the nominal NMOS VT
    a_w /= nf;
    a_l /= nf;
    const double dT = sample.temperature_c - t0;
    ShifterMetrics m;
    m.delay_rise = 155e-12 / supply * std::exp(1.8 * a_vt + 0.9 * a_l - 0.7 * a_w + 0.0022 * dT);
    m.delay_fall = 118e-12 / supply * std::exp(1.5 * a_vt + 0.8 * a_l - 0.6 * a_w + 0.0019 * dT);
    m.power_rise =
        2.3e-6 * supply * supply * std::exp(-0.6 * a_vt + 0.8 * a_w - 0.3 * a_l + 0.0008 * dT);
    m.power_fall =
        1.9e-6 * supply * supply * std::exp(-0.5 * a_vt + 0.7 * a_w - 0.3 * a_l + 0.0008 * dT);
    m.leakage_high = 1.4e-9 * supply * std::exp(-9.0 * a_vt + 0.9 * a_w + 0.035 * dT);
    m.leakage_low = 0.9e-9 * supply * std::exp(-8.0 * a_vt + 0.8 * a_w + 0.035 * dT);
    // Deterministic rare-tail failure region: a single deep-VT outlier
    // device (~3.9 sigma at the paper's sigmas) breaks the cell.
    m.functional = worst_vt < 0.050;
    return m;
  };
}

TEST(MonteCarlo, ProducesRequestedSamples) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  const MonteCarloResult r = runMonteCarlo(h, smallMc());
  EXPECT_EQ(r.samples, 12);
  EXPECT_EQ(r.delay_rise.size(), 12u);
  EXPECT_EQ(r.leakage_low.size(), 12u);
  EXPECT_EQ(r.functional_failures, 0);
}

TEST(MonteCarlo, DeterministicBySeed) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  const MonteCarloResult a = runMonteCarlo(h, smallMc(5));
  const MonteCarloResult b = runMonteCarlo(h, smallMc(5));
  ASSERT_EQ(a.delay_rise.size(), b.delay_rise.size());
  for (size_t i = 0; i < a.delay_rise.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.delay_rise[i], b.delay_rise[i]);
  }
}

TEST(MonteCarlo, DifferentSeedsDiffer) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig m1 = smallMc(5);
  MonteCarloConfig m2 = smallMc(5);
  m2.seed = 8;
  const MonteCarloResult a = runMonteCarlo(h, m1);
  const MonteCarloResult b = runMonteCarlo(h, m2);
  bool any_diff = false;
  for (size_t i = 0; i < a.delay_rise.size(); ++i) {
    if (a.delay_rise[i] != b.delay_rise[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(MonteCarlo, VariationSpreadsDelays) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  const MonteCarloResult r = runMonteCarlo(h, smallMc(16));
  const Summary s = r.delayRise();
  EXPECT_GT(s.stddev, 0.0);
  // Sigma should be a modest fraction of the mean for 3.34% variations.
  EXPECT_LT(s.stddev, 0.5 * s.mean);
}

TEST(MonteCarlo, ZeroVariationCollapsesSpread) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc = smallMc(4);
  mc.variation.sigma_w = 0.0;
  mc.variation.sigma_l = 0.0;
  mc.variation.sigma_vt_rel = 0.0;
  const MonteCarloResult r = runMonteCarlo(h, mc);
  EXPECT_NEAR(r.delayRise().stddev, 0.0, 1e-18);
  EXPECT_NEAR(r.leakageHigh().stddev, 0.0, 1e-18);
}

void expectBitIdentical(const MonteCarloResult& a, const MonteCarloResult& b) {
  ASSERT_EQ(a.delay_rise.size(), b.delay_rise.size());
  for (size_t i = 0; i < a.delay_rise.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.delay_rise[i], b.delay_rise[i]);
    EXPECT_DOUBLE_EQ(a.delay_fall[i], b.delay_fall[i]);
    EXPECT_DOUBLE_EQ(a.power_rise[i], b.power_rise[i]);
    EXPECT_DOUBLE_EQ(a.power_fall[i], b.power_fall[i]);
    EXPECT_DOUBLE_EQ(a.leakage_high[i], b.leakage_high[i]);
    EXPECT_DOUBLE_EQ(a.leakage_low[i], b.leakage_low[i]);
  }
  EXPECT_EQ(a.failed_samples, b.failed_samples);
  EXPECT_EQ(a.functional_failures, b.functional_failures);
}

TEST(MonteCarlo, ThreadCountInvariant) {
  // The determinism contract: VLS_THREADS=1 and VLS_THREADS=4 must give
  // bit-identical per-sample metric vectors for the same seed.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  setenv("VLS_THREADS", "1", 1);
  const MonteCarloResult serial = runMonteCarlo(h, smallMc(8));
  setenv("VLS_THREADS", "4", 1);
  const MonteCarloResult parallel = runMonteCarlo(h, smallMc(8));
  unsetenv("VLS_THREADS");
  expectBitIdentical(serial, parallel);
}

TEST(MonteCarlo, ExplicitThreadOverrideInvariant) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig one = smallMc(6);
  one.threads = 1;
  MonteCarloConfig three = smallMc(6);
  three.threads = 3;
  expectBitIdentical(runMonteCarlo(h, one), runMonteCarlo(h, three));
}

TEST(MonteCarlo, RecordsFailedSampleIndices) {
  // The Khan SS-VS cannot shift this far down: every sample is
  // non-functional by a wide margin, and each sample id must be recorded.
  HarnessConfig h;
  h.kind = ShifterKind::SsvsKhan;
  h.vddi = 1.4;
  h.vddo = 0.5;
  const MonteCarloResult r = runMonteCarlo(h, smallMc(4));
  EXPECT_EQ(r.functional_failures, 4);
  EXPECT_EQ(r.simulation_errors, 0);
  ASSERT_EQ(r.failed_samples.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(r.failed_samples[s].id, s);
    EXPECT_EQ(r.failed_samples[s].kind, FailureKind::NonFunctional);
  }
}

TEST(MonteCarlo, NoFailuresMeansEmptyFailedSamples) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  const MonteCarloResult r = runMonteCarlo(h, smallMc(5));
  EXPECT_TRUE(r.failed_samples.empty());
  // Metric vectors stay index-aligned with sample ids.
  EXPECT_EQ(r.delay_rise.size(), 5u);
}

TEST(MonteCarlo, EnsembleMatchesScalarSummaries) {
  // Acceptance contract for the lockstep ensemble engine: with the same
  // seed, ensemble-mode summary statistics (mean/sigma of delay, power
  // and leakage) must match the scalar reference within 0.5% of the
  // metric scale, and the failed-sample ids must be identical.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  // Compare at converged time resolution: the lockstep engine advances
  // on the min-dt of its lanes, so at coarse settings the two modes
  // carry different discretization error (both within tran tolerance,
  // but not within 0.5% of each other). Tightening dt_max and the LTE
  // tolerance makes both modes converge to the same waveforms.
  h.dt_max = 10e-12;
  h.sim.tran_reltol = 5e-4;
  MonteCarloConfig scalar = smallMc(16);
  scalar.threads = 1;
  MonteCarloConfig ens = scalar;
  ens.ensemble_width = 8;
  const MonteCarloResult a = runMonteCarlo(h, scalar);
  const MonteCarloResult b = runMonteCarlo(h, ens);

  EXPECT_EQ(a.failed_samples, b.failed_samples);
  EXPECT_EQ(a.failedIds(), b.failedIds());
  EXPECT_EQ(a.functional_failures, b.functional_failures);
  EXPECT_EQ(a.simulation_errors, b.simulation_errors);
  ASSERT_EQ(a.delay_rise.size(), b.delay_rise.size());

  auto close = [](const char* what, Summary s, Summary e) {
    const double scale = std::abs(s.mean);
    EXPECT_NEAR(e.mean, s.mean, 0.005 * scale) << what << " mean";
    EXPECT_NEAR(e.stddev, s.stddev, 0.005 * scale) << what << " sigma";
  };
  close("delay_rise", a.delayRise(), b.delayRise());
  close("delay_fall", a.delayFall(), b.delayFall());
  close("power_rise", a.powerRise(), b.powerRise());
  close("power_fall", a.powerFall(), b.powerFall());
  close("leakage_high", a.leakageHigh(), b.leakageHigh());
  close("leakage_low", a.leakageLow(), b.leakageLow());
}

TEST(MonteCarlo, EnsembleWidthInvariantFailureIds) {
  // A config where every sample is non-functional: the ensemble path
  // must report exactly the same ids and kinds as the scalar path.
  HarnessConfig h;
  h.kind = ShifterKind::SsvsKhan;
  h.vddi = 1.4;
  h.vddo = 0.5;
  MonteCarloConfig scalar = smallMc(6);
  MonteCarloConfig ens = smallMc(6);
  ens.ensemble_width = 4;
  const MonteCarloResult a = runMonteCarlo(h, scalar);
  const MonteCarloResult b = runMonteCarlo(h, ens);
  EXPECT_EQ(a.failed_samples, b.failed_samples);
  EXPECT_EQ(b.functional_failures, 6);
  EXPECT_EQ(b.simulation_errors, 0);
}

TEST(MonteCarlo, EnsembleWidthClampAndOddBatch) {
  // Widths above kMaxLanes clamp instead of throwing, and a sample
  // count that does not divide the width still yields every sample.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc = smallMc(5);
  mc.ensemble_width = 1000;
  const MonteCarloResult r = runMonteCarlo(h, mc);
  EXPECT_EQ(r.samples, 5);
  EXPECT_EQ(r.delay_rise.size(), 5u);
  EXPECT_EQ(r.functional_failures, 0);
}

TEST(MonteCarloFault, RecoveredFaultLeavesNoFailureRecord) {
  // A single-fire Newton fault kills the direct rung of one sample's
  // operating point; the gmin rung rescues it. The sample must produce
  // metrics and no failure record — in both engine modes.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig scalar = smallMc(4);
  scalar.fault_sample = 1;
  scalar.fault.fail_newton_at_iteration = 0;
  scalar.fault.stage_mask = recoveryStageBit(RecoveryStage::DirectNewton);
  scalar.fault.max_fires = 1;
  MonteCarloConfig ens = scalar;
  ens.ensemble_width = 4;
  const MonteCarloResult a = runMonteCarlo(h, scalar);
  const MonteCarloResult b = runMonteCarlo(h, ens);
  EXPECT_TRUE(a.failed_samples.empty());
  EXPECT_EQ(a.failed_samples, b.failed_samples);
  EXPECT_EQ(a.simulation_errors, 0);
  EXPECT_EQ(b.simulation_errors, 0);
  EXPECT_EQ(a.delay_rise.size(), 4u);
  EXPECT_EQ(b.delay_rise.size(), 4u);
}

TEST(MonteCarloFault, UnrecoverableFaultAttributedIdenticallyInBothModes) {
  // An unlimited pivot fault defeats every ladder rung for one sample.
  // Scalar and ensemble runs must record exactly the same failure:
  // same id, same deepest stage, same implicated node.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig scalar = smallMc(4);
  scalar.fault_sample = 2;
  scalar.fault.zero_pivot_node = "out";
  MonteCarloConfig ens = scalar;
  ens.ensemble_width = 4;
  const MonteCarloResult a = runMonteCarlo(h, scalar);
  const MonteCarloResult b = runMonteCarlo(h, ens);

  ASSERT_EQ(a.failed_samples.size(), 1u);
  const SampleFailure& f = a.failed_samples[0];
  EXPECT_EQ(f.id, 2);
  EXPECT_EQ(f.kind, FailureKind::SimulationError);
  EXPECT_EQ(f.stage, "pseudo-transient");  // deepest rung attempted
  EXPECT_EQ(f.node, "out");
  EXPECT_FALSE(f.message.empty());
  EXPECT_EQ(a.simulation_errors, 1);
  // The comparison is on full records: attribution strings included.
  EXPECT_EQ(a.failed_samples, b.failed_samples);
  // The healthy samples still produced metrics.
  EXPECT_EQ(a.delay_rise.size(), 3u);
  EXPECT_EQ(b.delay_rise.size(), 3u);
}

TEST(MonteCarloFault, EnsembleSmokeRecordsExactlyOneFailure) {
  // CI smoke contract: a 32-sample width-8 ensemble run with one
  // sabotaged sample yields exactly one failed_samples entry, fully
  // attributed, and 31 clean metric entries.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc = smallMc(32);
  mc.ensemble_width = 8;
  mc.fault_sample = 13;
  mc.fault.zero_pivot_node = "out";
  const MonteCarloResult r = runMonteCarlo(h, mc);
  ASSERT_EQ(r.failed_samples.size(), 1u);
  EXPECT_EQ(r.failed_samples[0].id, 13);
  EXPECT_EQ(r.failed_samples[0].kind, FailureKind::SimulationError);
  EXPECT_FALSE(r.failed_samples[0].stage.empty());
  EXPECT_EQ(r.failed_samples[0].node, "out");
  EXPECT_EQ(r.simulation_errors, 1);
  EXPECT_EQ(r.functional_failures, 0);
  EXPECT_EQ(r.delay_rise.size(), 31u);
}

TEST(MonteCarlo, PaperSigmas) {
  const VariationSpec v{};
  EXPECT_NEAR(v.sigma_w, 0.0334 * 90e-9, 1e-12);
  EXPECT_NEAR(v.sigma_l, 0.0334 * 90e-9, 1e-12);
  // 3 sigma = 10% of nominal VT.
  EXPECT_NEAR(3.0 * v.sigma_vt_rel, 0.1, 2e-3);
}

/// Relative closeness of a streaming summary to the exact one on the
/// statistics the P2/Welford accumulators estimate.
void expectSummariesClose(const char* what, const Summary& exact, const Summary& stream,
                          double rel_tol) {
  EXPECT_EQ(exact.count, stream.count) << what;
  auto near = [&](const char* stat, double e, double s) {
    const double scale = std::max(std::abs(e), std::abs(s));
    EXPECT_NEAR(s, e, rel_tol * scale + 1e-30) << what << " " << stat;
  };
  near("mean", exact.mean, stream.mean);
  near("stddev", exact.stddev, stream.stddev);
  near("p05", exact.p05, stream.p05);
  near("median", exact.median, stream.median);
  near("p95", exact.p95, stream.p95);
  // Welford tracks extremes exactly.
  EXPECT_DOUBLE_EQ(exact.min, stream.min) << what;
  EXPECT_DOUBLE_EQ(exact.max, stream.max) << what;
}

/// Removes the checkpoint file on construction and destruction.
struct ScopedCkpt {
  explicit ScopedCkpt(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~ScopedCkpt() { std::remove(path.c_str()); }
  std::string path;
};

void expectSummaryBitEqual(const char* what, const Summary& a, const Summary& b) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.stddev, b.stddev) << what;
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.max, b.max) << what;
  EXPECT_EQ(a.p05, b.p05) << what;
  EXPECT_EQ(a.median, b.median) << what;
  EXPECT_EQ(a.p95, b.p95) << what;
}

/// Streaming results agree bit for bit: failure records and every
/// summary field of every metric.
void expectStreamBitEqual(const MonteCarloResult& a, const MonteCarloResult& b) {
  EXPECT_EQ(a.failed_samples, b.failed_samples);
  expectSummaryBitEqual("delay_rise", a.stream.delay_rise, b.stream.delay_rise);
  expectSummaryBitEqual("delay_fall", a.stream.delay_fall, b.stream.delay_fall);
  expectSummaryBitEqual("power_rise", a.stream.power_rise, b.stream.power_rise);
  expectSummaryBitEqual("power_fall", a.stream.power_fall, b.stream.power_fall);
  expectSummaryBitEqual("leakage_high", a.stream.leakage_high, b.stream.leakage_high);
  expectSummaryBitEqual("leakage_low", a.stream.leakage_low, b.stream.leakage_low);
}

TEST(MonteCarloStreaming, MatchesExactOnRealHarness) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc = smallMc(12);
  const MonteCarloResult exact = runMonteCarlo(h, mc);
  mc.streaming = true;
  const MonteCarloResult stream = runMonteCarlo(h, mc);
  EXPECT_FALSE(exact.streaming);
  EXPECT_TRUE(stream.streaming);
  EXPECT_TRUE(stream.delay_rise.empty());  // never materialized
  EXPECT_EQ(stream.failed_samples, exact.failed_samples);
  EXPECT_EQ(stream.functional_failures, exact.functional_failures);
  EXPECT_EQ(stream.simulation_errors, exact.simulation_errors);
  // 12 observations is deep P2-estimator territory: mean/extremes are
  // exact, quantiles are marker estimates.
  EXPECT_DOUBLE_EQ(stream.delayRise().mean, exact.delayRise().mean);
  EXPECT_DOUBLE_EQ(stream.delayRise().min, exact.delayRise().min);
  EXPECT_DOUBLE_EQ(stream.delayRise().max, exact.delayRise().max);
  expectSummariesClose("delay_rise", exact.delayRise(), stream.delayRise(), 0.05);

  // Streaming folds each epoch in sample-id order with or without a
  // checkpoint: the summaries equal a checkpointed run's exactly, and
  // do not depend on the thread count.
  ScopedCkpt f("test_mc_stream_real.vlsckpt");
  MonteCarloConfig checkpointed = mc;
  checkpointed.checkpoint_path = f.path;
  expectStreamBitEqual(stream, runMonteCarlo(h, checkpointed));
  mc.threads = 1;
  const MonteCarloResult stream1 = runMonteCarlo(h, mc);
  mc.threads = 4;
  expectStreamBitEqual(stream1, runMonteCarlo(h, mc));
}

// The 10^5-sample acceptance smoke on the surrogate evaluator:
// streaming summaries agree with the exact path within 1%, and
// failed_samples is bit-identical across {threads, streaming}.
TEST(MonteCarloStreaming, SurrogateStreamingMatchesExactAt100k) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc;
  mc.samples = 100000;
  mc.seed = 20080310;
  mc.evaluator = makeSurrogateEvaluator(h);

  mc.threads = 1;
  const MonteCarloResult exact = runMonteCarlo(h, mc);
  mc.streaming = true;
  const MonteCarloResult stream1 = runMonteCarlo(h, mc);
  mc.threads = 4;
  const MonteCarloResult stream4 = runMonteCarlo(h, mc);

  // The surrogate's deep-VT-tail failure region fires at ~0.4%: enough
  // to make the bit-identity assertion meaningful.
  EXPECT_GT(exact.functional_failures, 100);
  EXPECT_LT(exact.functional_failures, 2000);
  EXPECT_EQ(stream1.failed_samples, exact.failed_samples);
  EXPECT_EQ(stream4.failed_samples, exact.failed_samples);
  EXPECT_EQ(stream4.functional_failures, exact.functional_failures);

  expectSummariesClose("delay_rise", exact.delayRise(), stream4.delayRise(), 0.01);
  expectSummariesClose("delay_fall", exact.delayFall(), stream4.delayFall(), 0.01);
  expectSummariesClose("power_rise", exact.powerRise(), stream4.powerRise(), 0.01);
  expectSummariesClose("power_fall", exact.powerFall(), stream4.powerFall(), 0.01);
  expectSummariesClose("leakage_high", exact.leakageHigh(), stream4.leakageHigh(), 0.01);
  expectSummariesClose("leakage_low", exact.leakageLow(), stream4.leakageLow(), 0.01);
}

TEST(MonteCarlo, FailedSamplesInvariantAcrossThreadsWidthStreaming) {
  // Every sample non-functional on this config; the failure records
  // must be bit-identical for every {threads} x {width} x {streaming}
  // combination.
  HarnessConfig h;
  h.kind = ShifterKind::SsvsKhan;
  h.vddi = 1.4;
  h.vddo = 0.5;
  MonteCarloConfig ref_mc = smallMc(6);
  ref_mc.threads = 1;
  const MonteCarloResult ref = runMonteCarlo(h, ref_mc);
  ASSERT_EQ(ref.failed_samples.size(), 6u);
  for (const int threads : {1, 4}) {
    for (const int width : {1, 4}) {
      for (const bool streaming : {false, true}) {
        MonteCarloConfig mc = smallMc(6);
        mc.threads = threads;
        mc.ensemble_width = width;
        mc.streaming = streaming;
        const MonteCarloResult r = runMonteCarlo(h, mc);
        EXPECT_EQ(r.failed_samples, ref.failed_samples)
            << "threads " << threads << " width " << width << " streaming " << streaming;
        EXPECT_EQ(r.functional_failures, 6);
      }
    }
  }
}

TEST(MonteCarloQmc, ModesAreDeterministicAndDistinct) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc;
  mc.samples = 1000;
  mc.seed = 42;
  mc.evaluator = makeSurrogateEvaluator(h);
  std::vector<MonteCarloResult> results;
  for (const SamplingMode mode :
       {SamplingMode::Pseudo, SamplingMode::LatinHypercube, SamplingMode::Sobol}) {
    mc.sampling = mode;
    const MonteCarloResult a = runMonteCarlo(h, mc);
    const MonteCarloResult b = runMonteCarlo(h, mc);
    expectBitIdentical(a, b);  // deterministic per mode
    results.push_back(a);
  }
  // Distinct modes draw distinct perturbations.
  EXPECT_NE(results[0].delay_rise, results[1].delay_rise);
  EXPECT_NE(results[0].delay_rise, results[2].delay_rise);
  EXPECT_NE(results[1].delay_rise, results[2].delay_rise);
  // But they estimate the same distribution.
  const double ref_mean = results[0].delayRise().mean;
  EXPECT_NEAR(results[1].delayRise().mean, ref_mean, 0.01 * ref_mean);
  EXPECT_NEAR(results[2].delayRise().mean, ref_mean, 0.01 * ref_mean);
}

TEST(MonteCarloQmc, LowDiscrepancyModesRunOnRealHarness) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  for (const SamplingMode mode : {SamplingMode::LatinHypercube, SamplingMode::Sobol}) {
    MonteCarloConfig mc = smallMc(4);
    mc.sampling = mode;
    const MonteCarloResult r = runMonteCarlo(h, mc);
    EXPECT_EQ(r.delay_rise.size(), 4u) << samplingModeName(mode);
    EXPECT_EQ(r.functional_failures, 0) << samplingModeName(mode);
    EXPECT_GT(r.delayRise().stddev, 0.0) << samplingModeName(mode);
  }
}

TEST(MonteCarloQmc, ThreadAndWidthInvariantPerMode) {
  // The serial-derivation contract holds for the QMC modes too: with
  // the surrogate, metric vectors are bit-identical across threads.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc;
  mc.samples = 2000;
  mc.seed = 9;
  mc.evaluator = makeSurrogateEvaluator(h);
  for (const SamplingMode mode :
       {SamplingMode::Pseudo, SamplingMode::LatinHypercube, SamplingMode::Sobol}) {
    mc.sampling = mode;
    mc.threads = 1;
    const MonteCarloResult serial = runMonteCarlo(h, mc);
    mc.threads = 4;
    const MonteCarloResult parallel = runMonteCarlo(h, mc);
    expectBitIdentical(serial, parallel);
  }
}

// ---------------------------------------------------------------------
// Checkpoint/resume: a run killed at an arbitrary watermark and resumed
// from its checkpoint file must produce bit-identical results to the
// uninterrupted run — metric vectors, failure records, and (in
// streaming mode) every summary field.

/// Runs `mc` with a deterministic kill after `kill_after` completed
/// samples, then resumes from the checkpoint and returns the result.
MonteCarloResult killThenResume(const HarnessConfig& h, MonteCarloConfig mc,
                                uint64_t kill_after) {
  MonteCarloConfig killed = mc;
  killed.job = std::make_shared<JobControl>();
  killed.job->cancelAfterUnits(kill_after);
  EXPECT_THROW(runMonteCarlo(h, killed), JobInterrupted);
  mc.job = nullptr;
  return runMonteCarlo(h, mc);
}

TEST(MonteCarloCheckpoint, SurrogateKillResumeBitIdenticalAt100k) {
  // The acceptance contract at scale: a 10^5-sample exact-mode run
  // killed mid-flight resumes bit-identically, across thread counts.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc;
  mc.samples = 100000;
  mc.seed = 20080310;
  mc.evaluator = makeSurrogateEvaluator(h);
  mc.threads = 1;
  const MonteCarloResult ref = runMonteCarlo(h, mc);  // uninterrupted, no checkpoint

  for (const int threads : {1, 4}) {
    for (const uint64_t kill_after : {uint64_t{900}, uint64_t{31777}}) {
      ScopedCkpt f("test_mc_exact.vlsckpt");
      MonteCarloConfig run = mc;
      run.threads = threads;
      run.checkpoint_path = f.path;
      run.checkpoint_interval = 4096;
      const MonteCarloResult resumed = killThenResume(h, run, kill_after);
      // A kill inside the first epoch leaves no checkpoint (the resume
      // is then a fresh run); a later kill must genuinely resume.
      if (kill_after > 4096) {
        EXPECT_GT(resumed.resumed_samples, 0) << "kill_after " << kill_after;
      }
      expectBitIdentical(ref, resumed);
    }
  }
}

TEST(MonteCarloCheckpoint, StreamingKillResumeBitIdenticalAcrossThreads) {
  // Checkpointed streaming accumulates in ordered epochs, so summaries
  // are bit-identical across thread counts AND across kill/resume.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc;
  mc.samples = 50000;
  mc.seed = 20080310;
  mc.evaluator = makeSurrogateEvaluator(h);
  mc.streaming = true;
  mc.checkpoint_interval = 2048;

  ScopedCkpt ref_f("test_mc_stream_ref.vlsckpt");
  MonteCarloConfig ref_mc = mc;
  ref_mc.threads = 1;
  ref_mc.checkpoint_path = ref_f.path;
  const MonteCarloResult ref = runMonteCarlo(h, ref_mc);  // uninterrupted

  for (const int threads : {1, 4}) {
    ScopedCkpt f("test_mc_stream.vlsckpt");
    MonteCarloConfig run = mc;
    run.threads = threads;
    run.checkpoint_path = f.path;
    const MonteCarloResult resumed = killThenResume(h, run, 9000);
    SCOPED_TRACE(threads);
    expectStreamBitEqual(ref, resumed);
  }
}

TEST(MonteCarloCheckpoint, RealHarnessEnsembleKillResumeBitIdentical) {
  // Full-transient path, width-4 lockstep batches: kill after 6 of 12
  // samples, resume, compare against the uninterrupted run.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc = smallMc(12);
  mc.ensemble_width = 4;
  const MonteCarloResult ref = runMonteCarlo(h, mc);

  ScopedCkpt f("test_mc_real.vlsckpt");
  mc.checkpoint_path = f.path;
  mc.checkpoint_interval = 4;
  const MonteCarloResult resumed = killThenResume(h, mc, 6);
  // At least one full width-aligned epoch landed before the kill, and
  // the kill genuinely interrupted the run.
  EXPECT_GT(resumed.resumed_samples, 0);
  EXPECT_LT(resumed.resumed_samples, 12);
  expectBitIdentical(ref, resumed);
}

TEST(MonteCarloCheckpoint, CompletedCheckpointShortCircuitsRerun) {
  // A checkpoint at watermark == samples: the rerun restores the sink
  // and gathers without recomputing anything.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  ScopedCkpt f("test_mc_done.vlsckpt");
  MonteCarloConfig mc;
  mc.samples = 5000;
  mc.seed = 11;
  mc.evaluator = makeSurrogateEvaluator(h);
  mc.checkpoint_path = f.path;
  mc.checkpoint_interval = 1024;
  const MonteCarloResult first = runMonteCarlo(h, mc);
  const MonteCarloResult rerun = runMonteCarlo(h, mc);
  EXPECT_EQ(rerun.resumed_samples, 5000);
  expectBitIdentical(first, rerun);
}

TEST(MonteCarloCheckpoint, IncompatibleConfigRejected) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  ScopedCkpt f("test_mc_incompat.vlsckpt");
  MonteCarloConfig mc;
  mc.samples = 4000;
  mc.seed = 11;
  mc.evaluator = makeSurrogateEvaluator(h);
  mc.checkpoint_path = f.path;
  mc.checkpoint_interval = 1024;
  runMonteCarlo(h, mc);

  // Same path, different seed: the fingerprint must not match.
  MonteCarloConfig other = mc;
  other.seed = 12;
  EXPECT_THROW(runMonteCarlo(h, other), InvalidInputError);
  // Different sampling mode likewise.
  MonteCarloConfig mode = mc;
  mode.sampling = SamplingMode::Sobol;
  EXPECT_THROW(runMonteCarlo(h, mode), InvalidInputError);
}

TEST(MonteCarloCheckpoint, OldPayloadVersionRejected) {
  // A payload of the previous layout (sub-version 1: the configuration
  // fields inline, no fingerprint blob) must be refused, never misread.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  ScopedCkpt f("test_mc_v1.vlsckpt");
  MonteCarloConfig mc;
  mc.samples = 2048;
  mc.seed = 11;
  mc.evaluator = makeSurrogateEvaluator(h);
  mc.checkpoint_path = f.path;
  mc.checkpoint_interval = 1024;
  CheckpointWriter w;
  w.u32(1);
  w.u64(mc.seed);
  w.u8(static_cast<uint8_t>(mc.sampling));
  w.u64(2048);  // samples
  w.u8(0);      // streaming
  w.u64(1);     // width
  w.u64(1024);  // interval
  w.u64(static_cast<uint64_t>(int64_t{-1}));  // fault_sample
  w.u64(1);     // max_retries
  w.f64(mc.variation.sigma_w);
  w.f64(mc.variation.sigma_l);
  w.f64(mc.variation.sigma_vt_rel);
  w.f64(mc.variation.sigma_temperature_c);
  w.u64(1024);  // completed-id watermark
  writeCheckpointFile(f.path, kCheckpointKindMonteCarlo, w);
  EXPECT_THROW(runMonteCarlo(h, mc), InvalidInputError);
}

TEST(MonteCarloCheckpoint, FaultedSampleKeepsFailureRecordAcrossResume) {
  // The degrade-don't-abort ladder and checkpointing compose: a sample
  // with an unrecoverable injected fault stays attributed identically
  // after a kill/resume around it.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc = smallMc(8);
  mc.fault_sample = 5;
  mc.fault.zero_pivot_node = "out";
  const MonteCarloResult ref = runMonteCarlo(h, mc);
  ASSERT_EQ(ref.failed_samples.size(), 1u);

  ScopedCkpt f("test_mc_fault.vlsckpt");
  MonteCarloConfig run = mc;
  run.checkpoint_path = f.path;
  run.checkpoint_interval = 2;
  const MonteCarloResult resumed = killThenResume(h, run, 4);
  expectBitIdentical(ref, resumed);
  ASSERT_EQ(resumed.failed_samples.size(), 1u);
  EXPECT_EQ(resumed.failed_samples[0].id, 5);
  EXPECT_EQ(resumed.failed_samples[0].node, "out");
}

TEST(MonteCarloRetry, UnrecoverableFaultCountsARetry) {
  // max_retries = 1 (the default): the sabotaged sample is attempted
  // twice (fresh injector each time, so the unlimited fault re-fires),
  // counted as retried but not recovered, and still recorded.
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc = smallMc(4);
  mc.fault_sample = 2;
  mc.fault.zero_pivot_node = "out";
  const MonteCarloResult r = runMonteCarlo(h, mc);
  EXPECT_EQ(r.retried_samples, 1);
  EXPECT_EQ(r.retry_recovered, 0);
  EXPECT_EQ(r.simulation_errors, 1);

  // With retries disabled the sample fails on its only attempt. The
  // recorded id/kind match; the message text differs (the escalated
  // attempt reports its tightened ladder), so only the identity is
  // compared.
  mc.max_retries = 0;
  const MonteCarloResult r0 = runMonteCarlo(h, mc);
  EXPECT_EQ(r0.retried_samples, 0);
  EXPECT_EQ(r0.simulation_errors, 1);
  EXPECT_EQ(r0.failedIds(), r.failedIds());
}

TEST(MonteCarloTemperature, SpreadsMetricsAndForcesScalar) {
  HarnessConfig h;
  h.kind = ShifterKind::Sstvs;
  MonteCarloConfig mc;
  mc.samples = 4000;
  mc.seed = 5;
  mc.evaluator = makeSurrogateEvaluator(h);
  const MonteCarloResult fixed_t = runMonteCarlo(h, mc);
  mc.variation.sigma_temperature_c = 15.0;
  const MonteCarloResult varied_t = runMonteCarlo(h, mc);
  // The surrogate's leakage is exponentially temperature-sensitive:
  // a 15 C sigma should widen its spread far beyond process-only.
  EXPECT_GT(varied_t.leakageHigh().stddev, 2.0 * fixed_t.leakageHigh().stddev);

  // On the real harness, temperature variation runs through the scalar
  // engine even when a width is requested, and still yields every
  // sample deterministically.
  MonteCarloConfig real_mc = smallMc(4);
  real_mc.variation.sigma_temperature_c = 25.0;
  real_mc.ensemble_width = 8;
  const MonteCarloResult a = runMonteCarlo(h, real_mc);
  const MonteCarloResult b = runMonteCarlo(h, real_mc);
  EXPECT_EQ(a.delay_rise.size(), 4u);
  expectBitIdentical(a, b);
  // Same seed, different temperatures: the draws differ from the
  // temperature-free run.
  const MonteCarloResult cold = runMonteCarlo(h, smallMc(4));
  EXPECT_NE(a.delay_rise, cold.delay_rise);
}

}  // namespace
}  // namespace vls
