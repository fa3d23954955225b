#include "analysis/monte_carlo.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "analysis/unit_runner.hpp"
#include "base/error.hpp"
#include "base/logging.hpp"
#include "io/checkpoint.hpp"
#include "numeric/lanes.hpp"
#include "numeric/rng.hpp"
#include "sim/diagnostics.hpp"

namespace vls {

namespace {

/// Per-fet nominal state snapshotted from one testbench build, so
/// sample derivation never needs a live circuit (the draw order and
/// values are identical to perturbing a fresh testbench in place).
struct FetNominal {
  MosGeometry base;
  double vt0 = 0.0;
};

/// Serially-derived per-sample perturbations. The draw order (per fet:
/// delta_w, delta_l, delta_vt; then the optional temperature deviate)
/// is the determinism contract shared by every execution path: a
/// sample's perturbations depend only on (seed, sampling mode, sample
/// index) — never on thread count, completion order, ensemble width or
/// streaming mode. Pseudo mode consumes one pre-split xoshiro stream
/// per sample; LHS/Sobol map index-addressable low-discrepancy points
/// through the inverse normal CDF with the same dimension order.
class SampleDrawer {
 public:
  SampleDrawer(const MonteCarloConfig& config, size_t n, const MosList& fets,
               double nominal_temperature_c)
      : mode_(config.sampling),
        variation_(config.variation),
        nominal_temperature_c_(nominal_temperature_c) {
    nominals_.reserve(fets.size());
    for (const Mosfet* fet : fets) nominals_.push_back({fet->geometry(), fet->model().vt0});
    vary_temperature_ = variation_.sigma_temperature_c > 0.0;
    dims_ = 3 * nominals_.size() + (vary_temperature_ ? 1 : 0);
    switch (mode_) {
      case SamplingMode::Pseudo: {
        Rng root(config.seed);
        streams_.reserve(n);
        for (size_t s = 0; s < n; ++s) streams_.push_back(root.split());
        break;
      }
      case SamplingMode::LatinHypercube:
        lhs_ = std::make_unique<LatinHypercube>(static_cast<unsigned>(dims_),
                                                n > 0 ? n : 1, config.seed);
        break;
      case SamplingMode::Sobol:
        if (dims_ > SobolSequence::kMaxDims) {
          throw InvalidInputError("runMonteCarlo: Sobol sampling supports at most " +
                                  std::to_string(SobolSequence::kMaxDims) +
                                  " dimensions; this DUT needs " + std::to_string(dims_));
        }
        sobol_ = std::make_unique<SobolSequence>(static_cast<unsigned>(dims_), config.seed);
        break;
    }
  }

  bool variesTemperature() const { return vary_temperature_; }

  MonteCarloSample draw(size_t s) const {
    MonteCarloSample out;
    out.id = static_cast<int>(s);
    out.temperature_c = nominal_temperature_c_;
    out.geometries.reserve(nominals_.size());
    if (mode_ == SamplingMode::Pseudo) {
      Rng rng = streams_[s];
      for (const FetNominal& fet : nominals_) {
        MosGeometry g = fet.base;
        g.delta_w = rng.gaussian(0.0, variation_.sigma_w);
        g.delta_l = rng.gaussian(0.0, variation_.sigma_l);
        g.delta_vt = rng.gaussian(0.0, variation_.sigma_vt_rel * fet.vt0);
        out.geometries.push_back(g);
      }
      if (vary_temperature_) {
        out.temperature_c += rng.gaussian(0.0, variation_.sigma_temperature_c);
      }
    } else {
      std::vector<double> u(dims_);
      if (lhs_) {
        lhs_->point(s, u.data());
      } else {
        sobol_->point(s, u.data());
      }
      size_t d = 0;
      for (const FetNominal& fet : nominals_) {
        MosGeometry g = fet.base;
        g.delta_w = variation_.sigma_w * inverseNormalCdf(u[d++]);
        g.delta_l = variation_.sigma_l * inverseNormalCdf(u[d++]);
        g.delta_vt = variation_.sigma_vt_rel * fet.vt0 * inverseNormalCdf(u[d++]);
        out.geometries.push_back(g);
      }
      if (vary_temperature_) {
        out.temperature_c += variation_.sigma_temperature_c * inverseNormalCdf(u[d++]);
      }
    }
    return out;
  }

 private:
  SamplingMode mode_;
  VariationSpec variation_;
  double nominal_temperature_c_;
  bool vary_temperature_ = false;
  size_t dims_ = 0;
  std::vector<FetNominal> nominals_;
  std::vector<Rng> streams_;
  std::unique_ptr<LatinHypercube> lhs_;
  std::unique_ptr<SobolSequence> sobol_;
};

/// The six reported metrics, in one order for the sample record, the
/// exact-mode vectors and the streaming summaries.
constexpr double ShifterMetrics::*kMetric[] = {
    &ShifterMetrics::delay_rise, &ShifterMetrics::delay_fall,   &ShifterMetrics::power_rise,
    &ShifterMetrics::power_fall, &ShifterMetrics::leakage_high, &ShifterMetrics::leakage_low};
constexpr std::vector<double> MonteCarloResult::*kExact[] = {
    &MonteCarloResult::delay_rise, &MonteCarloResult::delay_fall,
    &MonteCarloResult::power_rise, &MonteCarloResult::power_fall,
    &MonteCarloResult::leakage_high, &MonteCarloResult::leakage_low};
constexpr Summary StreamingSummaries::*kStream[] = {
    &StreamingSummaries::delay_rise, &StreamingSummaries::delay_fall,
    &StreamingSummaries::power_rise, &StreamingSummaries::power_fall,
    &StreamingSummaries::leakage_high, &StreamingSummaries::leakage_low};
constexpr size_t kNumMetrics = std::size(kMetric);

/// Shared result sink for the exact and streaming paths. Each epoch's
/// unit results arrive from the runner in sample-id order and fold()
/// consumes them serially: exact mode appends to the metric vectors,
/// streaming mode feeds O(1) accumulators, and both append failure
/// records. The P² estimators are ingestion-order sensitive, so this is
/// what makes streaming summaries bit-identical across thread counts,
/// with or without a checkpoint, and across kill/resume (the sink state
/// at every epoch boundary — the only state a checkpoint stores — does
/// not depend on scheduling). Failure records come out in id order, the
/// same in both modes.
class ResultSink {
 public:
  explicit ResultSink(bool streaming) : streaming_(streaming) {}

  /// Fold the results of samples [begin, begin + epoch.size()).
  void fold(size_t begin, const std::vector<UnitResult<ShifterMetrics>>& epoch) {
    for (size_t k = 0; k < epoch.size(); ++k) {
      const int s = static_cast<int>(begin + k);
      const UnitResult<ShifterMetrics>& r = epoch[k];
      retried_ += std::max(0, r.attempts - 1);
      if (!r.ok()) {
        VLS_LOG_WARN("Monte-Carlo sample %d failed: %s", s, r.failure->message.c_str());
        failures_.push_back({s, FailureKind::SimulationError, r.failure->stage, r.failure->node,
                             r.failure->message});
        ++simulation_errors_;
        continue;
      }
      if (r.attempts > 1) ++retry_recovered_;
      for (size_t i = 0; i < kNumMetrics; ++i) {
        const double v = r.value.*kMetric[i];
        if (streaming_) {
          stats_[i].add(v);
        } else {
          values_[i].push_back(v);
        }
      }
      if (!r.value.functional) {
        failures_.push_back({s, FailureKind::NonFunctional, {}, {}, {}});
        ++functional_failures_;
      }
    }
  }

  /// Serialize everything needed to resume: counters, the metric
  /// vectors (exact) or accumulator states (streaming), failures.
  void saveState(CheckpointWriter& w) const {
    w.u64(static_cast<uint64_t>(retried_));
    w.u64(static_cast<uint64_t>(retry_recovered_));
    for (size_t i = 0; i < kNumMetrics; ++i) {
      w.f64vec(streaming_ ? stats_[i].saveState() : values_[i]);
    }
    w.u64(static_cast<uint64_t>(functional_failures_));
    w.u64(static_cast<uint64_t>(simulation_errors_));
    w.u64(failures_.size());
    for (const SampleFailure& f : failures_) {
      w.u64(static_cast<uint64_t>(f.id));
      w.u8(static_cast<uint8_t>(f.kind));
      w.str(f.stage);
      w.str(f.node);
      w.str(f.message);
    }
  }

  void loadState(CheckpointReader& r) {
    retried_ = static_cast<int>(r.u64());
    retry_recovered_ = static_cast<int>(r.u64());
    for (size_t i = 0; i < kNumMetrics; ++i) {
      if (streaming_) {
        stats_[i].restoreState(r.f64vec());
      } else {
        values_[i] = r.f64vec();
      }
    }
    functional_failures_ = static_cast<int>(r.u64());
    simulation_errors_ = static_cast<int>(r.u64());
    // Grown record by record: a bad count fails on the payload's end
    // instead of sizing an allocation.
    const uint64_t n_failures = r.u64();
    for (uint64_t i = 0; i < n_failures; ++i) {
      SampleFailure& f = failures_.emplace_back();
      f.id = static_cast<int>(r.u64());
      f.kind = static_cast<FailureKind>(r.u8());
      f.stage = r.str();
      f.node = r.str();
      f.message = r.str();
    }
  }

  void gather(MonteCarloResult& result) {
    for (size_t i = 0; i < kNumMetrics; ++i) {
      if (streaming_) {
        result.stream.*kStream[i] = stats_[i].summary();
      } else {
        result.*kExact[i] = std::move(values_[i]);
      }
    }
    result.failed_samples = std::move(failures_);
    result.functional_failures = functional_failures_;
    result.simulation_errors = simulation_errors_;
    result.retried_samples = retried_;
    result.retry_recovered = retry_recovered_;
  }

 private:
  bool streaming_;
  std::array<std::vector<double>, kNumMetrics> values_;  // exact mode
  std::array<StreamingSummary, kNumMetrics> stats_;      // streaming mode
  std::vector<SampleFailure> failures_;
  int functional_failures_ = 0;
  int simulation_errors_ = 0;
  // Degrade-don't-abort counters: escalated attempts made, and samples
  // those attempts recovered.
  int retried_ = 0;
  int retry_recovered_ = 0;
};

}  // namespace

MonteCarloResult runMonteCarlo(const HarnessConfig& harness, const MonteCarloConfig& config) {
  MonteCarloResult result;
  result.samples = config.samples;
  result.streaming = config.streaming;
  const size_t n = config.samples > 0 ? static_cast<size_t>(config.samples) : 0;

  // Derive every sample's perturbations from a one-off nominal
  // snapshot, serially up front (Pseudo) or index-addressably
  // (LHS/Sobol) — see SampleDrawer for the determinism contract.
  std::unique_ptr<SampleDrawer> drawer;
  {
    ShifterTestbench nominal_tb(harness);
    drawer = std::make_unique<SampleDrawer>(config, n, nominal_tb.dutFets(),
                                            harness.temperature_c);
  }

  size_t width = static_cast<size_t>(
      std::clamp<int>(config.ensemble_width, 1, static_cast<int>(kMaxLanes)));
  if (width > 1 && drawer->variesTemperature()) {
    // Lockstep lanes share one thermal context; per-sample temperature
    // runs through the scalar engine (results stay width-invariant by
    // construction — the width is simply not exercised).
    VLS_LOG_INFO("Monte-Carlo: temperature variation enabled; ensemble width %zu runs scalar",
                 width);
    width = 1;
  }

  // The run executes [0,n) in sequential epochs of `interval` samples:
  // checkpoints are written at epoch boundaries, and streaming runs fold
  // each epoch in id order, so their memory stays O(interval). Epochs
  // are width-aligned so a lockstep batch never straddles a boundary
  // (the batch grouping — and with it every lane result — must be
  // identical between a resumed and an uninterrupted run).
  const bool use_ckpt = !config.checkpoint_path.empty() && n > 0;
  size_t interval = 1024;
  if (use_ckpt) {
    interval = config.checkpoint_interval > 0 ? static_cast<size_t>(config.checkpoint_interval)
                                              : std::max<size_t>(1024, n / 16);
  }
  interval = ((std::max(interval, width) + width - 1) / width) * width;

  ResultSink sink(config.streaming);
  std::atomic<int> done{0};
  const int log_step = std::max(100, config.samples / 10);
  auto report = [&](size_t count) {
    const int c = static_cast<int>(count);
    const int d = done += c;
    if (d / log_step != (d - c) / log_step) {
      VLS_LOG_INFO("Monte-Carlo: %d / %d samples", d, config.samples);
    }
  };
  const bool fault_armed =
      config.fault_sample >= 0 && static_cast<size_t>(config.fault_sample) < n;

  const UnitRunOptions run{.threads = config.threads,
                           .max_retries = config.max_retries,
                           .recovery = harness.sim.recovery,
                           .job = config.job.get()};
  UnitRunOptions evaluator_run = run;  // surrogate evaluations are never retried
  evaluator_run.max_retries = 0;

  // Scalar simulation of one sample through the unit ladder. This path
  // owns the failed_samples record: ensemble lanes that drop out are
  // re-run here, so the attribution strings are produced by the same
  // engine either way. Every attempt gets a fresh fault injector: the
  // targeted sample one from config.fault, everyone else a copy of
  // whatever spec the caller put on harness.sim (never the shared
  // instance, whose fire budget would race across samples and diverge
  // between the scalar and ensemble paths).
  auto run_scalar = [&](const MonteCarloSample& sample) {
    return runUnitAttempts<ShifterMetrics>(
        static_cast<size_t>(sample.id),
        [&](const RecoveryPolicy& policy) {
          HarnessConfig h = harness;
          h.temperature_c = sample.temperature_c;
          h.sim = attemptOptions(harness.sim, policy);
          h.sim.job_control = config.job;
          if (fault_armed && sample.id == config.fault_sample) {
            FaultSpec spec = config.fault;
            spec.lane = -1;  // scalar engine: the whole run is the target
            h.sim.fault_injector = std::make_shared<FaultInjector>(spec);
          }
          ShifterTestbench tb(h);
          MosList& fets = tb.dutFets();
          for (size_t f = 0; f < fets.size(); ++f) fets[f]->setGeometry(sample.geometries[f]);
          return tb.measure();
        },
        run);
  };

  // Lockstep ensemble run of samples [s0, s0 + count) into out[0, count).
  // Lanes that drop out of the batch (and whole batches that fail
  // outright) re-run through the scalar ladder with the very same
  // perturbations, so failed_samples semantics are unchanged.
  auto run_batch = [&](size_t s0, size_t count, UnitResult<ShifterMetrics>* out) {
    const size_t b = s0 / width;  // global batch id (logging)
    // The batch holding the fault target gets a lane-targeted copy of
    // the spec: only that lane is poisoned, its siblings run clean. A
    // fresh injector per batch keeps the firing budget independent of
    // which batch runs first.
    HarnessConfig batch_harness = harness;
    batch_harness.sim = attemptOptions(harness.sim, harness.sim.recovery);
    batch_harness.sim.job_control = config.job;
    if (fault_armed && static_cast<size_t>(config.fault_sample) >= s0 &&
        static_cast<size_t>(config.fault_sample) < s0 + count) {
      FaultSpec spec = config.fault;
      spec.lane = config.fault_sample - static_cast<int>(s0);
      batch_harness.sim.fault_injector = std::make_shared<FaultInjector>(spec);
    }
    ShifterTestbench tb(batch_harness);
    std::vector<MonteCarloSample> samples;
    samples.reserve(count);
    std::vector<std::vector<MosGeometry>> lane_geoms(count);
    for (size_t l = 0; l < count; ++l) {
      samples.push_back(drawer->draw(s0 + l));
      lane_geoms[l] = samples.back().geometries;
    }
    std::vector<EnsembleSample> batch;
    try {
      batch = tb.measureEnsemble(lane_geoms);
    } catch (const Error& e) {
      VLS_LOG_WARN("Monte-Carlo ensemble batch %zu failed (%s); samples re-run scalar", b,
                   e.what());
      batch.assign(count, EnsembleSample{});
    }
    for (size_t l = 0; l < count; ++l) {
      if (batch[l].ok) {
        out[l].value = batch[l].metrics;
        out[l].attempts = 1;
        continue;
      }
      if (batch[l].failure.valid) {
        VLS_LOG_WARN(
            "Monte-Carlo sample %zu dropped out of lane %zu (%s in %s, node '%s'); "
            "re-running scalar",
            s0 + l, l, newtonFailureReasonName(batch[l].failure.reason),
            recoveryStageName(batch[l].failure.stage), batch[l].failure.node.c_str());
      }
      out[l] = run_scalar(samples[l]);
    }
  };

  // One epoch's dispatch over samples [begin, end); begin/end are
  // width-aligned (except end == n). The evaluator path (surrogate
  // models: no circuits, no fault injection) and the scalar path run
  // one sample per unit; the ensemble path runs `width` consecutive
  // samples per lockstep batch, whole batches (chunks of batches, under
  // work stealing) per worker thread — threads x width composes
  // multiplicatively.
  auto dispatch = [&](size_t begin, size_t end) {
    std::vector<UnitResult<ShifterMetrics>> epoch(end - begin);
    const size_t group = config.evaluator || width <= 1 ? 1 : width;
    runUnitGroups(
        end - begin, group,
        [&](size_t lo, size_t hi) {
          const size_t s0 = begin + lo;
          if (config.evaluator) {
            const MonteCarloSample sample = drawer->draw(s0);
            epoch[lo] = runUnitAttempts<ShifterMetrics>(
                s0, [&](const RecoveryPolicy&) { return config.evaluator(sample); },
                evaluator_run);
          } else if (group == 1) {
            epoch[lo] = run_scalar(drawer->draw(s0));
          } else {
            run_batch(s0, hi - lo, &epoch[lo]);
          }
          report(hi - lo);
        },
        run);
    return epoch;
  };

  // Config fingerprint stored in (and validated against) a checkpoint:
  // every knob that changes sample draws, batching, or epoch structure.
  const std::vector<uint8_t> fingerprint = [&] {
    CheckpointWriter w;
    w.u32(2);  // MC payload sub-version
    w.u64(config.seed);
    w.u8(static_cast<uint8_t>(config.sampling));
    w.u64(n);
    w.u8(config.streaming ? 1 : 0);
    w.u64(width);
    w.u64(interval);
    w.u64(static_cast<uint64_t>(static_cast<int64_t>(config.fault_sample)));
    w.u64(static_cast<uint64_t>(std::max(0, config.max_retries)));
    w.f64(config.variation.sigma_w);
    w.f64(config.variation.sigma_l);
    w.f64(config.variation.sigma_vt_rel);
    w.f64(config.variation.sigma_temperature_c);
    return w.bytes();
  }();

  size_t start = 0;
  if (use_ckpt && checkpointFileExists(config.checkpoint_path)) {
    CheckpointReader r = readCheckpointFile(config.checkpoint_path, kCheckpointKindMonteCarlo);
    if (r.blob() != fingerprint) {
      throw InvalidInputError("runMonteCarlo: checkpoint '" + config.checkpoint_path +
                              "' was written by an incompatible configuration");
    }
    start = r.u64();
    sink.loadState(r);
    result.resumed_samples = static_cast<int>(start);
    VLS_LOG_INFO("Monte-Carlo: resuming from checkpoint '%s' at sample %zu / %zu",
                 config.checkpoint_path.c_str(), start, n);
  }

  for (size_t e = start; e < n; e += interval) {
    const size_t e_end = std::min(n, e + interval);
    sink.fold(e, dispatch(e, e_end));
    if (use_ckpt) {
      CheckpointWriter w;
      w.blob(fingerprint);
      w.u64(e_end);
      sink.saveState(w);
      writeCheckpointFile(config.checkpoint_path, kCheckpointKindMonteCarlo, w);
    }
  }

  sink.gather(result);
  return result;
}

}  // namespace vls
