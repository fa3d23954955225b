#include "analysis/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "base/error.hpp"
#include "base/logging.hpp"
#include "base/parallel.hpp"
#include "io/checkpoint.hpp"
#include "numeric/lanes.hpp"
#include "numeric/rng.hpp"
#include "sim/diagnostics.hpp"
#include "sim/recovery.hpp"

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

void writeFailure(CheckpointWriter& w, const SampleFailure& f) {
  w.u64(static_cast<uint64_t>(f.id));
  w.u8(static_cast<uint8_t>(f.kind));
  w.str(f.stage);
  w.str(f.node);
  w.str(f.message);
}

SampleFailure readFailure(CheckpointReader& r) {
  SampleFailure f;
  f.id = static_cast<int>(r.u64());
  f.kind = static_cast<FailureKind>(r.u8());
  f.stage = r.str();
  f.node = r.str();
  f.message = r.str();
  return f;
}

void writeMetrics(CheckpointWriter& w, const ShifterMetrics& m) {
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

ShifterMetrics readMetrics(CheckpointReader& r) {
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

/// Shared result sink for the exact and streaming paths. Exact mode
/// writes pre-sized per-sample slots (gathered serially in id order).
/// Streaming mode buffers the current epoch's per-sample slots and
/// endEpoch() folds them into O(1) accumulators serially in id order.
/// The P² estimators are ingestion-order sensitive, so this is what
/// makes streaming summaries bit-identical across thread counts, with
/// or without a checkpoint, and across kill/resume (the accumulator
/// state at every epoch boundary — the only state a checkpoint stores —
/// does not depend on scheduling). Failure records come out in id
/// order too, bit-identical to the exact path.
class ResultSink {
 public:
  ResultSink(bool streaming, size_t n) : streaming_(streaming), n_(n) {
    if (!streaming_) {
      metrics_.resize(n);
      threw_.assign(n, 0);
      throw_info_.resize(n);
    }
  }

  void beginEpoch(size_t begin, size_t end) {
    if (!streaming_) return;
    epoch_begin_ = begin;
    epoch_metrics_.assign(end - begin, ShifterMetrics{});
    epoch_threw_.assign(end - begin, 0);
    epoch_info_.assign(end - begin, SampleFailure{});
  }

  void endEpoch(size_t begin, size_t end) {
    if (!streaming_) return;
    for (size_t s = begin; s < end; ++s) {
      const size_t k = s - epoch_begin_;
      if (epoch_threw_[k]) {
        failures_.push_back(std::move(epoch_info_[k]));
        ++simulation_errors_;
        continue;
      }
      accumulate(s, epoch_metrics_[k]);
    }
  }

  // Distinct slots per sample: no lock needed.
  void addMetrics(size_t s, const ShifterMetrics& m) {
    if (streaming_) {
      epoch_metrics_[s - epoch_begin_] = m;
    } else {
      metrics_[s] = m;
    }
  }

  void addThrow(size_t s, SampleFailure failure) {
    if (streaming_) {
      epoch_threw_[s - epoch_begin_] = 1;
      epoch_info_[s - epoch_begin_] = std::move(failure);
    } else {
      threw_[s] = 1;
      throw_info_[s] = std::move(failure);
    }
  }

  /// Serialize everything needed to resume after `watermark` completed
  /// samples: accumulator + failure state (streaming) or the per-sample
  /// slots in [0, watermark) (exact).
  void saveState(CheckpointWriter& w, size_t watermark) const {
    if (streaming_) {
      w.f64vec(delay_rise_.saveState());
      w.f64vec(delay_fall_.saveState());
      w.f64vec(power_rise_.saveState());
      w.f64vec(power_fall_.saveState());
      w.f64vec(leakage_high_.saveState());
      w.f64vec(leakage_low_.saveState());
      w.u64(static_cast<uint64_t>(functional_failures_));
      w.u64(static_cast<uint64_t>(simulation_errors_));
      w.u64(failures_.size());
      for (const SampleFailure& f : failures_) writeFailure(w, f);
      return;
    }
    for (size_t s = 0; s < watermark; ++s) {
      w.u8(threw_[s]);
      if (threw_[s]) {
        writeFailure(w, throw_info_[s]);
      } else {
        writeMetrics(w, metrics_[s]);
      }
    }
  }

  void loadState(CheckpointReader& r, size_t watermark) {
    if (streaming_) {
      delay_rise_.restoreState(r.f64vec());
      delay_fall_.restoreState(r.f64vec());
      power_rise_.restoreState(r.f64vec());
      power_fall_.restoreState(r.f64vec());
      leakage_high_.restoreState(r.f64vec());
      leakage_low_.restoreState(r.f64vec());
      functional_failures_ = static_cast<int>(r.u64());
      simulation_errors_ = static_cast<int>(r.u64());
      const uint64_t n_failures = r.u64();
      failures_.clear();
      for (uint64_t i = 0; i < n_failures; ++i) failures_.push_back(readFailure(r));
      return;
    }
    for (size_t s = 0; s < watermark; ++s) {
      threw_[s] = r.u8();
      if (threw_[s]) {
        throw_info_[s] = readFailure(r);
      } else {
        metrics_[s] = readMetrics(r);
      }
    }
  }

  void gather(MonteCarloResult& result) {
    if (streaming_) {
      result.failed_samples = std::move(failures_);
      result.functional_failures = functional_failures_;
      result.simulation_errors = simulation_errors_;
      result.stream.delay_rise = delay_rise_.summary();
      result.stream.delay_fall = delay_fall_.summary();
      result.stream.power_rise = power_rise_.summary();
      result.stream.power_fall = power_fall_.summary();
      result.stream.leakage_high = leakage_high_.summary();
      result.stream.leakage_low = leakage_low_.summary();
      return;
    }
    // Serial gather in sample order: identical output for any thread
    // count and ensemble width.
    for (size_t s = 0; s < n_; ++s) {
      if (threw_[s]) {
        result.failed_samples.push_back(throw_info_[s]);
        ++result.simulation_errors;
        continue;
      }
      const ShifterMetrics& m = metrics_[s];
      if (!m.functional) {
        result.failed_samples.push_back(
            {static_cast<int>(s), FailureKind::NonFunctional, {}, {}, {}});
        ++result.functional_failures;
      }
      result.delay_rise.push_back(m.delay_rise);
      result.delay_fall.push_back(m.delay_fall);
      result.power_rise.push_back(m.power_rise);
      result.power_fall.push_back(m.power_fall);
      result.leakage_high.push_back(m.leakage_high);
      result.leakage_low.push_back(m.leakage_low);
    }
  }

 private:
  void accumulate(size_t s, const ShifterMetrics& m) {
    delay_rise_.add(m.delay_rise);
    delay_fall_.add(m.delay_fall);
    power_rise_.add(m.power_rise);
    power_fall_.add(m.power_fall);
    leakage_high_.add(m.leakage_high);
    leakage_low_.add(m.leakage_low);
    if (!m.functional) {
      failures_.push_back({static_cast<int>(s), FailureKind::NonFunctional, {}, {}, {}});
      ++functional_failures_;
    }
  }

  bool streaming_;
  size_t n_;
  // Exact mode: pre-sized per-sample slots.
  std::vector<ShifterMetrics> metrics_;
  std::vector<uint8_t> threw_;
  std::vector<SampleFailure> throw_info_;
  // Streaming mode: O(1) accumulators + failure records only.
  StreamingSummary delay_rise_, delay_fall_;
  StreamingSummary power_rise_, power_fall_;
  StreamingSummary leakage_high_, leakage_low_;
  std::vector<SampleFailure> failures_;
  int functional_failures_ = 0;
  int simulation_errors_ = 0;
  // Streaming mode: current-epoch slot buffers.
  size_t epoch_begin_ = 0;
  std::vector<ShifterMetrics> epoch_metrics_;
  std::vector<uint8_t> epoch_threw_;
  std::vector<SampleFailure> epoch_info_;
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

  ResultSink sink(config.streaming, n);
  std::atomic<int> done{0};
  std::atomic<int> retried{0};
  std::atomic<int> retry_recovered{0};
  const int log_step = std::max(100, config.samples / 10);
  auto report = [&](int count) {
    const int d = done += count;
    if (d / log_step != (d - count) / log_step) {
      VLS_LOG_INFO("Monte-Carlo: %d / %d samples", d, config.samples);
    }
    if (config.job) config.job->unitDone(static_cast<uint64_t>(count));
  };
  const bool fault_armed =
      config.fault_sample >= 0 && static_cast<size_t>(config.fault_sample) < n;
  // Per-sample harness config. Injectors are mutable single-run state
  // (stage + firing count), so every simulation attempt gets a fresh
  // instance: the targeted sample from config.fault, everyone else a
  // copy of whatever spec the caller put on harness.sim (never the
  // shared instance itself, whose fire budget would race across
  // samples and diverge between the scalar and ensemble paths).
  auto harness_for = [&](size_t s, double temperature_c) {
    HarnessConfig h = harness;
    h.temperature_c = temperature_c;
    h.sim.job_control = config.job;
    if (fault_armed && s == static_cast<size_t>(config.fault_sample)) {
      FaultSpec spec = config.fault;
      spec.lane = -1;  // scalar engine: the whole run is the target
      h.sim.fault_injector = std::make_shared<FaultInjector>(spec);
    } else if (h.sim.fault_injector) {
      h.sim.fault_injector = std::make_shared<FaultInjector>(h.sim.fault_injector->spec());
    }
    return h;
  };
  auto record_throw = [&](size_t s, const Error& e) {
    VLS_LOG_WARN("Monte-Carlo sample %zu failed: %s", s, e.what());
    SampleFailure f;
    f.id = static_cast<int>(s);
    f.kind = FailureKind::SimulationError;
    f.message = e.what();
    if (const auto* re = dynamic_cast<const RecoveryError*>(&e)) {
      f.stage = re->diagnostics().lastStageName();
      f.node = re->diagnostics().worstNode();
    }
    sink.addThrow(s, std::move(f));
  };
  // Scalar reference simulation of one sample with fixed perturbations.
  // This path owns the failed_samples record: ensemble lanes that drop
  // out are re-run here, so the attribution strings are produced by the
  // same engine either way. Degrade-don't-abort: a throw is retried up
  // to config.max_retries times under escalatedRecoveryPolicy (fresh
  // fault injector per attempt — budgets re-fire) before the sample is
  // recorded as a SimulationError. JobInterrupted is not a vls::Error,
  // so cancellation cuts straight through this ladder.
  auto run_scalar = [&](const MonteCarloSample& sample) {
    const size_t s = static_cast<size_t>(sample.id);
    const int attempts = 1 + std::max(0, config.max_retries);
    for (int attempt = 0; attempt < attempts; ++attempt) {
      HarnessConfig h = harness_for(s, sample.temperature_c);
      if (attempt > 0) h.sim.recovery = escalatedRecoveryPolicy(h.sim.recovery);
      ShifterTestbench tb(h);
      MosList& fets = tb.dutFets();
      for (size_t f = 0; f < fets.size(); ++f) fets[f]->setGeometry(sample.geometries[f]);
      try {
        sink.addMetrics(s, tb.measure());
        if (attempt > 0) ++retry_recovered;
        return;
      } catch (const Error& e) {
        if (attempt + 1 < attempts) {
          ++retried;
          VLS_LOG_WARN("Monte-Carlo sample %zu failed (%s); retrying escalated", s, e.what());
          continue;
        }
        record_throw(s, e);
      }
    }
  };

  const ParallelOptions pool{config.threads, 0, config.job.get()};
  // One epoch's dispatch over [begin, end); begin/end are width-aligned
  // (except end == n).
  auto dispatch = [&](size_t begin, size_t end) {
    const size_t count_range = end - begin;
    if (config.evaluator) {
      // Evaluator path (surrogate models): no circuits, no fault
      // injection — pure sample derivation + metric evaluation, used to
      // exercise scheduling/statistics at 10^6+ samples.
      parallelForChunked(
          count_range,
          [&](size_t i) {
            const size_t s = begin + i;
            const MonteCarloSample sample = drawer->draw(s);
            try {
              sink.addMetrics(s, config.evaluator(sample));
            } catch (const Error& e) {
              record_throw(s, e);
            }
            report(1);
          },
          pool);
    } else if (width <= 1) {
      // Scalar path: one Simulator per sample.
      parallelForChunked(
          count_range,
          [&](size_t i) {
            run_scalar(drawer->draw(begin + i));
            report(1);
          },
          pool);
    } else {
      // Ensemble path: `width` consecutive samples per lockstep batch,
      // whole batches (chunks of batches, under work stealing) per
      // worker thread — threads x width composes multiplicatively.
      // Lanes that drop out of a batch (and whole batches that fail
      // outright) fall back to the scalar path with the very same
      // perturbations, so failed_samples semantics are unchanged.
      const size_t num_batches = (count_range + width - 1) / width;
      parallelForChunked(
          num_batches,
          [&](size_t bi) {
            const size_t s0 = begin + bi * width;
            const size_t count = std::min(width, end - s0);
            const size_t b = s0 / width;  // global batch id (logging)
            // The batch holding the fault target gets a lane-targeted
            // copy of the spec: only that lane is poisoned, its siblings
            // run clean. A fresh injector per batch keeps the firing
            // budget independent of which batch runs first.
            HarnessConfig batch_harness = harness;
            batch_harness.sim.job_control = config.job;
            if (fault_armed && static_cast<size_t>(config.fault_sample) >= s0 &&
                static_cast<size_t>(config.fault_sample) < s0 + count) {
              FaultSpec spec = config.fault;
              spec.lane = config.fault_sample - static_cast<int>(s0);
              batch_harness.sim.fault_injector = std::make_shared<FaultInjector>(spec);
            } else if (batch_harness.sim.fault_injector) {
              batch_harness.sim.fault_injector =
                  std::make_shared<FaultInjector>(batch_harness.sim.fault_injector->spec());
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
              VLS_LOG_WARN("Monte-Carlo ensemble batch %zu failed (%s); samples re-run scalar",
                           b, e.what());
              batch.assign(count, EnsembleSample{});
            }
            for (size_t l = 0; l < count; ++l) {
              if (batch[l].ok) {
                sink.addMetrics(s0 + l, batch[l].metrics);
              } else {
                if (batch[l].failure.valid) {
                  VLS_LOG_WARN(
                      "Monte-Carlo sample %zu dropped out of lane %zu (%s in %s, node '%s'); "
                      "re-running scalar",
                      s0 + l, l, newtonFailureReasonName(batch[l].failure.reason),
                      recoveryStageName(batch[l].failure.stage), batch[l].failure.node.c_str());
                }
                run_scalar(samples[l]);
              }
            }
            report(static_cast<int>(count));
          },
          pool);
    }
  };

  // Config fingerprint stored in (and validated against) a checkpoint:
  // every knob that changes sample draws, batching, or epoch structure.
  auto write_header = [&](CheckpointWriter& w) {
    w.u32(1);  // MC payload sub-version
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
  };
  auto check_header = [&](CheckpointReader& r) {
    CheckpointWriter expected;
    write_header(expected);
    CheckpointWriter got;
    got.u32(r.u32());
    got.u64(r.u64());
    got.u8(r.u8());
    got.u64(r.u64());
    got.u8(r.u8());
    got.u64(r.u64());
    got.u64(r.u64());
    got.u64(r.u64());
    got.u64(r.u64());
    got.f64(r.f64());
    got.f64(r.f64());
    got.f64(r.f64());
    got.f64(r.f64());
    if (got.bytes() != expected.bytes()) {
      throw InvalidInputError("runMonteCarlo: checkpoint '" + config.checkpoint_path +
                              "' was written by an incompatible configuration");
    }
  };

  size_t start = 0;
  if (use_ckpt && checkpointFileExists(config.checkpoint_path)) {
    CheckpointReader r = readCheckpointFile(config.checkpoint_path, kCheckpointKindMonteCarlo);
    check_header(r);
    start = r.u64();
    retried = static_cast<int>(r.u64());
    retry_recovered = static_cast<int>(r.u64());
    sink.loadState(r, start);
    result.resumed_samples = static_cast<int>(start);
    VLS_LOG_INFO("Monte-Carlo: resuming from checkpoint '%s' at sample %zu / %zu",
                 config.checkpoint_path.c_str(), start, n);
  }

  for (size_t e = start; e < n; e += interval) {
    const size_t e_end = std::min(n, e + interval);
    sink.beginEpoch(e, e_end);
    dispatch(e, e_end);
    sink.endEpoch(e, e_end);
    if (use_ckpt) {
      CheckpointWriter w;
      write_header(w);
      w.u64(e_end);
      w.u64(static_cast<uint64_t>(retried.load()));
      w.u64(static_cast<uint64_t>(retry_recovered.load()));
      sink.saveState(w, e_end);
      writeCheckpointFile(config.checkpoint_path, kCheckpointKindMonteCarlo, w);
    }
  }

  sink.gather(result);
  result.retried_samples = retried.load();
  result.retry_recovered = retry_recovered.load();
  return result;
}

}  // namespace vls
