// Monte-Carlo process/temperature variation engine (paper Tables 3/4):
// channel width, channel length and threshold voltage varied
// independently per device; temperature applied globally. Sigmas follow
// the paper: sigma(W) = sigma(L) = 3.34% of the 90 nm feature size,
// sigma(VT) = 3.34% of each device's nominal VT (3 sigma = 10%).
//
// The engine scales from the paper's 1000-sample tables to 10^6+
// samples: work items are whole ensemble batches on the work-stealing
// pool (threads x ensemble_width composes multiplicatively), a
// streaming mode summarizes through O(1) accumulators instead of
// materializing six per-sample vectors, and Latin-hypercube / Sobol
// sampling modes converge variability statistics with far fewer
// samples than plain pseudo-random draws.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/shifter_harness.hpp"
#include "base/job_control.hpp"
#include "numeric/qmc.hpp"
#include "numeric/statistics.hpp"
#include "sim/fault_injection.hpp"

namespace vls {

struct VariationSpec {
  double sigma_w = 0.0334 * 90e-9;   ///< absolute width sigma [m]
  double sigma_l = 0.0334 * 90e-9;   ///< absolute length sigma [m]
  double sigma_vt_rel = 0.0334;      ///< VT sigma as a fraction of nominal
  /// Global temperature sigma [degC]; 0 (the default) disables the
  /// temperature dimension entirely, preserving the historical draw
  /// order. When enabled, each sample draws one extra deviate after
  /// its per-device geometry draws. Per-sample temperature is applied
  /// through the scalar engine: ensemble lanes share one thermal
  /// context, so runMonteCarlo forces ensemble_width = 1.
  double sigma_temperature_c = 0.0;
};

/// One sample's fully-derived perturbations: what the evaluator (real
/// testbench or surrogate) receives. Depends only on (config, id).
struct MonteCarloSample {
  int id = 0;
  /// Perturbed DUT geometries, in dutFets() order.
  std::vector<MosGeometry> geometries;
  double temperature_c = 27.0;
};

struct MonteCarloConfig {
  int samples = 1000;
  uint64_t seed = 20080310;  ///< deterministic by default (DATE 2008 ;-)
  VariationSpec variation{};
  /// Worker threads for the sample loop: 0 = parallelThreadCount()
  /// (VLS_THREADS env override, else hardware concurrency).
  int threads = 0;
  /// Lanes per lockstep ensemble batch: 1 (default) runs every sample
  /// through the scalar reference Simulator; K > 1 batches K
  /// consecutive samples into one EnsembleSimulator run (SoA lanes,
  /// shared LU structure). Per-sample draws are identical in both
  /// modes, and lanes that drop out of a lockstep run are transparently
  /// re-run scalar, so failure semantics do not change. Values above
  /// kMaxLanes are clamped; composes with `threads` (each worker
  /// thread runs whole batches, chunks of batches under the
  /// work-stealing scheduler).
  int ensemble_width = 1;
  /// How per-sample perturbations are drawn. All modes satisfy the
  /// serial-derivation contract (sample s sees identical draws for any
  /// thread count, width, and streaming setting): Pseudo derives one
  /// xoshiro stream per sample, LatinHypercube/Sobol map index-
  /// addressable low-discrepancy points through the inverse normal
  /// CDF. Sobol requires 3*|dutFets|(+1 with temperature variation)
  /// <= SobolSequence::kMaxDims.
  SamplingMode sampling = SamplingMode::Pseudo;
  /// Streaming-statistics mode: per-sample metric vectors are never
  /// materialized; summaries come from O(1) Welford + P-squared
  /// accumulators (MonteCarloResult::stream), fed in sample-id order
  /// one epoch (>= 1024 samples) at a time. failed_samples,
  /// functional_failures and simulation_errors stay bit-identical to
  /// the exact path; quantile summaries agree within estimator
  /// accuracy. Off by default: the exact path remains the reference.
  bool streaming = false;
  /// Optional sample evaluator replacing the transient testbench:
  /// given the fully-derived sample, return its metrics (throwing
  /// vls::Error marks the sample as SimulationError). Lets tests
  /// exercise the scheduler/statistics layers at 10^5+ samples, where
  /// full transients are infeasible. Fault injection is ignored on this
  /// path.
  std::function<ShifterMetrics(const MonteCarloSample&)> evaluator;
  /// Deterministic fault injection: when fault_sample >= 0, that
  /// sample's simulation runs with a fresh FaultInjector built from
  /// `fault`. In ensemble mode the batch containing the sample gets a
  /// lane-targeted copy, and a failed lane's scalar re-run gets its own
  /// fresh instance — fire budgets never leak between attempts, so the
  /// scalar and ensemble paths produce identical failed_samples.
  int fault_sample = -1;
  FaultSpec fault{};
  /// Degrade-don't-abort retry budget: a sample whose scalar
  /// simulation throws is retried up to this many times under
  /// escalatedRecoveryPolicy (tighter gmin schedule, doubled source
  /// stepping) before being recorded as a SimulationError. Every
  /// attempt gets a fresh fault injector (budgets re-fire), so
  /// injected-fault samples keep their failed ids. 0 disables.
  int max_retries = 1;
  /// Cooperative cancellation / wall-clock deadline (base/job_control):
  /// threaded into the worker pool, every Newton loop and the recovery
  /// ladder. A cancel or deadline expiry aborts runMonteCarlo with
  /// JobInterrupted; progress since the last checkpoint is lost, the
  /// checkpoint file survives. Null = unbudgeted.
  std::shared_ptr<JobControl> job;
  /// Checkpoint/resume: when non-empty, the run executes in sequential
  /// epochs of checkpoint_interval samples and atomically rewrites this
  /// file (versioned + CRC-guarded, see io/checkpoint) after each
  /// epoch. An existing compatible file resumes from its completed-id
  /// watermark; resumed runs produce bit-identical results to
  /// uninterrupted runs with the same config. Streaming runs fold
  /// every epoch in sample-id order with or without a checkpoint, so
  /// their summaries are bit-identical across thread counts and equal
  /// to a checkpointed run's. An incompatible file (different
  /// seed/mode/width/...) throws.
  std::string checkpoint_path;
  /// Samples per checkpoint epoch; 0 = auto (max(1024, samples/16)),
  /// always rounded up to a multiple of the ensemble width.
  int checkpoint_interval = 0;
};

/// Why a sample is listed in MonteCarloResult::failed_samples.
enum class FailureKind : uint8_t {
  SimulationError,  ///< the sample's simulation threw (no metric entries)
  NonFunctional,    ///< simulated fine, but the output missed a rail
};

struct SampleFailure {
  int id = 0;
  FailureKind kind = FailureKind::SimulationError;
  /// Recovery attribution (SimulationError only): the deepest ladder
  /// stage that ran, the implicated unknown, and the thrown message.
  /// Empty for NonFunctional records and for throws that carried no
  /// ConvergenceDiagnostics.
  std::string stage;
  std::string node;
  std::string message;
  friend bool operator==(const SampleFailure&, const SampleFailure&) = default;
};

/// Streaming-mode summaries (one per reported metric), precomputed at
/// gather time from the O(1) accumulators.
struct StreamingSummaries {
  Summary delay_rise, delay_fall;
  Summary power_rise, power_fall;
  Summary leakage_high, leakage_low;
};

/// Per-sample metric vectors (exact mode) or streaming summaries, plus
/// the failure records.
///
/// Determinism: each sample's draws depend only on (seed, sampling
/// mode, sample index) and results are gathered in sample order, so in
/// exact mode every vector here is bit-identical for any thread count
/// and ensemble width — and failed_samples is bit-identical across
/// streaming on/off as well. Samples whose simulation threw contribute
/// no metric entries; their ids are in failed_samples, so metric index
/// i maps to the i-th sample id not listed there as thrown.
struct MonteCarloResult {
  std::vector<double> delay_rise, delay_fall;
  std::vector<double> power_rise, power_fall;
  std::vector<double> leakage_high, leakage_low;
  /// Per-sample failure records in ascending id order, split by reason:
  /// the simulation threw (SimulationError) or the shifter simulated
  /// fine but was measured non-functional (NonFunctional).
  std::vector<SampleFailure> failed_samples;
  /// Samples measured non-functional (kind == NonFunctional).
  int functional_failures = 0;
  /// Samples whose simulation threw (kind == SimulationError).
  int simulation_errors = 0;
  int samples = 0;
  /// True when the run used MonteCarloConfig::streaming: the metric
  /// vectors above are empty and `stream` holds the summaries.
  bool streaming = false;
  StreamingSummaries stream{};
  /// Degrade-don't-abort counters: samples that needed an escalated
  /// second attempt, and how many of those then converged.
  int retried_samples = 0;
  int retry_recovered = 0;
  /// Completed-id watermark loaded from a checkpoint (0 = fresh run).
  int resumed_samples = 0;

  /// Ids of all failed samples, both kinds, ascending.
  std::vector<int> failedIds() const {
    std::vector<int> ids;
    ids.reserve(failed_samples.size());
    for (const SampleFailure& f : failed_samples) ids.push_back(f.id);
    return ids;
  }

  Summary delayRise() const { return streaming ? stream.delay_rise : summarize(delay_rise); }
  Summary delayFall() const { return streaming ? stream.delay_fall : summarize(delay_fall); }
  Summary powerRise() const { return streaming ? stream.power_rise : summarize(power_rise); }
  Summary powerFall() const { return streaming ? stream.power_fall : summarize(power_fall); }
  Summary leakageHigh() const {
    return streaming ? stream.leakage_high : summarize(leakage_high);
  }
  Summary leakageLow() const { return streaming ? stream.leakage_low : summarize(leakage_low); }
};

/// Run the harness `config.samples` times with fresh random device
/// perturbations each time (DUT devices only, as in the paper).
MonteCarloResult runMonteCarlo(const HarnessConfig& harness, const MonteCarloConfig& config);

}  // namespace vls
