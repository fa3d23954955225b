// One runner for every multi-unit analysis: N independent simulations
// with stable ids 0..N-1 (Monte-Carlo samples, the farm's retry phase,
// sweep points, corners, sensitivity probes, worst-case stimuli). It
// owns the three decisions such a batch makes:
//
//   * the escalation ladder of one unit: attempt 0 under the caller's
//     recovery policy, up to max_retries more under
//     escalatedRecoveryPolicy, each attempt building its simulation
//     afresh (attemptOptions gives it a fresh fault injector);
//   * the failure record: message, deepest recovery stage and node, and
//     the thrown exception itself, so callers can rethrow it as is;
//   * dispatch: parallelForChunked under the caller's JobControl, one
//     unitDone per unit, results in pre-sized slots read in id order —
//     bit-identical for any thread count.
//
// Anything that is not a vls::Error (JobInterrupted above all) passes
// the ladder uncaught and ends the batch through the pool's
// first-exception-wins rule. A call made inside a pool worker runs
// inline on that worker.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "base/logging.hpp"
#include "sim/options.hpp"
#include "sim/recovery.hpp"

namespace vls {

class JobControl;

/// Why a unit failed: its last attempt threw this vls::Error.
struct UnitFailure {
  std::string stage;    ///< deepest recovery stage ("" unless a RecoveryError)
  std::string node;     ///< implicated unknown ("" unless a RecoveryError)
  std::string message;  ///< the thrown message
  std::exception_ptr error;  ///< the thrown exception itself

  /// Record the vls::Error being handled (call inside its catch block;
  /// the one place attribution is read out of a RecoveryError).
  static UnitFailure from(const Error& e);
  [[noreturn]] void rethrow() const { std::rethrow_exception(error); }
};

struct UnitRunOptions {
  int threads = 0;            ///< pool width; 0 = parallelThreadCount()
  int max_retries = 1;        ///< escalated attempts after a failed first one
  RecoveryPolicy recovery{};  ///< attempt-0 policy; retries escalate it
  /// Checked at every chunk dispatch and told unitDone per completed
  /// unit. Not owned; null = unbudgeted.
  JobControl* job = nullptr;
};

/// One unit's outcome: its value, or the failure of its last attempt.
template <typename T>
struct UnitResult {
  T value{};
  int attempts = 0;  ///< attempts made (1 + escalated retries used)
  std::optional<UnitFailure> failure;
  bool ok() const { return !failure.has_value(); }
};

/// `sim` for one attempt: `policy` installed and any fault injector
/// replaced by a fresh instance of its spec (injectors carry
/// single-run firing state; a shared one would let a retry out-wait
/// its fault and race between units).
SimOptions attemptOptions(SimOptions sim, const RecoveryPolicy& policy);

/// Run unit `id` through the escalation ladder: attempt(policy) -> T.
template <typename T, typename Attempt>
UnitResult<T> runUnitAttempts(size_t id, Attempt&& attempt, const UnitRunOptions& options) {
  UnitResult<T> r;
  const int max_attempts = 1 + std::max(0, options.max_retries);
  for (;;) {
    ++r.attempts;
    try {
      r.value = attempt(r.attempts == 1 ? options.recovery
                                        : escalatedRecoveryPolicy(options.recovery));
      return r;
    } catch (const Error& e) {
      if (r.attempts == max_attempts) {
        r.failure = UnitFailure::from(e);
        return r;
      }
      VLS_LOG_WARN("unit %zu: attempt %d threw (%s); retrying escalated", id, r.attempts,
                   e.what());
    }
  }
}

/// Dispatch units [0, n) in groups of `group` consecutive ids (the last
/// one may be short): body(begin, end) runs once per group on the pool,
/// then job->unitDone(end - begin). Monte-Carlo ensemble batches are
/// groups of the lane width; everything else uses group 1.
void runUnitGroups(size_t n, size_t group, const std::function<void(size_t, size_t)>& body,
                   const UnitRunOptions& options);

/// Run units [0, n) through the ladder, attempt(id, policy) -> T;
/// results in id order.
template <typename T, typename Attempt>
std::vector<UnitResult<T>> runUnits(size_t n, Attempt&& attempt, const UnitRunOptions& options) {
  std::vector<UnitResult<T>> results(n);
  runUnitGroups(
      n, 1,
      [&](size_t id, size_t) {
        results[id] = runUnitAttempts<T>(
            id, [&](const RecoveryPolicy& policy) { return attempt(id, policy); }, options);
      },
      options);
  return results;
}

/// The values in id order; when a unit failed, the first failed unit's
/// exception, rethrown.
template <typename T>
std::vector<T> unitValuesOrRethrow(std::vector<UnitResult<T>> results) {
  std::vector<T> values;
  values.reserve(results.size());
  for (UnitResult<T>& r : results) {
    if (!r.ok()) r.failure->rethrow();
    values.push_back(std::move(r.value));
  }
  return values;
}

}  // namespace vls
