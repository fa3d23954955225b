#include "analysis/unit_runner.hpp"

#include <memory>

#include "base/job_control.hpp"
#include "base/parallel.hpp"
#include "sim/diagnostics.hpp"
#include "sim/fault_injection.hpp"

namespace vls {

UnitFailure UnitFailure::from(const Error& e) {
  UnitFailure f;
  f.message = e.what();
  if (const auto* re = dynamic_cast<const RecoveryError*>(&e)) {
    f.stage = re->diagnostics().lastStageName();
    f.node = re->diagnostics().worstNode();
  }
  f.error = std::current_exception();
  return f;
}

SimOptions attemptOptions(SimOptions sim, const RecoveryPolicy& policy) {
  sim.recovery = policy;
  if (sim.fault_injector) {
    sim.fault_injector = std::make_shared<FaultInjector>(sim.fault_injector->spec());
  }
  return sim;
}

void runUnitGroups(size_t n, size_t group, const std::function<void(size_t, size_t)>& body,
                   const UnitRunOptions& options) {
  group = std::max<size_t>(group, 1);
  parallelForChunked(
      (n + group - 1) / group,
      [&](size_t g) {
        const size_t begin = g * group;
        const size_t end = std::min(n, begin + group);
        body(begin, end);
        if (options.job != nullptr) options.job->unitDone(end - begin);
      },
      ParallelOptions{options.threads, 0, options.job});
}

}  // namespace vls
