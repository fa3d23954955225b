#include "analysis/unit_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "base/job_control.hpp"
#include "base/parallel.hpp"
#include "sim/diagnostics.hpp"
#include "sim/recovery.hpp"

namespace vls {
namespace {

/// Cheap deterministic per-unit work: a few rounds of an integer mix.
double syntheticValue(size_t id) {
  uint64_t h = id * 0x9E3779B97F4A7C15ull + 1;
  for (int i = 0; i < 64; ++i) h = (h ^ (h >> 31)) * 0xBF58476D1CE4E5B9ull;
  return static_cast<double>(h % 100000) * 1e-3;
}

RecoveryError recoveryErrorAt(const std::string& message, const std::string& node) {
  ConvergenceDiagnostics d;
  d.context = "synthetic";
  StageAttempt& a = d.stages.emplace_back();
  a.stage = RecoveryStage::PseudoTransient;
  a.worst_node = node;
  return RecoveryError(message, std::move(d));
}

TEST(UnitRunner, IdOrderedResultsIdenticalAcrossThreadCounts) {
  // Every 7th unit throws once (recovered by its retry), every 11th
  // throws always (recorded); the rest succeed at once.
  auto run_with = [](int threads) {
    UnitRunOptions opt;
    opt.threads = threads;
    return runUnits<double>(
        101,
        [](size_t id, const RecoveryPolicy& policy) {
          const bool escalated = policy.gmin_steps != RecoveryPolicy{}.gmin_steps;
          if (id % 11 == 0) throw ConvergenceError("unit " + std::to_string(id) + " diverged");
          if (id % 7 == 0 && !escalated) throw ConvergenceError("first attempt");
          return syntheticValue(id);
        },
        opt);
  };
  const auto r1 = run_with(1);
  ASSERT_EQ(r1.size(), 101u);
  for (size_t id = 0; id < r1.size(); ++id) {
    if (id % 11 == 0) {
      ASSERT_FALSE(r1[id].ok()) << id;
      EXPECT_EQ(r1[id].failure->message, "unit " + std::to_string(id) + " diverged");
      EXPECT_EQ(r1[id].attempts, 2);
    } else {
      ASSERT_TRUE(r1[id].ok()) << id;
      EXPECT_EQ(r1[id].value, syntheticValue(id));
      EXPECT_EQ(r1[id].attempts, id % 7 == 0 ? 2 : 1);
    }
  }
  for (int threads : {2, 4}) {
    const auto rt = run_with(threads);
    ASSERT_EQ(rt.size(), r1.size());
    for (size_t id = 0; id < r1.size(); ++id) {
      EXPECT_EQ(rt[id].value, r1[id].value) << "threads " << threads << " id " << id;
      EXPECT_EQ(rt[id].attempts, r1[id].attempts) << "threads " << threads << " id " << id;
      EXPECT_EQ(rt[id].ok(), r1[id].ok()) << "threads " << threads << " id " << id;
      if (!r1[id].ok()) {
        EXPECT_EQ(rt[id].failure->message, r1[id].failure->message);
      }
    }
  }
}

TEST(UnitRunner, LadderEscalatesCountsAttemptsAndRecordsAttribution) {
  UnitRunOptions opt;
  opt.recovery.gmin_steps = 6;
  opt.max_retries = 2;
  const RecoveryPolicy escalated = escalatedRecoveryPolicy(opt.recovery);

  // Recovered on the first escalated attempt.
  std::vector<RecoveryPolicy> seen;
  UnitResult<int> r = runUnitAttempts<int>(
      0,
      [&](const RecoveryPolicy& policy) {
        seen.push_back(policy);
        if (seen.size() == 1) throw recoveryErrorAt("diverged", "out");
        return 42;
      },
      opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 42);
  EXPECT_EQ(r.attempts, 2);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].gmin_steps, 6);
  EXPECT_EQ(seen[1].gmin_steps, escalated.gmin_steps);
  EXPECT_EQ(seen[1].source_steps, escalated.source_steps);
  EXPECT_EQ(seen[1].ptran_max_steps, escalated.ptran_max_steps);

  // Never recovered: every attempt runs, the last one is recorded, and
  // its exception survives for a rethrow with its type intact.
  int calls = 0;
  r = runUnitAttempts<int>(
      1,
      [&](const RecoveryPolicy&) -> int {
        ++calls;
        throw recoveryErrorAt("attempt " + std::to_string(calls), "n7");
      },
      opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(r.failure->stage, "pseudo-transient");
  EXPECT_EQ(r.failure->node, "n7");
  EXPECT_EQ(r.failure->message.rfind("attempt 3\n", 0), 0u);
  try {
    r.failure->rethrow();
    FAIL() << "expected RecoveryError";
  } catch (const RecoveryError& e) {
    EXPECT_EQ(e.diagnostics().worstNode(), "n7");
    EXPECT_EQ(e.what(), r.failure->message);
  }

  // A plain vls::Error carries no attribution; no retries, one attempt.
  opt.max_retries = 0;
  r = runUnitAttempts<int>(
      2, [](const RecoveryPolicy&) -> int { throw NumericalError("singular"); }, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.attempts, 1);
  EXPECT_TRUE(r.failure->stage.empty());
  EXPECT_TRUE(r.failure->node.empty());
  EXPECT_THROW(r.failure->rethrow(), NumericalError);
}

TEST(UnitRunner, JobInterruptedPassesThroughUncaught) {
  std::atomic<int> calls_on_3{0};
  UnitRunOptions opt;
  opt.threads = 4;
  EXPECT_THROW(runUnits<int>(
                   8,
                   [&](size_t id, const RecoveryPolicy&) {
                     if (id == 3) {
                       ++calls_on_3;
                       throw JobInterrupted(JobInterruptReason::Cancelled, "synthetic", 0.0, 0.0);
                     }
                     return 1;
                   },
                   opt),
               JobInterrupted);
  EXPECT_EQ(calls_on_3.load(), 1);  // never retried

  // A cancelled job stops the batch at the next dispatch.
  JobControl job;
  job.cancelAfterUnits(2);
  opt.threads = 1;
  opt.job = &job;
  std::atomic<int> ran{0};
  EXPECT_THROW(runUnits<int>(
                   64,
                   [&](size_t, const RecoveryPolicy&) {
                     ++ran;
                     return 0;
                   },
                   opt),
               JobInterrupted);
  EXPECT_LT(ran.load(), 64);
}

TEST(UnitRunner, GroupsCoverEveryIdAndReportEachUnitDone) {
  // Armed one past the unit count: the batch reports exactly 10 units,
  // so the job is still live afterwards and one more unit trips it.
  JobControl job;
  job.cancelAfterUnits(11);
  UnitRunOptions opt;
  opt.threads = 2;
  opt.job = &job;
  std::vector<std::pair<size_t, size_t>> groups(3);
  runUnitGroups(10, 4, [&](size_t begin, size_t end) { groups[begin / 4] = {begin, end}; }, opt);
  EXPECT_EQ(groups[0], (std::pair<size_t, size_t>{0, 4}));
  EXPECT_EQ(groups[1], (std::pair<size_t, size_t>{4, 8}));
  EXPECT_EQ(groups[2], (std::pair<size_t, size_t>{8, 10}));
  EXPECT_FALSE(job.cancelled());
  job.unitDone();
  EXPECT_TRUE(job.cancelled());
}

TEST(UnitRunner, NestedCallRunsInline) {
  UnitRunOptions outer;
  outer.threads = 4;
  const auto results = runUnits<std::vector<double>>(
      4,
      [&](size_t id, const RecoveryPolicy&) {
        const std::thread::id me = std::this_thread::get_id();
        EXPECT_TRUE(inParallelRegion());
        UnitRunOptions inner;
        inner.threads = 4;
        const auto r = runUnits<double>(
            3,
            [&](size_t j, const RecoveryPolicy&) {
              EXPECT_EQ(std::this_thread::get_id(), me);
              return syntheticValue(10 * id + j);
            },
            inner);
        return unitValuesOrRethrow(r);
      },
      outer);
  for (size_t id = 0; id < results.size(); ++id) {
    ASSERT_TRUE(results[id].ok());
    ASSERT_EQ(results[id].value.size(), 3u);
    for (size_t j = 0; j < 3; ++j) EXPECT_EQ(results[id].value[j], syntheticValue(10 * id + j));
  }
}

TEST(UnitRunner, ValuesOrRethrowThrowsFirstFailureInIdOrder) {
  UnitRunOptions opt;
  opt.threads = 4;
  opt.max_retries = 0;
  auto results = runUnits<int>(
      20,
      [](size_t id, const RecoveryPolicy&) -> int {
        if (id == 5) throw ConvergenceError("five");
        if (id == 12) throw NumericalError("twelve");
        return static_cast<int>(id);
      },
      opt);
  try {
    unitValuesOrRethrow(std::move(results));
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_STREQ(e.what(), "five");
  }
}

}  // namespace
}  // namespace vls
