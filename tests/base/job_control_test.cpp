// Cooperative job control: the cancellation token, the monotonic
// deadline, the deterministic unit-watermark auto-cancel, and the
// structured JobInterrupted diagnostic — plus the contract that an
// interruption is NOT a vls::Error (degrade/retry handlers that catch
// Error must never swallow a cancellation).
#include "base/job_control.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "base/parallel.hpp"

namespace vls {
namespace {

TEST(JobControl, StartsUninterrupted) {
  JobControl job;
  EXPECT_FALSE(job.cancelled());
  EXPECT_FALSE(job.deadlineExpired());
  EXPECT_FALSE(job.interrupted());
  EXPECT_NO_THROW(job.throwIfInterrupted("newton"));
}

TEST(JobControl, CancelSurfacesStructuredDiagnostic) {
  JobControl job;
  job.cancel();
  EXPECT_TRUE(job.cancelled());
  EXPECT_TRUE(job.interrupted());
  try {
    job.throwIfInterrupted("transient", 1.25e-9);
    FAIL() << "expected JobInterrupted";
  } catch (const JobInterrupted& e) {
    EXPECT_EQ(e.reason(), JobInterruptReason::Cancelled);
    EXPECT_EQ(e.stage(), "transient");
    EXPECT_DOUBLE_EQ(e.simTime(), 1.25e-9);
    EXPECT_GE(e.elapsedSeconds(), 0.0);
    EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("transient"), std::string::npos);
  }
}

TEST(JobControl, DeadlineExpires) {
  JobControl job;
  job.setDeadline(-1.0);  // already past
  EXPECT_TRUE(job.deadlineExpired());
  try {
    job.throwIfInterrupted("newton");
    FAIL() << "expected JobInterrupted";
  } catch (const JobInterrupted& e) {
    EXPECT_EQ(e.reason(), JobInterruptReason::DeadlineExpired);
    EXPECT_EQ(e.stage(), "newton");
  }
}

TEST(JobControl, FutureDeadlineDoesNotFire) {
  JobControl job;
  job.setDeadline(3600.0);
  EXPECT_FALSE(job.deadlineExpired());
  EXPECT_NO_THROW(job.throwIfInterrupted("newton"));
}

TEST(JobControl, CancelAfterUnitsIsDeterministic) {
  JobControl job;
  job.cancelAfterUnits(3);
  job.unitDone();
  EXPECT_FALSE(job.interrupted());
  job.unitDone();
  EXPECT_FALSE(job.interrupted());
  job.unitDone();
  EXPECT_TRUE(job.cancelled());
}

TEST(JobControl, UnitDoneBatchCountsCrossThreshold) {
  JobControl job;
  job.cancelAfterUnits(10);
  job.unitDone(4);
  EXPECT_FALSE(job.interrupted());
  job.unitDone(7);  // 11 >= 10
  EXPECT_TRUE(job.cancelled());
}

TEST(JobControl, InterruptionIsNotAVlsError) {
  // Degrade-don't-abort handlers catch `const Error&`; a cancellation
  // must fly straight past them.
  JobControl job;
  job.cancel();
  bool caught_as_error = false;
  bool caught_as_interrupt = false;
  try {
    try {
      job.throwIfInterrupted("recovery:gmin-stepping");
    } catch (const Error&) {
      caught_as_error = true;
    }
  } catch (const JobInterrupted&) {
    caught_as_interrupt = true;
  }
  EXPECT_FALSE(caught_as_error);
  EXPECT_TRUE(caught_as_interrupt);
}

TEST(JobControl, CancelStopsParallelFor) {
  // A cancel from outside the pool stops a parallel region: workers
  // observe the token at chunk boundaries and the region rethrows the
  // interruption. Run under TSan in CI (concurrent cancel vs checks).
  // The first item to run cancels, whichever index it is: a descheduled
  // owner of index 0 can have the rest of its range stolen and reach
  // index 0 last.
  JobControl job;
  std::atomic<int> visited{0};
  ParallelOptions opt;
  opt.num_threads = 4;
  opt.chunk = 1;
  opt.job = &job;
  EXPECT_THROW(parallelForChunked(
                   100000,
                   [&](size_t) {
                     if (visited.fetch_add(1, std::memory_order_relaxed) == 0) job.cancel();
                   },
                   opt),
               JobInterrupted);
  // Cooperative, not instant: some work runs, but nowhere near all.
  EXPECT_LT(visited.load(), 100000);
}

TEST(JobControl, ConcurrentCancelAndChecksAreRaceFree) {
  // Pure token contention: one thread cancels while others poll.
  JobControl job;
  std::atomic<bool> any_interrupted{false};
  std::vector<std::thread> pollers;
  pollers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    pollers.emplace_back([&] {
      while (!job.interrupted()) {
      }
      any_interrupted.store(true);
    });
  }
  job.cancel();
  for (std::thread& th : pollers) th.join();
  EXPECT_TRUE(any_interrupted.load());
}

TEST(JobControl, ReasonNames) {
  EXPECT_STREQ(jobInterruptReasonName(JobInterruptReason::Cancelled), "cancelled");
  EXPECT_STREQ(jobInterruptReasonName(JobInterruptReason::DeadlineExpired),
               "deadline-expired");
}

}  // namespace
}  // namespace vls
