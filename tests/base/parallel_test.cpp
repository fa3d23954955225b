#include "base/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace vls {
namespace {

// Exercise the work-stealing scheduler across worker counts and chunk
// sizes: every index must be visited exactly once, regardless of how
// chunks are popped and stolen.
TEST(ParallelFor, EveryIndexVisitedExactlyOnce) {
  for (const size_t count : {size_t{1}, size_t{7}, size_t{64}, size_t{1000}, size_t{4099}}) {
    for (const int threads : {1, 2, 4, 7}) {
      for (const size_t chunk : {size_t{0}, size_t{1}, size_t{3}, size_t{1024}}) {
        std::vector<std::atomic<int>> hits(count);
        for (auto& h : hits) h.store(0);
        parallelForChunked(
            count, [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
            ParallelOptions{threads, chunk});
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "index " << i << " count " << count << " threads "
                                       << threads << " chunk " << chunk;
        }
      }
    }
  }
}

TEST(ParallelFor, ZeroCountIsNoOp) {
  bool called = false;
  parallelForChunked(0, [&](size_t) { called = true; }, ParallelOptions{4, 0});
  EXPECT_FALSE(called);
}

// Exception semantics: the first exception wins, is rethrown on the
// calling thread with its type intact, and the join never deadlocks
// even with stolen chunks in flight on other workers.
TEST(ParallelFor, FirstExceptionIsRethrownWithType) {
  EXPECT_THROW(
      parallelForChunked(
          100,
          [](size_t i) {
            if (i == 37) throw std::out_of_range("boom at 37");
          },
          ParallelOptions{4, 1}),
      std::out_of_range);
}

TEST(ParallelFor, ManyConcurrentThrowsPropagateExactlyOne) {
  // Every index throws: whichever lands first must surface, once, with
  // all workers joined (repeat to shake out interleavings).
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> started{0};
    try {
      parallelForChunked(
          64,
          [&](size_t i) {
            started.fetch_add(1);
            throw std::runtime_error("sample " + std::to_string(i));
          },
          ParallelOptions{4, 1});
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("sample "), std::string::npos);
    }
    EXPECT_GE(started.load(), 1);
  }
}

TEST(ParallelFor, ExceptionCancelsRemainingChunks) {
  // With chunk = 1 and an immediate throw, cancellation must keep the
  // scheduler from visiting all of a large range (cooperative: chunks
  // already popped still finish).
  std::atomic<int> visited{0};
  try {
    parallelForChunked(
        1 << 20,
        [&](size_t) {
          visited.fetch_add(1, std::memory_order_relaxed);
          throw std::runtime_error("cancel");
        },
        ParallelOptions{2, 1});
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(visited.load(), 1 << 20);
}

// Nested guard: a parallelForChunked issued from inside a worker body must run
// inline on that worker's thread (no pool-in-pool oversubscription, no
// deadlock), and inParallelRegion() reports the nesting.
TEST(ParallelFor, NestedCallsRunInlineOnWorkerThread) {
  EXPECT_FALSE(inParallelRegion());
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  std::atomic<int> inner_off_thread{0};
  std::atomic<int> not_flagged{0};
  parallelForChunked(
      8,
      [&](size_t) {
        if (!inParallelRegion()) not_flagged.fetch_add(1);
        const std::thread::id self = std::this_thread::get_id();
        parallelForChunked(
            16,
            [&](size_t) {
              inner.fetch_add(1, std::memory_order_relaxed);
              if (std::this_thread::get_id() != self) inner_off_thread.fetch_add(1);
            },
            ParallelOptions{4, 1});
        outer.fetch_add(1, std::memory_order_relaxed);
      },
      ParallelOptions{4, 1});
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 8 * 16);
  EXPECT_EQ(inner_off_thread.load(), 0) << "nested call escaped its worker thread";
  EXPECT_EQ(not_flagged.load(), 0);
  EXPECT_FALSE(inParallelRegion());
}

TEST(ParallelFor, NestedExceptionPropagatesThroughBothLevels) {
  EXPECT_THROW(
      parallelForChunked(
          4,
          [](size_t) {
            parallelForChunked(4, [](size_t j) {
              if (j == 2) throw std::logic_error("inner");
            });
          },
          ParallelOptions{2, 1}),
      std::logic_error);
  EXPECT_FALSE(inParallelRegion());
}

TEST(ParallelAutoChunk, StaysWithinBounds) {
  EXPECT_EQ(parallelAutoChunk(0, 4), 1u);
  EXPECT_EQ(parallelAutoChunk(7, 4), 1u);
  EXPECT_EQ(parallelAutoChunk(64, 4), 2u);
  EXPECT_EQ(parallelAutoChunk(size_t{1} << 40, 2), 2048u);  // clamped
  EXPECT_GE(parallelAutoChunk(100, 0), 1u);                 // workers=0 tolerated
}

// VLS_THREADS is user input: only a clean positive decimal integer is
// honored; everything else falls back to the hardware width instead of
// silently launching 0 or 8 workers off a typo like "8x".
class ParallelThreadCountEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* old = std::getenv("VLS_THREADS")) {
      saved_ = old;
      had_ = true;
    }
  }
  void TearDown() override {
    if (had_) {
      setenv("VLS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("VLS_THREADS");
    }
  }
  std::string saved_;
  bool had_ = false;
};

TEST_F(ParallelThreadCountEnv, ValidValueIsHonored) {
  setenv("VLS_THREADS", "3", 1);
  EXPECT_EQ(parallelThreadCount(), 3);
}

TEST_F(ParallelThreadCountEnv, UnsetFallsBackToHardware) {
  unsetenv("VLS_THREADS");
  EXPECT_GE(parallelThreadCount(), 1);
}

TEST_F(ParallelThreadCountEnv, GarbageFallsBackToHardware) {
  const int fallback = [] {
    unsetenv("VLS_THREADS");
    return parallelThreadCount();
  }();
  for (const char* bad : {"abc", "8x", "1.5", "", " ", "0x4"}) {
    setenv("VLS_THREADS", bad, 1);
    EXPECT_EQ(parallelThreadCount(), fallback) << "VLS_THREADS='" << bad << "'";
  }
}

TEST_F(ParallelThreadCountEnv, NonPositiveFallsBackToHardware) {
  const int fallback = [] {
    unsetenv("VLS_THREADS");
    return parallelThreadCount();
  }();
  for (const char* bad : {"0", "-2", "-999999999999999999999"}) {
    setenv("VLS_THREADS", bad, 1);
    EXPECT_EQ(parallelThreadCount(), fallback) << "VLS_THREADS='" << bad << "'";
  }
}

TEST_F(ParallelThreadCountEnv, AbsurdlyLargeValueFallsBackToHardware) {
  const int fallback = [] {
    unsetenv("VLS_THREADS");
    return parallelThreadCount();
  }();
  // Beyond the 2^20 sanity cap, and beyond what strtol can represent.
  for (const char* bad : {"2097152", "99999999999999999999"}) {
    setenv("VLS_THREADS", bad, 1);
    EXPECT_EQ(parallelThreadCount(), fallback) << "VLS_THREADS='" << bad << "'";
  }
}

}  // namespace
}  // namespace vls
