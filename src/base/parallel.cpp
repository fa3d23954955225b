#include "base/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "base/job_control.hpp"
#include "base/logging.hpp"

namespace vls {

namespace {

thread_local bool tl_in_parallel_region = false;

/// One worker's remaining index range over the current super-block,
/// packed {begin:32, end:32} so pop-front (owner) and steal-back
/// (thief) are each a single CAS. Padded to a cache line so deques of
/// adjacent workers never false-share.
struct alignas(64) WorkerRange {
  std::atomic<uint64_t> range{0};
};

constexpr uint64_t packRange(uint32_t begin, uint32_t end) {
  return (static_cast<uint64_t>(begin) << 32) | end;
}
constexpr uint32_t rangeBegin(uint64_t r) { return static_cast<uint32_t>(r >> 32); }
constexpr uint32_t rangeEnd(uint64_t r) { return static_cast<uint32_t>(r); }

struct RegionGuard {
  RegionGuard() { tl_in_parallel_region = true; }
  ~RegionGuard() { tl_in_parallel_region = false; }
};

/// One dispatched super-block, living on the submitting thread's stack
/// for the duration of the dispatch. Workers claim a lane id, drain the
/// deques, and report back through `active`.
struct Job {
  WorkerRange* deques = nullptr;
  void (*range)(void*, size_t, size_t) = nullptr;
  void* ctx = nullptr;
  size_t base = 0;
  uint32_t chunk = 1;
  size_t workers = 1;
  const JobControl* control = nullptr;
  std::atomic<bool> cancelled{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  size_t claims_remaining = 0;  ///< worker ids left to hand out (guarded by pool mutex)
  size_t active = 0;            ///< pool workers currently inside the job (pool mutex)
};

/// The work loop one participant (caller or pool worker) runs over a
/// job: pop chunks from its own deque, steal the back half of a victim
/// when drained, stop when one full scan finds every deque empty.
void drainJob(Job& job, size_t self) {
  RegionGuard guard;
  WorkerRange* deques = job.deques;
  const size_t workers = job.workers;
  const uint32_t chunk = job.chunk;
  while (!job.cancelled.load(std::memory_order_relaxed)) {
    uint32_t begin = 0, end = 0;
    bool got = false;
    uint64_t cur = deques[self].range.load(std::memory_order_acquire);
    while (rangeBegin(cur) < rangeEnd(cur)) {
      const uint32_t b = rangeBegin(cur);
      const uint32_t e = rangeEnd(cur);
      const uint32_t take = std::min(chunk, e - b);
      if (deques[self].range.compare_exchange_weak(cur, packRange(b + take, e),
                                                   std::memory_order_acq_rel)) {
        begin = b;
        end = b + take;
        got = true;
        break;
      }
    }
    if (!got) {
      // Own range drained: steal the back half of the first victim
      // that still has work, install it as our own range, and go pop
      // from it normally (so others can steal from us in turn).
      // Ranges only ever shrink or move, so one full scan finding
      // everyone empty means the block is done.
      bool stole = false;
      for (size_t k = 1; k < workers && !stole; ++k) {
        const size_t victim = (self + k) % workers;
        uint64_t vc = deques[victim].range.load(std::memory_order_acquire);
        while (rangeBegin(vc) < rangeEnd(vc)) {
          const uint32_t b = rangeBegin(vc);
          const uint32_t e = rangeEnd(vc);
          const uint32_t take = (e - b + 1) / 2;
          if (deques[victim].range.compare_exchange_weak(vc, packRange(b, e - take),
                                                         std::memory_order_acq_rel)) {
            deques[self].range.store(packRange(e - take, e), std::memory_order_release);
            stole = true;
            break;
          }
        }
      }
      if (!stole) return;
      continue;
    }
    if (job.control != nullptr && job.control->interrupted()) {
      // Checked only once a chunk is claimed, so an interrupt that lands
      // as the last unit finishes (auto-cancel watermark, deadline) does
      // not fail a job whose work is all done. The claimed chunk is
      // dropped; the interrupt surfaces through the normal
      // first-exception-wins path as a structured JobInterrupted.
      std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.first_error) {
        try {
          job.control->throwIfInterrupted("parallel-for");
        } catch (...) {
          job.first_error = std::current_exception();
        }
      }
      job.cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    try {
      job.range(job.ctx, job.base + begin, job.base + end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.first_error) job.first_error = std::current_exception();
      job.cancelled.store(true, std::memory_order_relaxed);
    }
  }
}

/// Persistent parked-worker pool. Spawning and joining fresh
/// std::threads per dispatch costs ~1 ms — ruinous for callers that
/// dispatch per Newton iteration (the sharded assembler). Workers are
/// created lazily up to the largest width ever requested, park on a
/// condition variable between jobs, and claim lane ids from the current
/// job when woken. Concurrent top-level dispatches from different
/// threads serialize on submit_mutex_ (nested dispatches from inside a
/// worker never reach the pool — they run inline via the region guard).
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  void run(size_t base, uint32_t n, uint32_t chunk, size_t workers,
           void (*range)(void*, size_t, size_t), void* ctx, const JobControl* control) {
    std::lock_guard<std::mutex> submit(submit_mutex_);

    std::vector<WorkerRange> deques(workers);
    for (size_t w = 0; w < workers; ++w) {
      const uint32_t begin = static_cast<uint32_t>(static_cast<uint64_t>(n) * w / workers);
      const uint32_t end = static_cast<uint32_t>(static_cast<uint64_t>(n) * (w + 1) / workers);
      deques[w].range.store(packRange(begin, end), std::memory_order_relaxed);
    }

    Job job;
    job.deques = deques.data();
    job.range = range;
    job.ctx = ctx;
    job.base = base;
    job.chunk = chunk;
    job.workers = workers;
    job.control = control;
    job.claims_remaining = workers - 1;

    {
      std::lock_guard<std::mutex> lock(m_);
      while (threads_.size() < workers - 1) {
        threads_.emplace_back([this] { workerLoop(); });
      }
      job_ = &job;
      cv_.notify_all();
    }

    // The caller is participant 0.
    drainJob(job, 0);

    // Close the job to further claims, then wait out workers still
    // inside it (they exit promptly once the deques are dry).
    {
      std::unique_lock<std::mutex> lock(m_);
      job_ = nullptr;
      done_cv_.wait(lock, [&] { return job.active == 0; });
    }
    if (job.first_error) std::rethrow_exception(job.first_error);
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(m_);
      shutdown_ = true;
      cv_.notify_all();
    }
    for (auto& th : threads_) th.join();
  }

 private:
  void workerLoop() {
    while (true) {
      Job* job = nullptr;
      size_t self = 0;
      {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [&] {
          return shutdown_ || (job_ != nullptr && job_->claims_remaining > 0);
        });
        if (shutdown_) return;
        job = job_;
        self = job->workers - job->claims_remaining;  // lane ids 1..workers-1
        --job->claims_remaining;
        ++job->active;
      }
      drainJob(*job, self);
      {
        std::lock_guard<std::mutex> lock(m_);
        if (--job->active == 0) done_cv_.notify_all();
      }
    }
  }

  std::mutex submit_mutex_;  ///< serializes top-level dispatches
  std::mutex m_;             ///< guards job_ / claims / active / threads_
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace

int parallelThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
  if (const char* env = std::getenv("VLS_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    const bool parsed = end != env && end != nullptr && *end == '\0' && errno != ERANGE;
    if (parsed && v >= 1 && v <= 1 << 20) return static_cast<int>(v);
    // Garbage, zero, negative, or overflowed values fall back to the
    // hardware width; warn once per process, not per dispatch.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      VLS_LOG_WARN("VLS_THREADS='%s' is not a positive integer; using %d worker(s)", env,
                   fallback);
    }
  }
  return fallback;
}

size_t parallelAutoChunk(size_t count, size_t workers) {
  if (workers == 0) workers = 1;
  return std::clamp<size_t>(count / (workers * 8), 1, 2048);
}

bool inParallelRegion() { return tl_in_parallel_region; }

namespace detail {

void parallelForRanges(size_t count, size_t chunk, int num_threads,
                       void (*range)(void*, size_t, size_t), void* ctx,
                       const JobControl* job) {
  if (count == 0) return;
  size_t workers = num_threads > 0 ? static_cast<size_t>(num_threads)
                                   : static_cast<size_t>(parallelThreadCount());
  workers = std::min(workers, count);
  if (workers <= 1 || tl_in_parallel_region) {
    // Single worker, or a nested call from inside a worker: run inline
    // on the calling thread (the nested guard against oversubscription).
    if (job == nullptr) {
      range(ctx, 0, count);
      return;
    }
    // Self-chunk so the cancellation point keeps chunk granularity
    // even without pool workers.
    if (chunk == 0) chunk = parallelAutoChunk(count, 1);
    for (size_t b = 0; b < count; b += chunk) {
      job->throwIfInterrupted("parallel-for");
      range(ctx, b, std::min(count, b + chunk));
    }
    return;
  }
  if (chunk == 0) chunk = parallelAutoChunk(count, workers);
  chunk = std::min<size_t>(chunk, uint32_t{1} << 30);

  // The packed ranges address 32-bit offsets; larger counts run as
  // sequential super-blocks, each fully parallel.
  constexpr size_t kSuperBlock = size_t{1} << 31;
  for (size_t base = 0; base < count; base += kSuperBlock) {
    const uint32_t n = static_cast<uint32_t>(std::min(kSuperBlock, count - base));
    WorkerPool::instance().run(base, n, static_cast<uint32_t>(chunk),
                               std::min(workers, static_cast<size_t>(n)), range, ctx, job);
  }
}

}  // namespace detail

}  // namespace vls
