// Chunked work-stealing parallel-for over std::thread. The analysis
// engines reach it through the unit runner (src/analysis/unit_runner:
// Monte-Carlo, sweeps, corners, sensitivity, the worst-case stimulus
// set), and the characterization farm, the sharded assembler and the
// BBD solver call it directly; each unit builds its own
// Circuit/Simulator, so no simulator state is shared between workers.
//
// Scheduling: the index space is split into one contiguous range per
// worker; owners pop fixed-size chunks from the front of their own
// range, idle workers steal the back half of a victim's remaining
// range. Both operations are a single CAS on a packed 64-bit
// {begin,end} word, so there are no locks on the work path and a
// worker that finishes early drains the stragglers instead of idling.
// parallelForChunked is templated on the body: the per-index call
// inlines into the chunk loop (no std::function virtual call per
// iteration); only a per-chunk indirect call remains.
//
// Determinism contract: callers derive any randomness serially up front
// (one RNG stream per index) and write results into pre-sized slot i,
// so the work product is bit-identical for every thread count,
// including 1. Callers that must *accumulate* across indices (the
// sharded assembler's border stamps) follow the same discipline one
// level up: workers write into per-index scratch (per shard, never per
// worker — worker identity is scheduling-dependent), and the caller
// reduces the scratch serially in fixed index order after the join.
//
// Exception semantics: the first exception thrown by any chunk wins —
// it cancels the dispatch of further chunks (chunks already running,
// including stolen ones, complete or throw into the void) and is
// rethrown on the calling thread after all workers have joined, so no
// worker is ever left running and no deadlock is possible. Exceptions
// thrown by later chunks after cancellation are discarded.
//
// Nesting: a parallelForChunked issued from inside a worker runs
// inline on the calling worker (serially, over its full range) instead
// of spawning a second pool — composed engines cannot oversubscribe
// the machine by accident.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace vls {

class JobControl;

/// Worker count used when num_threads = 0: the VLS_THREADS environment
/// variable if set to a positive integer, else
/// std::thread::hardware_concurrency() (min 1). A VLS_THREADS value
/// that is not a positive integer (garbage, zero, negative, overflow)
/// falls back to hardware_concurrency with a one-line warning. Read on
/// every call, so tests can flip VLS_THREADS between runs.
int parallelThreadCount();

/// Chunk size chosen when ParallelOptions::chunk == 0: roughly eight
/// chunks per worker, clamped to [1, 2048]. Exposed for its bounds test.
size_t parallelAutoChunk(size_t count, size_t workers);

/// True while the calling thread is executing inside a pool
/// worker (used by the nested-call guard; exposed for tests).
bool inParallelRegion();

struct ParallelOptions {
  int num_threads = 0;  ///< 0 = parallelThreadCount()
  size_t chunk = 0;     ///< indices per work item; 0 = parallelAutoChunk
  /// Optional cooperative cancellation / deadline handle, checked
  /// before every chunk dispatch (including the inline single-worker
  /// path, which then self-chunks). An interrupt surfaces as a
  /// JobInterrupted rethrown on the calling thread through the
  /// first-exception-wins machinery. Not owned; must outlive the call.
  const JobControl* job = nullptr;
};

namespace detail {
/// Type-erased scheduler core (implementation in parallel.cpp): runs
/// range(ctx, begin, end) callbacks covering [0, count) exactly once.
void parallelForRanges(size_t count, size_t chunk, int num_threads,
                       void (*range)(void*, size_t, size_t), void* ctx,
                       const JobControl* job);
}  // namespace detail

/// Run body(i) for every i in [0, count) on the work-stealing pool.
/// The calling thread participates. Blocks until every dispatched
/// chunk finished; see the header comment for the exception and
/// nesting contracts.
template <typename Body>
void parallelForChunked(size_t count, Body&& body, ParallelOptions opt = {}) {
  using Fn = std::remove_reference_t<Body>;
  auto range = [](void* ctx, size_t begin, size_t end) {
    Fn& f = *static_cast<Fn*>(ctx);
    for (size_t i = begin; i < end; ++i) f(i);
  };
  detail::parallelForRanges(count, opt.chunk, opt.num_threads, range,
                            const_cast<std::remove_const_t<Fn>*>(&body), opt.job);
}

}  // namespace vls
