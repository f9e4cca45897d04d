// A small fixed-size thread pool for deterministic data-parallel loops.
//
// The analysis pipeline is embarrassingly parallel across indexed work
// items (member populations, documented rules, derivation results), so the
// only primitive offered is a chunked parallel-for: the index range [0, n)
// is split into contiguous chunks that workers claim atomically. The
// calling thread participates, so a pool built with `threads = 1` spawns no
// workers at all and runs everything inline — serial and parallel execution
// share one code path.
//
// Determinism contract: ParallelFor guarantees nothing about which thread
// runs which chunk or in what order chunks complete. Callers obtain
// byte-identical results at any thread count by writing only to
// per-index output slots and merging in index order afterwards; every
// parallel stage in src/core follows this pattern.
//
// Concurrent drivers are serialized: when several threads call ParallelFor
// on one pool (serve answers independent requests over one shared
// AnalysisContext), an internal driver mutex runs their loops one at a
// time, so each loop still owns every lane while it runs. ParallelFor must
// not be called from inside a body running on the same pool.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lockdoc {

class ThreadPool {
 public:
  // `threads` counts lanes including the calling thread; 0 selects
  // DefaultThreadCount(). A pool of 1 runs everything inline.
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Lanes available, including the calling thread. Always >= 1.
  size_t thread_count() const { return workers_.size() + 1; }

  // Invokes body(begin, end) over a partition of [0, n) and returns once
  // every chunk has finished. The calling thread participates.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& body);

  // std::thread::hardware_concurrency(), or 1 when that reports 0.
  static size_t DefaultThreadCount();

 private:
  struct Job {
    const std::function<void(size_t, size_t)>* body = nullptr;
    size_t n = 0;
    size_t chunk = 1;
    size_t n_chunks = 0;
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> finished_chunks{0};
  };

  void WorkerLoop();
  void RunChunks(Job& job);

  std::vector<std::thread> workers_;
  // Serializes concurrent ParallelFor callers (held for the whole loop).
  // The inline path (no workers / n == 1) touches no shared state and
  // skips it.
  std::mutex driver_mu_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // Workers wait here for a new job.
  std::condition_variable done_cv_;  // The caller waits here for completion.
  std::shared_ptr<Job> job_;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

// Runs body over [0, n) on `pool`, or inline as body(0, n) when `pool` is
// null, so callers with an optional pool need no branch of their own.
inline void ParallelFor(ThreadPool* pool, size_t n,
                        const std::function<void(size_t, size_t)>& body) {
  if (pool != nullptr) {
    pool->ParallelFor(n, body);
  } else {
    body(0, n);
  }
}

}  // namespace lockdoc

#endif  // SRC_UTIL_THREAD_POOL_H_
