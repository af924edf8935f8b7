/// \file thread_pool.hpp
/// \brief Fixed-size thread pool with a deterministic `parallel_for`.
///
/// The simulator's heavy loops — batched VMM, Monte-Carlo trial sweeps,
/// per-tile execution — are embarrassingly parallel: every index touches
/// disjoint state. This pool exploits that without sacrificing the
/// repo-wide reproducibility contract: `parallel_for(begin, end, body)`
/// partitions the *index space*, never the RNG streams, so as long as the
/// body derives any randomness from the index (see `Rng::stream`) the
/// result is bit-identical for any pool size — including 1.
///
/// Design choices, deliberately boring:
///  - fixed worker count, no work stealing: chunks are claimed from a
///    single atomic cursor, which load-balances uneven bodies well enough
///    and keeps the scheduler trivially auditable;
///  - the calling thread participates, so a pool of size n uses exactly
///    n lanes and a size-1 pool degenerates to the plain serial loop;
///  - nested `parallel_for` from inside a body runs inline (serial) rather
///    than deadlocking on the pool;
///  - the first exception thrown by a body cancels the remaining chunks
///    and is rethrown on the calling thread.
///
/// The process-wide pool (`ThreadPool::global()`) is sized by the
/// `CIM_THREADS` environment variable, falling back to the hardware
/// concurrency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cim::util {

class ThreadPool {
 public:
  /// `threads` is the total number of lanes, counting the caller;
  /// 0 means `default_threads()`.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallel lanes (worker threads + the participating caller).
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs `body(i)` for every i in [begin, end) and blocks until all calls
  /// return. Bodies must only touch per-index state (or synchronize
  /// themselves). Empty ranges return immediately; calls from inside a
  /// body run inline.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Process-wide pool, sized once from `default_threads()`.
  static ThreadPool& global();

  /// CIM_THREADS if set to a positive integer, else hardware concurrency
  /// (at least 1).
  static std::size_t default_threads();

  /// Parses a CIM_THREADS value (obs::record::env_u64: decimal digits,
  /// clamped to 1024); returns 0 when unset or malformed so the caller can
  /// fall back, after one stderr line when malformed (separated out for
  /// testability).
  static std::size_t parse_threads(const char* value);

 private:
  struct Job {
    std::size_t begin = 0;
    std::size_t count = 0;
    std::size_t chunk = 1;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> cancelled{false};
    const std::function<void(std::size_t)>* body = nullptr;
    std::exception_ptr error;
    std::mutex error_mu;
  };

  void worker_loop(std::size_t lane);
  void run_chunks(Job& job);
  void run_inline(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< wakes workers on a new job
  std::condition_variable done_cv_;   ///< wakes the submitter on completion
  Job* job_ = nullptr;
  std::uint64_t job_epoch_ = 0;
  std::size_t active_runners_ = 0;    ///< workers currently inside run_chunks
  bool stop_ = false;
  std::mutex submit_mu_;              ///< serializes concurrent submitters
};

}  // namespace cim::util
