#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/obs.hpp"
#include "obs/record.hpp"

namespace cim::util {

namespace {
// Depth of parallel_for bodies executing on this thread: a nested call must
// run inline instead of re-entering the (single-job) pool.
thread_local int tls_body_depth = 0;

// Lane index for per-worker utilization telemetry: workers get 1..n-1 in
// worker_loop, submitters default to lane 0 (the caller participates).
thread_local std::size_t tls_lane = 0;

// Cumulative ns this lane spent executing chunk bodies. Lane is fixed per
// thread, so the registry counter resolves once per thread.
obs::Counter& lane_busy_counter() {
  thread_local obs::Counter* counter = &obs::Registry::global().counter(
      "threadpool.lane" + std::to_string(tls_lane) + ".busy_ns");
  return *counter;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  for (std::size_t i = 1; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::parse_threads(const char* value) {
  const std::uint64_t n =
      obs::record::env_u64("CIM_THREADS", value).value_or(0);
  return static_cast<std::size_t>(std::min<std::uint64_t>(n, 1024));
}

std::size_t ThreadPool::default_threads() {
  if (const std::size_t n = parse_threads(std::getenv("CIM_THREADS")); n > 0)
    return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_threads());
  return pool;
}

void ThreadPool::run_inline(std::size_t begin, std::size_t end,
                            const std::function<void(std::size_t)>& body) {
  ++tls_body_depth;
  try {
    for (std::size_t i = begin; i < end; ++i) body(i);
  } catch (...) {
    --tls_body_depth;
    throw;
  }
  --tls_body_depth;
}

void ThreadPool::run_chunks(Job& job) {
  for (;;) {
    const std::size_t start =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (start >= job.count) return;
    const std::size_t span = std::min(job.chunk, job.count - start);
    if (!job.cancelled.load(std::memory_order_relaxed)) {
      const bool timed = obs::enabled();
      const std::uint64_t chunk_t0 = timed ? obs::detail::now_ns() : 0;
      ++tls_body_depth;
      for (std::size_t i = 0; i < span; ++i) {
        try {
          (*job.body)(job.begin + start + i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> g(job.error_mu);
            if (!job.error) job.error = std::current_exception();
          }
          job.cancelled.store(true, std::memory_order_relaxed);
          break;
        }
      }
      --tls_body_depth;
      if (timed) {
        lane_busy_counter().add(obs::detail::now_ns() - chunk_t0);
        obs::Registry::global().counter("threadpool.chunks").add(1);
      }
    }
    // Claimed indices count as done whether executed or cancelled-skipped;
    // the cursor keeps draining, so `done` provably reaches `count`.
    if (job.done.fetch_add(span, std::memory_order_acq_rel) + span ==
        job.count) {
      std::lock_guard<std::mutex> lk(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_loop(std::size_t lane) {
  tls_lane = lane;
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || job_epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = job_epoch_;
    Job* job = job_;
    if (job == nullptr) continue;
    ++active_runners_;
    lk.unlock();
    run_chunks(*job);
    lk.lock();
    if (--active_runners_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (workers_.empty() || n == 1 || tls_body_depth > 0) {
    run_inline(begin, end, body);
    return;
  }

  if (obs::enabled()) {
    obs::Registry::global().counter("threadpool.jobs").add(1);
    obs::Registry::global()
        .gauge("threadpool.threads")
        .set(static_cast<double>(thread_count()));
  }

  std::lock_guard<std::mutex> submit(submit_mu_);
  Job job;
  job.begin = begin;
  job.count = n;
  job.chunk = std::max<std::size_t>(1, n / (4 * thread_count()));
  job.body = &body;
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &job;
    ++job_epoch_;
  }
  work_cv_.notify_all();
  run_chunks(job);
  {
    // Wait for every claimed index AND for all workers to leave run_chunks
    // before the stack-allocated job goes out of scope.
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] {
      return job.done.load(std::memory_order_acquire) == n &&
             active_runners_ == 0;
    });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace cim::util
