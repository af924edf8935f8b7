#include <algorithm>
#include <mutex>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace_events.hpp"

namespace cim::obs {

namespace detail {

namespace {

/// Per-thread bounded event buffer. Appends lock the buffer's own
/// (uncontended) mutex so the exporter can read live buffers safely;
/// trace mode is an explicitly heavyweight diagnostic mode.
struct EventBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

constexpr std::size_t kDefaultMaxEventsPerThread = 1u << 16;

/// Settable so tests can exercise the overflow path without recording 64k
/// events per thread. Relaxed: only mutated from test setup code.
std::atomic<std::size_t> g_max_events_per_thread{kDefaultMaxEventsPerThread};

struct EventBufferList {
  std::mutex mu;
  std::vector<EventBuffer*> live;
  std::vector<TraceEvent> retired;  ///< events of exited threads
  std::uint32_t next_tid = 0;
};

EventBufferList& buffer_list() {
  static EventBufferList* list = new EventBufferList();
  return *list;
}

/// Registers on first use, moves its events to the retired list on thread
/// exit so no event is lost before export.
struct ThreadBuffer {
  EventBuffer buf;
  ThreadBuffer() {
    auto& list = buffer_list();
    std::lock_guard<std::mutex> lk(list.mu);
    buf.tid = list.next_tid++;
    list.live.push_back(&buf);
  }
  ~ThreadBuffer() {
    auto& list = buffer_list();
    std::lock_guard<std::mutex> lk(list.mu);
    list.live.erase(std::remove(list.live.begin(), list.live.end(), &buf),
                    list.live.end());
    std::lock_guard<std::mutex> blk(buf.mu);
    list.retired.insert(list.retired.end(), buf.events.begin(),
                        buf.events.end());
  }
};

EventBuffer& this_thread_buffer() {
  thread_local ThreadBuffer tb;
  return tb.buf;
}

}  // namespace

void record_trace_event(TraceEvent e, bool keep_tid) {
  EventBuffer& buf = this_thread_buffer();
  if (!keep_tid) e.tid = buf.tid;
  {
    std::lock_guard<std::mutex> lk(buf.mu);
    if (buf.events.size() < trace_buffer_capacity()) {
      buf.events.push_back(e);
      return;
    }
  }
  // Exact per-event accounting: every event that did not make it into a
  // buffer bumps the drop counter exactly once. Surfaced in the Chrome
  // trace's otherData and asserted by tests/obs/test_trace_overflow.cpp.
  // Counted outside buf.mu: Registry::reset() holds the registry mutex
  // while clearing trace buffers, so taking the registry mutex under a
  // buffer mutex would close a lock-order cycle (found by TSan).
  Registry::global().counter("obs.trace.dropped").add(1);
}

void record_trace_event(const char* name, Component comp, std::uint64_t ts_ns,
                        std::uint64_t dur_ns, double energy_pj) {
  TraceEvent e;
  e.name = name;
  e.comp = comp;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.energy_pj = energy_pj;
  record_trace_event(e);
}

void set_trace_buffer_capacity_for_test(std::size_t cap) {
  g_max_events_per_thread.store(cap == 0 ? kDefaultMaxEventsPerThread : cap,
                                std::memory_order_relaxed);
}

std::size_t trace_buffer_capacity() {
  return g_max_events_per_thread.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> collect_trace_events() {
  auto& list = buffer_list();
  std::lock_guard<std::mutex> lk(list.mu);
  std::vector<TraceEvent> all = list.retired;
  for (EventBuffer* buf : list.live) {
    std::lock_guard<std::mutex> blk(buf->mu);
    all.insert(all.end(), buf->events.begin(), buf->events.end());
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.tid < b.tid;
            });
  return all;
}

void clear_trace_events() {
  auto& list = buffer_list();
  std::lock_guard<std::mutex> lk(list.mu);
  list.retired.clear();
  for (EventBuffer* buf : list.live) {
    std::lock_guard<std::mutex> blk(buf->mu);
    buf->events.clear();
  }
}

}  // namespace detail

SpanStat& SpanHandle::stat() {
  SpanStat* s = stat_.load(std::memory_order_acquire);
  if (s == nullptr) {
    s = &Registry::global().span_stat(name_, comp_);
    stat_.store(s, std::memory_order_release);
  }
  return *s;
}

namespace {
/// Innermost open span of this thread. Spans are scoped, so they open and
/// close in stack order and each one's parent is the span open around it.
thread_local Span* t_open_span = nullptr;
}  // namespace

void Span::open(SpanHandle& handle) noexcept {
  handle_ = &handle;
  parent_ = t_open_span;
  t_open_span = this;
  start_ns_ = detail::now_ns();
}

void Span::finish() noexcept {
  const std::uint64_t end_ns = detail::now_ns();
  const std::uint64_t dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  t_open_span = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += dur_ns;

  // Per name: inclusive wall time, so nesting tables can subtract children.
  SpanStat& stat = handle_->stat();
  stat.count.add(1);
  stat.wall_ns.add(static_cast<double>(dur_ns));
  stat.sim_time_ns.add(sim_ns_);
  stat.energy_pj.add(energy_pj_);

  // Per component: self wall time, so the components sum to the outermost
  // spans' wall time. Simulated cost goes through attribute().
  ComponentAgg& agg = Registry::global().component(handle_->comp());
  agg.wall_ns.add(static_cast<double>(dur_ns - std::min(child_ns_, dur_ns)));

  if (trace_enabled())
    detail::record_trace_event(handle_->name(), handle_->comp(), start_ns_,
                               dur_ns, energy_pj_);
}

}  // namespace cim::obs
