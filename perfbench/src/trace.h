// In-memory span recorder of the traced benchmark mode.
//
// A span is one call into a library layer made by the benchmark: its name
// ("<layer>.<operation>"), start and end on the steady clock, the span that
// was open on the same thread when it began (its parent) and the query it
// belongs to. Spans stay in memory until the run ends; the report derives
// per-layer means and self times from them and writes them out as TSV.
//
// Disabled (the default), ScopedSpan is one relaxed atomic load, so the
// untraced end-to-end runs pay nothing measurable for the instrumentation.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

namespace perfbench {

/// Wall clock (spans, run length).
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The calling thread's CPU clock, which every end-to-end time is read on:
/// it advances only while the thread runs, so time the hypervisor steals
/// from the virtual CPU does not count (the kernel accounts steal apart).
inline double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) * 1e-6;
}

struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root, or begun on a thread with no open span
  int64_t query = 0;   // 0 = not attributable to one query
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// Moves the recorded spans out (the recorder is empty afterwards).
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-thread context: the innermost open span and the current query.
inline thread_local int64_t t_open_span = 0;
inline thread_local int64_t t_query = 0;

/// Records one span around its scope when tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return;
    active_ = true;
    span_.name = name;
    span_.id = tracer.NextId();
    span_.parent = t_open_span;
    span_.query = t_query;
    t_open_span = span_.id;
    span_.start_ms = NowMs();
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end_ms = NowMs();
    t_open_span = span_.parent;
    Tracer::Get().Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// Opens the root span of one query ("client.query") and tags every span
/// begun on this thread inside the scope with the query's id.
class QueryScope {
 public:
  QueryScope() {
    t_query = Tracer::Get().enabled() ? Tracer::Get().NextId() : 0;
    root_.emplace("client.query");
  }
  ~QueryScope() {
    root_.reset();
    t_query = 0;
  }
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

 private:
  std::optional<ScopedSpan> root_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
