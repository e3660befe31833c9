#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock reading in nanoseconds.
int64_t NowNs();

/// One timed call into a layer. `parent` is 0 for a root span; every span of
/// one query or ingest tick shares `request`.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder for the traced run. Spans are written out once,
/// at the end; a disabled tracer records nothing and hands out id 0.
/// Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NewRequest() {
    return enabled_ ? next_request_.fetch_add(1) : 0;
  }
  uint64_t NewSpanId() { return enabled_ ? next_span_.fetch_add(1) : 0; }
  void Add(Span span);
  std::vector<Span> spans() const;
  /// Writes one JSON object per span per line. False on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_request_{1};
  std::atomic<uint64_t> next_span_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// Times the enclosing scope as one span (no-op when the tracer is off).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t parent,
            uint64_t request);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// The span's duration minus the part of [start, end) that the union of
/// `children` covers (children may overlap each other or stick out of the
/// parent; only the covered part inside the parent counts).
int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children);

/// Per span name: total self time and number of spans.
struct NameTotals {
  int64_t self_ns = 0;
  int64_t total_ns = 0;
  int64_t count = 0;
};
std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
