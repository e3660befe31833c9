#include "harness/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Add(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  std::unordered_map<uint64_t, std::vector<Span>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  for (const Span& s : all) {
    auto it = children.find(s.id);
    const int64_t self = it == children.end() ? s.end_ns - s.start_ns
                                              : SelfTimeNs(s, it->second);
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self));
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Tracer* tracer, const char* name, uint64_t parent,
                     uint64_t request)
    : tracer_(tracer) {
  if (!tracer_->enabled()) return;
  span_.name = name;
  span_.id = tracer_->NewSpanId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (!tracer_->enabled()) return;
  span_.end_ns = NowNs();
  tracer_->Add(std::move(span_));
}

int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& c : children) {
    const int64_t lo = std::max(c.start_ns, span.start_ns);
    const int64_t hi = std::min(c.end_ns, span.end_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t covered_ns = 0;
  int64_t run_lo = 0, run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered_ns += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered_ns += run_hi - run_lo;
  return (span.end_ns - span.start_ns) - covered_ns;
}

std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  std::map<std::string, NameTotals> totals;
  for (const Span& s : spans) {
    NameTotals& t = totals[s.name];
    auto it = children.find(s.id);
    t.self_ns += it == children.end() ? s.end_ns - s.start_ns
                                      : SelfTimeNs(s, it->second);
    t.total_ns += s.end_ns - s.start_ns;
    ++t.count;
  }
  return totals;
}

}  // namespace perfbench
