// Self-tests of the benchmark's own arithmetic and oracle: the percentile
// rule, span self time, and the oracle rejecting corrupted answers on a tiny
// dataset. Exits nonzero on the first failed check.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "harness/oracle.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "harness/workload.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void PercentileRule() {
  EXPECT(TailLevel(1000) == 0.99);
  EXPECT(TailLevel(5000) == 0.99);
  EXPECT(std::fabs(TailLevel(200) - 0.95) < 1e-12);
  EXPECT(std::fabs(TailLevel(100) - 0.90) < 1e-12);
  EXPECT(TailLevel(19) == 0.5);
  // Exactly ten samples lie beyond the tail when the count limits it, and
  // at least ten when p99 itself is reachable.
  for (int n : {20, 37, 100, 200, 999, 1000, 1001, 4321}) {
    const LatencySummary s = Summarize(OneTo(n));
    EXPECT(s.count == static_cast<size_t>(n));
    const int beyond = n - static_cast<int>(s.tail);
    EXPECT(beyond >= 10);
    if (n <= 1000) EXPECT(beyond == 10);
    EXPECT(s.p50 == std::ceil(n / 2.0));
  }
  EXPECT(Quantile({}, 0.5) == 0);
  EXPECT(Median({3, 1, 2}) == 2);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = parent == 0 ? "root" : "child";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void SpanSelfTime() {
  const Span root = MakeSpan(1, 0, 0, 100);
  EXPECT(SelfTimeNs(root, {}) == 100);
  // Overlapping children count once; the part sticking out of the parent
  // does not count at all: covered = [10, 50) + [90, 100) = 50.
  const std::vector<Span> children = {MakeSpan(2, 1, 10, 30),
                                      MakeSpan(3, 1, 20, 50),
                                      MakeSpan(4, 1, 90, 120)};
  EXPECT(SelfTimeNs(root, children) == 50);
  EXPECT(SelfTimeNs(root, {MakeSpan(5, 1, 0, 100)}) == 0);
  EXPECT(SelfTimeNs(root, {MakeSpan(6, 1, 200, 300)}) == 100);
  std::vector<Span> all = children;
  all.push_back(root);
  const auto totals = TotalsByName(all);
  EXPECT(totals.at("root").self_ns == 50);
  EXPECT(totals.at("root").total_ns == 100);
  EXPECT(totals.at("child").count == 3);
  EXPECT(totals.at("child").self_ns == 20 + 30 + 30);

  Tracer off(false);
  { SpanScope s(&off, "x", 0, off.NewRequest()); }
  EXPECT(off.spans().empty());
  Tracer on(true);
  const uint64_t request = on.NewRequest();
  {
    SpanScope outer(&on, "outer", 0, request);
    SpanScope inner(&on, "inner", outer.id(), request);
  }
  const std::vector<Span> spans = on.spans();
  EXPECT(spans.size() == 2);
  EXPECT(spans[0].name == "inner" && spans[0].parent == spans[1].id);
  EXPECT(spans[0].request == request && spans[1].request == request);
}

void OracleCatchesCorruption() {
  Data data;
  data.has_ld = false;
  data.td_config.num_accounts = 3;
  data.td_config.per_account_hz = 10;
  data.td_config.duration_seconds = 40;
  data.td_config.seed = 5;
  data.td = MakeTdStream(data.td_config);
  odh::core::OdhSystem odh;
  const Schema schema = DefineSchema(&odh, data, true).value();
  Tracer off(false);
  IngestStats stats;
  ODH_CHECK_OK(IngestClosedLoop(&odh, data.td, 0, data.td.size(), &off,
                                &stats));
  ODH_CHECK_OK(odh.FlushAll());
  EXPECT(stats.points == 4 * static_cast<int64_t>(data.td.size()));
  const Visible all{data.td.size(), data.td.size()};

  QuerySpec hist;
  hist.id = 2;
  auto rows = odh.engine()->Execute(HistorySql(hist)).value().rows;
  EXPECT(rows.size() == 400);
  EXPECT(CheckHistoryAnswer(data, hist, all, rows).empty());
  auto corrupt = rows;
  corrupt[7][3] = odh::Datum::Double(corrupt[7][3].double_value() + 1e-9);
  EXPECT(!CheckHistoryAnswer(data, hist, all, corrupt).empty());
  corrupt = rows;
  corrupt[7][1] = odh::Datum::Time(corrupt[7][1].timestamp_value() + 1);
  EXPECT(!CheckHistoryAnswer(data, hist, all, corrupt).empty());
  corrupt = rows;
  corrupt.pop_back();
  EXPECT(!CheckHistoryAnswer(data, hist, all, corrupt).empty());
  corrupt = rows;
  std::swap(corrupt[0], corrupt[1]);
  EXPECT(!CheckHistoryAnswer(data, hist, all, corrupt).empty());
  corrupt = rows;
  corrupt[3].pop_back();  // Malformed rows are rejected, not dereferenced.
  EXPECT(!CheckHistoryAnswer(data, hist, all, corrupt).empty());
  corrupt = rows;
  corrupt[3][1] = odh::Datum::Int64(corrupt[3][1].timestamp_value());
  EXPECT(!CheckHistoryAnswer(data, hist, all, corrupt).empty());
  // A prefix is fine while only that prefix was acknowledged.
  corrupt = rows;
  corrupt.resize(100);
  const size_t prefix = data.td.Positions(2)[100];
  EXPECT(CheckHistoryAnswer(data, hist, {prefix, prefix}, corrupt).empty());
  EXPECT(!CheckHistoryAnswer(data, hist, {prefix + 3, prefix + 3}, corrupt)
              .empty());

  QuerySpec slice;
  slice.cls = QueryClass::kSlice;
  slice.lo = 10 * odh::kMicrosPerSecond;
  slice.hi = 12 * odh::kMicrosPerSecond;
  rows = odh.engine()->Execute(HistorySql(slice)).value().rows;
  int64_t in_window = 0;
  for (SourceId id = 1; id <= 3; ++id) {
    in_window += data.td.CountInWindow(id, slice.lo, slice.hi, data.td.size());
  }
  EXPECT(in_window >= 59 && static_cast<int64_t>(rows.size()) == in_window);
  EXPECT(CheckHistoryAnswer(data, slice, all, rows).empty());
  corrupt = rows;
  corrupt.push_back(rows[5]);  // A duplicated row.
  EXPECT(!CheckHistoryAnswer(data, slice, all, corrupt).empty());
  corrupt = rows;
  corrupt[5].resize(1);
  EXPECT(!CheckHistoryAnswer(data, slice, all, corrupt).empty());
  corrupt = rows;
  corrupt[5][0] = odh::Datum::Int64(3 - corrupt[5][0].int64_value() % 3);
  EXPECT(!CheckHistoryAnswer(data, slice, all, corrupt).empty());

  QuerySpec agg;
  agg.cls = QueryClass::kAgg;
  agg.id = 1;
  agg.lo = 5 * odh::kMicrosPerSecond;
  agg.hi = 20 * odh::kMicrosPerSecond;
  rows = odh.engine()->Execute(HistorySql(agg)).value().rows;
  EXPECT(CheckHistoryAnswer(data, agg, all, rows).empty());
  corrupt = rows;
  corrupt[0][1] = odh::Datum::Double(corrupt[0][1].double_value() * 1.001);
  EXPECT(!CheckHistoryAnswer(data, agg, all, corrupt).empty());
  corrupt = rows;
  corrupt[0][0] = odh::Datum::Int64(corrupt[0][0].int64_value() - 1);
  EXPECT(!CheckHistoryAnswer(data, agg, all, corrupt).empty());

  QuerySpec fuse;
  fuse.cls = QueryClass::kFuse;
  fuse.id = 3;
  rows = odh.engine()->Execute(HistorySql(fuse)).value().rows;
  EXPECT(rows.size() == 400);
  EXPECT(CheckHistoryAnswer(data, fuse, all, rows).empty());
  corrupt = rows;
  corrupt[9][1] = odh::Datum::Null();
  EXPECT(!CheckHistoryAnswer(data, fuse, all, corrupt).empty());

  Report report(false);
  CheckWholeStore(&odh, data, &report);
  EXPECT(report.correct());
  (void)schema;
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileRule();
  perfbench::SpanSelfTime();
  perfbench::OracleCatchesCorruption();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
