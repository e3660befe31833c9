#ifndef PERFBENCH_HARNESS_WORKLOAD_H_
#define PERFBENCH_HARNESS_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/odh.h"
#include "harness/oracle.h"
#include "harness/stats.h"
#include "harness/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_path;  // Where the traced run writes its spans ("" = no).
};

/// Everything one run reports: the contract's result fields, the metrics,
/// and the environment stamp.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    int64_t samples = 0;  // 0 = not a sampled timing.
    std::string note;     // e.g. the percentile level a tail was taken at.
    bool layer = false;
  };

  /// `traced`: the result carries the per-layer metrics instead of the
  /// end-to-end ones (both are printed as text lines).
  explicit Report(bool traced) : traced_(traced) {}

  /// An end-to-end metric.
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0, std::string note = {});
  /// A per-layer metric.
  void AddLayer(const std::string& name, double value,
                const std::string& unit);
  /// Counts one operation; a non-empty `error` makes it a failed one.
  void Op(const std::string& error = {});
  /// A failure that is not one operation (a broken premise, a setup error).
  void Fail(const std::string& what);
  void Stamp(const std::string& key, const std::string& value) {
    stamp_[key] = value;
  }
  void Stamp(const std::string& key, double value);

  bool correct() const { return failed_ == 0 && !broken_; }
  /// Prints every metric as a line, the stamp, and the contract's JSON
  /// result as the last line of stdout.
  void Print(const std::string& workload) const;

 private:
  static constexpr size_t kMaxErrors = 10;  // Printed; the rest are counted.
  void Note(const std::string& error);

  const bool traced_;
  std::vector<Metric> metrics_;
  std::map<std::string, std::string> stamp_;
  std::vector<std::string> errors_;
  bool broken_ = false;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// The query classes of the read workloads.
enum class QueryClass { kHist, kLookup, kSlice, kFuse, kAgg };
constexpr QueryClass kAllClasses[] = {QueryClass::kHist, QueryClass::kLookup,
                                      QueryClass::kSlice, QueryClass::kFuse,
                                      QueryClass::kAgg};
const char* ClassName(QueryClass c);
/// Name of the root span of one query of class `c` ("query.hist", ...).
const char* QuerySpanName(QueryClass c);

/// Latency samples (ms) per class; reported as <class>_p50_ms / _p99_ms.
using ClassLatencies = std::map<QueryClass, std::vector<double>>;
void Append(const ClassLatencies& from, ClassLatencies* to);
/// Reports every class over the samples of both maps together (a traced
/// run keeps its traced and untraced rounds apart for the overhead).
void ReportClasses(const ClassLatencies& untraced,
                   const ClassLatencies& traced, Report* report);

/// Zipf(s = 1) over ranks 0..n-1, mapped to ids through a seeded
/// permutation so the hot sources are not simply the lowest ids.
class ZipfIds {
 public:
  ZipfIds(SourceId first_id, int64_t n, uint64_t seed);
  SourceId Next(std::mt19937_64* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<SourceId> ids_;
};

/// The two streams every workload ingests, plus the relational side.
struct Data {
  odh::benchfw::TdConfig td_config;
  odh::benchfw::LdConfig ld_config;
  StreamData td;
  StreamData ld;
  bool has_ld = true;
  int64_t records() const {
    return static_cast<int64_t>(td.size() + (has_ld ? ld.size() : 0));
  }
};

/// TD + LD sized so the stored result is several times the default buffer
/// pool (used by `ingest` and `history`).
Data MakeLargeData(uint64_t seed);

/// Defines the schema types, registers every source, and (optionally)
/// loads the customer/account/linkedsensor tables.
struct Schema {
  int td = -1;
  int ld = -1;
};
odh::Result<Schema> DefineSchema(odh::core::OdhSystem* odh, const Data& data,
                                 bool load_relational);

/// Closed-loop ingest of records [begin, end) of `stream` in batches,
/// recording each batch's latency (ms) and total Ingest time.
struct IngestStats {
  std::vector<double> batch_ms;
  int64_t ingest_ns = 0;
  int64_t points = 0;
};
odh::Status IngestClosedLoop(odh::core::OdhSystem* odh, const StreamData& s,
                             size_t begin, size_t end, Tracer* tracer,
                             IngestStats* stats);

/// Cumulative counters of every layer, read from the layers' public stats.
struct LayerSnapshot {
  odh::core::ReadStats read;
  odh::core::WriterStats writer;
  int64_t router_lookups = 0;
  int64_t store_examined = 0;
  int64_t store_discarded = 0;
  int64_t store_segments_pruned = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t checksum_bytes = 0;
  odh::storage::IoStats io;
  uint64_t wal_synced_bytes = 0;
  uint64_t wal_io_retries = 0;

  static LayerSnapshot Take(odh::core::OdhSystem* odh);
};

/// One query of a read workload.
struct QuerySpec {
  QueryClass cls = QueryClass::kHist;
  bool ld = false;  // On the LD stream (else TD).
  SourceId id = 0;
  Timestamp lo = odh::kMinTimestamp;
  Timestamp hi = odh::kMaxTimestamp;
};

/// Embedded-SQL text of a query of the `history` mix.
std::string HistorySql(const QuerySpec& q);
/// Checks an answer of the `history` mix (also used by `ingest`).
std::string CheckHistoryAnswer(const Data& data, const QuerySpec& q,
                               Visible td_visible,
                               const std::vector<Row>& rows);

/// A round of the `history` mix: every class once, always in this order.
/// A query's latency depends on the one before it (after a `slice` has
/// swept the caches, `lookup` takes about 2.5 times as long as after an
/// `agg`), so each class keeps one predecessor and its median one cache
/// state. The round starts with `slice`, whose cost hardly depends on its
/// predecessor; `hist`, the class that pays least for following it, is next.
constexpr QueryClass kRoundOrder[] = {QueryClass::kSlice, QueryClass::kHist,
                                      QueryClass::kFuse, QueryClass::kLookup,
                                      QueryClass::kAgg};

/// Draws the next query of class `c` for the `history` mix: Zipf-skewed
/// source ids, uniformly placed slice (1 s) and aggregate (5-15 s) windows.
class HistoryMix {
 public:
  HistoryMix(const Data& data, uint64_t seed);
  QuerySpec Next(QueryClass c);

 private:
  const Data& data_;
  std::mt19937_64 rng_;
  ZipfIds td_ids_;
  ZipfIds ld_ids_;
};

/// Accumulators a read workload fills query by query.
struct QueryTally {
  int64_t queries = 0;
  int64_t fuse_rows_returned = 0;
  int64_t fuse_rows_scanned = 0;
  double plan_us_sum = 0;
  double sql_ns = 0;     // SQL time of sampled hist/slice queries...
  double native_ns = 0;  // ...and the native scan time of the same queries.
  int64_t decode_bytes = 0;
};

/// Runs one `history`-mix query through the embedded SQL engine, times it
/// into `latencies`, checks the answer against the oracle, and (when the
/// tracer is on and `layered`) repeats it layer by layer.
void RunMixQuery(odh::core::OdhSystem* odh, const Schema& schema,
                 const Data& data, const QuerySpec& q, Tracer* tracer,
                 bool layered, ClassLatencies* latencies, QueryTally* tally,
                 Report* report);

/// Sum over classes of the median latency: the yardstick for the tracing
/// overhead (traced against untraced rounds of one run).
double SumOfMedians(const ClassLatencies& latencies);

/// Checks the dimension tables and per-source count/sum/min/max of every
/// TD source, plus the total record counts, against the oracle.
void CheckWholeStore(odh::core::OdhSystem* odh, const Data& data,
                     Report* report);

/// Per-layer timings of sampled queries, run again layer by layer after the
/// SQL call as its siblings: router.route, store.fetch, value_blob.decode,
/// reader.scan. Returns the native scan's duration (ns) for sql.share and
/// adds the decoded blob bytes to `*decode_bytes`.
int64_t RunLayerByLayer(odh::core::OdhSystem* odh, const Schema& schema,
                        const QuerySpec& q, Tracer* tracer, uint64_t parent,
                        uint64_t request, int64_t* decode_bytes);

/// Per-layer metrics derived from span totals, counters and histograms.
struct LayerInputs {
  /// Counters at the start and end of the measured phase, and the queries
  /// run inside it (the denominators of the per-query counter ratios).
  LayerSnapshot before;
  LayerSnapshot after;
  int64_t queries = 0;
  /// Sampled-query accumulators (span and SQL-profile based metrics).
  QueryTally tally;
  int64_t points = 0;     // Points ingested in the measured phase...
  int64_t ingest_ns = 0;  // ...and the time their Ingest calls took.
  double flushall_ms = 0;
  double elapsed_s = 0;
  double overhead_pct = 0;
  /// Layers only some workloads have (reorganizer, compactor, net,
  /// replication), reported after the common ones.
  struct Extra {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Extra> extra;
  /// Registry of the instance whose histograms are reported.
  odh::common::MetricsRegistry* metrics = nullptr;
};
void ReportLayers(const LayerInputs& in, const Tracer& tracer, Report* report);
/// Writes the traced run's spans to `path` (nothing when it is empty).
void WriteSpans(const Tracer& tracer, const std::string& path, Report* report);

/// Bytes of the buffer pool, for the premise stamp.
uint64_t PoolBytes(odh::core::OdhSystem* odh);
double PeakRssMb();
/// Resets the kernel's peak-RSS mark so a run reports only its own peak.
void ResetPeakRss();

int RunIngest(const Args& args, Report* report);
int RunHistory(const Args& args, Report* report);
int RunLive(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOAD_H_
