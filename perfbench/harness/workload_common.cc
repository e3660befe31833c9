#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "benchfw/dataset.h"
#include "harness/workload.h"
#include "storage/checksum.h"

namespace perfbench {

using odh::core::OdhSystem;

// ---------------------------------------------------------------- Report

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples, std::string note) {
  metrics_.push_back({name, value, unit, samples, std::move(note), false});
}

void Report::AddLayer(const std::string& name, double value,
                      const std::string& unit) {
  metrics_.push_back({name, value, unit, 0, {}, true});
}

void Report::Op(const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  Note(error);
}

void Report::Fail(const std::string& what) {
  broken_ = true;
  Note(what);
}

void Report::Note(const std::string& error) {
  if (errors_.size() < kMaxErrors) errors_.push_back(error);
}

void Report::Stamp(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  stamp_[key] = buf;
}

void Report::Print(const std::string& workload) const {
  for (const Metric& m : metrics_) {
    std::printf("%s %-32s %16.6f %-6s", m.layer ? "layer " : "metric",
                m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) {
      std::printf("  n=%" PRId64, m.samples);
    }
    if (!m.note.empty()) std::printf("  %s", m.note.c_str());
    std::printf("\n");
  }
  for (const std::string& e : errors_) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.c_str());
  }
  std::string stamp = "{";
  for (const auto& [k, v] : stamp_) {
    if (stamp.size() > 1) stamp += ", ";
    stamp += "\"" + k + "\": \"" + v + "\"";
  }
  stamp += "}";
  std::printf("stamp %s\n", stamp.c_str());
  std::string metrics;
  for (const Metric& m : metrics_) {
    if (m.layer != traced_) continue;
    if (!metrics.empty()) metrics += ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g",
                  std::isfinite(m.value) ? m.value : 0.0);
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"metrics\": {%s}}\n",
      correct() ? "true" : "false", std::max<int64_t>(attempted_, 1),
      failed_, metrics.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------- Classes

const char* ClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kHist:
      return "hist";
    case QueryClass::kLookup:
      return "lookup";
    case QueryClass::kSlice:
      return "slice";
    case QueryClass::kFuse:
      return "fuse";
    case QueryClass::kAgg:
      return "agg";
  }
  return "?";
}

void Append(const ClassLatencies& from, ClassLatencies* to) {
  for (const auto& [c, v] : from) {
    (*to)[c].insert((*to)[c].end(), v.begin(), v.end());
  }
}

void ReportClasses(const ClassLatencies& untraced,
                   const ClassLatencies& traced, Report* report) {
  ClassLatencies latencies = untraced;
  Append(traced, &latencies);
  for (QueryClass c : kAllClasses) {
    auto it = latencies.find(c);
    const LatencySummary s =
        Summarize(it == latencies.end() ? std::vector<double>{} : it->second);
    const std::string name = ClassName(c);
    const auto n = static_cast<int64_t>(s.count);
    char level[32];
    std::snprintf(level, sizeof(level), "at p%.4g", 100 * s.tail_level);
    report->Add(name + "_p50_ms", s.p50, "ms", n);
    report->Add(name + "_p99_ms", s.tail, "ms", n, level);
    if (s.count == 0) report->Fail("no samples for class " + name);
  }
}

ZipfIds::ZipfIds(SourceId first_id, int64_t n, uint64_t seed) {
  cdf_.resize(static_cast<size_t>(n));
  double total = 0;
  for (int64_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf_) c /= total;
  ids_.resize(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) ids_[static_cast<size_t>(r)] = first_id + r;
  std::mt19937_64 rng(seed);
  std::shuffle(ids_.begin(), ids_.end(), rng);
}

SourceId ZipfIds::Next(std::mt19937_64* rng) const {
  const double u = std::uniform_real_distribution<double>(0, 1)(*rng);
  size_t r = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return ids_[std::min(r, ids_.size() - 1)];
}

// ----------------------------------------------------------------- Data

Data MakeLargeData(uint64_t seed) {
  Data d;
  // 1.12M trades (~67 stored bytes each) plus ~130k sparse weather records:
  // about three times the default 32 MiB buffer pool once stored.
  d.td_config.num_accounts = 400;
  d.td_config.per_account_hz = 40;
  d.td_config.duration_seconds = 70;
  d.td_config.seed = seed;
  d.ld_config.num_sensors = 5000;
  d.ld_config.duration_seconds = 600;
  d.ld_config.first_id = 1000001;
  d.ld_config.seed = seed * 7919 + 17;
  d.td = MakeTdStream(d.td_config);
  d.ld = MakeLdStream(d.ld_config);
  return d;
}

odh::Result<Schema> DefineSchema(OdhSystem* odh, const Data& data,
                                 bool load_relational) {
  Schema schema;
  auto define = [odh](const StreamData& s) -> odh::Result<int> {
    ODH_ASSIGN_OR_RETURN(int type, odh->DefineSchemaType(s.name, s.tag_names));
    for (int64_t k = 0; k < s.num_sources; ++k) {
      ODH_RETURN_IF_ERROR(odh->RegisterSource(s.first_id + k, type,
                                              s.sample_interval, s.regular));
    }
    return type;
  };
  ODH_ASSIGN_OR_RETURN(schema.td, define(data.td));
  if (data.has_ld) {
    ODH_ASSIGN_OR_RETURN(schema.ld, define(data.ld));
  }
  ODH_RETURN_IF_ERROR(odh->FlushAll());
  if (load_relational) {
    ODH_RETURN_IF_ERROR(odh::benchfw::LoadTdRelational(
        odh::benchfw::TdGenerator(data.td_config), odh->database()));
    ODH_RETURN_IF_ERROR(odh->engine()->catalog()->Analyze("customer"));
    ODH_RETURN_IF_ERROR(odh->engine()->catalog()->Analyze("account"));
    if (data.has_ld) {
      ODH_RETURN_IF_ERROR(odh::benchfw::LoadLdRelational(
          odh::benchfw::LdGenerator(data.ld_config), odh->database()));
      ODH_RETURN_IF_ERROR(odh->engine()->catalog()->Analyze("linkedsensor"));
    }
  }
  return schema;
}

odh::Status IngestClosedLoop(OdhSystem* odh, const StreamData& s,
                             size_t begin, size_t end, Tracer* tracer,
                             IngestStats* stats) {
  constexpr size_t kBatch = 4096;
  odh::core::OperationalRecord record;
  for (size_t b = begin; b < end; b += kBatch) {
    const size_t e = std::min(end, b + kBatch);
    const uint64_t request = tracer->NewRequest();
    SpanScope root(tracer, "ingest.batch", 0, request);
    const int64_t t0 = NowNs();
    {
      SpanScope span(tracer, "odh.ingest", root.id(), request);
      for (size_t i = b; i < e; ++i) {
        s.FillRecord(i, &record);
        ODH_RETURN_IF_ERROR(odh->Ingest(record));
      }
    }
    const int64_t dt = NowNs() - t0;
    stats->batch_ms.push_back(static_cast<double>(dt) / 1e6);
    stats->ingest_ns += dt;
  }
  stats->points += s.Points(begin, end);
  return odh::Status::OK();
}

// --------------------------------------------------------------- Layers

LayerSnapshot LayerSnapshot::Take(OdhSystem* odh) {
  LayerSnapshot s;
  s.read = odh->reader()->stats();
  s.writer = odh->writer()->stats();
  s.router_lookups = odh->router()->lookups();
  s.store_examined = odh->store()->blobs_examined();
  s.store_discarded = odh->store()->blobs_discarded();
  s.store_segments_pruned = odh->store()->segments_pruned();
  odh::storage::BufferPool* pool = odh->database()->pool();
  s.pool_hits = pool->hit_count();
  s.pool_misses = pool->miss_count();
  s.pool_evictions = pool->eviction_count();
  s.checksum_bytes =
      (pool->checksum_stamp_count() + pool->checksum_verify_count()) *
      static_cast<uint64_t>(pool->usable_page_size());
  s.io = odh->io_stats();
  if (const odh::core::Wal* wal = odh->store()->wal()) {
    s.wal_synced_bytes = wal->synced_bytes();
    s.wal_io_retries = wal->io_retries();
  }
  return s;
}

std::string HistorySql(const QuerySpec& q) {
  auto lit = [](Timestamp t) { return "'" + odh::FormatTimestamp(t) + "'"; };
  const std::string id = std::to_string(q.id);
  switch (q.cls) {
    case QueryClass::kHist:  // TQ1
      return "SELECT * FROM TD_v WHERE id = " + id;
    case QueryClass::kLookup:  // LQ1
      return "SELECT * FROM LD_v WHERE id = " + id;
    case QueryClass::kSlice:  // TQ2
      return "SELECT * FROM TD_v WHERE ts BETWEEN " + lit(q.lo) + " AND " +
             lit(q.hi);
    case QueryClass::kFuse:  // TQ3
      return "SELECT ts, t_chrg FROM TD_v t, account a WHERE a.ca_id = t.id "
             "AND a.ca_name = 'ACCT" +
             id + "'";
    case QueryClass::kAgg:  // AQ2
      return "SELECT COUNT(*), SUM(t_chrg), MIN(t_chrg), MAX(t_chrg) FROM "
             "TD_v WHERE id = " +
             id + " AND ts BETWEEN " + lit(q.lo) + " AND " + lit(q.hi);
  }
  return "";
}

std::string CheckHistoryAnswer(const Data& data, const QuerySpec& q,
                               Visible td_visible,
                               const std::vector<Row>& rows) {
  switch (q.cls) {
    case QueryClass::kHist:
      return CheckSeries(data.td, q.id, q.lo, q.hi, td_visible, rows,
                         Projection::All(data.td));
    case QueryClass::kLookup:
      return CheckSeries(data.ld, q.id, q.lo, q.hi,
                         {data.ld.size(), data.ld.size()}, rows,
                         Projection::All(data.ld));
    case QueryClass::kSlice:
      return CheckSlice(data.td, q.lo, q.hi, td_visible, rows,
                        Projection::All(data.td));
    case QueryClass::kFuse: {
      Projection p;
      p.ts_col = 0;
      p.tags = {{1, 1}};
      return CheckSeries(data.td, q.id, q.lo, q.hi, td_visible, rows, p);
    }
    case QueryClass::kAgg:
      if (rows.size() != 1) return "aggregate returned no single row";
      return CheckAggregate(data.td, q.id, q.lo, q.hi, 1, td_visible,
                            rows[0]);
  }
  return "unknown class";
}

int64_t RunLayerByLayer(OdhSystem* odh, const Schema& schema,
                        const QuerySpec& q, Tracer* tracer, uint64_t parent,
                        uint64_t request, int64_t* decode_bytes) {
  using odh::core::BlobRecord;
  const int type = q.ld ? schema.ld : schema.td;
  const bool slice = q.cls == QueryClass::kSlice;
  const Timestamp lo = q.lo;
  const Timestamp hi = q.hi;
  const odh::core::SchemaType* st =
      odh->config()->GetSchemaType(type).value();
  const int num_tags = static_cast<int>(st->tag_names.size());
  std::vector<int> wanted;
  if (q.cls == QueryClass::kAgg || q.cls == QueryClass::kFuse) {
    wanted = {1};
  } else {
    for (int t = 0; t < num_tags; ++t) wanted.push_back(t);
  }

  odh::core::RouteDecision route;
  {
    SpanScope span(tracer, "router.route", parent, request);
    auto r = slice ? odh->router()->RouteSlice(type)
                   : odh->router()->RouteHistorical(type, q.id);
    if (r.ok()) route = *r;
  }
  std::vector<BlobRecord> rts, irts, mg;
  {
    SpanScope span(tracer, "store.fetch", parent, request);
    odh::core::OdhStore* store = odh->store();
    if (slice) {
      for (bool is_irts : {false, true}) {
        if (is_irts ? !route.scan_irts : !route.scan_rts) continue;
        odh::core::OdhStore::SliceCursor cursor;
        bool done = false;
        std::vector<BlobRecord>* out = is_irts ? &irts : &rts;
        while (!done) {
          if (!store->NextSliceChunk(type, is_irts, lo, hi, &cursor, out, &done)
                   .ok()) {
            break;
          }
        }
      }
    } else {
      if (route.scan_rts) rts = store->GetRts(type, q.id, lo, hi).value_or({});
      if (route.scan_irts) {
        irts = store->GetIrts(type, q.id, lo, hi).value_or({});
      }
    }
    if (route.scan_mg) {
      mg = store->GetMg(type, route.mg_group, lo, hi).value_or({});
    }
  }
  {
    SpanScope span(tracer, "value_blob.decode", parent, request);
    odh::core::ValueBlobCodec codec(st->compression);
    odh::core::SeriesBatch batch;
    std::vector<odh::core::OperationalRecord> records;
    for (const BlobRecord& b : rts) {
      (void)codec.DecodeRts(b.blob, b.id, b.begin, b.interval, wanted,
                            num_tags, &batch);
      *decode_bytes += static_cast<int64_t>(b.blob.size());
    }
    for (const BlobRecord& b : irts) {
      (void)codec.DecodeIrts(b.blob, b.id, b.begin, wanted, num_tags, &batch);
      *decode_bytes += static_cast<int64_t>(b.blob.size());
    }
    for (const BlobRecord& b : mg) {
      records.clear();
      (void)codec.DecodeMg(b.blob, b.begin, wanted, num_tags, &records);
      *decode_bytes += static_cast<int64_t>(b.blob.size());
    }
  }
  const int64_t t0 = NowNs();
  {
    SpanScope span(tracer, "reader.scan", parent, request);
    if (q.cls == QueryClass::kAgg) {
      (void)odh->reader()->Aggregate(type, q.id, lo, hi, {}, {1}, true);
    } else {
      auto cursor = slice ? odh->SliceQuery(type, lo, hi, wanted)
                          : odh->HistoricalQuery(type, q.id, lo, hi, wanted);
      if (cursor.ok()) {
        odh::core::OperationalRecord r;
        while ((*cursor)->Next(&r).value_or(false)) {
        }
      }
    }
  }
  return NowNs() - t0;
}

HistoryMix::HistoryMix(const Data& data, uint64_t seed)
    : data_(data),
      rng_(seed),
      td_ids_(data.td.first_id, data.td.num_sources, seed ^ 0x7d),
      ld_ids_(data.ld.first_id, data.ld.num_sources, seed ^ 0x1d) {}

QuerySpec HistoryMix::Next(QueryClass c) {
  QuerySpec q;
  q.cls = c;
  const Timestamp first = data_.td.ts.front();
  const Timestamp last = data_.td.ts.back();
  // Whole-second bounds, like the paper's TQ2 literals: ParseTimestamp
  // drops the fraction of a literal that FormatTimestamp writes with one.
  constexpr Timestamp kSec = odh::kMicrosPerSecond;
  auto window = [&](Timestamp width) {
    q.lo = kSec * std::uniform_int_distribution<Timestamp>(
                      (first + kSec - 1) / kSec, (last - width) / kSec)(rng_);
    q.hi = q.lo + width;
  };
  switch (c) {
    case QueryClass::kLookup:
      q.ld = true;
      q.id = ld_ids_.Next(&rng_);
      break;
    case QueryClass::kSlice:
      window(odh::kMicrosPerSecond);
      break;
    case QueryClass::kAgg:
      q.id = td_ids_.Next(&rng_);
      window(std::uniform_int_distribution<Timestamp>(5, 15)(rng_) *
             odh::kMicrosPerSecond);
      break;
    case QueryClass::kHist:
    case QueryClass::kFuse:
      q.id = td_ids_.Next(&rng_);
      break;
  }
  return q;
}

const char* QuerySpanName(QueryClass c) {
  switch (c) {
    case QueryClass::kHist:
      return "query.hist";
    case QueryClass::kLookup:
      return "query.lookup";
    case QueryClass::kSlice:
      return "query.slice";
    case QueryClass::kFuse:
      return "query.fuse";
    case QueryClass::kAgg:
      return "query.agg";
  }
  return "query";
}

void RunMixQuery(OdhSystem* odh, const Schema& schema, const Data& data,
                 const QuerySpec& q, Tracer* tracer, bool layered,
                 ClassLatencies* latencies, QueryTally* tally,
                 Report* report) {
  const uint64_t request = tracer->NewRequest();
  SpanScope root(tracer, QuerySpanName(q.cls), 0, request);
  const std::string sql = HistorySql(q);
  const int64_t t0 = NowNs();
  odh::Result<odh::sql::QueryResult> result = [&] {
    SpanScope span(tracer, "sql.execute", root.id(), request);
    return odh->engine()->Execute(sql);
  }();
  const int64_t dt = NowNs() - t0;
  if (!result.ok()) {
    report->Op(sql + ": " + result.status().ToString());
    return;
  }
  (*latencies)[q.cls].push_back(static_cast<double>(dt) / 1e6);
  ++tally->queries;
  tally->plan_us_sum += result->profile.plan_micros;
  if (q.cls == QueryClass::kFuse) {
    tally->fuse_rows_returned += static_cast<int64_t>(result->rows.size());
    tally->fuse_rows_scanned += result->profile.rows_scanned;
  }
  if (layered && tracer->enabled()) {
    const int64_t native = RunLayerByLayer(odh, schema, q, tracer, root.id(),
                                           request, &tally->decode_bytes);
    if (q.cls == QueryClass::kHist || q.cls == QueryClass::kSlice) {
      tally->sql_ns += static_cast<double>(dt);
      tally->native_ns += static_cast<double>(native);
    }
  }
  const std::string error =
      CheckHistoryAnswer(data, q, {data.td.size(), data.td.size()},
                         result->rows);
  report->Op(error.empty() ? error : sql + ": " + error);
}

double SumOfMedians(const ClassLatencies& latencies) {
  double sum = 0;
  for (const auto& [c, v] : latencies) sum += Median(v);
  return sum;
}

void CheckWholeStore(OdhSystem* odh, const Data& data, Report* report) {
  auto scalar = [&](const std::string& sql, int64_t expected) {
    auto r = odh->engine()->Execute(sql);
    if (!r.ok()) {
      report->Op(sql + ": " + r.status().ToString());
    } else if (r->rows.size() != 1 || !r->rows[0][0].is_int64() ||
               r->rows[0][0].int64_value() != expected) {
      report->Op(sql + ": expected " + std::to_string(expected));
    } else {
      report->Op();
    }
  };
  const int64_t accounts = data.td.num_sources;
  scalar("SELECT COUNT(*) FROM account", accounts);
  scalar("SELECT COUNT(*) FROM customer", (accounts + 4) / 5);
  scalar("SELECT COUNT(*) FROM TD_v", static_cast<int64_t>(data.td.size()));
  if (data.has_ld) {
    scalar("SELECT COUNT(*) FROM linkedsensor", data.ld.num_sources);
    scalar("SELECT COUNT(*) FROM LD_v", static_cast<int64_t>(data.ld.size()));
  }
  const Visible all{data.td.size(), data.td.size()};
  for (int64_t k = 0; k < data.td.num_sources; ++k) {
    const SourceId id = data.td.first_id + k;
    const std::string sql =
        "SELECT COUNT(*), SUM(t_chrg), MIN(t_chrg), MAX(t_chrg) FROM TD_v "
        "WHERE id = " +
        std::to_string(id);
    auto r = odh->engine()->Execute(sql);
    if (!r.ok() || r->rows.size() != 1) {
      report->Op(sql + ": " + (r.ok() ? "no row" : r.status().ToString()));
      continue;
    }
    const std::string error =
        CheckAggregate(data.td, id, odh::kMinTimestamp, odh::kMaxTimestamp, 1,
                       all, r->rows[0]);
    report->Op(error.empty() ? error : sql + ": " + error);
  }
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double SpanMeanUs(const std::map<std::string, NameTotals>& totals,
                  const char* name) {
  auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0;
  return static_cast<double>(it->second.total_ns) / 1000.0 /
         static_cast<double>(it->second.count);
}

/// Measured storage::Crc32c throughput on this machine (bytes/s).
double Crc32cBytesPerSecond() {
  constexpr int kRounds = 64;
  const std::string buf(1 << 20, '\x5a');
  uint32_t crc = 0;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kRounds; ++i) {
    crc = odh::storage::ExtendCrc32c(crc, buf.data(), buf.size());
  }
  const int64_t dt = NowNs() - t0;
  (void)crc;
  return dt > 0 ? kRounds * static_cast<double>(buf.size()) * 1e9 /
                      static_cast<double>(dt)
                : 0;
}

}  // namespace

void ReportLayers(const LayerInputs& in, const Tracer& tracer,
                  Report* report) {
  const std::map<std::string, NameTotals> totals =
      TotalsByName(tracer.spans());
  auto add = [report](const char* name, double value, const char* unit) {
    report->AddLayer(name, value, unit);
  };
  auto delta = [](auto after, auto before) {
    return static_cast<double>(after - before);
  };
  auto span_total_ns = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  const LayerSnapshot& a = in.before;
  const LayerSnapshot& b = in.after;
  const odh::core::ReadStats& r0 = a.read;
  const odh::core::ReadStats& r1 = b.read;
  const odh::core::WriterStats& w0 = a.writer;
  const odh::core::WriterStats& w1 = b.writer;
  const QueryTally& t = in.tally;
  const double q = static_cast<double>(in.queries);
  const double pts = static_cast<double>(in.points);
  const double decoded = delta(r1.blobs_decoded, r0.blobs_decoded);
  const double pruned = delta(r1.blobs_pruned, r0.blobs_pruned);
  const double summary =
      delta(r1.blobs_skipped_by_summary, r0.blobs_skipped_by_summary);
  const double cache_hits = delta(r1.blob_cache_hits, r0.blob_cache_hits);
  const double hits = delta(b.pool_hits, a.pool_hits);
  const double misses = delta(b.pool_misses, a.pool_misses);
  const double examined = delta(b.store_examined, a.store_examined);
  const double crc_bytes = delta(b.checksum_bytes, a.checksum_bytes);

  add("router.route_us", SpanMeanUs(totals, "router.route"), "us");
  add("router.lookups_per_query",
      Ratio(delta(b.router_lookups, a.router_lookups), q), "count");
  add("sql.plan_us", Ratio(t.plan_us_sum, static_cast<double>(t.queries)),
      "us");
  add("sql.share", Ratio(t.sql_ns - t.native_ns, t.sql_ns), "frac");
  add("sql.rows_examined_per_row",
      Ratio(static_cast<double>(t.fuse_rows_scanned),
            static_cast<double>(t.fuse_rows_returned)),
      "ratio");
  add("store.fetch_us", SpanMeanUs(totals, "store.fetch"), "us");
  add("store.blobs_examined_per_query", Ratio(examined, q), "count");
  add("store.discard_frac",
      Ratio(delta(b.store_discarded, a.store_discarded), examined), "frac");
  add("store.segments_pruned_per_query",
      Ratio(delta(b.store_segments_pruned, a.store_segments_pruned), q),
      "count");
  add("decode_us", SpanMeanUs(totals, "value_blob.decode"), "us");
  add("decode_mb_per_s",
      Ratio(static_cast<double>(t.decode_bytes) / 1e6,
            span_total_ns("value_blob.decode") / 1e9),
      "MB/s");
  add("reader.blobs_decoded_per_query", Ratio(decoded, q), "count");
  add("reader.blob_bytes_read_per_query",
      Ratio(delta(r1.blob_bytes_read, r0.blob_bytes_read), q), "B");
  add("reader.scan_us", SpanMeanUs(totals, "reader.scan"), "us");
  add("reader.records_per_query",
      Ratio(delta(r1.records_emitted, r0.records_emitted), q), "count");
  add("reader.pruned_frac",
      Ratio(pruned, pruned + decoded + summary + cache_hits), "frac");
  add("reader.summary_frac", Ratio(summary, summary + decoded + cache_hits),
      "frac");
  add("reader.parallel_tasks", delta(r1.parallel_tasks, r0.parallel_tasks),
      "count");
  add("reader.merge_stalls", delta(r1.merge_stalls, r0.merge_stalls),
      "count");
  add("blob_cache.hit_frac", Ratio(cache_hits, cache_hits + decoded), "frac");
  add("bufferpool.hit_frac", Ratio(hits, hits + misses), "frac");
  add("bufferpool.misses_per_query", Ratio(misses, q), "count");
  add("bufferpool.evictions", delta(b.pool_evictions, a.pool_evictions),
      "count");
  add("disk.page_reads", delta(b.io.page_reads, a.io.page_reads), "count");
  add("disk.write_bytes_per_point",
      Ratio(delta(b.io.bytes_written, a.io.bytes_written), pts), "B");
  add("checksum.bytes_per_point", Ratio(crc_bytes, pts), "B");
  add("checksum.est_share",
      Ratio(Ratio(crc_bytes, Crc32cBytesPerSecond()), in.elapsed_s), "frac");
  add("writer.ingest_us_per_kpt",
      Ratio(static_cast<double>(in.ingest_ns) / 1000.0, pts / 1000.0), "us");
  add("writer.flushall_ms", in.flushall_ms, "ms");
  add("writer.points_per_blob",
      Ratio(delta(w1.points_ingested, w0.points_ingested),
            delta(w1.rts_blobs + w1.irts_blobs + w1.mg_blobs,
                  w0.rts_blobs + w0.irts_blobs + w0.mg_blobs)),
      "count");
  odh::common::MetricsRegistry* m = in.metrics;
  add("writer.flush_p99_ms",
      m->GetHistogram("odh.writer.flush_micros")->Quantile(0.99) / 1000.0,
      "ms");
  odh::common::Histogram* sync = m->GetHistogram("odh.wal.sync_micros");
  add("wal.sync_p50_us", sync->Quantile(0.5), "us");
  add("wal.sync_p99_us", sync->Quantile(0.99), "us");
  add("wal.bytes_per_point",
      Ratio(delta(b.wal_synced_bytes, a.wal_synced_bytes), pts), "B");
  add("wal.io_retries", delta(b.wal_io_retries, a.wal_io_retries), "count");
  double peak = 0;
  for (const odh::common::MetricSample& s : m->Collect()) {
    if (s.name == "odh.mem.peak_bytes") peak = s.value;
  }
  add("mem.peak_mb", peak / (1024.0 * 1024.0), "MiB");
  add("trace.overhead_pct", in.overhead_pct, "%");
  for (const LayerInputs::Extra& x : in.extra) {
    report->AddLayer(x.name, x.value, x.unit);
  }
}

void WriteSpans(const Tracer& tracer, const std::string& path,
                Report* report) {
  if (!path.empty() && !tracer.WriteJsonLines(path)) {
    report->Fail("cannot write spans to " + path);
  }
}

uint64_t PoolBytes(OdhSystem* odh) {
  return static_cast<uint64_t>(odh->database()->pool()->capacity()) *
         static_cast<uint64_t>(odh->database()->disk()->page_size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

}  // namespace perfbench
