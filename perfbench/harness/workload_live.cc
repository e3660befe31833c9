// `live`: a segmented primary behind HistorianServer on loopback plus one
// in-process read replica tailing its WAL. One thread replays TD open-loop
// on a fixed schedule (each tick ends with a store sync, the durability
// point; partial writer buffers are never flushed in the timed phase), while
// two prepared-statement connections, one to the primary and one to the
// replica, run a seeded closed-loop mix. A fourth thread measures
// replication lag from outside: durable on the primary -> applied on the
// replica, through ReplicaApplier::WaitForLsn.
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "harness/workload.h"
#include "net/client.h"
#include "net/replication.h"
#include "net/server.h"

namespace perfbench {

namespace {

using odh::core::OdhSystem;

constexpr int kSetups = 3;
constexpr Timestamp kSegmentSpan = 10 * odh::kMicrosPerSecond;
// 50 accounts x 20 Hz = 1000 records per second of data time; 85 s of
// preloaded history fill 9 segments, 8 of them sealed and compacted.
constexpr int64_t kAccounts = 50;
constexpr double kHz = 20;
constexpr double kPreloadSeconds = 85;
// Open-loop schedule: 60 records (240 points) every 10 ms. A faster one
// would outgrow the buffer pool within a run of up to 40 s, and the premise
// that the working set fits in the pool is what separates `live` from
// `history`.
constexpr int kTickMs = 10;
constexpr size_t kRecordsPerTick = 60;
constexpr Timestamp kSliceWindow = odh::kMicrosPerSecond;

struct LiveData {
  Data data;
  size_t preload = 0;
};

LiveData MakeLiveData(uint64_t seed, int seconds) {
  LiveData d;
  d.data.has_ld = false;
  d.data.td_config.num_accounts = kAccounts;
  d.data.td_config.per_account_hz = kHz;
  const double live_records =
      1.5 * seconds * (1000.0 / kTickMs) * static_cast<double>(kRecordsPerTick);
  d.data.td_config.duration_seconds =
      kPreloadSeconds + live_records / (kAccounts * kHz);
  d.data.td_config.seed = seed;
  d.data.td = MakeTdStream(d.data.td_config);
  d.preload = static_cast<size_t>(kPreloadSeconds * kAccounts * kHz);
  return d;
}

/// One set-up instance: primary + server, replica + tail + server.
struct Cluster {
  std::unique_ptr<OdhSystem> primary;
  std::unique_ptr<OdhSystem> replica;
  Schema schema;
  std::unique_ptr<odh::core::ReplicaApplier> applier;
  std::unique_ptr<odh::net::ReplicationSource> source;
  std::unique_ptr<odh::net::HistorianServer> primary_server;
  std::unique_ptr<odh::net::HistorianServer> replica_server;
  std::unique_ptr<odh::net::ReplicationClient> tail;
  int primary_port = 0;
  int replica_port = 0;
  double compact_s = 0;
  odh::core::CompactionReport compaction;

  ~Cluster() {
    if (tail) tail->Stop();
    if (replica_server) replica_server->Stop();
    if (primary_server) primary_server->Stop();
  }
};

odh::Result<std::unique_ptr<Cluster>> SetUp(const LiveData& live) {
  odh::core::OdhOptions options;
  options.segment_span = kSegmentSpan;
  auto c = std::make_unique<Cluster>();
  c->primary = std::make_unique<OdhSystem>(options);
  ODH_ASSIGN_OR_RETURN(c->schema, DefineSchema(c->primary.get(), live.data,
                                               /*load_relational=*/true));
  Tracer off(false);
  IngestStats ignored;
  ODH_RETURN_IF_ERROR(IngestClosedLoop(c->primary.get(), live.data.td, 0,
                                       live.preload, &off, &ignored));
  ODH_RETURN_IF_ERROR(c->primary->FlushAll());
  const int64_t t0 = NowNs();
  ODH_ASSIGN_OR_RETURN(c->compaction,
                       c->primary->CompactSegments(c->schema.td));
  c->compact_s = static_cast<double>(NowNs() - t0) / 1e9;

  c->source = std::make_unique<odh::net::ReplicationSource>(
      c->primary->store(), odh::net::ReplicationSourceOptions{},
      c->primary->metrics());
  odh::net::ServerOptions primary_options;
  primary_options.role = odh::net::ServerRole::kPrimary;
  primary_options.replication = c->source.get();
  c->primary_server = std::make_unique<odh::net::HistorianServer>(
      c->primary->engine(), primary_options, c->primary->metrics());
  ODH_ASSIGN_OR_RETURN(c->primary_port, c->primary_server->Start());

  c->replica = std::make_unique<OdhSystem>(options);
  ODH_ASSIGN_OR_RETURN(Schema replica_schema,
                       DefineSchema(c->replica.get(), live.data, true));
  if (replica_schema.td != c->schema.td) {
    return odh::Status::Internal("replica schema ids differ");
  }
  c->applier = std::make_unique<odh::core::ReplicaApplier>(c->replica->store());
  c->tail = std::make_unique<odh::net::ReplicationClient>(
      "127.0.0.1", c->primary_port, c->applier.get());
  ODH_RETURN_IF_ERROR(c->tail->Start());
  odh::net::ExposeReplicationLag(c->applier.get(), c->replica->engine());
  odh::net::ServerOptions replica_options;
  replica_options.role = odh::net::ServerRole::kReplica;
  c->replica_server = std::make_unique<odh::net::HistorianServer>(
      c->replica->engine(), replica_options, c->replica->metrics());
  ODH_ASSIGN_OR_RETURN(c->replica_port, c->replica_server->Start());
  if (!c->tail->WaitForLsn(c->primary->store()->durable_lsn(), 60000)) {
    return odh::Status::Internal("replica bootstrap timed out");
  }
  return c;
}

/// What one query connection saw.
struct ConnectionTally {
  ClassLatencies traced;
  ClassLatencies untraced;
  std::vector<std::string> errors;
  int64_t ops = 0;
  QueryTally tally;
  double client_ns = 0;
  double server_ns = 0;
  odh::net::ClientStats client_stats;
};

/// Ingest progress shared by the ticker and the query threads, as record
/// prefixes of the TD stream.
struct Progress {
  std::atomic<size_t> acked{0};      // Ingest returned for the prefix.
  std::atomic<size_t> submitted{0};  // Ingest may have started.
};

void RunConnection(Cluster* c, const LiveData& live, bool primary,
                   uint64_t seed, int64_t end_ns, bool trace, Tracer* tracer,
                   Progress* progress, ConnectionTally* out) {
  auto client = odh::net::Client::Connect(
      "127.0.0.1", primary ? c->primary_port : c->replica_port);
  if (!client.ok()) {
    out->errors.push_back("connect: " + client.status().ToString());
    ++out->ops;
    return;
  }
  static constexpr const char* kSql[] = {
      "SELECT * FROM TD_v WHERE id = ?",
      "SELECT * FROM TD_v WHERE id = ? AND ts = ?",
      "SELECT * FROM TD_v WHERE ts BETWEEN ? AND ?",
      "SELECT ts, t_chrg FROM TD_v t, account a WHERE a.ca_id = t.id AND "
      "a.ca_name = ?",
      "SELECT COUNT(*), SUM(t_chrg), MIN(t_chrg), MAX(t_chrg) FROM TD_v "
      "WHERE id = ?"};
  std::vector<odh::net::ClientStatement> stmts;
  for (const char* sql : kSql) {
    auto stmt = (*client)->Prepare(sql);
    if (!stmt.ok()) {
      out->errors.push_back(std::string(sql) + ": " +
                            stmt.status().ToString());
      ++out->ops;
      return;
    }
    stmts.push_back(*stmt);
  }
  const StreamData& td = live.data.td;
  const ZipfIds ids(td.first_id, td.num_sources, seed ^ 0x5eed);
  std::mt19937_64 rng(seed);
  std::vector<int64_t> last_count(static_cast<size_t>(td.num_sources), 0);
  Tracer untraced(false);
  for (int round = 0; NowNs() < end_ns; ++round) {
    const bool on = trace && round % 2 == 0;
    Tracer* tr = on ? tracer : &untraced;
    std::vector<QueryClass> classes(std::begin(kAllClasses),
                                    std::end(kAllClasses));
    std::shuffle(classes.begin(), classes.end(), rng);
    for (QueryClass cls : classes) {
      QuerySpec q;
      q.cls = cls;
      q.id = ids.Next(&rng);
      std::vector<odh::Datum> params;
      const size_t acked = progress->acked.load(std::memory_order_acquire);
      // The replica holds at least the bootstrap image; the primary holds
      // every acknowledged record (dirty reads see the writer buffers).
      const size_t floor = primary ? acked : live.preload;
      switch (cls) {
        case QueryClass::kLookup: {
          const std::vector<uint32_t>& pos = td.Positions(q.id);
          const size_t n = static_cast<size_t>(std::lower_bound(
              pos.begin(), pos.end(), static_cast<uint32_t>(live.preload)) -
              pos.begin());
          const uint32_t p =
              pos[std::uniform_int_distribution<size_t>(0, n - 1)(rng)];
          q.lo = q.hi = td.ts[p];
          params = {odh::Datum::Int64(q.id), odh::Datum::Time(q.lo)};
          break;
        }
        case QueryClass::kSlice:
          q.hi = td.ts[acked - 1];
          q.lo = q.hi - kSliceWindow;
          params = {odh::Datum::Time(q.lo), odh::Datum::Time(q.hi)};
          break;
        case QueryClass::kFuse:
          params = {odh::Datum::String("ACCT" + std::to_string(q.id))};
          break;
        case QueryClass::kHist:
        case QueryClass::kAgg:
          params = {odh::Datum::Int64(q.id)};
          break;
      }
      const uint64_t request = tr->NewRequest();
      SpanScope root(tr, QuerySpanName(cls), 0, request);
      const int64_t t0 = NowNs();
      odh::Result<odh::net::ClientResult> result = [&] {
        SpanScope span(tr, "net.execute", root.id(), request);
        return (*client)->Execute(stmts[static_cast<size_t>(cls)], params);
      }();
      const int64_t dt = NowNs() - t0;
      const size_t submitted =
          progress->submitted.load(std::memory_order_acquire);
      ++out->ops;
      if (!result.ok()) {
        out->errors.push_back(std::string(ClassName(cls)) + ": " +
                              result.status().ToString());
        continue;
      }
      (on ? out->traced : out->untraced)[cls].push_back(
          static_cast<double>(dt) / 1e6);
      out->client_ns += static_cast<double>(dt);
      out->server_ns += result->done.total_micros * 1000.0;
      if (primary) {
        ++out->tally.queries;
        out->tally.plan_us_sum += result->done.plan_micros;
        if (on) {
          const int64_t native =
              RunLayerByLayer(c->primary.get(), c->schema, q, tr, root.id(),
                              request, &out->tally.decode_bytes);
          if (cls == QueryClass::kHist || cls == QueryClass::kSlice) {
            out->tally.sql_ns += static_cast<double>(dt);
            out->tally.native_ns += static_cast<double>(native);
          }
        }
      }
      const Visible visible{floor, submitted};
      const std::vector<Row>& rows = result->rows;
      int64_t count = -1;
      std::string error;
      switch (cls) {
        case QueryClass::kHist:
        case QueryClass::kLookup:
          error = CheckSeries(td, q.id, q.lo, q.hi, visible, rows,
                              Projection::All(td),
                              cls == QueryClass::kHist ? &count : nullptr);
          break;
        case QueryClass::kSlice:
          error = CheckSlice(td, q.lo, q.hi, visible, rows,
                             Projection::All(td));
          break;
        case QueryClass::kFuse: {
          Projection p;
          p.ts_col = 0;
          p.tags = {{1, 1}};
          error = CheckSeries(td, q.id, q.lo, q.hi, visible, rows, p, &count);
          break;
        }
        case QueryClass::kAgg:
          error = rows.size() != 1
                      ? "aggregate returned no single row"
                      : CheckAggregate(td, q.id, q.lo, q.hi, 1, visible,
                                       rows[0], &count);
          break;
      }
      // Full-history counts never go backwards on one connection.
      if (error.empty() && count >= 0) {
        int64_t& last = last_count[static_cast<size_t>(q.id - td.first_id)];
        if (count < last) {
          error = "count went back from " + std::to_string(last) + " to " +
                  std::to_string(count);
        }
        last = count;
      }
      if (!error.empty()) {
        out->errors.push_back(std::string(primary ? "primary " : "replica ") +
                              ClassName(cls) + ": " + error);
      }
    }
  }
  out->client_stats = (*client)->stats();
}

}  // namespace

int RunLive(const Args& args, Report* report) {
  const LiveData live = MakeLiveData(args.seed, args.seconds);
  const StreamData& td = live.data.td;
  ResetPeakRss();
  Tracer traced(args.trace);
  Tracer untraced(false);

  std::vector<double> setup_s;
  std::unique_ptr<Cluster> c;
  for (int i = 0; i < kSetups; ++i) {
    c.reset();
    const int64_t t0 = NowNs();
    odh::Result<std::unique_ptr<Cluster>> made = SetUp(live);
    if (!made.ok()) {
      report->Fail("setup: " + made.status().ToString());
      return 1;
    }
    c = std::move(*made);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  LayerInputs layers;
  layers.metrics = c->primary->metrics();
  layers.before = LayerSnapshot::Take(c->primary.get());
  const int64_t shipped0 = c->source->records_shipped();
  const int64_t batches0 = c->source->batches_shipped();
  const int64_t applied0 = c->applier->records_applied();

  Progress progress;
  progress.acked = live.preload;
  progress.submitted = live.preload;
  std::mutex lag_mu;
  std::condition_variable lag_cv;
  std::deque<std::pair<uint64_t, int64_t>> durable;  // (lsn, when), lag_mu.
  bool ticks_done = false;                            // Guarded by lag_mu.
  std::vector<double> tick_ms, lag_ms, lag_bytes;
  std::vector<std::string> tick_errors, lag_errors;
  int64_t live_points = 0;
  int64_t ingest_ns = 0;
  int64_t ticks = 0;
  int64_t last_ack = 0;

  const int64_t start = NowNs();
  const int64_t end = start + args.seconds * 1'000'000'000LL;
  std::thread ticker([&] {
    odh::core::OperationalRecord record;
    for (int64_t k = 0;; ++k) {
      const int64_t due = start + k * kTickMs * 1'000'000LL;
      const size_t b = live.preload + static_cast<size_t>(k) * kRecordsPerTick;
      const size_t e = std::min(td.size(), b + kRecordsPerTick);
      if (due >= end || b >= e) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      Tracer* tr = args.trace && k % 2 == 0 ? &traced : &untraced;
      const uint64_t request = tr->NewRequest();
      SpanScope root(tr, "ingest.tick", 0, request);
      progress.submitted.store(e, std::memory_order_release);
      odh::Status st;
      {
        SpanScope span(tr, "odh.ingest", root.id(), request);
        const int64_t t0 = NowNs();
        for (size_t i = b; i < e && st.ok(); ++i) {
          td.FillRecord(i, &record);
          st = c->primary->Ingest(record);
          if (st.ok()) progress.acked.store(i + 1, std::memory_order_release);
        }
        ingest_ns += NowNs() - t0;
      }
      if (st.ok()) {
        SpanScope span(tr, "store.sync", root.id(), request);
        st = c->primary->store()->Sync(c->schema.td);
      }
      const int64_t now = NowNs();
      ++ticks;
      if (!st.ok()) {
        tick_errors.push_back("tick: " + st.ToString());
        break;
      }
      tick_ms.push_back(static_cast<double>(now - due) / 1e6);
      last_ack = now;
      live_points += td.Points(b, e);
      std::lock_guard<std::mutex> lock(lag_mu);
      durable.emplace_back(c->primary->store()->durable_lsn(), now);
      lag_cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(lag_mu);
    ticks_done = true;
    lag_cv.notify_one();
  });
  std::thread lag_sampler([&] {
    for (;;) {
      std::pair<uint64_t, int64_t> item;
      {
        std::unique_lock<std::mutex> lock(lag_mu);
        lag_cv.wait(lock, [&] { return ticks_done || !durable.empty(); });
        if (durable.empty()) return;
        item = durable.front();
        durable.pop_front();
      }
      lag_bytes.push_back(static_cast<double>(c->applier->lag_bytes()));
      if (!c->tail->WaitForLsn(item.first, 10000)) {
        lag_errors.push_back("replica did not apply lsn " +
                             std::to_string(item.first) + " within 10 s");
        continue;
      }
      lag_ms.push_back(static_cast<double>(NowNs() - item.second) / 1e6);
    }
  });
  ConnectionTally on_primary, on_replica;
  std::thread replica_reader([&] {
    RunConnection(c.get(), live, false, args.seed * 2 + 1, end, args.trace,
                  &traced, &progress, &on_replica);
  });
  RunConnection(c.get(), live, true, args.seed * 2, end, args.trace, &traced,
                &progress, &on_primary);
  replica_reader.join();
  ticker.join();
  lag_sampler.join();
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  layers.after = LayerSnapshot::Take(c->primary.get());

  // Every operation, in the contract's attempted/failed form.
  for (int64_t i = 0; i < ticks; ++i) {
    report->Op(i < static_cast<int64_t>(tick_errors.size()) ? tick_errors[i]
                                                            : "");
  }
  for (const ConnectionTally* t : {&on_primary, &on_replica}) {
    for (int64_t i = 0; i < t->ops; ++i) {
      report->Op(i < static_cast<int64_t>(t->errors.size()) ? t->errors[i]
                                                            : "");
    }
  }
  for (const std::string& e : lag_errors) report->Op(e);

  const uint64_t store_bytes = c->primary->storage_bytes();
  const uint64_t pool_bytes = PoolBytes(c->primary.get());
  report->Stamp("records_generated",
                static_cast<double>(live.preload) +
                    static_cast<double>(ticks * kRecordsPerTick));
  report->Stamp("store_bytes", static_cast<double>(store_bytes));
  report->Stamp("pool_bytes", static_cast<double>(pool_bytes));
  if (store_bytes > pool_bytes) {
    report->Fail("premise: live store outgrew the buffer pool");
  }
  report->Stamp("premise", "store fits in the buffer pool");
  const auto sealed = c->primary->store()->SegmentInfos(c->schema.td).size();
  report->Stamp("segments", static_cast<double>(sealed));

  ClassLatencies lat_traced, lat_untraced;
  for (const ConnectionTally* t : {&on_primary, &on_replica}) {
    Append(t->untraced, &lat_untraced);
    Append(t->traced, &lat_traced);
  }
  const double total_points =
      static_cast<double>(td.Points(0, live.preload) + live_points);
  report->Add("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()));
  report->Add("ingest_pts_per_s",
              static_cast<double>(live_points) * 1e9 /
                  static_cast<double>(last_ack - start),
              "1/s", ticks, "open loop, fixed schedule");
  report->Add("bytes_per_point",
              static_cast<double>(store_bytes) / total_points, "B");
  const LatencySummary tick = Summarize(tick_ms);
  report->Add("ingest_p99_ms", tick.tail, "ms",
              static_cast<int64_t>(tick.count), "per tick, from its due time");
  ReportClasses(lat_untraced, lat_traced, report);
  report->Add("rss_peak_mb", PeakRssMb(), "MiB");

  if (args.trace) {
    layers.tally = on_primary.tally;
    layers.queries = on_primary.tally.queries;
    layers.points = live_points;
    layers.ingest_ns = ingest_ns;
    layers.elapsed_s = elapsed;
    const double base = SumOfMedians(lat_untraced);
    layers.overhead_pct =
        base > 0 ? 100.0 * (SumOfMedians(lat_traced) - base) / base : 0;
    double retries = 0, timeouts = 0;
    for (const ConnectionTally* t : {&on_primary, &on_replica}) {
      retries += static_cast<double>(t->client_stats.statement_retries +
                                     t->client_stats.reconnects);
      timeouts += static_cast<double>(t->client_stats.deadline_timeouts);
    }
    double rejected = 0;
    for (odh::net::HistorianServer* s :
         {c->primary_server.get(), c->replica_server.get()}) {
      rejected +=
          static_cast<double>(s->sessions_rejected() + s->mem_rejections());
      timeouts += static_cast<double>(s->read_timeouts() + s->write_timeouts());
    }
    const double client_ns = on_primary.client_ns + on_replica.client_ns;
    const double server_ns = on_primary.server_ns + on_replica.server_ns;
    const double batches =
        static_cast<double>(c->source->batches_shipped() - batches0);
    const double shipped =
        static_cast<double>(c->source->records_shipped() - shipped0);
    const double applied =
        static_cast<double>(c->applier->records_applied() - applied0);
    layers.extra = {
        {"compact_s", c->compact_s, "s"},
        {"compact.bytes_rewritten",
         static_cast<double>(c->compaction.bytes_after), "B"},
        {"net.server_p50_us",
         c->primary->metrics()->GetHistogram("net.request_micros")->Quantile(
             0.5),
         "us"},
        {"net.wire_share",
         client_ns > 0 ? (client_ns - server_ns) / client_ns : 0, "frac"},
        {"net.retries", retries, "count"},
        {"net.rejected", rejected, "count"},
        {"net.timeouts", timeouts, "count"},
        {"repl.records_per_batch", batches > 0 ? shipped / batches : 0,
         "count"},
        {"repl.batches_per_s", batches / elapsed, "1/s"},
        {"replica.lag_bytes_p99", Quantile(lag_bytes, 0.99), "B"},
        {"replica.apply_recs_per_s", applied / elapsed, "1/s"},
        {"repl.lag_p99_ms", Quantile(lag_ms, TailLevel(lag_ms.size())),
         "ms"}};
    ReportLayers(layers, traced, report);
    WriteSpans(traced, args.trace_path, report);
  }
  return 0;
}

}  // namespace perfbench
