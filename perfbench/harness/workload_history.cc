// `history`: WS2 over a preloaded, reorganized TD+LD store several times
// the buffer pool, with the customer/account/linkedsensor tables loaded. One
// client thread runs a seeded closed loop of equal-count rounds of the five
// classes through the embedded SQL engine; nothing is written meanwhile.
// The store is set up five times, each followed by a fifth of the run.
#include <memory>

#include "harness/workload.h"

namespace perfbench {

namespace {
constexpr int kSetups = 5;
constexpr int kWarmupRounds = 2;
}  // namespace

int RunHistory(const Args& args, Report* report) {
  const Data data = MakeLargeData(args.seed);
  ResetPeakRss();
  Tracer traced(args.trace);
  Tracer untraced(false);

  std::vector<double> setup_s, preload_rate, batch_ms;
  ClassLatencies lat_traced, lat_untraced;
  LayerInputs layers;
  uint64_t store_bytes = 0;
  int64_t points = 0;
  std::unique_ptr<odh::core::OdhSystem> odh;
  // Each set-up is followed by its share of the timed mix, so one run's
  // latencies come from several independently built stores.
  for (int i = 0; i < kSetups; ++i) {
    odh.reset();
    const int64_t t0 = NowNs();
    odh = std::make_unique<odh::core::OdhSystem>();
    odh::Result<Schema> schema = DefineSchema(odh.get(), data, true);
    IngestStats stats;
    odh::Status st = schema.status();
    const int64_t ti = NowNs();
    if (st.ok()) {
      st = IngestClosedLoop(odh.get(), data.td, 0, data.td.size(), &untraced,
                            &stats);
    }
    if (st.ok()) {
      st = IngestClosedLoop(odh.get(), data.ld, 0, data.ld.size(), &untraced,
                            &stats);
    }
    const int64_t tf = NowNs();
    if (st.ok()) st = odh->FlushAll();
    const int64_t t1 = NowNs();
    odh::Result<odh::core::ReorganizeReport> reorg =
        st.ok() ? odh->Reorganize(schema->ld, odh::kMaxTimestamp)
                : odh::Result<odh::core::ReorganizeReport>(st);
    const int64_t t2 = NowNs();
    if (!reorg.ok()) {
      report->Fail("setup: " + reorg.status().ToString());
      return 1;
    }
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    preload_rate.push_back(static_cast<double>(stats.points) * 1e9 /
                           static_cast<double>(t1 - ti));
    batch_ms.insert(batch_ms.end(), stats.batch_ms.begin(),
                    stats.batch_ms.end());
    points = stats.points;
    store_bytes = odh->storage_bytes();
    if (store_bytes < 2 * PoolBytes(odh.get())) {
      report->Fail("premise: store is not several times the buffer pool");
    }
    layers.extra = {
        {"reorganize_s", static_cast<double>(t2 - t1) / 1e9, "s"},
        {"reorganize.blobs_rewritten",
         static_cast<double>(reorg->rts_blobs_written +
                             reorg->irts_blobs_written),
         "count"}};
    // The write-path layers of history are those of its preload.
    layers.ingest_ns = stats.ingest_ns;
    layers.flushall_ms = static_cast<double>(t1 - tf) / 1e6;
    CheckWholeStore(odh.get(), data, report);

    // Each store gets its own Zipf ranking of the sources, so one run's
    // medians do not rest on a single seed's few hottest sources.
    HistoryMix mix(data, args.seed * kSetups + i);
    ClassLatencies warm;
    QueryTally ignored;
    for (int r = 0; r < kWarmupRounds; ++r) {
      for (QueryClass c : kRoundOrder) {
        RunMixQuery(odh.get(), *schema, data, mix.Next(c), &untraced, false,
                    &warm, &ignored, report);
      }
    }
    // Per-layer counters cover the last store's share of the mix.
    layers.metrics = odh->metrics();
    layers.before = LayerSnapshot::Take(odh.get());
    const int64_t queries_before = layers.tally.queries;
    const int64_t share_ns = args.seconds * 1'000'000'000LL / kSetups;
    const int64_t start = NowNs();
    for (int round = 0; NowNs() - start < share_ns; ++round) {
      // Traced runs alternate traced and untraced rounds for the overhead.
      const bool on = args.trace && round % 2 == 0;
      for (QueryClass c : kRoundOrder) {
        RunMixQuery(odh.get(), *schema, data, mix.Next(c),
                    on ? &traced : &untraced, /*layered=*/true,
                    on ? &lat_traced : &lat_untraced, &layers.tally, report);
      }
    }
    layers.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    layers.after = LayerSnapshot::Take(odh.get());
    layers.queries = layers.tally.queries - queries_before;
  }
  report->Stamp("records_generated", static_cast<double>(data.records()));
  report->Stamp("store_bytes", static_cast<double>(store_bytes));
  report->Stamp("pool_bytes", static_cast<double>(PoolBytes(odh.get())));
  report->Stamp("premise", "store exceeds the buffer pool");
  layers.points = points;

  report->Add("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()));
  report->Add("ingest_pts_per_s", Median(preload_rate), "1/s",
              static_cast<int64_t>(preload_rate.size()), "preload");
  report->Add("bytes_per_point",
              static_cast<double>(store_bytes) / static_cast<double>(points),
              "B");
  const LatencySummary batches = Summarize(batch_ms);
  report->Add("ingest_p99_ms", batches.tail, "ms",
              static_cast<int64_t>(batches.count),
              "preload, per 4096-record batch");
  ReportClasses(lat_untraced, lat_traced, report);
  report->Add("rss_peak_mb", PeakRssMb(), "MiB");
  if (args.trace) {
    const double base = SumOfMedians(lat_untraced);
    layers.overhead_pct =
        base > 0 ? 100.0 * (SumOfMedians(lat_traced) - base) / base : 0;
    ReportLayers(layers, traced, report);
    WriteSpans(traced, args.trace_path, report);
  }
  return 0;
}

}  // namespace perfbench
