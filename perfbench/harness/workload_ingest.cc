// `ingest`: one writer thread pushes the TD then the LD stream through
// OdhSystem::Ingest in a closed loop, FlushAll inside the timed window. Each
// cycle starts from a fresh instance (set-up), times the load, then checks
// the stored result against the oracle and runs a few rounds of the
// `history` mix over the freshly loaded store (LD still in MG form). Cycles
// repeat for the run's seconds, so the store never grows past one dataset
// (several times the pool) and every figure is a median over many
// independently built stores.
#include <memory>

#include "harness/workload.h"

namespace perfbench {

namespace {
constexpr int kQueryRoundsPerCycle = 6;
}  // namespace

int RunIngest(const Args& args, Report* report) {
  const Data data = MakeLargeData(args.seed);
  ResetPeakRss();
  Tracer traced(args.trace);
  Tracer untraced(false);
  HistoryMix mix(data, args.seed);

  std::vector<double> setup_s, rate, bytes_per_point, batch_ms;
  std::vector<double> traced_rate, untraced_rate;
  LayerInputs layers;
  const int64_t run_ns = args.seconds * 1'000'000'000LL;
  const int64_t run_start = NowNs();
  ClassLatencies lat_traced, lat_untraced;
  QueryTally tally;
  // Outlives the loop: the per-layer report reads the last instance.
  std::unique_ptr<odh::core::OdhSystem> odh;
  Schema last_schema;
  for (int cycle = 0; cycle == 0 || NowNs() - run_start < run_ns; ++cycle) {
    // Traced runs alternate traced and untraced cycles for the overhead.
    Tracer* tracer = cycle % 2 == 0 ? &traced : &untraced;
    odh.reset();
    int64_t t0 = NowNs();
    odh = std::make_unique<odh::core::OdhSystem>();
    odh::Result<Schema> schema = DefineSchema(odh.get(), data, true);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!schema.ok()) {
      report->Fail("setup: " + schema.status().ToString());
      return 1;
    }
    // Per-layer counters cover the last cycle's timed load.
    layers.metrics = odh->metrics();
    layers.before = LayerSnapshot::Take(odh.get());
    IngestStats stats;
    t0 = NowNs();
    odh::Status st = IngestClosedLoop(odh.get(), data.td, 0, data.td.size(),
                                      tracer, &stats);
    if (st.ok()) {
      st = IngestClosedLoop(odh.get(), data.ld, 0, data.ld.size(), tracer,
                            &stats);
    }
    const int64_t f0 = NowNs();
    if (st.ok()) {
      SpanScope span(tracer, "odh.flushall", 0, tracer->NewRequest());
      st = odh->FlushAll();
    }
    const int64_t t1 = NowNs();
    layers.after = LayerSnapshot::Take(odh.get());
    report->Op(st.ok() ? "" : "ingest: " + st.ToString());
    if (!st.ok()) return 1;
    const double seconds = static_cast<double>(t1 - t0) / 1e9;
    rate.push_back(static_cast<double>(stats.points) / seconds);
    (tracer->enabled() ? traced_rate : untraced_rate).push_back(rate.back());
    bytes_per_point.push_back(static_cast<double>(odh->storage_bytes()) /
                              static_cast<double>(stats.points));
    batch_ms.insert(batch_ms.end(), stats.batch_ms.begin(),
                    stats.batch_ms.end());
    if (odh->storage_bytes() < 2 * PoolBytes(odh.get())) {
      report->Fail("premise: store is not several times the buffer pool");
    }
    report->Stamp("store_bytes", static_cast<double>(odh->storage_bytes()));
    report->Stamp("pool_bytes", static_cast<double>(PoolBytes(odh.get())));

    CheckWholeStore(odh.get(), data, report);
    for (int round = 0; round < kQueryRoundsPerCycle; ++round) {
      for (QueryClass c : kRoundOrder) {
        RunMixQuery(odh.get(), *schema, data, mix.Next(c), tracer,
                    /*layered=*/true,
                    tracer->enabled() ? &lat_traced : &lat_untraced, &tally,
                    report);
      }
    }
    last_schema = *schema;
    layers.points = stats.points;
    layers.ingest_ns = stats.ingest_ns;
    layers.elapsed_s = seconds;
    layers.flushall_ms = static_cast<double>(t1 - f0) / 1e6;
  }

  // Reorganizer cost right after a bulk load (untimed for the end-to-end
  // metrics): the last store's LD moves from MG to per-source structures.
  const int64_t r0 = NowNs();
  odh::Result<odh::core::ReorganizeReport> reorg =
      odh->Reorganize(last_schema.ld, odh::kMaxTimestamp);
  const int64_t r1 = NowNs();
  report->Op(reorg.ok() ? "" : "reorganize: " + reorg.status().ToString());
  if (reorg.ok()) {
    layers.extra = {
        {"reorganize_s", static_cast<double>(r1 - r0) / 1e9, "s"},
        {"reorganize.blobs_rewritten",
         static_cast<double>(reorg->rts_blobs_written +
                             reorg->irts_blobs_written),
         "count"}};
  }

  report->Stamp("records_generated", static_cast<double>(data.records()));
  report->Stamp("premise", "store exceeds the buffer pool");
  report->Add("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()));
  report->Add("ingest_pts_per_s", Median(rate), "1/s",
              static_cast<int64_t>(rate.size()));
  report->Add("bytes_per_point", Median(bytes_per_point), "B",
              static_cast<int64_t>(bytes_per_point.size()));
  const LatencySummary batches = Summarize(batch_ms);
  report->Add("ingest_p99_ms", batches.tail, "ms",
              static_cast<int64_t>(batches.count),
              "per 4096-record batch, closed loop");
  ReportClasses(lat_untraced, lat_traced, report);
  report->Add("rss_peak_mb", PeakRssMb(), "MiB");
  if (args.trace) {
    // Ingest is the timed work here: a slower traced load is overhead.
    if (!traced_rate.empty() && !untraced_rate.empty()) {
      layers.overhead_pct =
          100.0 * (Median(untraced_rate) - Median(traced_rate)) /
          Median(untraced_rate);
    }
    layers.tally = tally;
    ReportLayers(layers, traced, report);
    WriteSpans(traced, args.trace_path, report);
  }
  return 0;
}

}  // namespace perfbench
