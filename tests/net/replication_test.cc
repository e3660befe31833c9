// WAL-shipping replication, end to end over loopback TCP: bootstrap
// snapshots (including the empty-store and racing-compaction edges),
// live tailing, reconnect catch-up under injected faults, replicated
// compaction and retention drops, read-only replica sessions, and the
// replication-lag watermark surfaced through EXPLAIN PROFILE and
// odh_metrics.

#include "net/replication.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"
#include "core/replica.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/server.h"
#include "sql/session.h"

namespace odh::net {
namespace {

/// A primary historian with its replication source behind a server, plus
/// (on demand) a replica system tailing it. Both sides are configured
/// identically — schema types and OdhOptions must match for the primary's
/// segment keys to be meaningful on the replica.
class ReplicationTest : public ::testing::Test {
 protected:
  void StartPrimary(core::OdhOptions odh_options = {},
                    ServerOptions server_options = {},
                    ReplicationSourceOptions source_options = {}) {
    odh_options_ = odh_options;
    primary_ = std::make_unique<core::OdhSystem>(odh_options);
    type_ = primary_->DefineSchemaType("env", {"temperature"}).value();
    ODH_CHECK_OK(
        primary_->RegisterSource(1, type_, kMicrosPerSecond, /*regular=*/true));
    source_ = std::make_unique<ReplicationSource>(
        primary_->store(), source_options, primary_->metrics());
    server_options.role = ServerRole::kPrimary;
    server_options.replication = source_.get();
    server_ = std::make_unique<HistorianServer>(primary_->engine(),
                                                server_options,
                                                primary_->metrics());
    auto port = server_->Start();
    ODH_CHECK_OK(port.status());
    port_ = *port;
  }

  void StartReplica(ReplicationClientOptions options = {}) {
    replica_ = std::make_unique<core::OdhSystem>(odh_options_);
    int type = replica_->DefineSchemaType("env", {"temperature"}).value();
    ASSERT_EQ(type, type_);
    // A replica is configured exactly like its primary — same schema
    // types AND the same source registry (the read path resolves sources
    // through local metadata; the stream ships data, not catalog).
    ODH_CHECK_OK(
        replica_->RegisterSource(1, type, kMicrosPerSecond, /*regular=*/true));
    applier_ = std::make_unique<core::ReplicaApplier>(replica_->store());
    if (!fast_backoff_applied_) {
      options.retry.initial_backoff_ms = 1;
      options.retry.max_backoff_ms = 8;
    }
    rclient_ = std::make_unique<ReplicationClient>("127.0.0.1", port_,
                                                   applier_.get(), options);
    ODH_CHECK_OK(rclient_->Start());
  }

  void TearDown() override {
    if (rclient_) rclient_->Stop();
    if (replica_server_) replica_server_->Stop();
    if (server_) server_->Stop();
  }

  /// Ingests points [from, from+n) for source 1 and makes them durable.
  void IngestPoints(int from, int n) {
    for (int i = from; i < from + n; ++i) {
      ODH_CHECK_OK(
          primary_->Ingest({1, i * kMicrosPerSecond, {20.0 + 0.01 * i}}));
    }
    ODH_CHECK_OK(primary_->FlushAll());
  }

  /// Blocks until the replica applied everything durable on the primary.
  [[nodiscard]] bool CatchUp(int timeout_ms = 10000) {
    return rclient_->WaitForLsn(primary_->store()->durable_lsn(), timeout_ms);
  }

  /// COUNT + SUM of source 1's points through a local SQL session.
  std::pair<int64_t, double> Summary(core::OdhSystem* sys) {
    sql::Session local(sys->engine());
    auto r = local.Execute(
        "SELECT COUNT(*), SUM(temperature) FROM env_v WHERE id = 1");
    ODH_CHECK_OK(r.status());
    if (r->rows[0][1].is_null()) return {r->rows[0][0].int64_value(), 0.0};
    return {r->rows[0][0].int64_value(), r->rows[0][1].double_value()};
  }

  void ExpectParity() {
    auto p = Summary(primary_.get());
    auto r = Summary(replica_.get());
    EXPECT_EQ(p.first, r.first);
    EXPECT_DOUBLE_EQ(p.second, r.second);
  }

  core::OdhOptions odh_options_;
  // Outlive the server whose sessions and the replica whose tail thread
  // consult them (both stopped in TearDown).
  std::unique_ptr<FaultPolicy> server_faults_;
  std::unique_ptr<FaultPolicy> client_faults_;
  std::unique_ptr<core::OdhSystem> primary_;
  std::unique_ptr<core::OdhSystem> replica_;
  std::unique_ptr<ReplicationSource> source_;
  std::unique_ptr<HistorianServer> server_;
  std::unique_ptr<HistorianServer> replica_server_;
  std::unique_ptr<core::ReplicaApplier> applier_;
  std::unique_ptr<ReplicationClient> rclient_;
  bool fast_backoff_applied_ = false;
  int type_ = 0;
  int port_ = 0;
};

TEST_F(ReplicationTest, BootstrapMirrorsAPopulatedPrimary) {
  StartPrimary();
  IngestPoints(0, 120);
  StartReplica();
  ASSERT_TRUE(CatchUp());
  ExpectParity();
  EXPECT_GT(applier_->records_applied(), 0);
  EXPECT_EQ(source_->snapshots_served(), 1);
  ODH_CHECK_OK(rclient_->fatal_error());
}

TEST_F(ReplicationTest, EmptyPrimaryBootstrapsThenStreamsLiveWrites) {
  StartPrimary();
  StartReplica();
  // An empty primary's snapshot is legal: zero records, base LSN zero.
  // Wait for the snapshot to be cut before ingesting — otherwise the
  // first writes could ride inside the bootstrap image and the
  // batches_shipped assertion below would race.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (source_->snapshots_served() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(source_->snapshots_served(), 1);
  ASSERT_TRUE(CatchUp());
  EXPECT_EQ(Summary(replica_.get()).first, 0);

  IngestPoints(0, 50);
  ASSERT_TRUE(CatchUp());
  ExpectParity();

  // Later writes flow through the same live stream, batch by batch.
  IngestPoints(50, 25);
  ASSERT_TRUE(CatchUp());
  ExpectParity();
  EXPECT_GT(source_->batches_shipped(), 0);
}

TEST_F(ReplicationTest, LagWatermarkIsMonotoneDuringCatchUp) {
  StartPrimary();
  IngestPoints(0, 40);
  StartReplica();

  // Keep feeding the primary while sampling the replica's watermarks: the
  // applied LSN and data watermark may only move forward.
  uint64_t last_lsn = 0;
  int64_t last_watermark = kMinTimestamp;
  for (int batch = 0; batch < 10; ++batch) {
    IngestPoints(40 + batch * 10, 10);
    for (int i = 0; i < 50; ++i) {
      const uint64_t lsn = applier_->applied_lsn();
      const int64_t wm = applier_->applied_watermark();
      EXPECT_GE(lsn, last_lsn);
      EXPECT_GE(wm, last_watermark);
      last_lsn = lsn;
      last_watermark = wm;
    }
  }
  ASSERT_TRUE(CatchUp());
  ExpectParity();
  EXPECT_GE(applier_->applied_watermark(), last_watermark);
  EXPECT_EQ(applier_->lag_bytes(), 0);
}

TEST_F(ReplicationTest, ReconnectCatchesUpWithoutLossOrDuplication) {
  StartPrimary();
  IngestPoints(0, 60);

  // Seeded read faults on the subscriber's transport cut the stream
  // repeatedly; every cut forces a reconnect that must resume from the
  // applied LSN — never re-applying (duplicates) or skipping (loss).
  client_faults_ = std::make_unique<FaultPolicy>(/*seed=*/21);
  client_faults_->FailNthRead(4);
  client_faults_->FailNthRead(9);
  client_faults_->FailNthRead(15);
  ReplicationClientOptions options;
  options.fault_policy = client_faults_.get();
  options.retry.initial_backoff_ms = 1;
  options.retry.max_backoff_ms = 8;
  fast_backoff_applied_ = true;
  StartReplica(options);

  for (int batch = 0; batch < 6; ++batch) {
    IngestPoints(60 + batch * 20, 20);
    ASSERT_TRUE(CatchUp());
  }
  ExpectParity();
  EXPECT_GT(client_faults_->faults_injected(), 0u) << "schedule never fired";
  EXPECT_GE(rclient_->reconnects(), 1);
  ODH_CHECK_OK(rclient_->fatal_error());
}

TEST_F(ReplicationTest, StreamCutMidSnapshotDoesNotDuplicateRows) {
  // One snapshot record per chunk, and the primary's 4th frame write (the
  // 2nd snapshot chunk, after Welcome, Begin and chunk 1) hangs up halfway.
  // The replica has received chunk 1 but no End, so it resubscribes at
  // LSN 0 and gets a fresh snapshot, which must not land on top of chunk
  // 1's records.
  server_faults_ = std::make_unique<FaultPolicy>();
  server_faults_->DisconnectAtNthWrite(4);
  ServerOptions server_options;
  server_options.fault_policy = server_faults_.get();
  ReplicationSourceOptions source_options;
  source_options.max_batch_bytes = 1;
  StartPrimary({}, server_options, source_options);
  for (int batch = 0; batch < 3; ++batch) IngestPoints(batch * 60, 60);
  StartReplica();
  ASSERT_TRUE(CatchUp());
  ExpectParity();
  EXPECT_EQ(server_faults_->faults_injected(), 1u);
  EXPECT_GE(rclient_->reconnects(), 1);
  ODH_CHECK_OK(rclient_->fatal_error());
}

TEST_F(ReplicationTest, CompactionAndRetentionDropsReplicate) {
  core::OdhOptions options;
  options.segment_span = 60 * kMicrosPerSecond;  // Points span many segments.
  StartPrimary(options);
  // Flush per segment window so blobs align with segments: a single giant
  // blob would begin at ts 0 and spill its data past the retention
  // cutoff, pinning segment 0 (ApplyRetention never drops live points).
  for (int seg = 0; seg < 5; ++seg) IngestPoints(seg * 60, 60);
  StartReplica();
  ASSERT_TRUE(CatchUp());
  ExpectParity();

  // Compaction rewrites sealed segments as Begin/replacement/Commit
  // episodes in the WAL; the replica replays them as atomic swaps.
  auto compacted = primary_->CompactSegments(type_);
  ODH_CHECK_OK(compacted.status());
  ASSERT_TRUE(CatchUp());
  ExpectParity();

  // A retention drop is a kSegmentDrop record; the replica drops its own
  // segment under its own WAL and stays query-consistent.
  auto before = Summary(primary_.get()).first;
  auto dropped = primary_->SetRetention(type_, 120 * kMicrosPerSecond);
  ODH_CHECK_OK(dropped.status());
  EXPECT_GT(*dropped, 0);
  ASSERT_TRUE(CatchUp());
  ExpectParity();
  EXPECT_LT(Summary(primary_.get()).first, before);
  ODH_CHECK_OK(rclient_->fatal_error());
}

TEST_F(ReplicationTest, BootstrapRacesCompactionAndRetention) {
  // The snapshot is cut under the store lock, so a compaction or
  // retention drop can only land fully before or fully after the cut —
  // either way the stream replays it against the snapshot image. Run the
  // whole reorganization after the subscriber's snapshot position was
  // fixed but before it finishes applying, by compacting/dropping
  // concurrently with the bootstrap.
  core::OdhOptions options;
  options.segment_span = 60 * kMicrosPerSecond;
  StartPrimary(options);
  for (int seg = 0; seg < 5; ++seg) IngestPoints(seg * 60, 60);
  StartReplica();
  auto compacted = primary_->CompactSegments(type_);
  ODH_CHECK_OK(compacted.status());
  auto dropped = primary_->SetRetention(type_, 120 * kMicrosPerSecond);
  ODH_CHECK_OK(dropped.status());
  ASSERT_TRUE(CatchUp()) << "fatal=" << rclient_->fatal_error().ToString()
                         << " applied=" << applier_->applied_lsn()
                         << " durable=" << primary_->store()->durable_lsn();
  ExpectParity();
  ODH_CHECK_OK(rclient_->fatal_error());
}

TEST_F(ReplicationTest, ReplicaServesReadOnlySessionsReportingLag) {
  StartPrimary();
  IngestPoints(0, 30);
  StartReplica();
  ASSERT_TRUE(CatchUp());

  // A replica-role server over the replica's engine: read-only sessions,
  // lag in every profile, gauges in odh_metrics.
  ExposeReplicationLag(applier_.get(), replica_->engine());
  rclient_->RegisterGauges(replica_->metrics());
  ServerOptions ro;
  ro.role = ServerRole::kReplica;
  replica_server_ = std::make_unique<HistorianServer>(
      replica_->engine(), ro, replica_->metrics());
  auto port = replica_server_->Start();
  ODH_CHECK_OK(port.status());
  EXPECT_EQ(replica_server_->role(), ServerRole::kReplica);

  auto client = Client::Connect("127.0.0.1", *port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto rows = (*client)->Query("SELECT COUNT(*) FROM env_v WHERE id = 1");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows[0][0], Datum::Int64(30));

  // Mutations are rejected with a precondition error, not executed.
  auto ddl = (*client)->Query("CREATE TABLE nope (k BIGINT)");
  ASSERT_FALSE(ddl.ok());
  EXPECT_TRUE(ddl.status().IsFailedPrecondition()) << ddl.status().ToString();
  {
    sql::Session local(replica_->engine());
    auto check = local.Execute("SELECT COUNT(*) FROM nope");
    EXPECT_FALSE(check.ok()) << "rejected DDL still executed";
  }

  // EXPLAIN PROFILE carries the replica's lag watermark rows.
  auto profile = (*client)->Query(
      "EXPLAIN PROFILE SELECT COUNT(*) FROM env_v WHERE id = 1");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  bool saw_lag = false, saw_staleness = false;
  for (const Row& row : profile->rows) {
    if (row[0] == Datum::String("repl_lag_bytes")) {
      saw_lag = true;
      EXPECT_GE(row[1].int64_value(), 0);
    }
    if (row[0] == Datum::String("repl_staleness_micros")) {
      saw_staleness = true;
      EXPECT_GE(row[1].int64_value(), 0);
    }
  }
  EXPECT_TRUE(saw_lag);
  EXPECT_TRUE(saw_staleness);

  // The same watermark is a gauge in odh_metrics.
  auto metrics = (*client)->Query(
      "SELECT name, value FROM odh_metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  std::set<std::string> names;
  for (const Row& row : metrics->rows) names.insert(row[0].string_value());
  EXPECT_TRUE(names.count("odh.repl.applied_lsn"));
  EXPECT_TRUE(names.count("odh.repl.lag_bytes"));
  EXPECT_TRUE(names.count("odh.repl.staleness_micros"));

  // A primary's profile stays in the historical shape: no repl rows.
  auto primary_client = Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(primary_client.ok());
  auto pprofile = (*primary_client)->Query(
      "EXPLAIN PROFILE SELECT COUNT(*) FROM env_v WHERE id = 1");
  ASSERT_TRUE(pprofile.ok()) << pprofile.status().ToString();
  for (const Row& row : pprofile->rows) {
    EXPECT_NE(row[0], Datum::String("repl_lag_bytes"));
  }
}

TEST_F(ReplicationTest, SubscribingAheadOfThePrimaryIsFatalNotRetried) {
  StartPrimary();
  IngestPoints(0, 40);
  StartReplica();
  ASSERT_TRUE(CatchUp());
  const uint64_t applied = applier_->applied_lsn();
  ASSERT_GT(applied, 0u);
  rclient_->Stop();
  server_->Stop();

  // A fresh, empty "primary" (wrong machine, wiped disk): the replica's
  // resume position is beyond its durable log. That is never retried —
  // backing off forever against a primary that cannot have the data
  // would silently serve stale reads; the operator must re-bootstrap.
  auto wrong = std::make_unique<core::OdhSystem>(odh_options_);
  ASSERT_TRUE(wrong->DefineSchemaType("env", {"temperature"}).ok());
  ODH_CHECK_OK(wrong->RegisterSource(1, type_, kMicrosPerSecond, true));
  ReplicationSource wrong_source(wrong->store());
  ServerOptions options;
  options.role = ServerRole::kPrimary;
  options.replication = &wrong_source;
  HistorianServer wrong_server(wrong->engine(), options, wrong->metrics());
  auto port = wrong_server.Start();
  ODH_CHECK_OK(port.status());

  ReplicationClientOptions copts;
  copts.retry.initial_backoff_ms = 1;
  copts.retry.max_backoff_ms = 4;
  ReplicationClient stale("127.0.0.1", *port, applier_.get(), copts);
  ODH_CHECK_OK(stale.Start());
  Status fatal;
  for (int i = 0; i < 1000; ++i) {
    fatal = stale.fatal_error();
    if (!fatal.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(fatal.ok()) << "stale subscribe kept being retried";
  EXPECT_EQ(applier_->applied_lsn(), applied) << "stale primary fed data";
  stale.Stop();
  wrong_server.Stop();
}

}  // namespace
}  // namespace odh::net
