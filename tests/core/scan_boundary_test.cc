#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"

namespace odh::core {
namespace {

/// Satellite regressions for the partition-elimination boundary audit:
/// a time predicate landing exactly on a blob boundary (inclusive start,
/// exclusive end) must neither drop nor double-read the edge blob on any
/// of the three scan paths.
///
/// Layout: 10 RTS blobs of 50 one-second points for source 1, so blob k
/// covers seconds [50k, 50k+49] and second 50k is a blob boundary.
class ScanBoundaryTest : public ::testing::Test {
 protected:
  ScanBoundaryTest() {
    OdhOptions options;
    options.batch_size = 50;
    options.sql_metadata_router = false;
    odh_ = std::make_unique<OdhSystem>(options);
    type_ = odh_->DefineSchemaType("m", {"temp"}).value();
    ODH_CHECK_OK(odh_->RegisterSource(1, type_, kMicrosPerSecond, true));
    for (int i = 0; i < 500; ++i) {
      ODH_CHECK_OK(odh_->Ingest({1, i * kMicrosPerSecond, {1.0 * i}}));
    }
    ODH_CHECK_OK(odh_->FlushAll());
  }

  std::string TsLiteral(int64_t second) {
    return "'" + FormatTimestamp(second * kMicrosPerSecond) + "'";
  }

  /// Runs `query` on all three scan paths and checks every path returns
  /// identical rows; returns the row-path result.
  sql::QueryResult AllPaths(const std::string& query) {
    odh_->config()->SetScanPathOptions(true, true);
    auto pushed = odh_->engine()->Execute(query);
    odh_->config()->SetScanPathOptions(true, false);
    auto vectorized = odh_->engine()->Execute(query);
    odh_->config()->SetScanPathOptions(false, false);
    auto rowwise = odh_->engine()->Execute(query);
    odh_->config()->SetScanPathOptions(true, true);
    ODH_CHECK(pushed.ok());
    ODH_CHECK(vectorized.ok());
    ODH_CHECK(rowwise.ok());
    EXPECT_EQ(pushed->rows.size(), rowwise->rows.size()) << query;
    EXPECT_EQ(vectorized->rows.size(), rowwise->rows.size()) << query;
    const size_t n = std::min(
        {pushed->rows.size(), vectorized->rows.size(), rowwise->rows.size()});
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < rowwise->rows[r].size(); ++c) {
        EXPECT_EQ(pushed->rows[r][c], rowwise->rows[r][c])
            << query << " row " << r << " col " << c << " (pushdown)";
        EXPECT_EQ(vectorized->rows[r][c], rowwise->rows[r][c])
            << query << " row " << r << " col " << c << " (vectorized)";
      }
    }
    return std::move(*rowwise);
  }

  std::unique_ptr<OdhSystem> odh_;
  int type_;
};

TEST_F(ScanBoundaryTest, HalfOpenRangeOnBlobBoundary) {
  // [100, 150): exactly blob 2; the edge blob starting at second 150 must
  // not leak its first point, and second 100 must not be dropped.
  const std::string where = " FROM m_v WHERE id = 1 AND ts >= " +
                            TsLiteral(100) + " AND ts < " + TsLiteral(150);
  sql::QueryResult agg =
      AllPaths("SELECT COUNT(*), SUM(temp), MIN(temp), MAX(temp)" + where);
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0][0], Datum::Int64(50));
  EXPECT_EQ(agg.rows[0][1], Datum::Double(6225.0));  // sum 100..149
  EXPECT_EQ(agg.rows[0][2], Datum::Double(100.0));
  EXPECT_EQ(agg.rows[0][3], Datum::Double(149.0));

  sql::QueryResult rows = AllPaths("SELECT ts, temp" + where);
  ASSERT_EQ(rows.rows.size(), 50u);
  EXPECT_EQ(rows.rows.front()[1], Datum::Double(100.0));
  EXPECT_EQ(rows.rows.back()[1], Datum::Double(149.0));
}

TEST_F(ScanBoundaryTest, ExclusiveLowerBoundOnBlobBoundary) {
  // (150, 200]: the blob starting exactly at 150 contributes 151..199 and
  // the next blob contributes its first point only.
  const std::string where = " FROM m_v WHERE id = 1 AND ts > " +
                            TsLiteral(150) + " AND ts <= " + TsLiteral(200);
  sql::QueryResult agg =
      AllPaths("SELECT COUNT(*), MIN(temp), MAX(temp)" + where);
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0][0], Datum::Int64(50));
  EXPECT_EQ(agg.rows[0][1], Datum::Double(151.0));
  EXPECT_EQ(agg.rows[0][2], Datum::Double(200.0));
}

TEST_F(ScanBoundaryTest, EqualityOnBlobBoundary) {
  const std::string query = "SELECT COUNT(*), MIN(temp), MAX(temp) FROM m_v "
                            "WHERE id = 1 AND ts = " +
                            TsLiteral(250);
  sql::QueryResult agg = AllPaths(query);
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0][0], Datum::Int64(1));
  EXPECT_EQ(agg.rows[0][1], Datum::Double(250.0));
  EXPECT_EQ(agg.rows[0][2], Datum::Double(250.0));
}

TEST_F(ScanBoundaryTest, EmptyHalfOpenRangeOnBoundary) {
  // [150, 150) is empty; no path may resurrect the boundary point.
  sql::QueryResult agg = AllPaths(
      "SELECT COUNT(*), SUM(temp) FROM m_v WHERE id = 1 AND ts >= " +
      TsLiteral(150) + " AND ts < " + TsLiteral(150));
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0][0], Datum::Int64(0));
  EXPECT_EQ(agg.rows[0][1], Datum::Null());
}

TEST_F(ScanBoundaryTest, RedundantBoundsKeepExclusiveSemantics) {
  // Merging `ts BETWEEN a AND b` with `ts < b` must keep the strict upper
  // bound regardless of conjunct order (regression: the looser inclusive
  // bound used to win the merge when the values tied).
  for (const std::string& where :
       {" FROM m_v WHERE id = 1 AND ts < " + TsLiteral(150) +
            " AND ts BETWEEN " + TsLiteral(100) + " AND " + TsLiteral(150),
        " FROM m_v WHERE id = 1 AND ts BETWEEN " + TsLiteral(100) + " AND " +
            TsLiteral(150) + " AND ts < " + TsLiteral(150),
        " FROM m_v WHERE id = 1 AND ts >= " + TsLiteral(100) +
            " AND ts <= " + TsLiteral(150) + " AND ts < " + TsLiteral(150)}) {
    sql::QueryResult agg = AllPaths("SELECT COUNT(*), MAX(temp)" + where);
    ASSERT_EQ(agg.rows.size(), 1u);
    EXPECT_EQ(agg.rows[0][0], Datum::Int64(50)) << where;
    EXPECT_EQ(agg.rows[0][1], Datum::Double(149.0)) << where;
  }
  // Same on the lower bound: `ts > a` must survive a later `ts >= a`.
  for (const std::string& where :
       {" FROM m_v WHERE id = 1 AND ts > " + TsLiteral(150) + " AND ts >= " +
            TsLiteral(150) + " AND ts <= " + TsLiteral(200),
        " FROM m_v WHERE id = 1 AND ts >= " + TsLiteral(150) + " AND ts > " +
            TsLiteral(150) + " AND ts <= " + TsLiteral(200)}) {
    sql::QueryResult agg = AllPaths("SELECT COUNT(*), MIN(temp)" + where);
    ASSERT_EQ(agg.rows.size(), 1u);
    EXPECT_EQ(agg.rows[0][0], Datum::Int64(50)) << where;
    EXPECT_EQ(agg.rows[0][1], Datum::Double(151.0)) << where;
  }
}

TEST_F(ScanBoundaryTest, NativeScanHalfOpenViaInclusiveMicros) {
  // The native API takes inclusive [lo, hi]; hi = boundary - 1 micro must
  // exclude the edge blob's first point exactly.
  auto cursor = odh_->HistoricalQuery(type_, 1, 100 * kMicrosPerSecond,
                                      150 * kMicrosPerSecond - 1);
  ASSERT_TRUE(cursor.ok());
  int64_t n = 0;
  OperationalRecord rec;
  while (true) {
    auto more = (*cursor)->Next(&rec);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_GE(rec.ts, 100 * kMicrosPerSecond);
    EXPECT_LT(rec.ts, 150 * kMicrosPerSecond);
    ++n;
  }
  EXPECT_EQ(n, 50);
}

TEST_F(ScanBoundaryTest, WidenedLowerBoundClampsAtMinTimestamp) {
  // Partition elimination widens lo by the longest blob span; just above
  // kMinTimestamp that must clamp rather than overflow (UBSan aborts).
  auto blobs = odh_->store()->GetRts(type_, 1, kMinTimestamp + 1,
                                     49 * kMicrosPerSecond);
  ASSERT_TRUE(blobs.ok());
  ASSERT_EQ(blobs->size(), 1u);
  EXPECT_EQ((*blobs)[0].begin, 0);
}

TEST(MgBoundaryTest, SliceHalfOpenOnMgWindowBoundary) {
  // Low-frequency sources land in MG blobs; the same half-open boundary
  // contract must hold on the MG scan path (begin_ts index + group filter).
  OdhOptions options;
  options.batch_size = 10;
  options.sql_metadata_router = false;
  OdhSystem odh(options);
  int type = odh.DefineSchemaType("lf", {"v"}).value();
  ODH_CHECK_OK(odh.RegisterSource(7, type, 10 * kMicrosPerSecond, false));
  for (int i = 0; i < 40; ++i) {
    ODH_CHECK_OK(odh.Ingest({7, i * 10 * kMicrosPerSecond, {1.0 * i}}));
  }
  ODH_CHECK_OK(odh.FlushAll());

  // Blobs hold 10 records each: [0,90], [100,190], [200,290], [300,390]
  // seconds*10. Query [100s, 300s) must return exactly records 10..29.
  const std::string query =
      "SELECT COUNT(*), MIN(v), MAX(v) FROM lf_v WHERE ts >= '" +
      FormatTimestamp(100 * kMicrosPerSecond) + "' AND ts < '" +
      FormatTimestamp(300 * kMicrosPerSecond) + "'";
  for (const auto& [vec, push] :
       std::vector<std::pair<bool, bool>>{{true, true}, {true, false},
                                          {false, false}}) {
    odh.config()->SetScanPathOptions(vec, push);
    auto r = odh.engine()->Execute(query);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0], Datum::Int64(20)) << vec << push;
    EXPECT_EQ(r->rows[0][1], Datum::Double(10.0)) << vec << push;
    EXPECT_EQ(r->rows[0][2], Datum::Double(29.0)) << vec << push;
  }
  // The MG scan's widened lower bound clamps near kMinTimestamp too.
  auto blobs = odh.store()->GetMg(type, /*group=*/-1, kMinTimestamp + 1,
                                  50 * kMicrosPerSecond);
  ASSERT_TRUE(blobs.ok());
  EXPECT_EQ(blobs->size(), 1u);
}

}  // namespace
}  // namespace odh::core
