#ifndef PERFBENCH_HARNESS_ORACLE_H_
#define PERFBENCH_HARNESS_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "benchfw/ld_generator.h"
#include "benchfw/td_generator.h"
#include "common/datum.h"
#include "core/value_blob.h"

namespace perfbench {

using odh::Row;
using odh::SourceId;
using odh::Timestamp;

/// One generated stream, materialized in ingest order, with a per-source
/// index. It is both the benchmark's input (the program only ever sees these
/// records) and the correctness oracle: every expected answer is computed
/// from it.
struct StreamData {
  std::string name;
  std::vector<std::string> tag_names;
  Timestamp sample_interval = 0;
  bool regular = false;
  SourceId first_id = 0;
  int64_t num_sources = 0;
  /// Records in ingest order; `values` is record-major, NaN = not reported.
  std::vector<SourceId> ids;
  std::vector<Timestamp> ts;
  std::vector<double> values;
  /// by_source[id - first_id]: positions of the source's records, ascending
  /// (and so in timestamp order).
  std::vector<std::vector<uint32_t>> by_source;

  size_t size() const { return ids.size(); }
  size_t num_tags() const { return tag_names.size(); }
  double value(size_t pos, size_t tag) const {
    return values[pos * num_tags() + tag];
  }
  void FillRecord(size_t pos, odh::core::OperationalRecord* record) const;
  /// Non-NULL values among records [begin, end): the paper's data points.
  int64_t Points(size_t begin, size_t end) const;
  const std::vector<uint32_t>& Positions(SourceId id) const {
    return by_source[static_cast<size_t>(id - first_id)];
  }
  /// Records of `id` with position < `prefix` and ts in [lo, hi].
  int64_t CountInWindow(SourceId id, Timestamp lo, Timestamp hi,
                        size_t prefix) const;
};

StreamData MakeTdStream(const odh::benchfw::TdConfig& config);
StreamData MakeLdStream(const odh::benchfw::LdConfig& config);

/// Where the checked values sit in a result row; -1 = not projected.
struct Projection {
  int id_col = -1;
  int ts_col = -1;
  /// (column, tag index) pairs.
  std::vector<std::pair<int, int>> tags;
  /// `SELECT *` over a schema type's virtual table: id, ts, every tag.
  static Projection All(const StreamData& stream);
  /// Columns a row needs to hold every projected one.
  size_t width() const;
};

/// Which records a query may see: at least the first `lo` records of the
/// stream (acknowledged before it was sent) and at most the first `hi`
/// (submitted when it returned). Both equal the stream size on a static
/// store, which makes every check exact.
struct Visible {
  size_t lo = 0;
  size_t hi = 0;
};

/// Checks a one-source answer over [lo_ts, hi_ts]: it must hold exactly the
/// first c matching records of `id` in timestamp order, with c inside the
/// visibility bounds. Returns "" when correct, else what is wrong. `count`
/// (optional) receives c.
std::string CheckSeries(const StreamData& stream, SourceId id, Timestamp lo_ts,
                        Timestamp hi_ts, Visible visible,
                        const std::vector<Row>& rows, const Projection& proj,
                        int64_t* count = nullptr);

/// Checks an all-source answer over [lo_ts, hi_ts]: per source, rows must be
/// ts-ordered, duplicate-free, real records, and a count within the bounds.
std::string CheckSlice(const StreamData& stream, Timestamp lo_ts,
                       Timestamp hi_ts, Visible visible,
                       const std::vector<Row>& rows, const Projection& proj);

/// Checks `COUNT(*), SUM(tag), MIN(tag), MAX(tag)` over one source and
/// window: the count within the bounds, and sum (relative 1e-9), min and
/// max equal to those of the first `count` matching records.
std::string CheckAggregate(const StreamData& stream, SourceId id,
                           Timestamp lo_ts, Timestamp hi_ts, int tag,
                           Visible visible, const Row& row,
                           int64_t* count = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_ORACLE_H_
