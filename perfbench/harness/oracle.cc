#include "harness/oracle.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {
namespace {

StreamData Materialize(odh::benchfw::RecordStream* gen) {
  const odh::benchfw::StreamInfo& info = gen->info();
  StreamData s;
  s.name = info.name;
  s.tag_names = info.tag_names;
  s.sample_interval = info.sample_interval;
  s.regular = info.regular;
  s.first_id = info.first_source_id;
  s.num_sources = info.num_sources;
  s.by_source.resize(static_cast<size_t>(info.num_sources));
  s.ids.reserve(static_cast<size_t>(info.expected_records));
  s.ts.reserve(static_cast<size_t>(info.expected_records));
  s.values.reserve(static_cast<size_t>(info.expected_records) *
                   s.num_tags());
  odh::core::OperationalRecord r;
  while (gen->Next(&r)) {
    const uint32_t pos = static_cast<uint32_t>(s.ids.size());
    s.ids.push_back(r.id);
    s.ts.push_back(r.ts);
    for (size_t t = 0; t < s.num_tags(); ++t) {
      s.values.push_back(t < r.tags.size() ? r.tags[t] : std::nan(""));
    }
    s.by_source[static_cast<size_t>(r.id - s.first_id)].push_back(pos);
  }
  return s;
}

bool SameDouble(const odh::Datum& d, double expected) {
  if (std::isnan(expected)) return d.is_null();
  return d.is_double() && d.double_value() == expected;
}

std::string Describe(SourceId id, Timestamp ts) {
  return "source " + std::to_string(id) + " ts " + std::to_string(ts);
}

/// Compares one row with record `pos`.
std::string CheckRow(const StreamData& s, size_t pos, const Row& row,
                     const Projection& proj) {
  if (row.size() < proj.width()) return "short row";
  if (proj.id_col >= 0 && (!row[proj.id_col].is_int64() ||
                           row[proj.id_col].int64_value() != s.ids[pos])) {
    return "wrong id at " + Describe(s.ids[pos], s.ts[pos]);
  }
  if (proj.ts_col >= 0 && (!row[proj.ts_col].is_timestamp() ||
                           row[proj.ts_col].timestamp_value() != s.ts[pos])) {
    return "wrong ts at " + Describe(s.ids[pos], s.ts[pos]);
  }
  for (const auto& [col, tag] : proj.tags) {
    if (!SameDouble(row[col], s.value(pos, tag))) {
      return "wrong " + s.tag_names[tag] + " at " +
             Describe(s.ids[pos], s.ts[pos]);
    }
  }
  return "";
}

/// Positions of `id`'s records with ts in [lo, hi], ascending.
std::pair<size_t, size_t> WindowRange(const StreamData& s,
                                      const std::vector<uint32_t>& pos,
                                      Timestamp lo, Timestamp hi) {
  auto ts_less = [&s](uint32_t p, Timestamp t) { return s.ts[p] < t; };
  auto first = std::lower_bound(pos.begin(), pos.end(), lo, ts_less);
  auto last = std::lower_bound(first, pos.end(), hi, ts_less);
  while (last != pos.end() && s.ts[*last] <= hi) ++last;
  return {static_cast<size_t>(first - pos.begin()),
          static_cast<size_t>(last - pos.begin())};
}

/// Number of entries of pos[b, e) below `prefix`.
size_t BelowPrefix(const std::vector<uint32_t>& pos, size_t b, size_t e,
                   size_t prefix) {
  return static_cast<size_t>(
      std::lower_bound(pos.begin() + b, pos.begin() + e,
                       static_cast<uint32_t>(std::min<size_t>(
                           prefix, UINT32_MAX))) -
      (pos.begin() + b));
}

std::string CountError(int64_t got, size_t lo, size_t hi) {
  return "count " + std::to_string(got) + " outside [" + std::to_string(lo) +
         ", " + std::to_string(hi) + "]";
}

}  // namespace

void StreamData::FillRecord(size_t pos,
                            odh::core::OperationalRecord* record) const {
  record->id = ids[pos];
  record->ts = ts[pos];
  record->tags.assign(values.begin() + pos * num_tags(),
                      values.begin() + (pos + 1) * num_tags());
}

int64_t StreamData::Points(size_t begin, size_t end) const {
  int64_t n = 0;
  for (size_t i = begin * num_tags(); i < end * num_tags(); ++i) {
    if (!std::isnan(values[i])) ++n;
  }
  return n;
}

int64_t StreamData::CountInWindow(SourceId id, Timestamp lo, Timestamp hi,
                                  size_t prefix) const {
  const std::vector<uint32_t>& pos = Positions(id);
  auto [b, e] = WindowRange(*this, pos, lo, hi);
  return static_cast<int64_t>(BelowPrefix(pos, b, e, prefix));
}

StreamData MakeTdStream(const odh::benchfw::TdConfig& config) {
  odh::benchfw::TdGenerator gen(config);
  return Materialize(&gen);
}

StreamData MakeLdStream(const odh::benchfw::LdConfig& config) {
  odh::benchfw::LdGenerator gen(config);
  return Materialize(&gen);
}

size_t Projection::width() const {
  int last = std::max(id_col, ts_col);
  for (const auto& [col, tag] : tags) last = std::max(last, col);
  return static_cast<size_t>(last + 1);
}

Projection Projection::All(const StreamData& stream) {
  Projection p;
  p.id_col = 0;
  p.ts_col = 1;
  for (size_t t = 0; t < stream.num_tags(); ++t) {
    p.tags.emplace_back(static_cast<int>(2 + t), static_cast<int>(t));
  }
  return p;
}

std::string CheckSeries(const StreamData& s, SourceId id, Timestamp lo_ts,
                        Timestamp hi_ts, Visible visible,
                        const std::vector<Row>& rows, const Projection& proj,
                        int64_t* count) {
  const std::vector<uint32_t>& pos = s.Positions(id);
  auto [b, e] = WindowRange(s, pos, lo_ts, hi_ts);
  const size_t min_n = BelowPrefix(pos, b, e, visible.lo);
  const size_t max_n = BelowPrefix(pos, b, e, visible.hi);
  if (rows.size() < min_n || rows.size() > max_n) {
    return CountError(static_cast<int64_t>(rows.size()), min_n, max_n) +
           " for source " + std::to_string(id);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    std::string err = CheckRow(s, pos[b + i], rows[i], proj);
    if (!err.empty()) return err;
  }
  if (count != nullptr) *count = static_cast<int64_t>(rows.size());
  return "";
}

std::string CheckSlice(const StreamData& s, Timestamp lo_ts, Timestamp hi_ts,
                       Visible visible, const std::vector<Row>& rows,
                       const Projection& proj) {
  // Rows per source, in answer order.
  std::map<SourceId, std::vector<const Row*>> per_source;
  for (const Row& row : rows) {
    if (row.size() < proj.width() || !row[proj.id_col].is_int64()) {
      return "malformed row";
    }
    const int64_t id = row[proj.id_col].int64_value();
    if (id < s.first_id || id >= s.first_id + s.num_sources) {
      return "unknown source " + std::to_string(id);
    }
    per_source[id].push_back(&row);
  }
  for (int64_t k = 0; k < s.num_sources; ++k) {
    const SourceId id = s.first_id + k;
    const std::vector<uint32_t>& pos = s.Positions(id);
    auto [b, e] = WindowRange(s, pos, lo_ts, hi_ts);
    const size_t min_n = BelowPrefix(pos, b, e, visible.lo);
    const size_t max_n = BelowPrefix(pos, b, e, visible.hi);
    auto it = per_source.find(id);
    const size_t got = it == per_source.end() ? 0 : it->second.size();
    if (got < min_n || got > max_n) {
      return CountError(static_cast<int64_t>(got), min_n, max_n) +
             " for source " + std::to_string(id);
    }
    for (size_t i = 0; i < got; ++i) {
      std::string err = CheckRow(s, pos[b + i], *it->second[i], proj);
      if (!err.empty()) return err;
    }
  }
  return "";
}

std::string CheckAggregate(const StreamData& s, SourceId id, Timestamp lo_ts,
                           Timestamp hi_ts, int tag, Visible visible,
                           const Row& row, int64_t* count) {
  if (row.size() != 4 || !row[0].is_int64()) return "malformed aggregate row";
  const int64_t n = row[0].int64_value();
  const std::vector<uint32_t>& pos = s.Positions(id);
  auto [b, e] = WindowRange(s, pos, lo_ts, hi_ts);
  const size_t min_n = BelowPrefix(pos, b, e, visible.lo);
  const size_t max_n = BelowPrefix(pos, b, e, visible.hi);
  if (n < static_cast<int64_t>(min_n) || n > static_cast<int64_t>(max_n)) {
    return CountError(n, min_n, max_n) + " for source " + std::to_string(id);
  }
  double sum = 0, mn = 0, mx = 0;
  bool any = false;
  for (size_t i = b; i < b + static_cast<size_t>(n); ++i) {
    const double v = s.value(pos[i], static_cast<size_t>(tag));
    if (std::isnan(v)) continue;
    sum += v;
    mn = any ? std::min(mn, v) : v;
    mx = any ? std::max(mx, v) : v;
    any = true;
  }
  if (!any) {
    if (!row[1].is_null() || !row[2].is_null() || !row[3].is_null()) {
      return "aggregate over no values is not NULL";
    }
  } else {
    if (!row[1].is_double() || !row[2].is_double() || !row[3].is_double()) {
      return "aggregate values missing for source " + std::to_string(id);
    }
    const double got = row[1].double_value();
    if (std::fabs(got - sum) > 1e-9 * std::max(1.0, std::fabs(sum))) {
      return "sum " + std::to_string(got) + " != " + std::to_string(sum) +
             " for source " + std::to_string(id);
    }
    if (row[2].double_value() != mn || row[3].double_value() != mx) {
      return "min/max mismatch for source " + std::to_string(id);
    }
  }
  if (count != nullptr) *count = n;
  return "";
}

}  // namespace perfbench
