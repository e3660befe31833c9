#include "core/store.h"

#include <algorithm>
#include <mutex>
#include <set>
#include <tuple>

#include "common/key_codec.h"
#include "storage/spill_file.h"

namespace odh::core {
namespace {

using relational::Column;
using relational::Schema;
using storage::SegmentKeyFor;
using storage::SegmentTier;

// Column positions in the RTS/IRTS tables.
constexpr int kSeriesId = 0;
constexpr int kSeriesBegin = 1;
constexpr int kSeriesEnd = 2;
constexpr int kSeriesInterval = 3;
constexpr int kSeriesCount = 4;
constexpr int kSeriesBlob = 5;
constexpr int kSeriesZone = 6;

// Column positions in the MG table.
constexpr int kMgBegin = 0;
constexpr int kMgGroup = 1;
constexpr int kMgEnd = 2;
constexpr int kMgCount = 3;
constexpr int kMgBlob = 4;
constexpr int kMgZone = 5;

Schema SeriesSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"begin_ts", DataType::kTimestamp},
                 {"end_ts", DataType::kTimestamp},
                 {"interval", DataType::kInt64},
                 {"n", DataType::kInt64},
                 {"blob", DataType::kString},
                 {"zonemap", DataType::kString}});
}

Schema MgSchema() {
  return Schema({{"begin_ts", DataType::kTimestamp},
                 {"grp", DataType::kInt64},
                 {"end_ts", DataType::kTimestamp},
                 {"n", DataType::kInt64},
                 {"blob", DataType::kString},
                 {"zonemap", DataType::kString}});
}

bool IsDataRecord(WalRecord::Kind kind) {
  return kind == WalRecord::Kind::kRts || kind == WalRecord::Kind::kIrts ||
         kind == WalRecord::Kind::kMg || kind == WalRecord::Kind::kMgDelete;
}

}  // namespace

std::string OdhStore::SegmentPrefix(const std::string& type_name,
                                    int64_t key, int generation) const {
  if (config_->options().segment_span == 0) return "odh$" + type_name + "$";
  return "odh$" + type_name + "$s" + std::to_string(key) + "$g" +
         std::to_string(generation) + "$";
}

Result<OdhStore::Segment> OdhStore::CreateSegment(int schema_type,
                                                  int64_t key,
                                                  int generation) {
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(schema_type));
  const Timestamp span = config_->options().segment_span;
  Segment seg;
  seg.manifest.key = key;
  if (span == 0) {
    seg.manifest.lo = kMinTimestamp;
    seg.manifest.hi = kMaxTimestamp;
  } else {
    seg.manifest.lo = key * span;
    seg.manifest.hi = seg.manifest.lo + span;
  }
  seg.manifest.generation = generation;
  seg.mg_epoch = generation;
  const std::string prefix = SegmentPrefix(type->name, key, generation);
  // B-tree indexes on the first two fields of each batch structure
  // (paper §2: "B-tree indices are created on the first two fields").
  ODH_ASSIGN_OR_RETURN(seg.rts,
                       db_->CreateTable(prefix + "rts", SeriesSchema()));
  ODH_RETURN_IF_ERROR(seg.rts->AddIndex({"pk", {kSeriesId, kSeriesBegin}}));
  ODH_ASSIGN_OR_RETURN(seg.irts,
                       db_->CreateTable(prefix + "irts", SeriesSchema()));
  ODH_RETURN_IF_ERROR(seg.irts->AddIndex({"pk", {kSeriesId, kSeriesBegin}}));
  ODH_ASSIGN_OR_RETURN(seg.mg, db_->CreateTable(prefix + "mg", MgSchema()));
  ODH_RETURN_IF_ERROR(seg.mg->AddIndex({"pk", {kMgBegin, kMgGroup}}));
  return seg;
}

Status OdhStore::CreateContainers(int schema_type) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(schema_type));
  if (containers_.count(schema_type) > 0) {
    return Status::AlreadyExists("containers exist for " + type->name);
  }
  Container container;
  if (config_->options().segment_span == 0) {
    // Unsegmented layout: the single unbounded segment exists up front
    // under the historical flat table names.
    ODH_ASSIGN_OR_RETURN(Segment seg,
                         CreateSegment(schema_type, 0, /*generation=*/0));
    container.segments.emplace(0, std::move(seg));
  }
  containers_[schema_type] = std::move(container);
  return Status::OK();
}

Result<OdhStore::Container*> OdhStore::GetContainer(int schema_type) {
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) {
    return Status::NotFound("no containers for schema type " +
                            std::to_string(schema_type));
  }
  return &it->second;
}

Result<const OdhStore::Container*> OdhStore::GetContainer(
    int schema_type) const {
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) {
    return Status::NotFound("no containers for schema type " +
                            std::to_string(schema_type));
  }
  return &it->second;
}

Result<OdhStore::Segment*> OdhStore::GetSegmentForWrite(
    int schema_type, Container* container, Timestamp begin) {
  const int64_t key = SegmentKeyFor(begin, config_->options().segment_span);
  auto it = container->segments.find(key);
  if (it == container->segments.end()) {
    // A re-created key (late write after a retention drop) starts past
    // every generation the dropped segment ever used, so stale cached
    // decodes of the old incarnation stay unreachable.
    int generation = 0;
    auto ng = container->next_generation.find(key);
    if (ng != container->next_generation.end()) generation = ng->second;
    ODH_ASSIGN_OR_RETURN(Segment seg,
                         CreateSegment(schema_type, key, generation));
    it = container->segments.emplace(key, std::move(seg)).first;
  }
  return &it->second;
}

void OdhStore::UpdateStats(ContainerStats* stats, Timestamp begin,
                           Timestamp end, int64_t n, size_t blob_bytes) {
  ++stats->blob_count;
  stats->point_count += n;
  stats->blob_bytes += static_cast<int64_t>(blob_bytes);
  if (begin < stats->min_ts) stats->min_ts = begin;
  if (end > stats->max_ts) stats->max_ts = end;
  if (end - begin > stats->max_span) stats->max_span = end - begin;
}

Status OdhStore::LogPut(WalRecord::Kind kind, int schema_type,
                        int64_t id_or_group, Timestamp begin, Timestamp end,
                        Timestamp interval, int64_t n, const Slice& blob,
                        const Slice& zone_map) {
  if (wal_ == nullptr) {
    ODH_ASSIGN_OR_RETURN(wal_, Wal::Create(db_->disk(), kWalFileName));
    wal_->SetInstruments(wal_sync_hist_, wal_group_commits_,
                         wal_piggybacked_);
  }
  std::string payload;
  EncodeWalPayload(kind, schema_type, id_or_group, begin, end, interval, n,
                   blob, zone_map, &payload);
  wal_->Append(payload);
  return Status::OK();
}

Status OdhStore::PutRts(int schema_type, SourceId id, Timestamp begin,
                        Timestamp end, Timestamp interval, int64_t n,
                        const std::string& blob,
                        const std::string& zone_map) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  // Log before the heap/index write: once Sync() flushes the log, the blob
  // is replayable even if the table pages never made it to disk.
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kRts, schema_type, id, begin,
                             end, interval, n, blob, zone_map));
  ODH_ASSIGN_OR_RETURN(Segment * seg,
                       GetSegmentForWrite(schema_type, container, begin));
  Row row = {Datum::Int64(id),       Datum::Time(begin),
             Datum::Time(end),       Datum::Int64(interval),
             Datum::Int64(n),        Datum::String(blob),
             Datum::String(zone_map)};
  ODH_RETURN_IF_ERROR(seg->rts->Insert(row).status());
  UpdateStats(&seg->rts_stats, begin, end, n, blob.size());
  ++seg->manifest.version;
  return Status::OK();
}

Status OdhStore::PutIrts(int schema_type, SourceId id, Timestamp begin,
                         Timestamp end, int64_t n, const std::string& blob,
                         const std::string& zone_map) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kIrts, schema_type, id, begin,
                             end, /*interval=*/0, n, blob, zone_map));
  ODH_ASSIGN_OR_RETURN(Segment * seg,
                       GetSegmentForWrite(schema_type, container, begin));
  Row row = {Datum::Int64(id), Datum::Time(begin), Datum::Time(end),
             Datum::Int64(0),  Datum::Int64(n),    Datum::String(blob),
             Datum::String(zone_map)};
  ODH_RETURN_IF_ERROR(seg->irts->Insert(row).status());
  UpdateStats(&seg->irts_stats, begin, end, n, blob.size());
  ++seg->manifest.version;
  return Status::OK();
}

Status OdhStore::PutMg(int schema_type, int64_t group, Timestamp begin,
                       Timestamp end, int64_t n, const std::string& blob,
                       const std::string& zone_map) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kMg, schema_type, group,
                             begin, end, /*interval=*/0, n, blob, zone_map));
  ODH_ASSIGN_OR_RETURN(Segment * seg,
                       GetSegmentForWrite(schema_type, container, begin));
  Row row = {Datum::Time(begin), Datum::Int64(group), Datum::Time(end),
             Datum::Int64(n), Datum::String(blob),
             Datum::String(zone_map)};
  ODH_RETURN_IF_ERROR(seg->mg->Insert(row).status());
  UpdateStats(&seg->mg_stats, begin, end, n, blob.size());
  ++seg->manifest.version;
  return Status::OK();
}

namespace {

// Partition elimination: only blobs with begin_ts in [lo - max_span, hi]
// can overlap [lo, hi], since max_span bounds every blob's end - begin.
// Returns lo - max_span, clamped at kMinTimestamp instead of overflowing
// (max_span >= 0).
Timestamp WidenedScanLo(Timestamp lo, Timestamp max_span) {
  return lo < kMinTimestamp + max_span ? kMinTimestamp : lo - max_span;
}

Status ScanSeries(relational::Table* table, const ContainerStats& stats,
                  int64_t seg_key, int64_t generation, SourceId id,
                  Timestamp lo, Timestamp hi,
                  std::atomic<int64_t>* examined,
                  std::atomic<int64_t>* discarded,
                  std::vector<BlobRecord>* out) {
  const Timestamp scan_lo = WidenedScanLo(lo, stats.max_span);
  std::string lo_key = EncodeKey({Datum::Int64(id), Datum::Time(scan_lo)});
  std::string hi_key = EncodeKey({Datum::Int64(id), Datum::Time(hi)});
  ODH_ASSIGN_OR_RETURN(relational::Table::IndexIterator it,
                       table->IndexScan(0, lo_key, hi_key));
  while (it.Valid()) {
    ODH_ASSIGN_OR_RETURN(Row row, table->Get(it.rid()));
    BlobRecord rec;
    rec.id = row[0].int64_value();
    rec.begin = row[1].timestamp_value();
    rec.end = row[2].timestamp_value();
    rec.interval = row[3].int64_value();
    rec.n = row[4].int64_value();
    rec.blob = row[5].string_value();
    rec.zone_map = row[6].string_value();
    rec.rid = it.rid();
    rec.seg = seg_key;
    rec.generation = generation;
    examined->fetch_add(1, std::memory_order_relaxed);
    if (rec.end >= lo) {
      out->push_back(std::move(rec));
    } else {
      discarded->fetch_add(1, std::memory_order_relaxed);
    }
    ODH_RETURN_IF_ERROR(it.Next());
  }
  return Status::OK();
}

// The slice counterpart of ScanSeries' range scan, over every source: one
// pass over the (id, begin_ts) index leaves appends the rids of the rows
// whose begin_ts lies in [lo - max_span, hi]. A per-source reseek would
// descend from the root once per source.
Status ListSliceCandidates(relational::Table* table, Timestamp max_span,
                           Timestamp lo, Timestamp hi,
                           std::vector<relational::Rid>* out) {
  const Timestamp scan_lo = WidenedScanLo(lo, max_span);
  ODH_ASSIGN_OR_RETURN(relational::Table::IndexIterator it,
                       table->IndexScan(0, "", ""));
  while (it.Valid()) {
    KeyDecoder key(it.key());
    int64_t source, begin;
    if (!key.ReadInt64(&source) || !key.ReadInt64(&begin)) {
      return Status::Corruption("undecodable series index key in " +
                                table->name());
    }
    if (begin >= scan_lo && begin <= hi) out->push_back(it.rid());
    ODH_RETURN_IF_ERROR(it.Next());
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<BlobRecord>> OdhStore::GetRts(int schema_type,
                                                 SourceId id, Timestamp lo,
                                                 Timestamp hi,
                                                 SegmentScanStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  std::vector<BlobRecord> out;
  for (auto& [key, seg] : container->segments) {
    if (SegmentDisjoint(seg.rts_stats, lo, hi)) {
      if (seg.rts_stats.blob_count > 0) CountSegmentPruned(stats);
      continue;
    }
    ODH_RETURN_IF_ERROR(ScanSeries(seg.rts, seg.rts_stats, key,
                                   seg.manifest.generation, id, lo, hi,
                                   &blobs_examined_, &blobs_discarded_,
                                   &out));
  }
  return out;
}

Result<std::vector<BlobRecord>> OdhStore::GetIrts(int schema_type,
                                                  SourceId id, Timestamp lo,
                                                  Timestamp hi,
                                                  SegmentScanStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  std::vector<BlobRecord> out;
  for (auto& [key, seg] : container->segments) {
    if (SegmentDisjoint(seg.irts_stats, lo, hi)) {
      if (seg.irts_stats.blob_count > 0) CountSegmentPruned(stats);
      continue;
    }
    ODH_RETURN_IF_ERROR(ScanSeries(seg.irts, seg.irts_stats, key,
                                   seg.manifest.generation, id, lo, hi,
                                   &blobs_examined_, &blobs_discarded_,
                                   &out));
  }
  return out;
}

Result<std::vector<BlobRecord>> OdhStore::GetMg(int schema_type,
                                                int64_t group, Timestamp lo,
                                                Timestamp hi,
                                                SegmentScanStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  std::vector<BlobRecord> out;
  for (auto& [key, seg] : container->segments) {
    if (SegmentDisjoint(seg.mg_stats, lo, hi)) {
      if (seg.mg_stats.blob_count > 0) CountSegmentPruned(stats);
      continue;
    }
    std::string lo_key =
        EncodeKey({Datum::Time(WidenedScanLo(lo, seg.mg_stats.max_span))});
    std::string hi_key = EncodeKey({Datum::Time(hi)});
    ODH_ASSIGN_OR_RETURN(relational::Table::IndexIterator it,
                         seg.mg->IndexScan(0, lo_key, hi_key));
    while (it.Valid()) {
      ODH_ASSIGN_OR_RETURN(Row row, seg.mg->Get(it.rid()));
      BlobRecord rec;
      rec.begin = row[0].timestamp_value();
      rec.group = row[1].int64_value();
      rec.end = row[2].timestamp_value();
      rec.n = row[3].int64_value();
      rec.blob = row[4].string_value();
      rec.zone_map = row[5].string_value();
      rec.rid = it.rid();
      rec.seg = key;
      rec.generation = seg.mg_epoch;
      blobs_examined_.fetch_add(1, std::memory_order_relaxed);
      if (rec.end >= lo && (group < 0 || rec.group == group)) {
        out.push_back(std::move(rec));
      } else {
        blobs_discarded_.fetch_add(1, std::memory_order_relaxed);
      }
      ODH_RETURN_IF_ERROR(it.Next());
    }
  }
  return out;
}

Status OdhStore::DeleteMg(int schema_type, int64_t seg_key,
                          const relational::Rid& rid) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  auto it = container->segments.find(seg_key);
  if (it == container->segments.end()) {
    return Status::NotFound("no segment " + std::to_string(seg_key));
  }
  Segment& seg = it->second;
  // Keep the count/byte stats honest for the cost model; the min/max/span
  // fields stay conservative.
  auto row = seg.mg->Get(rid);
  if (row.ok()) {
    ContainerStats& stats = seg.mg_stats;
    --stats.blob_count;
    stats.point_count -= (*row)[kMgCount].int64_value();
    stats.blob_bytes -=
        static_cast<int64_t>((*row)[kMgBlob].string_value().size());
    // Log the deletion so recovery does not resurrect a blob the
    // reorganizer already converted (its RTS/IRTS replacements are logged
    // by their own Puts).
    ODH_RETURN_IF_ERROR(LogPut(
        WalRecord::Kind::kMgDelete, schema_type,
        (*row)[kMgGroup].int64_value(), (*row)[kMgBegin].timestamp_value(),
        (*row)[kMgEnd].timestamp_value(), /*interval=*/0,
        (*row)[kMgCount].int64_value(), Slice(), Slice()));
  }
  ++seg.manifest.version;
  return seg.mg->Delete(rid);
}

Status OdhStore::CompactMg(int schema_type) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(schema_type));
  for (auto& [key, seg] : container->segments) {
    std::string old_name = seg.mg->name();
    std::string new_name =
        SegmentPrefix(type->name, key, seg.manifest.generation) + "mg$v" +
        std::to_string(++mg_version_);
    ODH_ASSIGN_OR_RETURN(relational::Table * fresh,
                         db_->CreateTable(new_name, MgSchema()));
    ODH_RETURN_IF_ERROR(fresh->AddIndex({"pk", {kMgBegin, kMgGroup}}));

    ContainerStats stats;
    auto it = seg.mg->NewIterator();
    ODH_RETURN_IF_ERROR(it.SeekToFirst());
    while (it.Valid()) {
      ODH_ASSIGN_OR_RETURN(Row row, it.row());
      ODH_RETURN_IF_ERROR(fresh->Insert(row).status());
      UpdateStats(&stats, row[kMgBegin].timestamp_value(),
                  row[kMgEnd].timestamp_value(),
                  row[kMgCount].int64_value(),
                  row[kMgBlob].string_value().size());
      ODH_RETURN_IF_ERROR(it.Next());
    }
    ODH_RETURN_IF_ERROR(fresh->Commit());
    ODH_RETURN_IF_ERROR(db_->DropTable(old_name));
    seg.mg = fresh;
    seg.mg_stats = stats;
    // The rebuild reshuffled rids without a manifest-generation bump;
    // advance the MG epoch so cached decodes of the old layout expire.
    ++seg.mg_epoch;
    ++seg.manifest.version;
  }
  return Status::OK();
}

Status OdhStore::NextSliceChunk(int schema_type, bool irts, Timestamp lo,
                                Timestamp hi, SliceCursor* cursor,
                                std::vector<BlobRecord>* out, bool* done,
                                SegmentScanStats* stats) {
  out->clear();
  *done = false;
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  auto it = container->segments.lower_bound(cursor->seg);
  if (cursor->in_segment &&
      (it == container->segments.end() || it->first != cursor->seg ||
       it->second.manifest.generation != cursor->generation)) {
    // The segment we were mid-way through was dropped or compacted into a
    // new generation. Its replacement has a different physical layout, so
    // the listed rids are meaningless — skip the remainder and move on
    // (same contract as a drop between whole-segment chunks).
    cursor->in_segment = false;
    if (cursor->pin || cursor->seg == INT64_MAX) {
      *done = true;
      return Status::OK();
    }
    ++cursor->seg;
    it = container->segments.lower_bound(cursor->seg);
  }
  if (it == container->segments.end() ||
      (cursor->pin && it->first != cursor->seg)) {
    // Pinned cursor whose segment vanished: lower_bound would land on the
    // NEXT key, which belongs to another worker — report done instead.
    *done = true;
    return Status::OK();
  }
  Segment& seg = it->second;
  const int64_t key = it->first;
  cursor->seg = key;
  relational::Table* table = irts ? seg.irts : seg.rts;
  if (!cursor->in_segment) {
    const ContainerStats& sstats = irts ? seg.irts_stats : seg.rts_stats;
    if (SegmentDisjoint(sstats, lo, hi)) {
      // Pinned cursors never count pruning: the SliceSegments listing that
      // produced them already did.
      if (cursor->pin) {
        *done = true;
        return Status::OK();
      }
      if (sstats.blob_count > 0) CountSegmentPruned(stats);
      if (key == INT64_MAX) {
        *done = true;
      } else {
        ++cursor->seg;
      }
      return Status::OK();
    }
    // List the segment's candidates once from the pk index, then visit
    // them in physical order — the order a heap walk would emit them in.
    // Rows appended after this listing are not emitted by this scan.
    cursor->rids.clear();
    cursor->next = 0;
    ODH_RETURN_IF_ERROR(
        ListSliceCandidates(table, sstats.max_span, lo, hi, &cursor->rids));
    std::sort(cursor->rids.begin(), cursor->rids.end());
    cursor->in_segment = true;
    cursor->generation = seg.manifest.generation;
  }
  const size_t stop = std::min(cursor->rids.size(),
                               cursor->next + kSliceChunkRows);
  for (; cursor->next < stop; ++cursor->next) {
    const relational::Rid& rid = cursor->rids[cursor->next];
    ODH_ASSIGN_OR_RETURN(Row row, table->Get(rid));
    BlobRecord rec;
    ODH_RETURN_IF_ERROR(RowToBlobRecord(row, rid, /*is_mg=*/false, &rec));
    rec.seg = key;
    rec.generation = seg.manifest.generation;
    // The widened listing over-approximates; this is the exact overlap
    // filter. Deliberately not counted in blobs_examined/discarded (slice
    // scans never were).
    if (rec.end >= lo && rec.begin <= hi) out->push_back(std::move(rec));
  }
  if (cursor->next < cursor->rids.size()) return Status::OK();
  cursor->in_segment = false;
  if (cursor->pin || key == INT64_MAX) {
    *done = true;
  } else {
    ++cursor->seg;
  }
  return Status::OK();
}

Result<std::vector<int64_t>> OdhStore::SliceSegments(
    int schema_type, bool irts, Timestamp lo, Timestamp hi,
    SegmentScanStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  std::vector<int64_t> out;
  for (auto& [key, seg] : container->segments) {
    const ContainerStats& sstats = irts ? seg.irts_stats : seg.rts_stats;
    if (SegmentDisjoint(sstats, lo, hi)) {
      if (sstats.blob_count > 0) CountSegmentPruned(stats);
      continue;
    }
    out.push_back(key);
  }
  return out;
}

ContainerStats OdhStore::rts_stats(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  ContainerStats total;
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) return total;
  for (const auto& [key, seg] : it->second.segments) {
    (void)key;
    total.Merge(seg.rts_stats);
  }
  return total;
}

ContainerStats OdhStore::irts_stats(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  ContainerStats total;
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) return total;
  for (const auto& [key, seg] : it->second.segments) {
    (void)key;
    total.Merge(seg.irts_stats);
  }
  return total;
}

ContainerStats OdhStore::mg_stats(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  ContainerStats total;
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) return total;
  for (const auto& [key, seg] : it->second.segments) {
    (void)key;
    total.Merge(seg.mg_stats);
  }
  return total;
}

std::vector<SegmentInfo> OdhStore::SegmentInfos(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SegmentInfo> out;
  auto it = containers_.find(schema_type);
  if (it == containers_.end()) return out;
  for (const auto& [key, seg] : it->second.segments) {
    SegmentInfo info;
    info.key = key;
    info.lo = seg.manifest.lo;
    info.hi = seg.manifest.hi;
    info.generation = seg.manifest.generation;
    info.tier = seg.manifest.tier;
    for (const ContainerStats* s :
         {&seg.rts_stats, &seg.irts_stats, &seg.mg_stats}) {
      info.blob_count += s->blob_count;
      info.point_count += s->point_count;
      info.blob_bytes += s->blob_bytes;
      if (s->min_ts < info.min_ts) info.min_ts = s->min_ts;
      if (s->max_ts > info.max_ts) info.max_ts = s->max_ts;
    }
    out.push_back(info);
  }
  return out;
}

Status OdhStore::SetRetention(int schema_type, Timestamp retention_micros) {
  if (retention_micros < 0) {
    return Status::InvalidArgument("retention must be non-negative");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (containers_.count(schema_type) == 0) {
    return Status::NotFound("no containers for schema type " +
                            std::to_string(schema_type));
  }
  if (retention_micros == 0) {
    retention_.erase(schema_type);
  } else {
    retention_[schema_type] = retention_micros;
  }
  return Status::OK();
}

Timestamp OdhStore::retention(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = retention_.find(schema_type);
  return it == retention_.end() ? 0 : it->second;
}

Result<int64_t> OdhStore::ApplyRetention(int schema_type) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  auto rit = retention_.find(schema_type);
  if (rit == retention_.end() || config_->options().segment_span == 0 ||
      container->segments.size() < 2) {
    return int64_t{0};
  }
  // Watermark: the newest ingested timestamp of this schema type.
  Timestamp watermark = kMinTimestamp;
  for (const auto& [key, seg] : container->segments) {
    (void)key;
    for (const ContainerStats* s :
         {&seg.rts_stats, &seg.irts_stats, &seg.mg_stats}) {
      if (s->max_ts > watermark) watermark = s->max_ts;
    }
  }
  if (watermark == kMinTimestamp) return int64_t{0};
  const Timestamp cutoff = watermark - rit->second;
  const int64_t newest_key = container->segments.rbegin()->first;

  std::vector<int64_t> expired;
  for (const auto& [key, seg] : container->segments) {
    if (key == newest_key) continue;  // Never drop the ingesting segment.
    if (seg.manifest.hi > cutoff) continue;  // Nominal range not expired.
    // Data bounds may spill past the nominal hi (a blob beginning near the
    // boundary ends in the next window); never drop unexpired points.
    Timestamp data_max = kMinTimestamp;
    for (const ContainerStats* s :
         {&seg.rts_stats, &seg.irts_stats, &seg.mg_stats}) {
      if (s->max_ts > data_max) data_max = s->max_ts;
    }
    if (data_max >= cutoff) continue;
    expired.push_back(key);
  }

  for (int64_t key : expired) {
    Segment& seg = container->segments.at(key);
    // WAL first, synced before any table goes away: recovery must know the
    // drop happened before it can be allowed to forget the data records.
    // A crash before the sync merely resurrects the expired segment; the
    // next ApplyRetention drops it again.
    ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kSegmentDrop, schema_type,
                               key, seg.manifest.lo, seg.manifest.hi,
                               /*interval=*/0, /*n=*/0, Slice(), Slice()));
    ODH_RETURN_IF_ERROR(wal_->Sync());
    ODH_RETURN_IF_ERROR(db_->DropTable(seg.rts->name()));
    ODH_RETURN_IF_ERROR(db_->DropTable(seg.irts->name()));
    ODH_RETURN_IF_ERROR(db_->DropTable(seg.mg->name()));
    // A later write re-creating this key must start past every generation
    // the dropped segment used, or cached decodes of it would resurface.
    container->next_generation[key] =
        std::max(seg.manifest.generation, seg.mg_epoch) + 1;
    container->segments.erase(key);
    segments_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  return static_cast<int64_t>(expired.size());
}

std::vector<int64_t> OdhStore::SealedHotSegments(int schema_type) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> out;
  auto it = containers_.find(schema_type);
  if (it == containers_.end() || it->second.segments.size() < 2 ||
      config_->options().segment_span == 0) {
    return out;
  }
  const int64_t newest_key = it->second.segments.rbegin()->first;
  for (const auto& [key, seg] : it->second.segments) {
    if (key == newest_key) continue;
    if (seg.manifest.tier != SegmentTier::kHot) continue;
    if (seg.rts_stats.blob_count + seg.irts_stats.blob_count == 0) continue;
    out.push_back(key);
  }
  return out;
}

Result<SegmentSnapshot> OdhStore::SnapshotSegment(int schema_type,
                                                  int64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(const Container* container,
                       GetContainer(schema_type));
  auto it = container->segments.find(key);
  if (it == container->segments.end()) {
    return Status::NotFound("no segment " + std::to_string(key));
  }
  const Segment& seg = it->second;
  SegmentSnapshot snap;
  snap.manifest = seg.manifest;
  for (bool irts : {false, true}) {
    relational::Table* table = irts ? seg.irts : seg.rts;
    std::vector<BlobRecord>* out = irts ? &snap.irts : &snap.rts;
    auto rows = table->NewIterator();
    ODH_RETURN_IF_ERROR(rows.SeekToFirst());
    while (rows.Valid()) {
      ODH_ASSIGN_OR_RETURN(Row row, rows.row());
      BlobRecord rec;
      ODH_RETURN_IF_ERROR(
          RowToBlobRecord(row, rows.rid(), /*is_mg=*/false, &rec));
      rec.seg = key;
      rec.generation = seg.manifest.generation;
      out->push_back(std::move(rec));
      ODH_RETURN_IF_ERROR(rows.Next());
    }
  }
  return snap;
}

Status OdhStore::SwapCompactedSegment(int schema_type, int64_t key,
                                      uint64_t expected_version,
                                      const std::vector<BlobRecord>& rts,
                                      const std::vector<BlobRecord>& irts) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  ODH_ASSIGN_OR_RETURN(const SchemaType* type,
                       config_->GetSchemaType(schema_type));
  auto it = container->segments.find(key);
  if (it == container->segments.end()) {
    return Status::NotFound("no segment " + std::to_string(key));
  }
  Segment& seg = it->second;
  if (seg.manifest.version != expected_version) {
    return Status::Aborted("segment " + std::to_string(key) +
                           " changed during compaction");
  }

  // One contiguous WAL episode under mu_: Begin (carrying the segment's
  // nominal bounds so recovery can suppress the superseded records), the
  // replacement blobs, Commit. Synced before the in-memory swap so a crash
  // at any later point replays the compacted segment, and a crash before
  // the Commit frame is durable discards the episode and keeps the old
  // one — exactly one of the two ever survives.
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kSegmentCompactBegin,
                             schema_type, key, seg.manifest.lo,
                             seg.manifest.hi, /*interval=*/0, /*n=*/0,
                             Slice(), Slice()));
  for (const BlobRecord& rec : rts) {
    ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kRts, schema_type, rec.id,
                               rec.begin, rec.end, rec.interval, rec.n,
                               rec.blob, rec.zone_map));
  }
  for (const BlobRecord& rec : irts) {
    ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kIrts, schema_type, rec.id,
                               rec.begin, rec.end, /*interval=*/0, rec.n,
                               rec.blob, rec.zone_map));
  }
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kSegmentCompactCommit,
                             schema_type, key, seg.manifest.lo,
                             seg.manifest.hi, /*interval=*/0, /*n=*/0,
                             Slice(), Slice()));
  ODH_RETURN_IF_ERROR(wal_->Sync());

  // Build the next generation's tables, then swap and drop the old ones.
  const int next_gen = seg.manifest.generation + 1;
  const std::string prefix = SegmentPrefix(type->name, key, next_gen);
  ODH_ASSIGN_OR_RETURN(relational::Table * new_rts,
                       db_->CreateTable(prefix + "rts", SeriesSchema()));
  ODH_RETURN_IF_ERROR(new_rts->AddIndex({"pk", {kSeriesId, kSeriesBegin}}));
  ODH_ASSIGN_OR_RETURN(relational::Table * new_irts,
                       db_->CreateTable(prefix + "irts", SeriesSchema()));
  ODH_RETURN_IF_ERROR(
      new_irts->AddIndex({"pk", {kSeriesId, kSeriesBegin}}));
  ContainerStats rts_stats, irts_stats;
  for (const BlobRecord& rec : rts) {
    Row row = {Datum::Int64(rec.id),       Datum::Time(rec.begin),
               Datum::Time(rec.end),       Datum::Int64(rec.interval),
               Datum::Int64(rec.n),        Datum::String(rec.blob),
               Datum::String(rec.zone_map)};
    ODH_RETURN_IF_ERROR(new_rts->Insert(row).status());
    UpdateStats(&rts_stats, rec.begin, rec.end, rec.n, rec.blob.size());
  }
  for (const BlobRecord& rec : irts) {
    Row row = {Datum::Int64(rec.id), Datum::Time(rec.begin),
               Datum::Time(rec.end), Datum::Int64(0),
               Datum::Int64(rec.n),  Datum::String(rec.blob),
               Datum::String(rec.zone_map)};
    ODH_RETURN_IF_ERROR(new_irts->Insert(row).status());
    UpdateStats(&irts_stats, rec.begin, rec.end, rec.n, rec.blob.size());
  }
  ODH_RETURN_IF_ERROR(new_rts->Commit());
  ODH_RETURN_IF_ERROR(new_irts->Commit());
  ODH_RETURN_IF_ERROR(db_->DropTable(seg.rts->name()));
  ODH_RETURN_IF_ERROR(db_->DropTable(seg.irts->name()));
  seg.rts = new_rts;
  seg.irts = new_irts;
  seg.rts_stats = rts_stats;
  seg.irts_stats = irts_stats;
  seg.manifest.generation = next_gen;
  seg.manifest.tier = SegmentTier::kCold;
  ++seg.manifest.version;
  segments_compacted_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status OdhStore::RowToBlobRecord(const Row& row, const relational::Rid& rid,
                                 bool is_mg, BlobRecord* rec) {
  if (is_mg) {
    rec->begin = row[kMgBegin].timestamp_value();
    rec->group = row[kMgGroup].int64_value();
    rec->end = row[kMgEnd].timestamp_value();
    rec->n = row[kMgCount].int64_value();
    rec->blob = row[kMgBlob].string_value();
    rec->zone_map = row[kMgZone].string_value();
  } else {
    rec->id = row[kSeriesId].int64_value();
    rec->begin = row[kSeriesBegin].timestamp_value();
    rec->end = row[kSeriesEnd].timestamp_value();
    rec->interval = row[kSeriesInterval].int64_value();
    rec->n = row[kSeriesCount].int64_value();
    rec->blob = row[kSeriesBlob].string_value();
    rec->zone_map = row[kSeriesZone].string_value();
  }
  rec->rid = rid;
  return Status::OK();
}

Status OdhStore::Sync(int schema_type) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  // Write-ahead: the log reaches disk before the table pages, so any blob
  // visible in the flushed containers is also replayable.
  if (wal_ != nullptr) ODH_RETURN_IF_ERROR(wal_->Sync());
  for (auto& [key, seg] : container->segments) {
    (void)key;
    ODH_RETURN_IF_ERROR(seg.rts->Commit());
    ODH_RETURN_IF_ERROR(seg.irts->Commit());
    ODH_RETURN_IF_ERROR(seg.mg->Commit());
  }
  return Status::OK();
}

Result<OdhStore::ReplicationSnapshot> OdhStore::SnapshotForReplication() {
  std::lock_guard<std::mutex> lock(mu_);
  ReplicationSnapshot snap;
  if (wal_ != nullptr) {
    // Appends are blocked while mu_ is held, so after this Sync the
    // durable log covers every record any table row below came from.
    ODH_RETURN_IF_ERROR(wal_->Sync());
    snap.base_lsn = wal_->synced_bytes();
  }
  for (const auto& [schema_type, container] : containers_) {
    for (const auto& [key, seg] : container.segments) {
      (void)key;
      for (bool irts : {false, true}) {
        relational::Table* table = irts ? seg.irts : seg.rts;
        auto rows = table->NewIterator();
        ODH_RETURN_IF_ERROR(rows.SeekToFirst());
        while (rows.Valid()) {
          ODH_ASSIGN_OR_RETURN(Row row, rows.row());
          std::string payload;
          EncodeWalPayload(
              irts ? WalRecord::Kind::kIrts : WalRecord::Kind::kRts,
              schema_type, row[kSeriesId].int64_value(),
              row[kSeriesBegin].timestamp_value(),
              row[kSeriesEnd].timestamp_value(),
              row[kSeriesInterval].int64_value(),
              row[kSeriesCount].int64_value(),
              Slice(row[kSeriesBlob].string_value()),
              Slice(row[kSeriesZone].string_value()), &payload);
          snap.records.push_back(std::move(payload));
          ODH_RETURN_IF_ERROR(rows.Next());
        }
      }
      auto rows = seg.mg->NewIterator();
      ODH_RETURN_IF_ERROR(rows.SeekToFirst());
      while (rows.Valid()) {
        ODH_ASSIGN_OR_RETURN(Row row, rows.row());
        std::string payload;
        EncodeWalPayload(WalRecord::Kind::kMg, schema_type,
                         row[kMgGroup].int64_value(),
                         row[kMgBegin].timestamp_value(),
                         row[kMgEnd].timestamp_value(), /*interval=*/0,
                         row[kMgCount].int64_value(),
                         Slice(row[kMgBlob].string_value()),
                         Slice(row[kMgZone].string_value()), &payload);
        snap.records.push_back(std::move(payload));
        ODH_RETURN_IF_ERROR(rows.Next());
      }
    }
  }
  return snap;
}

uint64_t OdhStore::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ == nullptr ? 0 : wal_->synced_bytes();
}

Result<Wal::TailChunk> OdhStore::ReadWal(uint64_t from_lsn,
                                         size_t max_bytes) const {
  const Wal* log;
  {
    std::lock_guard<std::mutex> lock(mu_);
    log = wal_.get();
  }
  if (log == nullptr) {
    Wal::TailChunk empty;
    empty.next_lsn = from_lsn;
    return empty;
  }
  // The Wal lives as long as the store once created; ReadDurable is
  // thread-safe, so the cursor read runs outside mu_ and never blocks
  // ingestion.
  return log->ReadDurable(from_lsn, max_bytes);
}

Timestamp OdhStore::MaxIngestedTimestamp() const {
  std::lock_guard<std::mutex> lock(mu_);
  Timestamp watermark = kMinTimestamp;
  for (const auto& [schema_type, container] : containers_) {
    (void)schema_type;
    for (const auto& [key, seg] : container.segments) {
      (void)key;
      for (const ContainerStats* s :
           {&seg.rts_stats, &seg.irts_stats, &seg.mg_stats}) {
        if (s->max_ts > watermark) watermark = s->max_ts;
      }
    }
  }
  return watermark;
}

Status OdhStore::DeleteMgByContent(int schema_type, int64_t group,
                                   Timestamp begin, Timestamp end,
                                   int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  const std::string key = EncodeKey({Datum::Time(begin), Datum::Int64(group)});
  for (auto& [seg_key, seg] : container->segments) {
    (void)seg_key;
    if (SegmentDisjoint(seg.mg_stats, begin, begin)) continue;
    ODH_ASSIGN_OR_RETURN(relational::Table::IndexIterator it,
                         seg.mg->IndexScan(0, key, key));
    while (it.Valid()) {
      ODH_ASSIGN_OR_RETURN(Row row, seg.mg->Get(it.rid()));
      if (row[kMgEnd].timestamp_value() == end &&
          row[kMgCount].int64_value() == n) {
        ContainerStats& stats = seg.mg_stats;
        --stats.blob_count;
        stats.point_count -= n;
        stats.blob_bytes -=
            static_cast<int64_t>(row[kMgBlob].string_value().size());
        ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kMgDelete, schema_type,
                                   group, begin, end, /*interval=*/0, n,
                                   Slice(), Slice()));
        ++seg.manifest.version;
        return seg.mg->Delete(it.rid());
      }
      ODH_RETURN_IF_ERROR(it.Next());
    }
  }
  // Already absent: the bootstrap snapshot can precede the delete record
  // it replicates, so this is convergence, not loss.
  return Status::OK();
}

Status OdhStore::ApplyReplicatedDrop(int schema_type, int64_t key,
                                     Timestamp lo, Timestamp hi) {
  std::lock_guard<std::mutex> lock(mu_);
  ODH_ASSIGN_OR_RETURN(Container * container, GetContainer(schema_type));
  auto it = container->segments.find(key);
  if (it == container->segments.end()) return Status::OK();  // Idempotent.
  Segment& seg = it->second;
  // Log the LOCAL manifest bounds, not the primary's: this record drives
  // the replica's own recovery, which suppresses data records inside the
  // logged window. Same OdhOptions make the two identical anyway.
  (void)lo;
  (void)hi;
  ODH_RETURN_IF_ERROR(LogPut(WalRecord::Kind::kSegmentDrop, schema_type, key,
                             seg.manifest.lo, seg.manifest.hi,
                             /*interval=*/0, /*n=*/0, Slice(), Slice()));
  ODH_RETURN_IF_ERROR(wal_->Sync());
  ODH_RETURN_IF_ERROR(db_->DropTable(seg.rts->name()));
  ODH_RETURN_IF_ERROR(db_->DropTable(seg.irts->name()));
  ODH_RETURN_IF_ERROR(db_->DropTable(seg.mg->name()));
  container->next_generation[key] =
      std::max(seg.manifest.generation, seg.mg_epoch) + 1;
  container->segments.erase(key);
  segments_dropped_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<RecoveryReport> OdhStore::Recover(storage::SimDisk* crashed_disk) {
  ODH_ASSIGN_OR_RETURN(Wal::ReadResult log,
                       Wal::ReadLog(crashed_disk, kWalFileName));
  RecoveryReport report;
  report.wal_valid_bytes = log.valid_bytes;
  report.torn_bytes_dropped = log.torn_bytes_dropped;

  // Queries in flight at the crash may have left spill runs behind; they
  // are pure temp state (the WAL never references them), so recovery
  // sweeps them before replay.
  for (const std::string& name : crashed_disk->ListFiles()) {
    if (storage::IsSpillFileName(name)) {
      ODH_RETURN_IF_ERROR(crashed_disk->DeleteFile(name));
      ++report.spill_files_swept;
    }
  }

  std::vector<WalRecord> records;
  records.reserve(log.records.size());
  for (const std::string& payload : log.records) {
    WalRecord rec;
    if (!WalRecord::Decode(payload, &rec)) {
      ++report.undecodable_records;
      continue;
    }
    records.push_back(std::move(rec));
  }

  // Pass 1: classify segment ops. A committed compaction episode
  // (Begin..Commit, appended contiguously under the store mutex) or a
  // retention drop supersedes every EARLIER data record of its schema type
  // whose begin lies inside the logged segment bounds; an episode whose
  // Commit never made it to the log is discarded wholesale.
  struct Supersede {
    int schema_type;
    Timestamp lo, hi;  // hi exclusive.
    size_t cutoff;     // Records before this index are superseded.
  };
  std::vector<Supersede> supersedes;
  std::vector<bool> skip(records.size(), false);
  size_t open_begin = records.size();  // == size: no open episode.
  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& rec = records[i];
    if (rec.kind == WalRecord::Kind::kSegmentCompactBegin) {
      skip[i] = true;
      open_begin = i;
    } else if (rec.kind == WalRecord::Kind::kSegmentCompactCommit) {
      skip[i] = true;
      if (open_begin < i) {
        supersedes.push_back(
            {rec.schema_type, rec.begin, rec.end, open_begin});
      }
      open_begin = records.size();
    } else if (rec.kind == WalRecord::Kind::kSegmentDrop) {
      skip[i] = true;
      supersedes.push_back({rec.schema_type, rec.begin, rec.end, i});
    }
  }
  if (open_begin < records.size()) {
    // Crash mid-episode: the suffix from Begin on is the half-written
    // rewrite. Drop it; the superseded originals replay normally.
    for (size_t i = open_begin; i < records.size(); ++i) {
      if (!skip[i]) {
        skip[i] = true;
        ++report.uncommitted_episode_records;
      }
    }
  }
  for (const Supersede& s : supersedes) {
    for (size_t i = 0; i < s.cutoff; ++i) {
      if (skip[i]) continue;
      const WalRecord& rec = records[i];
      if (rec.schema_type != s.schema_type || !IsDataRecord(rec.kind)) {
        continue;
      }
      if (rec.begin >= s.lo && rec.begin < s.hi) {
        skip[i] = true;
        ++report.records_superseded;
      }
    }
  }

  // MG deletions cancel one matching earlier Put each; collect the
  // surviving ones (rids are not stable across recovery, so matching is
  // by content key).
  using MgKey = std::tuple<int, int64_t, Timestamp, Timestamp, int64_t>;
  std::multiset<MgKey> mg_deletes;
  for (size_t i = 0; i < records.size(); ++i) {
    if (skip[i]) continue;
    const WalRecord& rec = records[i];
    if (rec.kind == WalRecord::Kind::kMgDelete) {
      mg_deletes.insert(
          {rec.schema_type, rec.id_or_group, rec.begin, rec.end, rec.n});
    }
  }

  // Pass 2: replay the survivors in log order through the normal Puts.
  for (size_t i = 0; i < records.size(); ++i) {
    if (skip[i]) continue;
    const WalRecord& rec = records[i];
    switch (rec.kind) {
      case WalRecord::Kind::kRts:
        ODH_RETURN_IF_ERROR(PutRts(rec.schema_type, rec.id_or_group,
                                   rec.begin, rec.end, rec.interval, rec.n,
                                   rec.blob, rec.zone_map));
        ++report.rts_blobs;
        break;
      case WalRecord::Kind::kIrts:
        ODH_RETURN_IF_ERROR(PutIrts(rec.schema_type, rec.id_or_group,
                                    rec.begin, rec.end, rec.n, rec.blob,
                                    rec.zone_map));
        ++report.irts_blobs;
        break;
      case WalRecord::Kind::kMg: {
        auto it = mg_deletes.find(
            {rec.schema_type, rec.id_or_group, rec.begin, rec.end, rec.n});
        if (it != mg_deletes.end()) {
          mg_deletes.erase(it);  // Converted by the reorganizer: skip.
          break;
        }
        ODH_RETURN_IF_ERROR(PutMg(rec.schema_type, rec.id_or_group,
                                  rec.begin, rec.end, rec.n, rec.blob,
                                  rec.zone_map));
        ++report.mg_blobs;
        break;
      }
      case WalRecord::Kind::kMgDelete:
        break;  // Applied via the skip above.
      case WalRecord::Kind::kSegmentCompactBegin:
      case WalRecord::Kind::kSegmentCompactCommit:
      case WalRecord::Kind::kSegmentDrop:
        break;  // Control records, consumed in pass 1.
    }
  }
  report.records_replayed =
      report.rts_blobs + report.irts_blobs + report.mg_blobs;

  // Make the recovered state durable in its own right (replay went through
  // the normal Put path, so this store's WAL has all surviving records).
  for (auto& [schema_type, container] : containers_) {
    (void)container;
    ODH_RETURN_IF_ERROR(Sync(schema_type));
  }
  return report;
}

}  // namespace odh::core
