#ifndef ODH_CORE_STORE_H_
#define ODH_CORE_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/config.h"
#include "core/wal.h"
#include "relational/database.h"
#include "storage/segment.h"

namespace odh::core {

/// What OdhStore::Recover() did. Only blobs that reached the WAL via a
/// successful Sync come back; dirty writer buffers and un-synced Puts are
/// legitimately lost (the paper's transaction-free ingestion contract).
struct RecoveryReport {
  uint64_t records_replayed = 0;
  uint64_t rts_blobs = 0;
  uint64_t irts_blobs = 0;
  uint64_t mg_blobs = 0;
  uint64_t wal_valid_bytes = 0;
  uint64_t torn_bytes_dropped = 0;  // Bytes after the first torn frame.
  uint64_t undecodable_records = 0;  // CRC-valid but unparseable (never
                                     // expected; counted, not fatal).
  /// Data records suppressed because a later committed compaction episode
  /// or retention drop superseded them.
  uint64_t records_superseded = 0;
  /// Records of a compaction episode whose Commit never reached the log:
  /// discarded wholesale, the pre-compaction segment survives.
  uint64_t uncommitted_episode_records = 0;
  /// Orphaned query-spill files (odh$spill$*) deleted from the crashed
  /// disk — temp state of in-flight ORDER BY sorts, never replayed.
  uint64_t spill_files_swept = 0;
};

/// Aggregate statistics per container, maintained on every Put. The cost
/// model (paper §3: "we approximate the cost ... as the expected size, in
/// bytes, of the ValueBlobs that need to be accessed") reads these.
struct ContainerStats {
  int64_t blob_count = 0;
  int64_t point_count = 0;
  int64_t blob_bytes = 0;
  Timestamp min_ts = kMaxTimestamp;
  Timestamp max_ts = kMinTimestamp;
  /// Largest (end_ts - begin_ts) of any blob: the partition-elimination
  /// window widening needed on the lower bound.
  Timestamp max_span = 0;

  double AvgBlobBytes() const {
    return blob_count > 0 ? static_cast<double>(blob_bytes) / blob_count : 0;
  }
  double AvgPointsPerBlob() const {
    return blob_count > 0 ? static_cast<double>(point_count) / blob_count : 0;
  }

  /// Folds `other` in (segment stats -> schema-type aggregate).
  void Merge(const ContainerStats& other) {
    blob_count += other.blob_count;
    point_count += other.point_count;
    blob_bytes += other.blob_bytes;
    if (other.min_ts < min_ts) min_ts = other.min_ts;
    if (other.max_ts > max_ts) max_ts = other.max_ts;
    if (other.max_span > max_span) max_span = other.max_span;
  }
};

/// A fetched batch record.
struct BlobRecord {
  SourceId id = 0;        // RTS/IRTS only.
  int64_t group = 0;      // MG only.
  Timestamp begin = 0;
  Timestamp end = 0;
  Timestamp interval = 0;  // RTS only.
  int64_t n = 0;
  std::string blob;
  std::string zone_map;   // Encoded ZoneMap (may be empty on old rows).
  relational::Rid rid;
  /// Key of the segment the record came from (0 in the unsegmented
  /// layout). A rid is only meaningful together with its segment.
  int64_t seg = 0;
  /// Generation the rid was read under: the segment manifest generation
  /// for series records, the MG table epoch for MG records (MG rebuilds
  /// reshuffle rids without a manifest-generation bump). {seg, generation,
  /// rid} is a stable identity for the blob cache.
  int64_t generation = 0;
};

/// Per-scan segment-elimination counters, filled by the Get*/slice entry
/// points when the caller passes one (the reader threads them into the
/// per-query ScanCounters so EXPLAIN PROFILE can report segment pruning
/// next to blob pruning without double counting: blobs inside a pruned
/// segment are never examined, so they appear in neither blob counter).
struct SegmentScanStats {
  int64_t segments_pruned = 0;
};

/// One row of the odh_storage per-segment listing.
struct SegmentInfo {
  int64_t key = 0;
  Timestamp lo = 0;
  Timestamp hi = 0;
  int generation = 0;
  storage::SegmentTier tier = storage::SegmentTier::kHot;
  int64_t blob_count = 0;
  int64_t point_count = 0;
  int64_t blob_bytes = 0;
  Timestamp min_ts = kMaxTimestamp;  // Data bounds (kMax/kMin when empty).
  Timestamp max_ts = kMinTimestamp;
};

/// Snapshot of one segment's series blobs, taken under the store mutex for
/// the compactor to rewrite outside it. `version` is the manifest version
/// at snapshot time; SwapCompactedSegment refuses the swap when the
/// segment changed since (a racing Put or drop).
struct SegmentSnapshot {
  storage::SegmentManifest manifest;
  std::vector<BlobRecord> rts;
  std::vector<BlobRecord> irts;
};

/// The ODH storage component: containers per schema type, each split into
/// time-partitioned segments. A segment owns a contiguous nominal time
/// range [lo, hi) of blobs — routed by floor(begin_ts / segment_span) — as
/// its own RTS / IRTS / MG table triple in the embedded relational engine,
/// with B-tree indexes on the first two fields of each structure (the
/// paper's Figure 1 layout, now per segment). A per-segment manifest keeps
/// the time bounds, tier, generation and per-structure stats; every scan
/// consults the manifests first, so a recent-window query skips cold
/// history with O(segments) metadata checks and zero page reads
/// (segments_pruned counts those skips). With segment_span == 0 (the
/// default) there is exactly one unbounded segment per schema type and
/// behavior is identical to the pre-segment store.
///
/// Segments are the unit of compaction (SnapshotSegment /
/// SwapCompactedSegment, driven by core::SegmentCompactor) and of
/// retention (SetRetention / ApplyRetention): an expired segment is
/// dropped as an O(1) metadata operation — one WAL record, table drops,
/// map erase — never a scan-and-delete. Both are WAL-logged so Recover()
/// replays a committed rewrite/drop and rolls back an uncommitted one.
///
/// Thread-safe: one store mutex serializes table mutations, index scans,
/// stats updates and WAL appends (the relational tables underneath are not
/// concurrent). Writer shards do their buffering and blob encoding outside
/// this lock, so the store is the serialization point, not the whole write
/// path. Lock order: writer shard -> store -> WAL -> disk; the store never
/// calls back into the writer. Exception: Recover() takes no lock itself
/// (it replays through the locked Put/Sync entry points and runs on a
/// quiescent store). Slice scans materialize one bounded chunk of rows per
/// call under the mutex (NextSliceChunk), so no table pointer or iterator
/// ever leaves the lock — a concurrent retention drop can never invalidate
/// a cursor mid-scan.
class OdhStore {
 public:
  /// Name of the store's write-ahead log file on the database disk. (The
  /// relational tables keep their own modeled "<table>.wal" files; this one
  /// is the store-level redo log that Recover() replays.)
  static constexpr char kWalFileName[] = "odh$store.wal";

  OdhStore(relational::Database* db, ConfigComponent* config)
      : db_(db), config_(config) {}

  OdhStore(const OdhStore&) = delete;
  OdhStore& operator=(const OdhStore&) = delete;

  /// Creates the container for a schema type. With segment_span == 0 this
  /// creates the single unbounded segment's tables immediately; otherwise
  /// segments materialize lazily at the first Put that routes to them.
  Status CreateContainers(int schema_type);

  Status PutRts(int schema_type, SourceId id, Timestamp begin, Timestamp end,
                Timestamp interval, int64_t n, const std::string& blob,
                const std::string& zone_map = {});
  Status PutIrts(int schema_type, SourceId id, Timestamp begin,
                 Timestamp end, int64_t n, const std::string& blob,
                 const std::string& zone_map = {});
  Status PutMg(int schema_type, int64_t group, Timestamp begin,
               Timestamp end, int64_t n, const std::string& blob,
               const std::string& zone_map = {});

  /// Blobs of `id` overlapping [lo, hi], in begin_ts order. Segments whose
  /// data bounds are disjoint from [lo, hi] are skipped without touching
  /// their tables (`stats->segments_pruned` counts the skips).
  Result<std::vector<BlobRecord>> GetRts(int schema_type, SourceId id,
                                         Timestamp lo, Timestamp hi,
                                         SegmentScanStats* stats = nullptr);
  Result<std::vector<BlobRecord>> GetIrts(int schema_type, SourceId id,
                                          Timestamp lo, Timestamp hi,
                                          SegmentScanStats* stats = nullptr);

  /// MG blobs overlapping [lo, hi]; `group` < 0 means all groups.
  Result<std::vector<BlobRecord>> GetMg(int schema_type, int64_t group,
                                        Timestamp lo, Timestamp hi,
                                        SegmentScanStats* stats = nullptr);

  /// Removes an MG blob (used by the reorganizer after conversion). `seg`
  /// is the BlobRecord::seg the blob was fetched with — rids are only
  /// unique within one segment's table.
  Status DeleteMg(int schema_type, int64_t seg, const relational::Rid& rid);

  /// Rebuilds every segment's MG table, reclaiming the space of deleted
  /// blobs (run after reorganization; heap pages are never compacted in
  /// place).
  Status CompactMg(int schema_type);

  /// Resume point of a chunked slice scan. Value-type state only: no
  /// table pointer or iterator survives between calls, so a concurrent
  /// segment drop or compaction can never invalidate a cursor — the next
  /// chunk just skips the vanished rows.
  struct SliceCursor {
    int64_t seg = INT64_MIN;  // Next segment key to visit (or current).
    bool in_segment = false;  // `seg` is listed; resuming at rids[next].
    int generation = 0;       // Generation `rids` were listed from.
    /// `seg`'s candidate rows (begin_ts within the window widened by the
    /// segment's max_span), in physical (page, slot) order.
    std::vector<relational::Rid> rids;
    size_t next = 0;
    /// Pinned to `seg` only: the cursor finishes (or skips, on a
    /// generation mismatch or drop) that one segment and reports done
    /// instead of advancing. Segment-parallel scans use one pinned cursor
    /// per worker; pinned cursors never count segment pruning (the
    /// SliceSegments listing already did).
    bool pin = false;
  };

  /// Chunked slice scan over one segment's RTS or IRTS table at a time,
  /// under the store mutex. Entering a segment lists its candidate rids
  /// with one pass over the (id, begin_ts) index leaves — only blobs whose
  /// begin_ts lies in [lo - max_span, hi] can overlap [lo, hi] — so blobs
  /// outside the window are never fetched. Each call then fetches up to
  /// kSliceChunkRows candidates in physical order and returns those that
  /// overlap [lo, hi]: a scan over years of history never holds more than
  /// one chunk of blob rows. Start with a default SliceCursor; the call
  /// advances it. `*done` turns true when no rows remain (out may be
  /// empty on any call — keep calling until done). Chunks arrive in
  /// segment-key then physical order (the order of a heap walk), so
  /// concatenated results are begin_ts-ordered per source. A blob
  /// appended to a segment after its listing is not emitted. If the
  /// current segment is compacted or dropped between chunks (generation
  /// mismatch), its remaining rows are skipped rather than re-read from a
  /// different layout.
  static constexpr int kSliceChunkRows = 8;
  Status NextSliceChunk(int schema_type, bool irts, Timestamp lo,
                        Timestamp hi, SliceCursor* cursor,
                        std::vector<BlobRecord>* out, bool* done,
                        SegmentScanStats* stats = nullptr);

  /// Keys of segments whose RTS (irts == false) or IRTS data bounds
  /// overlap [lo, hi], in key order — the fan-out list for a
  /// segment-parallel slice scan (one pinned SliceCursor per key).
  /// Disjoint non-empty segments are counted into `stats` exactly like
  /// the streaming scan, so a scan that lists segments here and then
  /// visits each with a pinned cursor reports identical pruning totals.
  Result<std::vector<int64_t>> SliceSegments(int schema_type, bool irts,
                                             Timestamp lo, Timestamp hi,
                                             SegmentScanStats* stats = nullptr);

  /// Stats snapshots, aggregated across segments (copied under the store
  /// mutex; safe during ingest).
  ContainerStats rts_stats(int schema_type) const;
  ContainerStats irts_stats(int schema_type) const;
  ContainerStats mg_stats(int schema_type) const;

  /// Per-segment manifest + stats listing, key order (odh_storage rows).
  std::vector<SegmentInfo> SegmentInfos(int schema_type) const;

  // --- Retention -------------------------------------------------------

  /// Sets (or with 0 clears) the retention interval for a schema type.
  /// Takes effect at the next ApplyRetention call. Fails on a negative
  /// interval or an unknown schema type.
  Status SetRetention(int schema_type, Timestamp retention_micros);
  Timestamp retention(int schema_type) const;

  /// Drops every expired segment of `schema_type`: nominal bounds AND data
  /// bounds entirely before (max ingested ts - retention). The newest
  /// segment never drops, segment_span == 0 never drops, no retention set
  /// never drops. Each drop is one WAL record (synced before the tables
  /// go away) plus table drops and a map erase — O(1) in the number of
  /// dropped points, no page reads of dropped data. Returns the number of
  /// segments dropped.
  Result<int64_t> ApplyRetention(int schema_type);

  // --- Compaction (driven by core::SegmentCompactor) -------------------

  /// Keys of sealed hot segments: every hot segment except the
  /// highest-keyed one (still ingesting). Empty when segment_span == 0.
  std::vector<int64_t> SealedHotSegments(int schema_type) const;

  /// Copies one segment's manifest and series blobs out under the mutex.
  Result<SegmentSnapshot> SnapshotSegment(int schema_type, int64_t key) const;

  /// Atomically replaces a segment's RTS/IRTS tables with the compacted
  /// blobs. Aborted when the segment's version moved past
  /// `expected_version` (a Put or drop raced the rewrite — retry later).
  /// The swap WAL-logs one kSegmentCompactBegin, the replacement blob
  /// records, and one kSegmentCompactCommit contiguously, then syncs the
  /// log before the in-memory swap: recovery replays the episode if the
  /// Commit made it to disk and discards it (keeping the old segment)
  /// otherwise. The MG table is never rewritten — merging MG blobs would
  /// break the WAL's content-keyed kMgDelete cancellation.
  Status SwapCompactedSegment(int schema_type, int64_t key,
                              uint64_t expected_version,
                              const std::vector<BlobRecord>& rts,
                              const std::vector<BlobRecord>& irts);

  /// Flushes buffered table writes (ODH ingestion has no transactions; this
  /// is a page flush, not a commit). The store WAL is synced first, so every
  /// blob visible in the flushed tables is also replayable from the log.
  Status Sync(int schema_type);

  /// Replays the store WAL found on `crashed_disk` (a post-crash
  /// SimDisk::CloneDurable()) into this store. Containers for every schema
  /// type appearing in the log must already exist — the caller re-creates
  /// its schema types, then recovers. Replayed blobs go through the normal
  /// Put path, so heap rows, B-tree entries, container stats and this
  /// store's own WAL are all rebuilt. The torn tail (an interrupted Sync)
  /// is detected via per-record CRC32C and dropped.
  ///
  /// Segment ops replay in two passes: pass one classifies compaction
  /// episodes (Begin..Commit) and retention drops, pass two replays every
  /// surviving data record in log order. A committed episode or a drop
  /// suppresses all earlier data records of its schema type whose begin
  /// falls inside the logged segment bounds; an episode without a Commit
  /// is discarded wholesale, so exactly one of {old segment, compacted
  /// segment} survives any crash point.
  Result<RecoveryReport> Recover(storage::SimDisk* crashed_disk);

  /// The store's write-ahead log, nullptr until the first Put. Exposed for
  /// stats (retry counters) and tests. The Wal itself is thread-safe.
  const Wal* wal() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wal_.get();
  }

  // --- Replication (primary side) --------------------------------------

  /// A consistent bootstrap image for a fresh replica: every stored blob,
  /// re-encoded as WAL record payloads, plus the durable LSN the image is
  /// exactly as of. Streaming `records` and then tailing the WAL from
  /// `base_lsn` reproduces this store with no gap and no overlap.
  struct ReplicationSnapshot {
    uint64_t base_lsn = 0;
    std::vector<std::string> records;  // Encoded WalRecord payloads.
  };

  /// Takes the bootstrap snapshot under the store mutex: the WAL is synced
  /// first (appends are blocked, so durable == appended), then every
  /// segment's RTS/IRTS/MG rows are encoded. An empty store (no WAL yet)
  /// yields base_lsn 0 and no records.
  Result<ReplicationSnapshot> SnapshotForReplication();

  /// Durable WAL length — the replication LSN watermark. 0 before the
  /// first Put creates the log.
  uint64_t durable_lsn() const;

  /// Cursor read over the durable WAL (see Wal::ReadDurable). An empty
  /// chunk with next_lsn == from_lsn when the log does not exist yet.
  Result<Wal::TailChunk> ReadWal(uint64_t from_lsn, size_t max_bytes) const;

  /// Newest ingested timestamp across every container (kMinTimestamp when
  /// empty) — the primary's data watermark carried in replication
  /// heartbeats, against which replicas compute staleness.
  Timestamp MaxIngestedTimestamp() const;

  // --- Replication (replica side, driven by core::ReplicaApplier) ------

  /// Applies a replicated kMgDelete: finds the MG blob with this exact
  /// content key (group, begin, end, n), deletes it and re-logs the
  /// deletion into this store's own WAL. Rids are not stable across the
  /// wire, so the match is by content — the same rule Recover() uses. A
  /// missing blob is OK (the snapshot bootstrap may already reflect the
  /// deletion).
  Status DeleteMgByContent(int schema_type, int64_t group, Timestamp begin,
                           Timestamp end, int64_t n);

  /// Applies a replicated kSegmentDrop: drops segment `key` (nominal
  /// bounds [lo, hi)) with the same WAL-first discipline ApplyRetention
  /// uses. Idempotent — a segment this replica never materialized is OK.
  Status ApplyReplicatedDrop(int schema_type, int64_t key, Timestamp lo,
                             Timestamp hi);

  /// Wires WAL group-commit instruments into `metrics` — immediately when
  /// the WAL already exists, otherwise at its lazy creation. Instruments
  /// are resolved from the registry BEFORE taking mu_: registry gauges
  /// sample this store (registry lock -> store lock), so the store must
  /// never acquire the registry lock while holding mu_.
  void SetMetrics(common::MetricsRegistry* metrics) {
    common::Histogram* sync_hist = nullptr;
    common::Counter* group_commits = nullptr;
    common::Counter* piggybacked = nullptr;
    if (metrics != nullptr) {
      sync_hist = metrics->GetHistogram("odh.wal.sync_micros");
      group_commits = metrics->GetCounter("odh.wal.group_commits");
      piggybacked = metrics->GetCounter("odh.wal.piggybacked");
    }
    std::lock_guard<std::mutex> lock(mu_);
    wal_sync_hist_ = sync_hist;
    wal_group_commits_ = group_commits;
    wal_piggybacked_ = piggybacked;
    if (wal_ != nullptr) {
      wal_->SetInstruments(sync_hist, group_commits, piggybacked);
    }
  }

  /// Partition-elimination effectiveness across all Get* scans: candidate
  /// blobs the widened index range produced, and how many of those the
  /// exact overlap re-check (end >= lo, MG group match) then discarded.
  /// Blobs outside the index range are never touched at all — that saving
  /// is the difference against the container's blob_count.
  int64_t blobs_examined() const {
    return blobs_examined_.load(std::memory_order_relaxed);
  }
  int64_t blobs_discarded() const {
    return blobs_discarded_.load(std::memory_order_relaxed);
  }
  /// Segment-level elimination and lifecycle counters (store-global; the
  /// per-query twin lives in common::ScanCounters).
  int64_t segments_pruned() const {
    return segments_pruned_.load(std::memory_order_relaxed);
  }
  int64_t segments_compacted() const {
    return segments_compacted_.load(std::memory_order_relaxed);
  }
  int64_t segments_dropped() const {
    return segments_dropped_.load(std::memory_order_relaxed);
  }

  /// Decodes a series-container row fetched by a streaming scan.
  static Status RowToBlobRecord(const Row& row, const relational::Rid& rid,
                                bool is_mg, BlobRecord* rec);

 private:
  struct Segment {
    storage::SegmentManifest manifest;
    relational::Table* rts = nullptr;
    relational::Table* irts = nullptr;
    relational::Table* mg = nullptr;
    ContainerStats rts_stats;
    ContainerStats irts_stats;
    ContainerStats mg_stats;
    /// Generation of the MG table's rids, bumped by CompactMg (which
    /// rebuilds the table, reshuffling rids, without touching the
    /// manifest generation). Starts at the manifest generation so a
    /// re-created segment's epochs are fresh too.
    int mg_epoch = 0;
  };

  struct Container {
    std::map<int64_t, Segment> segments;  // Key order == time order.
    /// Floor for the generation of a re-created segment: a retention
    /// drop records max(manifest generation, mg_epoch) + 1 here so a
    /// late write re-creating the key can never reuse a generation the
    /// dropped segment's cached blobs were decoded under.
    std::map<int64_t, int> next_generation;
  };

  Result<Container*> GetContainer(int schema_type);
  Result<const Container*> GetContainer(int schema_type) const;

  /// Finds or lazily creates the segment covering `begin`.
  Result<Segment*> GetSegmentForWrite(int schema_type, Container* container,
                                      Timestamp begin);

  /// Creates a segment's three tables (+ pk indexes) and manifest.
  Result<Segment> CreateSegment(int schema_type, int64_t key,
                                int generation);

  /// Table-name prefix for one segment generation. The unsegmented layout
  /// keeps the historical flat names ("odh$<type>$rts").
  std::string SegmentPrefix(const std::string& type_name, int64_t key,
                            int generation) const;

  /// True when the segment cannot contain any blob overlapping [lo, hi]
  /// for the structure described by `stats` (data bounds, not nominal).
  static bool SegmentDisjoint(const ContainerStats& stats, Timestamp lo,
                              Timestamp hi) {
    return stats.blob_count == 0 || stats.max_ts < lo || stats.min_ts > hi;
  }

  void CountSegmentPruned(SegmentScanStats* stats) {
    segments_pruned_.fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr) ++stats->segments_pruned;
  }

  /// Lazily creates the WAL file and appends one record to it. Called
  /// before the corresponding heap/index write.
  Status LogPut(WalRecord::Kind kind, int schema_type, int64_t id_or_group,
                Timestamp begin, Timestamp end, Timestamp interval,
                int64_t n, const Slice& blob, const Slice& zone_map);

  int mg_version_ = 0;  // Suffix for rebuilt MG container tables.

  static void UpdateStats(ContainerStats* stats, Timestamp begin,
                          Timestamp end, int64_t n, size_t blob_bytes);

  relational::Database* db_;
  ConfigComponent* config_;
  /// Guards containers_, their segments and stats, retention_, wal_
  /// creation and mg_version_.
  mutable std::mutex mu_;
  std::map<int, Container> containers_;
  std::map<int, Timestamp> retention_;
  std::unique_ptr<Wal> wal_;
  /// Pre-resolved WAL instruments (guarded by mu_), handed to the Wal at
  /// its lazy creation without touching the registry.
  common::Histogram* wal_sync_hist_ = nullptr;
  common::Counter* wal_group_commits_ = nullptr;
  common::Counter* wal_piggybacked_ = nullptr;
  mutable std::atomic<int64_t> blobs_examined_{0};
  mutable std::atomic<int64_t> blobs_discarded_{0};
  mutable std::atomic<int64_t> segments_pruned_{0};
  std::atomic<int64_t> segments_compacted_{0};
  std::atomic<int64_t> segments_dropped_{0};
};

}  // namespace odh::core

#endif  // ODH_CORE_STORE_H_
