// Index-listed slice scans: OdhStore::NextSliceChunk lists each segment's
// candidate blobs from the (id, begin_ts) index and fetches only those, in
// physical order. Its emission must equal, blob for blob and in order, a
// reference that walks the whole heap and keeps the blobs overlapping the
// window — on flat and segmented stores, RTS and IRTS (including long
// IRTS blobs that reach into a window from far before it), at blob
// boundaries, and after compaction, retention drops, re-ingest and
// recovery. It must also read a small fraction of the heap's pages, and
// stay correct under segment-parallel execution and concurrent ingest.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/odh.h"

namespace odh::core {
namespace {

constexpr int kSeconds = 600;
constexpr Timestamp kSpan = 100 * kMicrosPerSecond;
constexpr SourceId kSparse = 6;  // IRTS, one point every ~23 s.

Timestamp Sec(double s) { return static_cast<Timestamp>(s * 1e6); }

OdhOptions Opts(Timestamp span, int query_parallelism = 0) {
  OdhOptions options;
  options.batch_size = 25;
  options.segment_span = span;
  options.query_parallelism = query_parallelism;
  options.sql_metadata_router = false;
  return options;
}

/// Sources 1-3 are regular (RTS), 4-5 jittery (IRTS, ~25 s blobs) and
/// kSparse is IRTS with a point every ~23 s, so each of its blobs spans
/// ~9 minutes and overlaps many short blobs: a window deep inside one
/// is only reached through the max_span widening of the listing.
int Define(OdhSystem* sys) {
  int type = sys->DefineSchemaType("env", {"temperature", "wind"}).value();
  for (SourceId id = 1; id <= 3; ++id) {
    ODH_CHECK_OK(sys->RegisterSource(id, type, kMicrosPerSecond, true));
  }
  for (SourceId id = 4; id <= 5; ++id) {
    ODH_CHECK_OK(sys->RegisterSource(id, type, kMicrosPerSecond, false));
  }
  // Declared at 1 Hz (high frequency, so IRTS rather than MG) but
  // reporting only every ~23 s.
  ODH_CHECK_OK(sys->RegisterSource(kSparse, type, kMicrosPerSecond, false));
  return type;
}

Status Ingest(OdhSystem* sys, int from_second, int to_second) {
  for (int i = from_second; i < to_second; ++i) {
    const Timestamp t = Sec(i);
    for (SourceId id = 1; id <= 5; ++id) {
      const Timestamp ts = id >= 4 ? t + (i % 7) * 1000 : t;
      ODH_RETURN_IF_ERROR(
          sys->Ingest({id, ts, {20.0 + id + 0.01 * i, 1.0 * id}}));
    }
    if (i % 23 == 0) {
      ODH_RETURN_IF_ERROR(
          sys->Ingest({kSparse, t + (i % 5) * 3000, {-1.0 * i, 0.5}}));
    }
  }
  return sys->FlushAll();
}

std::vector<BlobRecord> StreamSlice(OdhStore* store, int type, bool irts,
                                    Timestamp lo, Timestamp hi,
                                    int64_t* pruned = nullptr) {
  std::vector<BlobRecord> out;
  OdhStore::SliceCursor cursor;
  SegmentScanStats stats;
  bool done = false;
  while (!done) {
    std::vector<BlobRecord> chunk;
    ODH_CHECK_OK(store->NextSliceChunk(type, irts, lo, hi, &cursor, &chunk,
                                       &done, &stats));
    EXPECT_LE(chunk.size(), size_t{OdhStore::kSliceChunkRows});
    for (auto& rec : chunk) out.push_back(std::move(rec));
  }
  if (pruned != nullptr) *pruned = stats.segments_pruned;
  return out;
}

/// The segment-parallel shape: SliceSegments, then one pinned cursor per
/// listed segment, concatenated in key order.
std::vector<BlobRecord> PinnedSlice(OdhStore* store, int type, bool irts,
                                    Timestamp lo, Timestamp hi,
                                    int64_t* pruned) {
  SegmentScanStats stats;
  auto keys = store->SliceSegments(type, irts, lo, hi, &stats);
  ODH_CHECK_OK(keys.status());
  std::vector<BlobRecord> out;
  for (int64_t key : *keys) {
    OdhStore::SliceCursor cursor;
    cursor.seg = key;
    cursor.pin = true;
    bool done = false;
    while (!done) {
      std::vector<BlobRecord> chunk;
      ODH_CHECK_OK(store->NextSliceChunk(type, irts, lo, hi, &cursor,
                                         &chunk, &done, nullptr));
      for (auto& rec : chunk) out.push_back(std::move(rec));
    }
  }
  *pruned = stats.segments_pruned;
  return out;
}

/// Reference: walk every segment's whole heap (SnapshotSegment) in key
/// order and keep the blobs overlapping [lo, hi].
std::vector<BlobRecord> ReferenceSlice(OdhStore* store, int type, bool irts,
                                       Timestamp lo, Timestamp hi) {
  std::vector<BlobRecord> out;
  for (const SegmentInfo& info : store->SegmentInfos(type)) {
    auto snap = store->SnapshotSegment(type, info.key);
    ODH_CHECK_OK(snap.status());
    for (BlobRecord& rec : irts ? snap->irts : snap->rts) {
      if (rec.end >= lo && rec.begin <= hi) out.push_back(std::move(rec));
    }
  }
  return out;
}

auto Identity(const BlobRecord& r) {
  return std::make_tuple(r.seg, r.generation, r.rid.page, r.rid.slot, r.id,
                         r.begin, r.end, r.interval, r.n, r.blob,
                         r.zone_map);
}

void ExpectSameBlobs(const std::vector<BlobRecord>& got,
                     const std::vector<BlobRecord>& want,
                     const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(Identity(got[i]) == Identity(want[i]))
        << context << ": blob " << i << " is id " << got[i].id << " ["
        << got[i].begin << ", " << got[i].end << "] seg " << got[i].seg
        << ", want id " << want[i].id << " [" << want[i].begin << ", "
        << want[i].end << "] seg " << want[i].seg;
  }
}

/// Windows that stress the listing's edges, derived from the stored
/// blobs: a window whose lo is a blob's end or whose hi is a blob's begin
/// (inclusive on both sides), degenerate and empty windows, the whole
/// time line, and 1 s slices, including some deep inside a long blob.
std::vector<std::pair<Timestamp, Timestamp>> Windows(OdhStore* store,
                                                     int type) {
  std::vector<std::pair<Timestamp, Timestamp>> w = {
      {kMinTimestamp, kMaxTimestamp},
      {Sec(300), Sec(200)},                 // lo > hi: empty.
      {Sec(10000), Sec(20000)},             // After all data.
      {kMinTimestamp + 1, Sec(30)},         // Widening underflow guard.
      {Sec(-50), Sec(-1)},                  // Before all data.
  };
  for (double s : {0.0, 99.5, 100.0, 250.0, 333.3, 480.0, 599.0}) {
    w.push_back({Sec(s), Sec(s + 1)});
  }
  for (bool irts : {false, true}) {
    auto all = ReferenceSlice(store, type, irts, kMinTimestamp,
                              kMaxTimestamp);
    for (size_t i = 0; i < all.size(); ++i) {
      const BlobRecord& b = all[i];
      if (i % 5 == 0) {
        const BlobRecord& c = all[(i * 7 + 3) % all.size()];
        w.push_back({b.end, b.end});
        w.push_back({b.begin, b.begin});
        w.push_back({b.end, std::max(b.end, c.begin)});
        w.push_back({b.begin - Sec(1), b.begin});
      }
      if (b.id == kSparse) {
        // Deep inside a long blob, far past every short blob's span.
        const Timestamp mid = b.begin + (b.end - b.begin) * 3 / 4;
        w.push_back({mid, mid + Sec(1)});
      }
    }
  }
  return w;
}

/// Streaming and pinned emission equal the heap-walk reference on every
/// window, and both count the same pruned segments.
void ExpectSlicesMatchReference(OdhSystem* sys, int type,
                                const std::string& state) {
  OdhStore* store = sys->store();
  int checked_long = 0;
  for (const auto& [lo, hi] : Windows(store, type)) {
    for (bool irts : {false, true}) {
      const std::string context =
          state + (irts ? " irts [" : " rts [") + std::to_string(lo) +
          ", " + std::to_string(hi) + "]";
      const auto want = ReferenceSlice(store, type, irts, lo, hi);
      int64_t streamed_pruned = 0, pinned_pruned = 0;
      ExpectSameBlobs(StreamSlice(store, type, irts, lo, hi,
                                  &streamed_pruned),
                      want, context + " streamed");
      ExpectSameBlobs(PinnedSlice(store, type, irts, lo, hi,
                                  &pinned_pruned),
                      want, context + " pinned");
      EXPECT_EQ(streamed_pruned, pinned_pruned) << context;
      for (const BlobRecord& b : want) {
        // Blob begins are small, so this cannot overflow (lo - Sec(60)
        // would, for lo == kMinTimestamp).
        if (b.id == kSparse && b.begin + Sec(60) < lo) ++checked_long;
      }
    }
  }
  // The long IRTS blobs were really exercised through the widening.
  EXPECT_GT(checked_long, 0) << state;
}

TEST(SliceIndexTest, EmissionMatchesHeapWalkReference) {
  for (Timestamp span : {Timestamp{0}, kSpan}) {
    OdhSystem sys(Opts(span));
    const int type = Define(&sys);
    ODH_CHECK_OK(Ingest(&sys, 0, kSeconds));
    ExpectSlicesMatchReference(&sys, type,
                               span == 0 ? "flat" : "segmented");
  }
}

TEST(SliceIndexTest, MatchesReferenceAfterCompaction) {
  OdhSystem sys(Opts(kSpan));
  const int type = Define(&sys);
  ODH_CHECK_OK(Ingest(&sys, 0, kSeconds));
  auto report = sys.CompactSegments(type);
  ODH_CHECK_OK(report.status());
  ASSERT_GT(sys.store()->segments_compacted(), 0);
  ExpectSlicesMatchReference(&sys, type, "compacted");
}

TEST(SliceIndexTest, MatchesReferenceAfterRetentionDropAndReingest) {
  OdhSystem sys(Opts(kSpan));
  const int type = Define(&sys);
  ODH_CHECK_OK(Ingest(&sys, 0, kSeconds));
  auto dropped = sys.SetRetention(type, 250 * kMicrosPerSecond);
  ODH_CHECK_OK(dropped.status());
  ASSERT_GT(*dropped, 0);
  ODH_CHECK_OK(sys.SetRetention(type, 0).status());
  // A fresh source re-creates the dropped keys at a new generation.
  ODH_CHECK_OK(sys.RegisterSource(9, type, kMicrosPerSecond, true));
  for (int i = 0; i < 150; ++i) {
    ODH_CHECK_OK(sys.Ingest({9, Sec(i), {-5.0 - i, 0.0}}));
  }
  ODH_CHECK_OK(sys.FlushAll());
  ExpectSlicesMatchReference(&sys, type, "dropped+reingested");
}

TEST(SliceIndexTest, MatchesReferenceAfterRecover) {
  for (Timestamp span : {Timestamp{0}, kSpan}) {
    OdhSystem victim(Opts(span));
    Define(&victim);
    ODH_CHECK_OK(Ingest(&victim, 0, kSeconds));
    std::unique_ptr<storage::SimDisk> rebooted =
        victim.database()->disk()->CloneDurable();
    OdhSystem recovered(Opts(span));
    const int type = Define(&recovered);
    auto report = recovered.Recover(rebooted.get());
    ODH_CHECK_OK(report.status());
    ASSERT_GT(report->rts_blobs, 0u);
    ExpectSlicesMatchReference(&recovered, type,
                               span == 0 ? "recovered flat"
                                         : "recovered segmented");
  }
}

TEST(SliceIndexTest, OneSecondSliceReadsAFractionOfTheHeapPages) {
  // 40 sources x 30 blobs of 64 noisy points: a 1 s slice needs ~2
  // candidate blobs per source out of 30.
  OdhOptions options = Opts(0);
  options.batch_size = 64;
  OdhSystem sys(options);
  const int type = sys.DefineSchemaType("noisy", {"a", "b"}).value();
  constexpr int kSources = 40;
  for (SourceId id = 1; id <= kSources; ++id) {
    ODH_CHECK_OK(sys.RegisterSource(id, type, kMicrosPerSecond, true));
  }
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> noise(-1000.0, 1000.0);
  for (int i = 0; i < 64 * 30; ++i) {
    for (SourceId id = 1; id <= kSources; ++id) {
      ODH_CHECK_OK(sys.Ingest({id, Sec(i), {noise(rng), noise(rng)}}));
    }
  }
  ODH_CHECK_OK(sys.FlushAll());
  storage::BufferPool* pool = sys.database()->pool();
  storage::SimDisk* disk = sys.database()->disk();
  OdhStore* store = sys.store();
  // Cold reads: every page a scan touches comes from the disk once.
  auto cold_reads = [&](const auto& scan) {
    ODH_CHECK_OK(pool->FlushAll());
    pool->DropCleanPages();
    const uint64_t before = disk->stats().page_reads;
    scan();
    return disk->stats().page_reads - before;
  };
  size_t walked = 0, sliced = 0;
  const uint64_t walk_reads = cold_reads([&] {
    walked = ReferenceSlice(store, type, false, kMinTimestamp,
                            kMaxTimestamp).size();
  });
  const uint64_t slice_reads = cold_reads([&] {
    sliced = StreamSlice(store, type, false, Sec(1000), Sec(1001)).size();
  });
  EXPECT_EQ(walked, size_t{kSources * 30});
  EXPECT_EQ(sliced, size_t{kSources});
  EXPECT_LT(slice_reads * 4, walk_reads)
      << "slice read " << slice_reads << " pages, heap walk " << walk_reads;
}

/// Record-level emission of the native slice cursor.
std::vector<std::string> DrainSlice(OdhSystem* sys, int type, Timestamp lo,
                                    Timestamp hi) {
  auto cursor = sys->SliceQuery(type, lo, hi);
  ODH_CHECK_OK(cursor.status());
  std::vector<std::string> lines;
  OperationalRecord rec;
  while ((*cursor)->Next(&rec).value()) {
    std::string line = std::to_string(rec.id) + "@" + std::to_string(rec.ts);
    for (double v : rec.tags) line += "," + std::to_string(v);
    lines.push_back(std::move(line));
  }
  return lines;
}

TEST(SliceIndexTest, ParallelUnitsMatchSerialSlices) {
  OdhSystem sys(Opts(kSpan, /*query_parallelism=*/4));
  const int type = Define(&sys);
  ODH_CHECK_OK(Ingest(&sys, 0, kSeconds));
  const std::vector<std::pair<Timestamp, Timestamp>> windows = {
      {kMinTimestamp, kMaxTimestamp}, {Sec(150), Sec(151)},
      {Sec(99), Sec(301)}, {Sec(420), Sec(420)}, {Sec(300), Sec(200)}};
  for (const auto& [lo, hi] : windows) {
    sys.config()->SetQueryParallelism(0);
    const auto serial = DrainSlice(&sys, type, lo, hi);
    sys.config()->SetQueryParallelism(4);
    EXPECT_EQ(DrainSlice(&sys, type, lo, hi), serial)
        << "[" << lo << ", " << hi << "]";
  }
}

TEST(SliceIndexTest, SlicesDuringConcurrentIngestEmitOnlyListedBlobs) {
  // A scan emits every blob stored before it began and nothing that was
  // never stored; blobs appended after a segment's listing may or may
  // not appear. Emission stays in (segment, physical) order.
  for (Timestamp span : {Timestamp{0}, kSpan}) {
    OdhSystem sys(Opts(span, /*query_parallelism=*/4));
    const int type = Define(&sys);
    ODH_CHECK_OK(Ingest(&sys, 0, 200));
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      for (int from = 200; from < kSeconds && !stop.load(); from += 25) {
        ODH_CHECK_OK(Ingest(&sys, from, from + 25));
      }
    });
    OdhStore* store = sys.store();
    using Key = std::tuple<int64_t, uint32_t, uint32_t>;
    auto keys = [](const std::vector<BlobRecord>& blobs) {
      std::set<Key> out;
      for (const BlobRecord& b : blobs) {
        out.insert({b.seg, b.rid.page, b.rid.slot});
      }
      return out;
    };
    for (int round = 0; round < 6; ++round) {
      for (bool irts : {false, true}) {
        const Timestamp lo = Sec(40 * round), hi = Sec(40 * round + 90);
        const auto before = keys(ReferenceSlice(store, type, irts, lo, hi));
        const auto got = StreamSlice(store, type, irts, lo, hi);
        const auto after = keys(ReferenceSlice(store, type, irts, lo, hi));
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(got[i].end >= lo && got[i].begin <= hi);
          EXPECT_EQ(after.count({got[i].seg, got[i].rid.page,
                                 got[i].rid.slot}),
                    1u);
          if (i > 0) {
            EXPECT_LT(std::make_tuple(got[i - 1].seg, got[i - 1].rid),
                      std::make_tuple(got[i].seg, got[i].rid));
          }
        }
        const auto emitted = keys(got);
        for (const Key& k : before) EXPECT_EQ(emitted.count(k), 1u);
      }
      // The record-level parallel path runs against the same writes.
      for (const std::string& line :
           DrainSlice(&sys, type, Sec(30 * round), Sec(30 * round + 5))) {
        EXPECT_FALSE(line.empty());
      }
    }
    stop.store(true);
    writer.join();
    ExpectSlicesMatchReference(&sys, type, "after concurrent ingest");
  }
}

TEST(SliceIndexTest, CompactionMidScanSkipsTheRestOfTheSegment) {
  OdhSystem sys(Opts(kSpan));
  const int type = Define(&sys);
  ODH_CHECK_OK(Ingest(&sys, 0, kSeconds));
  OdhStore* store = sys.store();
  // One chunk into segment 0, then compact every sealed segment under the
  // cursor: the generation check skips the rest of segment 0, and later
  // segments are listed fresh from their compacted tables.
  OdhStore::SliceCursor cursor;
  std::vector<BlobRecord> got, chunk;
  bool done = false;
  ODH_CHECK_OK(store->NextSliceChunk(type, false, kMinTimestamp,
                                     kMaxTimestamp, &cursor, &chunk, &done));
  ASSERT_FALSE(done);
  ASSERT_TRUE(cursor.in_segment);
  ASSERT_EQ(cursor.seg, 0);
  for (auto& rec : chunk) got.push_back(std::move(rec));
  ODH_CHECK_OK(sys.CompactSegments(type).status());
  while (!done) {
    ODH_CHECK_OK(store->NextSliceChunk(type, false, kMinTimestamp,
                                       kMaxTimestamp, &cursor, &chunk,
                                       &done));
    for (auto& rec : chunk) got.push_back(std::move(rec));
  }
  const auto after = ReferenceSlice(store, type, false, kMinTimestamp,
                                    kMaxTimestamp);
  std::vector<BlobRecord> expected(got.begin(),
                                   got.begin() + OdhStore::kSliceChunkRows);
  for (const BlobRecord& rec : after) {
    if (rec.seg != 0) expected.push_back(rec);
  }
  ExpectSameBlobs(got, expected, "compacted mid-scan");
  EXPECT_EQ(got.front().generation, 0);
}

}  // namespace
}  // namespace odh::core
