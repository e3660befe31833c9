#ifndef ODH_CORE_REPLICA_H_
#define ODH_CORE_REPLICA_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/store.h"

namespace odh::core {

/// Applies a primary's replication stream to a local OdhStore. Transport-
/// agnostic: net::ReplicationClient feeds it decoded frame contents; tests
/// feed it Wal::TailChunk records directly.
///
/// Every applied record goes through the store's normal WAL-logged Put
/// path, so the replica re-logs the stream into its OWN log and a crashed
/// replica recovers through the same OdhStore::Recover redo machinery as a
/// crashed primary — crash-consistent by construction, and a recovered
/// replica resumes the stream from its re-derived applied LSN.
///
/// The replica store must be configured like the primary: same schema
/// types (DefineSchemaType in the same order), the same registered
/// sources (the stream ships data, not catalog — reads resolve sources
/// through local metadata) and the same OdhOptions — segment routing is
/// floor(begin/segment_span), so equal spans make the primary's segment
/// keys meaningful locally.
///
/// Threading: one applier thread calls the Apply*/Observe/Flush methods
/// (net::ReplicationClient's tail loop); the lag/watermark accessors and
/// WaitForLsn are safe from any thread.
class ReplicaApplier {
 public:
  explicit ReplicaApplier(OdhStore* store) : store_(store) {}

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  /// Applies a bootstrap snapshot's records (encoded WalRecord payloads).
  /// ReplicationClient calls it once per snapshot, at its End frame.
  Status ApplySnapshotRecords(const std::vector<std::string>& payloads);

  /// Ends the bootstrap: the store now mirrors the primary at `base_lsn`.
  Status FinishSnapshot(uint64_t base_lsn);

  /// Applies one WAL batch covering primary byte range [start_lsn,
  /// end_lsn). A batch entirely at or below the applied LSN is a
  /// duplicate after reconnect and is skipped; a batch starting beyond it
  /// is a gap in the stream and fails with kDataLoss (the subscriber must
  /// re-bootstrap).
  Status ApplyWalBatch(uint64_t start_lsn, uint64_t end_lsn,
                       const std::vector<std::string>& payloads);

  /// Records the primary's durable LSN and data watermark from a
  /// heartbeat (also carried by every batch via its end_lsn).
  void ObserveHeartbeat(uint64_t durable_lsn, int64_t watermark_micros);

  /// Syncs every schema type touched since the last Flush, making the
  /// applied prefix of the stream crash-durable locally.
  Status Flush();

  /// Blocks until the applied LSN reaches `lsn` (true) or `timeout_ms`
  /// lapses (false). The primary's ack path uses this for semi-sync
  /// waits.
  bool WaitForLsn(uint64_t lsn, int timeout_ms);

  /// Seeds the resume position after a replica reboot: the operator
  /// re-derives the primary LSN the recovered store reflects (a
  /// checkpoint recorded alongside the replica's own WAL) and the next
  /// subscribe resumes there instead of re-bootstrapping. Only legal
  /// before the stream starts.
  void ResumeAt(uint64_t lsn) { SetAppliedLsn(lsn); }

  // Lag/watermark observers (safe from any thread) -----------------------

  /// Primary WAL bytes applied locally — the position a reconnecting
  /// subscription resumes from.
  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }
  uint64_t primary_durable_lsn() const {
    return primary_durable_lsn_.load(std::memory_order_acquire);
  }
  /// Bytes of primary WAL not yet applied here (>= 0).
  int64_t lag_bytes() const {
    const int64_t lag = static_cast<int64_t>(primary_durable_lsn()) -
                        static_cast<int64_t>(applied_lsn());
    return lag > 0 ? lag : 0;
  }
  /// Newest data timestamp applied locally (the replica's watermark —
  /// monotone by construction).
  int64_t applied_watermark() const {
    return applied_watermark_.load(std::memory_order_acquire);
  }
  int64_t primary_watermark() const {
    return primary_watermark_.load(std::memory_order_acquire);
  }
  /// How far the replica's data trails the primary's, in timestamp units
  /// (>= 0): the staleness a read-only session is exposed to.
  int64_t staleness_micros() const {
    const int64_t lag = primary_watermark() - applied_watermark();
    return lag > 0 ? lag : 0;
  }
  int64_t records_applied() const {
    return records_applied_.load(std::memory_order_acquire);
  }

 private:
  Status ApplyRecord(const std::string& payload);
  Status ApplyPut(const WalRecord& rec);
  /// Closes a compaction episode: swap the buffered replacement blobs in
  /// (or apply them as plain puts when the segment never materialized
  /// locally).
  Status CommitCompaction();
  void AdvanceWatermark(int64_t end_ts);
  void SetAppliedLsn(uint64_t lsn);

  OdhStore* store_;

  // Applier-thread-only state.
  std::set<int> touched_types_;
  /// In-flight compaction episode (may span several batches).
  bool in_episode_ = false;
  int episode_schema_ = 0;
  int64_t episode_key_ = 0;
  std::vector<BlobRecord> episode_rts_;
  std::vector<BlobRecord> episode_irts_;

  std::mutex lsn_mu_;  // Guards lsn_cv_ waits; the value itself is atomic.
  std::condition_variable lsn_cv_;

  std::atomic<uint64_t> applied_lsn_{0};
  std::atomic<uint64_t> primary_durable_lsn_{0};
  std::atomic<int64_t> applied_watermark_{kMinTimestamp};
  std::atomic<int64_t> primary_watermark_{kMinTimestamp};
  std::atomic<int64_t> records_applied_{0};
};

}  // namespace odh::core

#endif  // ODH_CORE_REPLICA_H_
