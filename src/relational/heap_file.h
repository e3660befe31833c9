#ifndef ODH_RELATIONAL_HEAP_FILE_H_
#define ODH_RELATIONAL_HEAP_FILE_H_

#include <compare>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "storage/buffer_pool.h"

namespace odh::relational {

/// Record id: the physical address of a heap record.
struct Rid {
  storage::PageNo page = 0;
  uint32_t slot = 0;

  bool operator==(const Rid&) const = default;
  /// Physical (page, slot) order: the order a heap scan visits records.
  auto operator<=>(const Rid&) const = default;

  /// 8-byte fixed encoding used as B-tree index values / key suffixes.
  std::string Encode() const;
  static bool Decode(Slice input, Rid* rid);
};

/// Unordered record storage in slotted pages. Records larger than a page
/// are stored in overflow page chains (needed for ODH ValueBlobs, which can
/// exceed a page at large batch sizes).
///
/// Deletion marks slots dead; space is not compacted (the paper's workloads
/// are append-heavy; only the MG reorganizer deletes).
class HeapFile {
 public:
  static Result<std::unique_ptr<HeapFile>> Create(storage::BufferPool* pool,
                                                  const std::string& name);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Appends a record, returning its Rid.
  Result<Rid> Insert(const Slice& record);

  /// Fetches a record by Rid. NotFound for deleted/invalid Rids.
  Result<std::string> Get(const Rid& rid);

  /// Marks a record deleted. Overflow chains release their pages' content
  /// logically (pages remain allocated; see class comment).
  Status Delete(const Rid& rid);

  int64_t record_count() const { return record_count_; }
  storage::FileId file() const { return file_; }

  /// Sequential scan over live records in physical order.
  class Iterator {
   public:
    /// Positions on the first record; check Valid() afterwards.
    Status SeekToFirst();
    bool Valid() const { return valid_; }
    Status Next();
    const std::string& record() const { return record_; }
    Rid rid() const { return rid_; }

   private:
    friend class HeapFile;
    explicit Iterator(HeapFile* file) : file_(file) {}

    /// Advances from the current position to the next live record.
    Status FindNext();

    HeapFile* file_;
    bool valid_ = false;
    storage::PageNo page_ = 0;
    uint32_t slot_ = 0;
    std::string record_;
    Rid rid_;
  };

  Iterator NewIterator() { return Iterator(this); }

 private:
  HeapFile(storage::BufferPool* pool, storage::FileId file)
      : pool_(pool), file_(file) {}

  Result<Rid> InsertOverflow(const Slice& record);
  /// Reads the live overflow record whose head page `head` is pinned at
  /// `p` into `*out`; `*after` is the first page past its chain.
  Status ReadOverflow(storage::PageNo head, const char* p, std::string* out,
                      storage::PageNo* after);

  storage::BufferPool* pool_;
  storage::FileId file_;
  // Page the next small insert should try first; -1 when none yet.
  int64_t current_page_ = -1;
  int64_t record_count_ = 0;
  uint32_t page_count_ = 0;
};

}  // namespace odh::relational

#endif  // ODH_RELATIONAL_HEAP_FILE_H_
