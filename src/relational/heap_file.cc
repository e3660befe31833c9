#include "relational/heap_file.h"

#include <cstring>

#include "common/coding.h"
#include "common/logging.h"

namespace odh::relational {
namespace {

constexpr char kSlottedPage = 1;
constexpr char kOverflowFirst = 2;
constexpr char kOverflowCont = 3;

constexpr size_t kSlottedHeader = 8;   // type(1) pad(1) slot_count(2) end(2) pad(2)
constexpr size_t kSlotBytes = 4;       // offset(2) len(2)
constexpr size_t kOverflowFirstHeader = 8;  // type(1) pad(3) total_len(4)
constexpr size_t kOverflowContHeader = 4;   // type(1) pad(3)
constexpr uint32_t kOverflowSlot = 0xFFFFFFFF;
// Slot offset marking a deleted record (never a valid data offset).
constexpr uint16_t kDeletedOffset = 0xFFFF;

uint16_t ReadU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
void WriteU16(char* p, uint16_t v) { std::memcpy(p, &v, 2); }

}  // namespace

std::string Rid::Encode() const {
  // Big-endian so the 8-byte encoding is memcmp-ordered: index keys use it
  // as a uniquifying suffix, and equal-prefix entries must iterate in
  // insertion (allocation) order.
  std::string out(8, '\0');
  uint32_t p = page, s = slot;
  for (int i = 3; i >= 0; --i) {
    out[i] = static_cast<char>(p & 0xff);
    p >>= 8;
    out[4 + i] = static_cast<char>(s & 0xff);
    s >>= 8;
  }
  return out;
}

bool Rid::Decode(Slice input, Rid* rid) {
  if (input.size() < 8) return false;
  rid->page = 0;
  rid->slot = 0;
  for (int i = 0; i < 4; ++i) {
    rid->page = (rid->page << 8) | static_cast<unsigned char>(input[i]);
    rid->slot = (rid->slot << 8) | static_cast<unsigned char>(input[4 + i]);
  }
  return true;
}

Result<std::unique_ptr<HeapFile>> HeapFile::Create(
    storage::BufferPool* pool, const std::string& name) {
  ODH_ASSIGN_OR_RETURN(storage::FileId file, pool->disk()->CreateFile(name));
  return std::unique_ptr<HeapFile>(new HeapFile(pool, file));
}

Result<Rid> HeapFile::Insert(const Slice& record) {
  // Client-usable bytes; the pool reserves a checksum trailer past this.
  const size_t page_size = pool_->usable_page_size();
  const size_t max_inline = page_size - kSlottedHeader - kSlotBytes;
  if (record.size() > max_inline) return InsertOverflow(record);

  // Try the current append page, else start a new one.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (current_page_ < 0) {
      storage::PageNo page_no;
      ODH_ASSIGN_OR_RETURN(storage::PageRef page,
                           pool_->NewPage(file_, &page_no));
      char* p = page.data();
      p[0] = kSlottedPage;
      WriteU16(p + 2, 0);
      WriteU16(p + 4, static_cast<uint16_t>(kSlottedHeader));
      page.MarkDirty();
      current_page_ = page_no;
      ++page_count_;
    }
    ODH_ASSIGN_OR_RETURN(
        storage::PageRef page,
        pool_->FetchPage(file_, static_cast<storage::PageNo>(current_page_)));
    char* p = page.data();
    uint16_t slot_count = ReadU16(p + 2);
    uint16_t data_end = ReadU16(p + 4);
    size_t slots_begin = page_size - kSlotBytes * (slot_count + 1);
    if (data_end + record.size() <= slots_begin) {
      std::memcpy(p + data_end, record.data(), record.size());
      char* slot = p + page_size - kSlotBytes * (slot_count + 1);
      WriteU16(slot, data_end);
      WriteU16(slot + 2, static_cast<uint16_t>(record.size()));
      WriteU16(p + 2, static_cast<uint16_t>(slot_count + 1));
      WriteU16(p + 4, static_cast<uint16_t>(data_end + record.size()));
      page.MarkDirty();
      ++record_count_;
      return Rid{static_cast<storage::PageNo>(current_page_), slot_count};
    }
    current_page_ = -1;  // Full: retry on a fresh page.
  }
  return Status::Internal("heap insert failed twice");
}

Result<Rid> HeapFile::InsertOverflow(const Slice& record) {
  const size_t page_size = pool_->usable_page_size();
  storage::PageNo first_page;
  {
    ODH_ASSIGN_OR_RETURN(storage::PageRef page,
                         pool_->NewPage(file_, &first_page));
    char* p = page.data();
    p[0] = kOverflowFirst;
    EncodeFixed32(p + 4, static_cast<uint32_t>(record.size()));
    size_t chunk = std::min(record.size(), page_size - kOverflowFirstHeader);
    std::memcpy(p + kOverflowFirstHeader, record.data(), chunk);
    page.MarkDirty();
    ++page_count_;
    size_t written = chunk;
    while (written < record.size()) {
      storage::PageNo cont_page;
      ODH_ASSIGN_OR_RETURN(storage::PageRef cont,
                           pool_->NewPage(file_, &cont_page));
      char* cp = cont.data();
      cp[0] = kOverflowCont;
      size_t n = std::min(record.size() - written,
                          page_size - kOverflowContHeader);
      std::memcpy(cp + kOverflowContHeader, record.data() + written, n);
      cont.MarkDirty();
      written += n;
      ++page_count_;
    }
  }
  ++record_count_;
  return Rid{first_page, kOverflowSlot};
}

Result<std::string> HeapFile::Get(const Rid& rid) {
  const size_t page_size = pool_->usable_page_size();
  ODH_ASSIGN_OR_RETURN(storage::PageRef page,
                       pool_->FetchPage(file_, rid.page));
  const char* p = page.data();
  if (rid.slot == kOverflowSlot) {
    if (p[0] != kOverflowFirst) return Status::NotFound("not overflow head");
    if (DecodeFixed32(p + 4) == 0) {
      return Status::NotFound("deleted overflow record");
    }
    std::string out;
    storage::PageNo after;
    ODH_RETURN_IF_ERROR(ReadOverflow(rid.page, p, &out, &after));
    return out;
  }
  if (p[0] != kSlottedPage) return Status::NotFound("not a slotted page");
  uint16_t slot_count = ReadU16(p + 2);
  if (rid.slot >= slot_count) return Status::NotFound("bad slot");
  const char* slot = p + page_size - kSlotBytes * (rid.slot + 1);
  uint16_t offset = ReadU16(slot);
  uint16_t len = ReadU16(slot + 2);
  if (offset == kDeletedOffset) return Status::NotFound("deleted record");
  return std::string(p + offset, len);
}

Status HeapFile::ReadOverflow(storage::PageNo head, const char* p,
                              std::string* out, storage::PageNo* after) {
  const size_t page_size = pool_->usable_page_size();
  const uint32_t total = DecodeFixed32(p + 4);
  out->clear();
  out->reserve(total);
  size_t chunk = std::min<size_t>(total, page_size - kOverflowFirstHeader);
  out->append(p + kOverflowFirstHeader, chunk);
  storage::PageNo next = head + 1;
  while (out->size() < total) {
    ODH_ASSIGN_OR_RETURN(storage::PageRef cont, pool_->FetchPage(file_, next));
    const char* cp = cont.data();
    if (cp[0] != kOverflowCont) {
      return Status::Corruption("broken overflow chain");
    }
    size_t n = std::min<size_t>(total - out->size(),
                                page_size - kOverflowContHeader);
    out->append(cp + kOverflowContHeader, n);
    ++next;
  }
  *after = next;
  return Status::OK();
}

Status HeapFile::Delete(const Rid& rid) {
  const size_t page_size = pool_->usable_page_size();
  ODH_ASSIGN_OR_RETURN(storage::PageRef page,
                       pool_->FetchPage(file_, rid.page));
  char* p = page.data();
  if (rid.slot == kOverflowSlot) {
    if (p[0] != kOverflowFirst) return Status::NotFound("not overflow head");
    if (DecodeFixed32(p + 4) == 0) return Status::NotFound("already deleted");
    EncodeFixed32(p + 4, 0);
    page.MarkDirty();
    --record_count_;
    return Status::OK();
  }
  if (p[0] != kSlottedPage) return Status::NotFound("not a slotted page");
  uint16_t slot_count = ReadU16(p + 2);
  if (rid.slot >= slot_count) return Status::NotFound("bad slot");
  char* slot = p + page_size - kSlotBytes * (rid.slot + 1);
  if (ReadU16(slot) == kDeletedOffset) {
    return Status::NotFound("already deleted");
  }
  WriteU16(slot, kDeletedOffset);
  page.MarkDirty();
  --record_count_;
  return Status::OK();
}

Status HeapFile::Iterator::SeekToFirst() {
  page_ = 0;
  slot_ = 0;
  valid_ = false;
  return FindNext();
}

Status HeapFile::Iterator::Next() {
  if (!valid_) return Status::FailedPrecondition("iterator not valid");
  // A yielded overflow record already left page_ past its chain.
  if (rid_.slot != kOverflowSlot) ++slot_;
  valid_ = false;
  return FindNext();
}

Status HeapFile::Iterator::FindNext() {
  storage::SimDisk* disk = file_->pool_->disk();
  const size_t page_size = file_->pool_->usable_page_size();
  ODH_ASSIGN_OR_RETURN(uint32_t total_pages, disk->PageCount(file_->file_));
  while (page_ < total_pages) {
    ODH_ASSIGN_OR_RETURN(storage::PageRef page,
                         file_->pool_->FetchPage(file_->file_, page_));
    const char* p = page.data();
    if (p[0] == kSlottedPage) {
      uint16_t slot_count = ReadU16(p + 2);
      while (slot_ < slot_count) {
        const char* slot = p + page_size - kSlotBytes * (slot_ + 1);
        uint16_t offset = ReadU16(slot);
        uint16_t len = ReadU16(slot + 2);
        if (offset != kDeletedOffset) {
          record_.assign(p + offset, len);
          rid_ = Rid{page_, slot_};
          valid_ = true;
          return Status::OK();
        }
        ++slot_;
      }
    } else if (p[0] == kOverflowFirst) {
      if (DecodeFixed32(p + 4) != 0) {
        // Read the chain from the pinned head and resume on the page after
        // it: each page of a live overflow record is fetched once.
        rid_ = Rid{page_, kOverflowSlot};
        ODH_RETURN_IF_ERROR(file_->ReadOverflow(page_, p, &record_, &page_));
        slot_ = 0;
        valid_ = true;
        return Status::OK();
      }
    }
    // Move to the next page (continuation pages of a deleted overflow
    // head are skipped by their type byte).
    ++page_;
    slot_ = 0;
  }
  return Status::OK();
}

}  // namespace odh::relational
