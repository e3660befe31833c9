#ifndef ODH_CORE_BITS_H_
#define ODH_CORE_BITS_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace odh::core {

/// Appends bits (MSB-first within the stream) to a byte buffer. Used by the
/// quantization and XOR codecs. Bits collect in a 64-bit accumulator and
/// reach `out` a whole big-endian word at a time; Finish() writes the rest.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  /// Writes the low `nbits` bits of `value` (0 <= nbits <= 64).
  void Write(uint64_t value, int nbits) {
    if (nbits <= 0) return;
    if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
    const int room = 64 - fill_;  // 1..64
    if (nbits < room) {
      acc_ = (acc_ << nbits) | value;
      fill_ += nbits;
      return;
    }
    // The top `room` bits of `value` complete the word; the rest (fewer
    // than 64) start the next one. Bits of `acc_` above `fill_` are stale
    // and get shifted out before they are ever emitted.
    const int rest = nbits - room;
    AppendWord(room == 64 ? value : (acc_ << room) | (value >> rest));
    acc_ = value;
    fill_ = rest;
  }

  void WriteBit(bool bit) { Write(bit ? 1 : 0, 1); }

  /// Flushes the pending bits, padding the final partial byte with zeros.
  /// Must be called once after the last Write.
  void Finish() {
    if (fill_ > 0) {
      const uint64_t word = acc_ << (64 - fill_);
      for (int i = 0; i < (fill_ + 7) / 8; ++i) {
        out_->push_back(static_cast<char>(word >> (56 - 8 * i)));
      }
    }
    acc_ = 0;
    fill_ = 0;
  }

 private:
  void AppendWord(uint64_t word) {
    word = __builtin_bswap64(word);
    char buf[8];
    std::memcpy(buf, &word, 8);
    out_->append(buf, 8);
  }

  std::string* out_;
  uint64_t acc_ = 0;  // The low `fill_` bits are pending, oldest highest.
  int fill_ = 0;      // 0..63
};

/// Reads bits written by BitWriter. Every Read costs one bounds check and
/// one big-endian window load, whatever its width; no byte past the end of
/// the input is ever touched.
class BitReader {
 public:
  explicit BitReader(Slice input)
      : data_(reinterpret_cast<const uint8_t*>(input.data())),
        size_(input.size()) {}

  /// Reads `nbits` bits (0 <= nbits <= 64); returns false past the end,
  /// after which only zero-width reads succeed.
  bool Read(int nbits, uint64_t* value) {
    if (nbits <= 0) {
      *value = 0;
      return true;
    }
    if (static_cast<size_t>(nbits) > size_ * 8 - pos_) {
      pos_ = size_ * 8;
      return false;
    }
    const size_t byte = pos_ >> 3;
    const int skip = static_cast<int>(pos_ & 7);
    uint64_t window = Window(byte) << skip;
    if (skip + nbits > 64) {
      // The read ends in the ninth byte, which the bounds check proved is
      // in the input.
      window |= data_[byte + 8] >> (8 - skip);
    }
    *value = window >> (64 - nbits);
    pos_ += static_cast<size_t>(nbits);
    return true;
  }

  bool ReadBit(bool* bit) {
    uint64_t v;
    if (!Read(1, &v)) return false;
    *bit = v != 0;
    return true;
  }

 private:
  /// The eight bytes at `byte` as a big-endian word, zero-filled past the
  /// end of the input.
  uint64_t Window(size_t byte) const {
    uint64_t w = 0;
    if (byte + 8 <= size_) {
      std::memcpy(&w, data_ + byte, 8);
      return __builtin_bswap64(w);
    }
    for (size_t i = byte; i < size_; ++i) {
      w |= static_cast<uint64_t>(data_[i]) << (56 - 8 * (i - byte));
    }
    return w;
  }

  const uint8_t* data_;
  size_t size_;     // Bytes.
  size_t pos_ = 0;  // Bits consumed.
};

/// Number of bits needed to represent `v` (at least 1).
inline int BitWidth(uint64_t v) {
  int bits = 1;
  while (v > 1) {
    v >>= 1;
    ++bits;
  }
  return bits;
}

}  // namespace odh::core

#endif  // ODH_CORE_BITS_H_
