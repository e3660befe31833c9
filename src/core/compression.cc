#include "core/compression.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/coding.h"
#include "core/bits.h"

namespace odh::core {
namespace {

constexpr int kMaxQuantBits = 20;  // Beyond this, quantization stops paying.

struct ColumnProfile {
  size_t present = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double mean_abs_step = 0;
};

ColumnProfile Profile(const double* values, size_t n) {
  ColumnProfile p;
  double prev = 0;
  bool have_prev = false;
  double step_sum = 0;
  size_t steps = 0;
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(values[i])) continue;
    ++p.present;
    if (values[i] < p.min) p.min = values[i];
    if (values[i] > p.max) p.max = values[i];
    if (have_prev) {
      step_sum += std::fabs(values[i] - prev);
      ++steps;
    }
    prev = values[i];
    have_prev = true;
  }
  p.mean_abs_step = steps > 0 ? step_sum / static_cast<double>(steps) : 0;
  return p;
}

/// Collects present values (order preserved).
std::vector<double> PresentValues(const double* values, size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!std::isnan(values[i])) out.push_back(values[i]);
  }
  return out;
}

void EncodeRaw(const std::vector<double>& v, std::string* out) {
  for (double x : v) PutDouble(out, x);
}

Status DecodeRaw(Slice* input, size_t n, std::vector<double>* out) {
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!GetDouble(input, &(*out)[i])) return Status::Corruption("raw value");
  }
  return Status::OK();
}

void EncodeXor(const std::vector<double>& v, std::string* out) {
  BitWriter writer(out);
  uint64_t prev = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    uint64_t bits;
    std::memcpy(&bits, &v[i], 8);
    if (i == 0) {
      writer.Write(bits, 64);
    } else {
      uint64_t x = bits ^ prev;
      if (x == 0) {
        writer.WriteBit(false);
      } else {
        writer.WriteBit(true);
        int leading = __builtin_clzll(x);
        int trailing = __builtin_ctzll(x);
        if (leading > 63) leading = 63;
        int length = 64 - leading - trailing;
        writer.Write(static_cast<uint64_t>(leading), 6);
        writer.Write(static_cast<uint64_t>(length - 1), 6);
        writer.Write(x >> trailing, length);
      }
    }
    prev = bits;
  }
  writer.Finish();
}

Status DecodeXor(Slice input, size_t n, std::vector<double>* out) {
  out->resize(n);
  BitReader reader(input);
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    if (i == 0) {
      if (!reader.Read(64, &bits)) return Status::Corruption("xor head");
    } else {
      bool changed;
      if (!reader.ReadBit(&changed)) return Status::Corruption("xor flag");
      if (!changed) {
        bits = prev;
      } else {
        // Leading-zero count and length-1, six bits each, in one read.
        uint64_t header, payload;
        if (!reader.Read(12, &header)) return Status::Corruption("xor header");
        int leading = static_cast<int>(header >> 6);
        int length = static_cast<int>(header & 63) + 1;
        int trailing = 64 - leading - length;
        if (trailing < 0) return Status::Corruption("xor widths");
        if (!reader.Read(length, &payload)) {
          return Status::Corruption("xor payload");
        }
        bits = prev ^ (payload << trailing);
      }
    }
    std::memcpy(&(*out)[i], &bits, 8);
    prev = bits;
  }
  return Status::OK();
}

/// Swinging-door pivots over the compacted (present-only) sequence.
/// Pivot values come from the corridor midpoint so every reconstructed
/// point deviates at most `max_error` from the original.
void EncodeLinear(const std::vector<double>& v, double max_error,
                  std::string* out) {
  const double e = max_error;
  PutVarint32(out, static_cast<uint32_t>(v.size()));
  if (v.empty()) return;
  std::vector<std::pair<uint32_t, double>> pivots;
  pivots.emplace_back(0, v[0]);
  size_t start = 0;
  double start_val = v[0];
  double slope_hi = std::numeric_limits<double>::infinity();
  double slope_lo = -std::numeric_limits<double>::infinity();
  double last_ok_hi = 0, last_ok_lo = 0;  // Corridor at the previous index.
  for (size_t i = start + 1; i < v.size(); ++i) {
    double dx = static_cast<double>(i - start);
    double hi = (v[i] + e - start_val) / dx;
    double lo = (v[i] - e - start_val) / dx;
    double new_hi = std::min(slope_hi, hi);
    double new_lo = std::max(slope_lo, lo);
    if (new_lo > new_hi) {
      // Emit a pivot at i-1 using the corridor midpoint.
      double mid = (last_ok_hi + last_ok_lo) / 2;
      double pivot_val = start_val + mid * static_cast<double>(i - 1 - start);
      pivots.emplace_back(static_cast<uint32_t>(i - 1), pivot_val);
      start = i - 1;
      start_val = pivot_val;
      dx = 1.0;
      slope_hi = v[i] + e - start_val;
      slope_lo = v[i] - e - start_val;
      last_ok_hi = slope_hi;
      last_ok_lo = slope_lo;
    } else {
      slope_hi = new_hi;
      slope_lo = new_lo;
      last_ok_hi = slope_hi;
      last_ok_lo = slope_lo;
    }
  }
  if (v.size() > start + 1 || pivots.size() == 1) {
    size_t last = v.size() - 1;
    double val;
    if (last == start) {
      val = start_val;
    } else {
      double mid = (last_ok_hi + last_ok_lo) / 2;
      val = start_val + mid * static_cast<double>(last - start);
    }
    if (pivots.back().first != last) {
      pivots.emplace_back(static_cast<uint32_t>(last), val);
    }
  }
  PutVarint32(out, static_cast<uint32_t>(pivots.size()));
  uint32_t prev_idx = 0;
  for (const auto& [idx, val] : pivots) {
    PutVarint32(out, idx - prev_idx);
    prev_idx = idx;
    PutDouble(out, val);
  }
}

Status DecodeLinear(Slice* input, std::vector<double>* out) {
  uint32_t n, num_pivots;
  if (!GetVarint32(input, &n)) return Status::Corruption("linear n");
  out->assign(n, 0);
  if (n == 0) return Status::OK();
  if (!GetVarint32(input, &num_pivots) || num_pivots == 0) {
    return Status::Corruption("linear pivots");
  }
  uint32_t prev_idx = 0;
  double prev_val = 0;
  bool first = true;
  for (uint32_t p = 0; p < num_pivots; ++p) {
    uint32_t delta;
    double val;
    if (!GetVarint32(input, &delta) || !GetDouble(input, &val)) {
      return Status::Corruption("linear pivot");
    }
    uint32_t idx = first ? delta : prev_idx + delta;
    if (idx >= n) return Status::Corruption("linear pivot index");
    if (first) {
      (*out)[idx] = val;
    } else {
      for (uint32_t i = prev_idx + 1; i <= idx; ++i) {
        double t = static_cast<double>(i - prev_idx) /
                   static_cast<double>(idx - prev_idx);
        (*out)[i] = prev_val + t * (val - prev_val);
      }
    }
    prev_idx = idx;
    prev_val = val;
    first = false;
  }
  // Trailing values past the last pivot hold the last value.
  for (uint32_t i = prev_idx + 1; i < n; ++i) (*out)[i] = prev_val;
  return Status::OK();
}

/// Quantization: header (min, step, bit width), then bit-packed codes.
/// Returns false if the value range needs too many bits to pay off.
bool EncodeQuantized(const std::vector<double>& v, double max_error,
                     std::string* out) {
  if (v.empty()) {
    PutDouble(out, 0);
    PutDouble(out, 1);
    out->push_back(1);
    return true;
  }
  double min = v[0], max = v[0];
  for (double x : v) {
    if (x < min) min = x;
    if (x > max) max = x;
  }
  double step = 2 * max_error;
  double levels_d = step > 0 ? (max - min) / step : 0;
  if (!(levels_d < (1u << kMaxQuantBits))) return false;
  uint64_t max_code = static_cast<uint64_t>(std::llround(levels_d)) + 1;
  int width = BitWidth(max_code);
  PutDouble(out, min);
  PutDouble(out, step);
  out->push_back(static_cast<char>(width));
  BitWriter writer(out);
  for (double x : v) {
    uint64_t code =
        step > 0 ? static_cast<uint64_t>(std::llround((x - min) / step)) : 0;
    writer.Write(code, width);
  }
  writer.Finish();
  return true;
}

Status DecodeQuantized(Slice input, size_t n, std::vector<double>* out) {
  double min, step;
  if (!GetDouble(&input, &min) || !GetDouble(&input, &step)) {
    return Status::Corruption("quant header");
  }
  if (input.empty()) return Status::Corruption("quant width");
  int width = static_cast<uint8_t>(input[0]);
  input.remove_prefix(1);
  if (width <= 0 || width > 63) return Status::Corruption("quant width");
  out->resize(n);
  BitReader reader(input);
  for (size_t i = 0; i < n; ++i) {
    uint64_t code;
    if (!reader.Read(width, &code)) return Status::Corruption("quant code");
    (*out)[i] = min + static_cast<double>(code) * step;
  }
  return Status::OK();
}

}  // namespace

ValueCodec SelectCodec(const double* values, size_t n,
                       const CompressionSpec& spec) {
  if (spec.force) return spec.forced_codec;
  ColumnProfile p = Profile(values, n);
  if (p.present < 4) return ValueCodec::kRaw;
  if (spec.max_error > 0) {
    double range = p.max - p.min;
    if (range <= 0) return ValueCodec::kLinear;  // Constant: 2 pivots.
    double smoothness = p.mean_abs_step / range;
    // Smooth, slowly varying signals compress best piecewise-linearly;
    // noisy ones quantize better (paper's variability-aware strategy).
    return smoothness < 0.05 ? ValueCodec::kLinear : ValueCodec::kQuantized;
  }
  return ValueCodec::kXor;
}

Status EncodeColumn(const double* values, size_t n,
                    const CompressionSpec& spec, std::string* out) {
  ValueCodec codec = SelectCodec(values, n, spec);
  std::vector<double> present = PresentValues(values, n);
  // Lossy codecs require an error bound.
  if (spec.max_error <= 0 &&
      (codec == ValueCodec::kLinear || codec == ValueCodec::kQuantized)) {
    return Status::InvalidArgument("lossy codec requires max_error > 0");
  }

  size_t header_pos = out->size();
  out->push_back(static_cast<char>(codec));
  // Presence bitmap.
  const size_t bitmap_bytes = (n + 7) / 8;
  size_t bitmap_pos = out->size();
  out->append(bitmap_bytes, '\0');
  for (size_t i = 0; i < n; ++i) {
    if (!std::isnan(values[i])) {
      (*out)[bitmap_pos + i / 8] |= static_cast<char>(1 << (i % 8));
    }
  }
  switch (codec) {
    case ValueCodec::kRaw:
      EncodeRaw(present, out);
      break;
    case ValueCodec::kXor:
      EncodeXor(present, out);
      break;
    case ValueCodec::kLinear:
      EncodeLinear(present, spec.max_error, out);
      break;
    case ValueCodec::kQuantized:
      if (!EncodeQuantized(present, spec.max_error, out)) {
        // Range too wide for quantization: rewrite as XOR.
        out->resize(header_pos);
        CompressionSpec fallback;
        fallback.force = true;
        fallback.forced_codec = ValueCodec::kXor;
        return EncodeColumn(values, n, fallback, out);
      }
      break;
  }
  return Status::OK();
}

Status DecodeColumn(Slice input, size_t n, std::vector<double>* values) {
  if (input.empty()) return Status::Corruption("empty column");
  ValueCodec codec = static_cast<ValueCodec>(input[0]);
  input.remove_prefix(1);
  const size_t bitmap_bytes = (n + 7) / 8;
  if (input.size() < bitmap_bytes) return Status::Corruption("bitmap");
  const char* bitmap = input.data();
  input.remove_prefix(bitmap_bytes);
  size_t present = 0;
  for (size_t i = 0; i < n / 8; ++i) {
    present += static_cast<size_t>(
        __builtin_popcount(static_cast<uint8_t>(bitmap[i])));
  }
  if (n % 8 != 0) {
    // Bits past `n` in the last byte are not values; ignore them.
    const unsigned mask = (1u << (n % 8)) - 1;
    present += static_cast<size_t>(
        __builtin_popcount(static_cast<uint8_t>(bitmap[n / 8]) & mask));
  }
  // With every value present (the common case) the codec decodes straight
  // into `values`; otherwise into a compact vector that is then scattered.
  const bool dense = present == n;
  std::vector<double> compact;
  std::vector<double>* decoded = dense ? values : &compact;
  switch (codec) {
    case ValueCodec::kRaw: {
      Slice in = input;
      ODH_RETURN_IF_ERROR(DecodeRaw(&in, present, decoded));
      break;
    }
    case ValueCodec::kXor:
      ODH_RETURN_IF_ERROR(DecodeXor(input, present, decoded));
      break;
    case ValueCodec::kLinear: {
      Slice in = input;
      ODH_RETURN_IF_ERROR(DecodeLinear(&in, decoded));
      if (decoded->size() != present) {
        return Status::Corruption("linear count mismatch");
      }
      break;
    }
    case ValueCodec::kQuantized:
      ODH_RETURN_IF_ERROR(DecodeQuantized(input, present, decoded));
      break;
    default:
      return Status::Corruption("unknown codec");
  }
  if (dense) return Status::OK();
  values->assign(n, std::numeric_limits<double>::quiet_NaN());
  size_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    if ((bitmap[i / 8] >> (i % 8)) & 1) (*values)[i] = compact[next++];
  }
  return Status::OK();
}

void EncodeTimestamps(const Timestamp* ts, size_t n, Timestamp base,
                      std::string* out) {
  int64_t prev_delta = 0;
  Timestamp prev = base;
  for (size_t i = 0; i < n; ++i) {
    int64_t delta = ts[i] - prev;
    PutVarintSigned64(out, delta - prev_delta);  // Delta-of-delta.
    prev_delta = delta;
    prev = ts[i];
  }
}

Status DecodeTimestamps(Slice* input, size_t n, Timestamp base,
                        std::vector<Timestamp>* ts) {
  ts->resize(n);
  // Unsigned accumulators: corrupt input may overflow, and unsigned
  // arithmetic wraps where signed overflow would be undefined.
  uint64_t prev_delta = 0;
  uint64_t prev = static_cast<uint64_t>(base);
  for (size_t i = 0; i < n; ++i) {
    int64_t dod;
    if (!GetVarintSigned64(input, &dod)) {
      return Status::Corruption("timestamp dod");
    }
    prev_delta += static_cast<uint64_t>(dod);
    prev += prev_delta;
    (*ts)[i] = static_cast<Timestamp>(prev);
  }
  return Status::OK();
}

}  // namespace odh::core
