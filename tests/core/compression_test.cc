#include "core/compression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/coding.h"
#include "common/random.h"
#include "core/bits.h"
#include "core/value_blob.h"

namespace odh::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<double> Decoded(const std::vector<double>& values,
                            const CompressionSpec& spec) {
  std::string buf;
  EXPECT_TRUE(EncodeColumn(values.data(), values.size(), spec, &buf).ok());
  std::vector<double> out;
  EXPECT_TRUE(DecodeColumn(Slice(buf), values.size(), &out).ok());
  return out;
}

CompressionSpec Forced(ValueCodec codec, double max_error = 0) {
  CompressionSpec spec;
  spec.force = true;
  spec.forced_codec = codec;
  spec.max_error = max_error;
  return spec;
}

TEST(BitsTest, WriterReaderRoundTrip) {
  std::string buf;
  BitWriter writer(&buf);
  writer.Write(0b101, 3);
  writer.Write(0xDEADBEEF, 32);
  writer.WriteBit(true);
  writer.Write(0, 7);
  writer.Finish();
  BitReader reader{Slice(buf)};
  uint64_t v;
  ASSERT_TRUE(reader.Read(3, &v));
  EXPECT_EQ(v, 0b101u);
  ASSERT_TRUE(reader.Read(32, &v));
  EXPECT_EQ(v, 0xDEADBEEFu);
  bool bit;
  ASSERT_TRUE(reader.ReadBit(&bit));
  EXPECT_TRUE(bit);
  ASSERT_TRUE(reader.Read(7, &v));
  EXPECT_EQ(v, 0u);
}

TEST(BitsTest, ReadPastEndFails) {
  std::string buf;
  BitWriter writer(&buf);
  writer.Write(1, 4);
  writer.Finish();
  BitReader reader{Slice(buf)};
  uint64_t v;
  EXPECT_TRUE(reader.Read(8, &v));   // Padded byte.
  EXPECT_FALSE(reader.Read(1, &v));  // Past the end.
}

/// Bit `i` of `bytes`, MSB-first: the stream order of BitWriter.
int BitAt(const char* bytes, size_t i) {
  return (static_cast<uint8_t>(bytes[i / 8]) >> (7 - i % 8)) & 1;
}

TEST(BitsTest, ReaderIsTotalNearTheEnd) {
  // Every width 0..64 from every bit offset of inputs of 0..16 bytes. The
  // input sits in a heap block of exactly its size, so a load past the
  // end is a sanitizer error; a failed read leaves only zero-width reads
  // succeeding.
  Random rng(17);
  for (size_t size = 0; size <= 16; ++size) {
    std::unique_ptr<char[]> bytes(new char[size]);
    for (size_t i = 0; i < size; ++i) {
      bytes[i] = static_cast<char>(rng.Uniform(256));
    }
    const Slice input(bytes.get(), size);
    const size_t total = size * 8;
    for (size_t offset = 0; offset <= total; ++offset) {
      for (int width = 0; width <= 64; ++width) {
        BitReader reader(input);
        uint64_t v;
        for (size_t at = 0; at < offset;) {
          const int step = static_cast<int>(std::min<size_t>(64, offset - at));
          ASSERT_TRUE(reader.Read(step, &v));
          at += static_cast<size_t>(step);
        }
        const bool fits = offset + static_cast<size_t>(width) <= total;
        ASSERT_EQ(reader.Read(width, &v), fits)
            << size << "B @" << offset << " w" << width;
        if (fits) {
          uint64_t want = 0;
          for (int b = 0; b < width; ++b) {
            want = (want << 1) |
                   static_cast<uint64_t>(BitAt(bytes.get(), offset + b));
          }
          ASSERT_EQ(v, want) << size << "B @" << offset << " w" << width;
        } else {
          EXPECT_FALSE(reader.Read(1, &v));
          EXPECT_TRUE(reader.Read(0, &v));
        }
      }
    }
  }
}

TEST(BitsTest, WriterMatchesBitAtATimeReference) {
  Random rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    std::string got;
    BitWriter writer(&got);
    std::vector<int> bits;
    const int writes = static_cast<int>(rng.Uniform(40));
    for (int w = 0; w < writes; ++w) {
      const int width = static_cast<int>(rng.Uniform(65));
      const uint64_t value = rng.Next();  // High bits beyond width ignored.
      writer.Write(value, width);
      for (int b = width - 1; b >= 0; --b) bits.push_back((value >> b) & 1);
    }
    writer.Finish();
    std::string want((bits.size() + 7) / 8, '\0');
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) want[i / 8] |= static_cast<char>(0x80 >> (i % 8));
    }
    ASSERT_EQ(got, want) << "trial " << trial;
  }
}

TEST(BitsTest, BitWidth) {
  EXPECT_EQ(BitWidth(0), 1);
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 2);
  EXPECT_EQ(BitWidth(255), 8);
  EXPECT_EQ(BitWidth(256), 9);
}

TEST(CompressionTest, RawRoundTrip) {
  std::vector<double> v = {1.5, -2.25, 0.0, 1e300};
  EXPECT_EQ(Decoded(v, Forced(ValueCodec::kRaw)), v);
}

TEST(CompressionTest, XorRoundTripIsLossless) {
  Random rng(7);
  std::vector<double> v;
  double x = 100;
  for (int i = 0; i < 500; ++i) {
    x += rng.NextGaussian();
    v.push_back(x);
  }
  EXPECT_EQ(Decoded(v, Forced(ValueCodec::kXor)), v);
}

TEST(CompressionTest, XorCompressesConstantSeries) {
  std::vector<double> v(1000, 42.5);
  std::string buf;
  ASSERT_TRUE(
      EncodeColumn(v.data(), v.size(), Forced(ValueCodec::kXor), &buf).ok());
  // 1000 repeated values: 1 full + 999 single bits + bitmap.
  EXPECT_LT(buf.size(), 300u);
  EXPECT_EQ(Decoded(v, Forced(ValueCodec::kXor)), v);
}

TEST(CompressionTest, NaNPresenceRestored) {
  std::vector<double> v = {1.0, kNaN, 3.0, kNaN, kNaN, 6.0};
  for (ValueCodec codec : {ValueCodec::kRaw, ValueCodec::kXor}) {
    std::vector<double> out = Decoded(v, Forced(codec));
    ASSERT_EQ(out.size(), v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      if (std::isnan(v[i])) {
        EXPECT_TRUE(std::isnan(out[i])) << i;
      } else {
        EXPECT_EQ(out[i], v[i]) << i;
      }
    }
  }
}

TEST(CompressionTest, AllMissingColumn) {
  std::vector<double> v(10, kNaN);
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kXor));
  for (double x : out) EXPECT_TRUE(std::isnan(x));
}

TEST(CompressionTest, QuantizedRespectsErrorBound) {
  Random rng(9);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.UniformDouble(-50, 50));
  const double e = 0.25;
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kQuantized, e));
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(std::fabs(out[i] - v[i]), e + 1e-9) << i;
  }
}

TEST(CompressionTest, QuantizedCompresses) {
  Random rng(10);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.UniformDouble(0, 10));
  std::string buf;
  ASSERT_TRUE(EncodeColumn(v.data(), v.size(),
                           Forced(ValueCodec::kQuantized, 0.05), &buf)
                  .ok());
  // 10/0.1 = 100 levels -> 7 bits/value vs 64 raw.
  EXPECT_LT(buf.size(), 1000 * 2);
  EXPECT_GT(8000.0 / buf.size(), 4.0);  // Paper: 4-16x for quantization.
}

TEST(CompressionTest, QuantizedHugeRangeFallsBackLosslessly) {
  std::vector<double> v = {0.0, 1e18, -1e18, 5.0};
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kQuantized, 1e-6));
  EXPECT_EQ(out, v);  // Fallback to XOR is lossless.
}

TEST(CompressionTest, LinearRespectsErrorBoundOnSmoothSignal) {
  std::vector<double> v;
  for (int i = 0; i < 2000; ++i) {
    v.push_back(20 + 5 * std::sin(i * 0.01));
  }
  const double e = 0.1;
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kLinear, e));
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(std::fabs(out[i] - v[i]), e + 1e-9) << i;
  }
  // And it should compress drastically (paper: linear for smooth signals).
  std::string buf;
  ASSERT_TRUE(EncodeColumn(v.data(), v.size(), Forced(ValueCodec::kLinear, e),
                           &buf)
                  .ok());
  EXPECT_GT(static_cast<double>(v.size() * 8) / buf.size(), 10.0);
}

TEST(CompressionTest, LinearExactOnStraightLine) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(3.0 + 0.5 * i);
  std::string buf;
  ASSERT_TRUE(EncodeColumn(v.data(), v.size(), Forced(ValueCodec::kLinear, 0.01),
                           &buf)
                  .ok());
  // A line needs only two pivots.
  EXPECT_LT(buf.size(), 64u);
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kLinear, 0.01));
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(out[i], v[i], 0.01) << i;
  }
}

TEST(CompressionTest, LinearSinglePoint) {
  std::vector<double> v = {7.5};
  std::vector<double> out = Decoded(v, Forced(ValueCodec::kLinear, 0.1));
  EXPECT_NEAR(out[0], 7.5, 0.1);
}

TEST(CompressionTest, LossyCodecWithoutBoundRejected) {
  std::vector<double> v = {1, 2, 3};
  std::string buf;
  EXPECT_TRUE(EncodeColumn(v.data(), v.size(), Forced(ValueCodec::kLinear, 0),
                           &buf)
                  .IsInvalidArgument());
}

TEST(CompressionTest, SelectorPrefersLinearForSmooth) {
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(100 + 0.01 * i);
  CompressionSpec spec;
  spec.max_error = 0.1;
  EXPECT_EQ(SelectCodec(v.data(), v.size(), spec), ValueCodec::kLinear);
}

TEST(CompressionTest, SelectorPrefersQuantizedForNoisy) {
  Random rng(4);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.UniformDouble(0, 100));
  CompressionSpec spec;
  spec.max_error = 0.5;
  EXPECT_EQ(SelectCodec(v.data(), v.size(), spec), ValueCodec::kQuantized);
}

TEST(CompressionTest, SelectorLosslessUsesXor) {
  std::vector<double> v(100, 1.0);
  CompressionSpec spec;  // max_error = 0.
  EXPECT_EQ(SelectCodec(v.data(), v.size(), spec), ValueCodec::kXor);
}

TEST(CompressionTest, SelectorTinyBlocksUseRaw) {
  std::vector<double> v = {1.0, 2.0};
  CompressionSpec spec;
  spec.max_error = 0.5;
  EXPECT_EQ(SelectCodec(v.data(), v.size(), spec), ValueCodec::kRaw);
}

TEST(CompressionTest, TimestampRoundTripRegularAndJittered) {
  Random rng(11);
  std::vector<Timestamp> ts;
  Timestamp t = 1700000000000000;
  for (int i = 0; i < 300; ++i) {
    t += 40000 + (rng.Uniform(3) == 0 ? rng.UniformRange(-5, 5) : 0);
    ts.push_back(t);
  }
  std::string buf;
  EncodeTimestamps(ts.data(), ts.size(), ts[0], &buf);
  // Delta-of-delta: mostly zero after the first two -> ~1 byte/point.
  EXPECT_LT(buf.size(), ts.size() * 3);
  Slice in(buf);
  std::vector<Timestamp> out;
  ASSERT_TRUE(DecodeTimestamps(&in, ts.size(), ts[0], &out).ok());
  EXPECT_EQ(out, ts);
}

// Property sweep: every codec respects its contract on random inputs.
struct CodecParam {
  ValueCodec codec;
  double max_error;
  uint64_t seed;
};

class CodecPropertyTest : public ::testing::TestWithParam<CodecParam> {};

TEST_P(CodecPropertyTest, ContractHolds) {
  const CodecParam param = GetParam();
  Random rng(param.seed);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 1 + rng.Uniform(400);
    std::vector<double> v;
    double walk = rng.UniformDouble(-100, 100);
    for (size_t i = 0; i < n; ++i) {
      if (rng.OneIn(8)) {
        v.push_back(kNaN);
        continue;
      }
      walk += rng.NextGaussian();
      v.push_back(walk);
    }
    std::string buf;
    ASSERT_TRUE(EncodeColumn(v.data(), n,
                             Forced(param.codec, param.max_error), &buf)
                    .ok());
    std::vector<double> out;
    ASSERT_TRUE(DecodeColumn(Slice(buf), n, &out).ok());
    ASSERT_EQ(out.size(), n);
    for (size_t i = 0; i < n; ++i) {
      if (std::isnan(v[i])) {
        EXPECT_TRUE(std::isnan(out[i]));
        continue;
      }
      if (param.max_error == 0) {
        EXPECT_EQ(out[i], v[i]) << trial << ":" << i;
      } else {
        EXPECT_LE(std::fabs(out[i] - v[i]), param.max_error + 1e-9)
            << trial << ":" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, CodecPropertyTest,
    ::testing::Values(CodecParam{ValueCodec::kRaw, 0, 1},
                      CodecParam{ValueCodec::kXor, 0, 2},
                      CodecParam{ValueCodec::kLinear, 0.5, 3},
                      CodecParam{ValueCodec::kLinear, 0.01, 4},
                      CodecParam{ValueCodec::kQuantized, 0.5, 5},
                      CodecParam{ValueCodec::kQuantized, 0.05, 6}));

// Golden bytes: the encodings below were produced by the bit-at-a-time
// BitWriter that preceded the word-at-a-time one. The on-disk format must
// not move, so today's encoders must reproduce them exactly and today's
// decoders must read them back.

std::string FromHex(const char* hex) {
  auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string out;
  for (size_t i = 0; hex[i] != '\0' && hex[i + 1] != '\0'; i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

std::vector<double> GoldenXorInput() {
  return {20.0,      20.0,      20.5,      21.25, 21.25, -3.75, 1e-300,
          1e300,     20.5,      0.1,       0.2,   0.30000000000000004,
          0.3,       -0.0,      0.0,       1234.5678, 1234.5679,
          1234.5679, 42.0,      42.0,      42.0,  7.0,   -7.0,
          3.141592653589793};
}

/// Inputs whose quantized code width (max error 0.5) is 1, 7 or 20 bits.
std::vector<double> GoldenQuantInput(int width) {
  std::vector<double> v;
  if (width == 1) {
    for (int i = 0; i < 10; ++i) v.push_back(5.0 + 0.04 * (i % 3));
  } else if (width == 7) {
    for (int i = 0; i < 13; ++i) v.push_back(-50.0 + (i * 37) % 101);
    v.push_back(50.0);
  } else {
    for (int i = 0; i < 11; ++i) v.push_back(1000.0 + (i * 104729) % 600001);
    v.push_back(601000.0);
  }
  return v;
}

std::vector<double> GoldenSparseInput() {
  std::vector<double> v;
  for (int i = 0; i < 19; ++i) {
    v.push_back(i % 3 == 1 || i == 17 ? kNaN : 100.0 + 0.5 * i * i);
  }
  return v;
}

SeriesBatch GoldenIrtsInput() {
  SeriesBatch b;
  b.id = 7;
  b.columns.resize(2);
  Timestamp t = 1700000000000000;
  for (int i = 0; i < 40; ++i) {
    t += 20000 + (i % 7) * 3 - (i % 4 == 0 ? 150 : 0);
    b.timestamps.push_back(t);
    b.columns[0].push_back(230.0 + 0.125 * ((i * 13) % 9));
    b.columns[1].push_back(i % 5 == 2 ? kNaN : 49.98 + 0.01 * (i % 4));
  }
  return b;
}

/// Encodes `values` and checks the bytes against `golden_hex`, then decodes
/// the golden bytes and checks every value within the spec's error bound
/// (bit-exact when lossless) and every NaN in place.
void ExpectGoldenColumn(const std::vector<double>& values,
                        const CompressionSpec& spec, const char* golden_hex) {
  const std::string golden = FromHex(golden_hex);
  std::string encoded;
  ASSERT_TRUE(EncodeColumn(values.data(), values.size(), spec, &encoded).ok());
  EXPECT_EQ(encoded, golden);
  std::vector<double> out;
  ASSERT_TRUE(DecodeColumn(Slice(golden), values.size(), &out).ok());
  ASSERT_EQ(out.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) {
      EXPECT_TRUE(std::isnan(out[i])) << i;
    } else if (spec.max_error == 0) {
      EXPECT_EQ(std::memcmp(&out[i], &values[i], 8), 0) << i;
    } else {
      EXPECT_LE(std::fabs(out[i] - values[i]), spec.max_error + 1e-9) << i;
    }
  }
}

TEST(GoldenBytesTest, Xor) {
  ExpectGoldenColumn(GoldenXorInput(), Forced(ValueCodec::kXor),
    "01ffffff403400000000000050033c2e808c01db03fc1ab6e1fc2f8f35983f7f"
    "928a234af886c585dfc06c8791000eb3c1f7fc68ccccccccccd9217979eaaaaa"
    "aaaaaabfd0bc0feff4cccccccccccce00183f40934a456d5cfaadc0ff567939a"
    "a469ac948b0f27bb3248d6600181e400a90fdaa22168c0");
}

TEST(GoldenBytesTest, QuantizedWidth1) {
  ExpectGoldenColumn(GoldenQuantInput(1), Forced(ValueCodec::kQuantized, 0.5),
    "03ff030000000000001440000000000000f03f010000");
}

TEST(GoldenBytesTest, QuantizedWidth7) {
  ExpectGoldenColumn(GoldenQuantInput(7), Forced(ValueCodec::kQuantized, 0.5),
    "03ff3f00000000000049c0000000000000f03f07009650a5f50a39bc7a183519"
    "00");
}

TEST(GoldenBytesTest, QuantizedWidth20) {
  ExpectGoldenColumn(GoldenQuantInput(20), Forced(ValueCodec::kQuantized, 0.5),
    "03ff0f0000000000408f40000000000000f03f140000019919332324cb4b6646"
    "47fd7d06ed5207ee3a10753a206d339927c0");
}

TEST(GoldenBytesTest, SparseBitmap) {
  ExpectGoldenColumn(GoldenSparseInput(), Forced(ValueCodec::kXor),
    "016ddb044059000000000000a006709d9a0f3c3d942fb3c48cd0ee7899982eb3"
    "8596591af0");
}

TEST(GoldenBytesTest, IrtsBlob) {
  const std::string golden = FromHex(
    "2800c6b8020606a502b2020623a502b2020606a502b2022306a502b2020606a5"
    "0288020606a502b2020606cf02b2020606a502b2020623a502b20206060258f1"
    "0101ffffffffff406cc00000000000a606903d20ee981a615a606985e981a615"
    "a606903d20ee981a615a606985e981a615a606903d20ee981a615a606985e981"
    "a615a606903d20ee981a615a606985e981a615a606903d20ec017befbdf7de40"
    "48fd70a3d70a3dad4f91e4791e473f0ffffffffffffcfbbf86e1b86e1bd6a7c8"
    "f23c8f239f7ffae147ae147cfc3fae147ae147b5a9f23c8f23c8e7dffeb851eb"
    "851f5e8a3d70a3d70cfc3ffffffffffff3efff5c28f5c28faf451eb851eb867d"
    "dfc370dc370de7e1fd70a3d70a3daf451eb851eb867ddfc370dc370deb53e479"
    "1e4791cfc3ffffffffffff3eefe1b86e1b86f5a9f23c8f23c8e7dffeb851eb85"
    "1f3f0feb851eb851ed6a7c8f23c8f239f7ffae147ae147d7a28f5c28f5c33f0f"
    "fffffffffffcfbffd70a3d70a3ebd147ae147ae19f77f0dc370dc379f87f5c28"
    "f5c28f6bd147ae147ae1");
  const SeriesBatch batch = GoldenIrtsInput();
  ValueBlobCodec codec{CompressionSpec{}};
  std::string encoded;
  ASSERT_TRUE(codec.EncodeIrts(batch, &encoded).ok());
  EXPECT_EQ(encoded, golden);
  SeriesBatch out;
  ASSERT_TRUE(codec
                  .DecodeIrts(Slice(golden), batch.id, batch.timestamps[0], {},
                              2, &out)
                  .ok());
  EXPECT_EQ(out.timestamps, batch.timestamps);
  ASSERT_EQ(out.columns.size(), 2u);
  for (int t = 0; t < 2; ++t) {
    ASSERT_EQ(out.columns[t].size(), batch.timestamps.size());
    for (size_t i = 0; i < batch.timestamps.size(); ++i) {
      const double want = batch.columns[t][i];
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(out.columns[t][i])) << t << ":" << i;
      } else {
        EXPECT_EQ(out.columns[t][i], want) << t << ":" << i;
      }
    }
  }
}

TEST(CompressionTest, TimestampOverflowWrapsInsteadOfUndefined) {
  // Corrupt IRTS input whose delta-of-delta sums leave int64: the decoder
  // must wrap modulo 2^64 (well defined), not overflow a signed
  // accumulator.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::string stream;
  PutVarintSigned64(&stream, kMax);
  PutVarintSigned64(&stream, kMax);
  PutVarintSigned64(&stream, std::numeric_limits<int64_t>::min());
  Slice in(stream);
  std::vector<Timestamp> ts;
  ASSERT_TRUE(DecodeTimestamps(&in, 3, 0, &ts).ok());
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0], kMax);
  // Delta max + max wraps to -2.
  EXPECT_EQ(ts[1], kMax - 2);
  // Delta -2 + min wraps to max - 1; (max - 2) + (max - 1) wraps to -5.
  EXPECT_EQ(ts[2], -5);
}


TEST(CompressionTest, CorruptInputFailsCleanly) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  std::string buf;
  ASSERT_TRUE(
      EncodeColumn(v.data(), v.size(), Forced(ValueCodec::kXor), &buf).ok());
  std::vector<double> out;
  EXPECT_FALSE(DecodeColumn(Slice(buf.data(), 1), v.size(), &out).ok());
  EXPECT_FALSE(DecodeColumn(Slice("", 0), v.size(), &out).ok());
}

}  // namespace
}  // namespace odh::core
