#include "storage/checksum.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/random.h"

namespace odh::storage {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / the classic CRC32C check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 bytes of zeros (iSCSI test vector).
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::string ffs(32, '\xff');
  EXPECT_EQ(Crc32c(ffs.data(), ffs.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t partial = ExtendCrc32c(0, data.data(), split);
    uint32_t rest =
        ExtendCrc32c(partial, data.data() + split, data.size() - split);
    EXPECT_EQ(rest, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToSingleBitFlips) {
  std::string data(4096, 'p');
  uint32_t base = Crc32c(data.data(), data.size());
  for (size_t pos : {size_t{0}, size_t{1}, size_t{2047}, size_t{4095}}) {
    std::string mutated = data;
    mutated[pos] ^= 0x01;
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), base) << pos;
  }
}

TEST(Crc32cTest, UnalignedStarts) {
  // The slicing-by-8 loop reads words; make sure odd offsets agree with a
  // byte-by-byte reference via the Extend identity.
  std::string data = "0123456789abcdefghijklmnopqrstuvwxyz";
  for (size_t off = 0; off < 8; ++off) {
    uint32_t direct = Crc32c(data.data() + off, data.size() - off);
    uint32_t extended = ExtendCrc32c(0, data.data() + off, data.size() - off);
    EXPECT_EQ(direct, extended);
  }
}

TEST(Crc32cTest, PortableMatchesKnownVectors) {
  EXPECT_EQ(ExtendCrc32cPortable(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(ExtendCrc32cPortable(0, "", 0), 0u);
  std::string zeros(32, '\0');
  EXPECT_EQ(ExtendCrc32cPortable(0, zeros.data(), zeros.size()), 0x8A9136AAu);
  std::string ffs(32, '\xff');
  EXPECT_EQ(ExtendCrc32cPortable(0, ffs.data(), ffs.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, DispatchedPathMatchesPortable) {
  // ExtendCrc32c takes the SSE4.2 path on CPUs that have it; it must
  // agree with the slicing-by-8 reference on every length (word loop and
  // byte tail), every start alignment and every seed CRC.
  Random rng(42);
  std::string data(4100 + 8, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t offset = rng.Uniform(8);
    const size_t n = rng.Uniform(4101);
    const uint32_t seed =
        trial % 2 == 0 ? 0 : static_cast<uint32_t>(rng.Next());
    const char* p = data.data() + offset;
    ASSERT_EQ(ExtendCrc32c(seed, p, n), ExtendCrc32cPortable(seed, p, n))
        << "offset " << offset << " length " << n << " seed " << seed;
  }
  for (size_t n = 0; n <= 64; ++n) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const char* p = data.data() + offset;
      ASSERT_EQ(ExtendCrc32c(0, p, n), ExtendCrc32cPortable(0, p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(IsZeroFilledTest, Basics) {
  std::string zeros(4096, '\0');
  EXPECT_TRUE(IsZeroFilled(zeros.data(), zeros.size()));
  EXPECT_TRUE(IsZeroFilled(zeros.data(), 0));
  for (size_t pos : {size_t{0}, size_t{5}, size_t{4095}}) {
    std::string mutated = zeros;
    mutated[pos] = 1;
    EXPECT_FALSE(IsZeroFilled(mutated.data(), mutated.size())) << pos;
  }
  // Odd lengths exercise the byte tail.
  EXPECT_TRUE(IsZeroFilled(zeros.data(), 13));
}

}  // namespace
}  // namespace odh::storage
