#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace wfit {
namespace {

/// The byte-at-a-time CRC-32/IEEE loop the sliced kernel replaced, kept
/// as the reference it must match.
uint32_t OracleCrc32Update(uint32_t crc, const unsigned char* p, size_t len) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(Crc32Test, KnownVectors) {
  // The canonical check value for CRC-32/IEEE.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc"), 0x352441C2u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "write-ahead journals need torn-tail detection";
  uint32_t one_shot = Crc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32Update(0, data.data(), split);
    crc = Crc32Update(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, one_shot) << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data = "snapshot payload";
  const uint32_t clean = Crc32(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = data;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      EXPECT_NE(Crc32(corrupt), clean);
    }
  }
}

// Every length up to a little past 1 KB, from every start offset within
// an 8-byte block: covers the sliced loop's block count, its byte tail,
// and unaligned loads.
TEST(Crc32Test, SlicedKernelMatchesByteLoopOracle) {
  constexpr size_t kMaxLen = 1100;
  const std::vector<unsigned char> buf = RandomBytes(kMaxLen + 8, 7);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(Crc32(p, len), OracleCrc32Update(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

// Incremental updates split inside an 8-byte block and across block
// boundaries, resuming from a nonzero running CRC.
TEST(Crc32Test, IncrementalSplitsMatchOracle) {
  const std::vector<unsigned char> buf = RandomBytes(300, 11);
  const uint32_t whole = OracleCrc32Update(0, buf.data(), buf.size());
  for (size_t first = 0; first <= 40; ++first) {
    for (size_t second = 0; second <= 40; ++second) {
      uint32_t crc = Crc32Update(0, buf.data(), first);
      crc = Crc32Update(crc, buf.data() + first, second);
      ASSERT_EQ(crc, OracleCrc32Update(0, buf.data(), first + second))
          << "split " << first << "+" << second;
      crc = Crc32Update(crc, buf.data() + first + second,
                        buf.size() - first - second);
      ASSERT_EQ(crc, whole) << "split " << first << "+" << second;
    }
  }
}

}  // namespace
}  // namespace wfit
