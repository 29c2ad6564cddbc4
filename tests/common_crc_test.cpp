#include "pax/common/crc.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace pax {
namespace {

std::uint32_t crc_of(const std::string& s) {
  return crc32c(s.data(), s.size());
}

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vectors (RFC 3720 appendix / common usage).
  EXPECT_EQ(crc_of(""), 0x00000000u);
  EXPECT_EQ(crc_of("a"), 0xc1d04330u);
  EXPECT_EQ(crc_of("abc"), 0x364b3fb7u);
  EXPECT_EQ(crc_of("123456789"), 0xe3069283u);
}

TEST(Crc32cTest, AllZeros32Bytes) {
  std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
}

TEST(Crc32cTest, ChainingMatchesOneShot) {
  const std::string s = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= s.size(); ++split) {
    std::uint32_t part = crc32c(s.data(), split);
    std::uint32_t full = crc32c(s.data() + split, s.size() - split, part);
    EXPECT_EQ(full, crc_of(s)) << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToEveryByte) {
  std::vector<std::byte> buf(100, std::byte{0x5a});
  const std::uint32_t base = crc32c(buf);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    auto copy = buf;
    copy[i] = std::byte{0x5b};
    EXPECT_NE(crc32c(copy), base) << "flip at " << i;
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  for (std::uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu, 0xe3069283u}) {
    EXPECT_EQ(unmask_crc(mask_crc(crc)), crc);
    EXPECT_NE(mask_crc(crc), crc);  // masking must actually change the value
  }
}

TEST(Crc32cTest, UnalignedInputsAgree) {
  // The slice-by-8 fast path must agree with the byte-at-a-time tail for
  // every alignment and length.
  std::vector<std::byte> buf(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 17 + 3);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len + start <= buf.size(); ++len) {
      std::uint32_t fast = crc32c(buf.data() + start, len);
      // Reference: chain one byte at a time.
      std::uint32_t slow = 0;
      for (std::size_t i = 0; i < len; ++i) {
        slow = crc32c(buf.data() + start + i, 1, slow);
      }
      ASSERT_EQ(fast, slow) << "start=" << start << " len=" << len;
    }
  }
}

TEST(Crc32cTest, HardwareAndSoftwareAgree) {
  // Both implementations, called directly: every length 0-300 at all 8
  // start alignments, each chained from the previous result as its seed.
  const crc_internal::Crc32cFn hw = crc_internal::crc32c_hardware();
  if (hw == nullptr) GTEST_SKIP() << "CPU has no crc32 instruction";
  std::vector<unsigned char> buf(300 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131 + (i >> 3) * 7 + 5);
  }
  std::uint32_t seed = 0;
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint32_t soft =
          crc_internal::crc32c_slice8(buf.data() + start, len, seed);
      ASSERT_EQ(hw(buf.data() + start, len, seed), soft)
          << "start=" << start << " len=" << len << " seed=" << seed;
      seed = soft;
    }
  }
  const char* digits = "123456789";
  EXPECT_EQ(hw(digits, 9, 0), 0xe3069283u);
  EXPECT_EQ(crc_internal::crc32c_slice8(digits, 9, 0), 0xe3069283u);
}

}  // namespace
}  // namespace pax
