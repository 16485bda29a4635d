#include "common/crc32c.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace relcomp {
namespace {

TEST(Crc32c, MatchesRfc3720CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32c(check, std::strlen(check)), 0xE3069283u);
  EXPECT_EQ(Crc32cSoftware(check, std::strlen(check)), 0xE3069283u);
}

TEST(Crc32c, EmptyInputLeavesSeedUnchanged) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32c(nullptr, 0, 0x12345678u), 0x12345678u);
}

TEST(Crc32c, ChainingEqualsOneShot) {
  std::vector<uint8_t> bytes(1000);
  Rng rng(7);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  const uint32_t whole = Crc32c(bytes.data(), bytes.size());
  for (const size_t split : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u}) {
    SCOPED_TRACE(split);
    const uint32_t head = Crc32c(bytes.data(), split);
    EXPECT_EQ(Crc32c(bytes.data() + split, bytes.size() - split, head), whole);
    const uint32_t soft_head = Crc32cSoftware(bytes.data(), split);
    EXPECT_EQ(Crc32cSoftware(bytes.data() + split, bytes.size() - split,
                             soft_head),
              whole);
  }
}

TEST(Crc32c, DispatchedMatchesSoftwareAtEveryLengthAndAlignment) {
  // Covers the 8-byte main loop, the byte tail, and unaligned starts of the
  // hardware path (when the CPU has one) against the portable tables.
  std::vector<uint8_t> bytes(4096 + 8);
  Rng rng(11);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 4096;
         length += (length < 80 ? 1 : 37)) {
      const uint8_t* p = bytes.data() + offset;
      const uint32_t seed = static_cast<uint32_t>(rng.NextU64());
      ASSERT_EQ(Crc32c(p, length), Crc32cSoftware(p, length))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(Crc32c(p, length, seed), Crc32cSoftware(p, length, seed))
          << "offset " << offset << " length " << length;
    }
    const uint8_t* p = bytes.data() + offset;
    ASSERT_EQ(Crc32c(p, 4096), Crc32cSoftware(p, 4096)) << offset;
  }
}

}  // namespace
}  // namespace relcomp
