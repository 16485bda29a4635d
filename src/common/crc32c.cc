#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RELCOMP_CRC32C_X86_DISPATCH 1
#include <nmmintrin.h>
#endif

namespace relcomp {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // CRC32C, reflected

/// Slicing-by-8 lookup tables, generated once at first use.
struct Crc32cTables {
  uint32_t t[8][256];

  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (kPoly & (0u - (crc & 1u)));
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables* tables = new Crc32cTables();
  return *tables;
}

uint32_t SoftwareCrc32c(const uint8_t* p, size_t size, uint32_t crc) {
  const Crc32cTables& tables = Tables();
  // Process 8 bytes per step (slicing-by-8), then the byte tail.
  while (size >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, sizeof(chunk));
    chunk ^= crc;  // little-endian hosts: low 4 bytes absorb the crc
    crc = tables.t[7][chunk & 0xFF] ^ tables.t[6][(chunk >> 8) & 0xFF] ^
          tables.t[5][(chunk >> 16) & 0xFF] ^ tables.t[4][(chunk >> 24) & 0xFF] ^
          tables.t[3][(chunk >> 32) & 0xFF] ^ tables.t[2][(chunk >> 40) & 0xFF] ^
          tables.t[1][(chunk >> 48) & 0xFF] ^ tables.t[0][(chunk >> 56) & 0xFF];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ tables.t[0][(crc ^ *p++) & 0xFFu];
  }
  return crc;
}

#ifdef RELCOMP_CRC32C_X86_DISPATCH
// Compiled for SSE4.2 whatever the build's -m flags, and called only after
// the CPU has been checked for it at run time.
__attribute__((target("sse4.2"))) uint32_t HardwareCrc32c(const uint8_t* p,
                                                          size_t size,
                                                          uint32_t crc) {
  uint64_t crc64 = crc;
  while (size >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, sizeof(chunk));
    crc64 = _mm_crc32_u64(crc64, chunk);
    p += 8;
    size -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (size-- > 0) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  return crc;
}

bool CpuHasSse42() {
  // __builtin_cpu_init makes the check valid even when the first checksum
  // runs inside another static initializer.
  static const bool has = (__builtin_cpu_init(),
                           __builtin_cpu_supports("sse4.2") != 0);
  return has;
}
#endif

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t crc) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
#ifdef RELCOMP_CRC32C_X86_DISPATCH
  if (CpuHasSse42()) return ~HardwareCrc32c(p, size, ~crc);
#endif
  return ~SoftwareCrc32c(p, size, ~crc);
}

uint32_t Crc32cSoftware(const void* data, size_t size, uint32_t crc) {
  return ~SoftwareCrc32c(static_cast<const uint8_t*>(data), size, ~crc);
}

}  // namespace relcomp
