#pragma once

#include <cstddef>
#include <cstdint>

namespace relcomp {

/// \brief CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the
/// block-checksum primitive of the persistence tier (src/persist/).
///
/// Chosen over plain CRC32 for its better error-detection properties on
/// storage payloads and its hardware support. On x86-64 the SSE4.2 crc32
/// instructions are used when the CPU reports them at run time, whatever
/// flags the build passed; elsewhere the software slicing-by-8 path runs.
/// Both compute bit-identical values. Crc32c("123456789") == 0xE3069283.
///
/// `crc` chains partial computations: Crc32c(b, nb, Crc32c(a, na)) equals
/// Crc32c over the concatenation of a and b. Pass 0 to start a new sum.
uint32_t Crc32c(const void* data, size_t size, uint32_t crc = 0);

/// The software path alone, whatever the CPU supports — the reference the
/// dispatched Crc32c is tested against.
uint32_t Crc32cSoftware(const void* data, size_t size, uint32_t crc = 0);

}  // namespace relcomp
