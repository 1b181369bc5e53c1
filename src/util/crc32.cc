#include "src/util/crc32.h"

#include <array>
#include <cstddef>

namespace pileus {

namespace {

// Slicing-by-8: kTables[0] is the classic bytewise table for the reflected
// polynomial 0xedb88320; kTables[k][b] is the CRC of byte b followed by k
// zero bytes, so eight table lookups fold eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

// Built at compile time: the hot path has no initialisation guard.
constexpr Tables kTables = BuildTables();

uint32_t LoadLittleEndian32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = seed ^ 0xffffffffu;
  while (n >= 8) {
    const uint32_t lo = LoadLittleEndian32(p) ^ crc;
    const uint32_t hi = LoadLittleEndian32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace pileus
