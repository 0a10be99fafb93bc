#include "src/fs/common/bitmap.h"

namespace cffs::fs {

std::optional<uint32_t> FindClearBit(std::span<const uint8_t> buf,
                                     uint32_t limit, uint32_t from) {
  if (limit == 0) return std::nullopt;
  if (from >= limit) from = 0;
  for (uint32_t n = 0; n < limit; ++n) {
    const uint32_t bit = (from + n) % limit;
    if (!BitGet(buf, bit)) return bit;
  }
  return std::nullopt;
}

uint32_t CountSetBits(std::span<const uint8_t> buf, uint32_t limit) {
  uint32_t count = 0;
  uint32_t full_bytes = limit / 8;
  for (uint32_t i = 0; i < full_bytes; ++i) {
    count += static_cast<uint32_t>(__builtin_popcount(buf[i]));
  }
  for (uint32_t bit = full_bytes * 8; bit < limit; ++bit) {
    if (BitGet(buf, bit)) ++count;
  }
  return count;
}

}  // namespace cffs::fs
