// Bit-vector helpers over raw block buffers (allocation bitmaps).
#ifndef CFFS_FS_COMMON_BITMAP_H_
#define CFFS_FS_COMMON_BITMAP_H_

#include <cstdint>
#include <optional>
#include <span>

namespace cffs::fs {

inline bool BitGet(std::span<const uint8_t> buf, uint32_t bit) {
  return (buf[bit >> 3] >> (bit & 7)) & 1;
}

inline void BitSet(std::span<uint8_t> buf, uint32_t bit) {
  buf[bit >> 3] = static_cast<uint8_t>(buf[bit >> 3] | (1u << (bit & 7)));
}

inline void BitClear(std::span<uint8_t> buf, uint32_t bit) {
  buf[bit >> 3] = static_cast<uint8_t>(buf[bit >> 3] & ~(1u << (bit & 7)));
}

// First clear bit in [from, limit), scanning with wrap-around from `from`
// back through [0, from). nullopt if all set.
std::optional<uint32_t> FindClearBit(std::span<const uint8_t> buf,
                                     uint32_t limit, uint32_t from);

// Number of set bits in [0, limit).
uint32_t CountSetBits(std::span<const uint8_t> buf, uint32_t limit);

}  // namespace cffs::fs

#endif  // CFFS_FS_COMMON_BITMAP_H_
