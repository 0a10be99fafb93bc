// An open-addressing index from keys to slot numbers, for tables that keep
// their keys in their own slots: the buffer cache's frames and FlatLru's
// entries (src/util/flat_lru.h).
//
// The cells are a power-of-two array probed linearly from the top bits of a
// 32-bit hash (Fibonacci hashing). Each cell holds a slot number and its
// key's hash, so a probe asks the caller to compare keys only on a full hash
// match, and growing never reads a key. Erase shifts the rest of the probe
// run back into the hole instead of leaving a tombstone, so every probe ends
// at the first empty cell. The array starts empty and doubles to stay at
// most half full.
#ifndef CFFS_UTIL_SLOT_INDEX_H_
#define CFFS_UTIL_SLOT_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cffs {

class SlotIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // 32 well-mixed bits of a key or a 64-bit hash (golden-ratio multiply).
  static uint32_t Mix(uint64_t x) {
    return static_cast<uint32_t>((x * 0x9e3779b97f4a7c15ULL) >> 32);
  }

  size_t size() const { return size_; }

  // The slot stored under `hash` for which `eq(slot)` holds, or kNone.
  template <typename Eq>
  uint32_t Find(uint32_t hash, Eq&& eq) const {
    if (size_ == 0) return kNone;
    for (size_t i = Home(hash);; i = (i + 1) & mask_) {
      const Cell& c = cells_[i];
      if (c.slot == kNone) return kNone;
      if (c.hash == hash && eq(c.slot)) return c.slot;
    }
  }

  // Indexes `slot` under `hash`. The slot's key must not be indexed yet.
  void Insert(uint32_t hash, uint32_t slot) {
    if (2 * (size_ + 1) > cells_.size()) Grow();
    Place(Cell{hash, slot});
    ++size_;
  }

  // Removes `slot`, which must be indexed under `hash`.
  void Erase(uint32_t hash, uint32_t slot) {
    size_t hole = Home(hash);
    while (cells_[hole].slot != slot) hole = (hole + 1) & mask_;
    for (size_t i = (hole + 1) & mask_; cells_[i].slot != kNone;
         i = (i + 1) & mask_) {
      // The cell at i may move back into the hole unless its home lies
      // cyclically in (hole, i], where a probe for it would miss the hole.
      if (((i - Home(cells_[i].hash)) & mask_) >= ((i - hole) & mask_)) {
        cells_[hole] = cells_[i];
        hole = i;
      }
    }
    cells_[hole] = Cell{};
    --size_;
  }

  void Clear() {
    cells_.assign(cells_.size(), Cell{});
    size_ = 0;
  }

 private:
  struct Cell {
    uint32_t hash = 0;
    uint32_t slot = kNone;
  };

  size_t Home(uint32_t hash) const {
    return static_cast<size_t>(hash) >> shift_;
  }

  void Place(Cell cell) {
    size_t i = Home(cell.hash);
    while (cells_[i].slot != kNone) i = (i + 1) & mask_;
    cells_[i] = cell;
  }

  void Grow() {
    std::vector<Cell> old = std::exchange(cells_, {});
    const size_t n = old.empty() ? 16 : 2 * old.size();
    cells_.resize(n);
    mask_ = n - 1;
    shift_ = 32 - std::countr_zero(n);
    for (const Cell& c : old) {
      if (c.slot != kNone) Place(c);
    }
  }

  std::vector<Cell> cells_;
  size_t mask_ = 0;
  int shift_ = 32;  // 32 - log2(cells_.size())
  size_t size_ = 0;
};

}  // namespace cffs

#endif  // CFFS_UTIL_SLOT_INDEX_H_
