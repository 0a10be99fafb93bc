// A bounded map with least-recently-used eviction, kept in flat storage:
// the entries live in one slot vector, a SlotIndex finds them by key, and a
// doubly linked recency list runs through the slots by index. The vector
// grows on demand up to the capacity (constructing the table allocates
// nothing) and erased slots are reused, so a warm table allocates only
// what its keys and values themselves allocate.
//
// Lookup and Put make their entry the most recent. Peek, Erase and EraseIf
// change no other entry's recency. A Put of a new key into a full table
// first evicts the least recent entry. At capacity 0 nothing is stored.
//
// Every call takes its key as a View, which Hash hashes and which compares
// equal (==) to a stored Key; Put stores Key(view). View defaults to Key,
// and a table keyed by an owning string can take a string_view instead, so
// a probe builds no string. Hash returns 64 bits, of which SlotIndex::Mix
// keeps 32.
//
// A returned Value* stays valid until the next Put, Erase, EraseIf or
// Clear.
#ifndef CFFS_UTIL_FLAT_LRU_H_
#define CFFS_UTIL_FLAT_LRU_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/slot_index.h"

namespace cffs {

template <typename Key, typename Value, typename Hash, typename View = Key>
class FlatLru {
 public:
  explicit FlatLru(size_t capacity) : capacity_(capacity) {}

  size_t size() const { return index_.size(); }

  // The value under `key` (now the most recent entry), or nullptr.
  Value* Lookup(const View& key) {
    const uint32_t s = Locate(HashOf(key), key);
    if (s == kNil) return nullptr;
    MoveToFront(s);
    return &slots_[s].value;
  }

  // The value under `key`, or nullptr; recency is left alone.
  Value* Peek(const View& key) {
    const uint32_t s = Locate(HashOf(key), key);
    return s == kNil ? nullptr : &slots_[s].value;
  }

  // Stores `value` under `key` as the most recent entry and returns it.
  Value* Put(const View& key, Value value) {
    if (capacity_ == 0) return nullptr;
    const uint32_t hash = HashOf(key);
    uint32_t s = Locate(hash, key);
    if (s == kNil) {
      if (size() >= capacity_) Remove(tail_);
      s = TakeSlot();
      slots_[s].key = Key(key);
      slots_[s].hash = hash;
      index_.Insert(hash, s);
      Link(s);
    } else {
      MoveToFront(s);
    }
    slots_[s].value = std::move(value);
    return &slots_[s].value;
  }

  void Erase(const View& key) {
    const uint32_t s = Locate(HashOf(key), key);
    if (s != kNil) Remove(s);
  }

  // Erases every entry whose key satisfies `pred`.
  template <typename Pred>
  void EraseIf(Pred pred) {
    for (uint32_t s = head_; s != kNil;) {
      const uint32_t next = slots_[s].next;
      if (pred(std::as_const(slots_[s].key))) Remove(s);
      s = next;
    }
  }

  void Clear() {
    slots_.clear();
    index_.Clear();
    head_ = tail_ = free_ = kNil;
  }

 private:
  static constexpr uint32_t kNil = SlotIndex::kNone;

  struct Slot {
    Key key{};
    Value value{};
    uint32_t hash = 0;
    uint32_t prev = kNil;  // toward the most recent; free slots: unused
    uint32_t next = kNil;  // toward the least recent; free slots: free list
  };

  static uint32_t HashOf(const View& key) {
    return SlotIndex::Mix(Hash{}(key));
  }

  uint32_t Locate(uint32_t hash, const View& key) const {
    return index_.Find(hash, [&](uint32_t s) { return slots_[s].key == key; });
  }

  uint32_t TakeSlot() {
    if (free_ == kNil) {
      slots_.emplace_back();
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t s = free_;
    free_ = slots_[s].next;
    return s;
  }

  // Pushes slot `s` at the most recent end.
  void Link(uint32_t s) {
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    if (head_ != kNil) slots_[head_].prev = s;
    head_ = s;
    if (tail_ == kNil) tail_ = s;
  }

  void Unlink(uint32_t s) {
    const Slot& slot = slots_[s];
    (slot.prev == kNil ? head_ : slots_[slot.prev].next) = slot.next;
    (slot.next == kNil ? tail_ : slots_[slot.next].prev) = slot.prev;
  }

  void MoveToFront(uint32_t s) {
    if (s == head_) return;
    Unlink(s);
    Link(s);
  }

  // Drops the entry in slot `s`; its key and value stay until reuse.
  void Remove(uint32_t s) {
    index_.Erase(slots_[s].hash, s);
    Unlink(s);
    slots_[s].next = free_;
    free_ = s;
  }

  size_t capacity_;
  std::vector<Slot> slots_;
  SlotIndex index_;
  uint32_t head_ = kNil;  // most recent
  uint32_t tail_ = kNil;  // least recent: the next victim
  uint32_t free_ = kNil;  // erased slots awaiting reuse
};

}  // namespace cffs

#endif  // CFFS_UTIL_FLAT_LRU_H_
