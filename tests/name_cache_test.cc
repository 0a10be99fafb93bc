// Unit tests for the name-resolution caches (src/fs/common/name_cache.h)
// and the bounded table under them (src/util/flat_lru.h): LRU/eviction
// mechanics, positive vs negative dentries, per-directory erasure, and the
// incremental directory-index maintenance. Coherence with the file systems
// proper is covered by fs_posix_test and equivalence_test; this file pins
// down the data structures in isolation.
#include "src/fs/common/name_cache.h"

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <utility>

#include "src/util/flat_lru.h"
#include "src/util/rng.h"

namespace cffs::fs {
namespace {

// Every key hashes alike, so every key shares one home cell: each probe
// walks one long run and each erase shifts the whole run back.
struct CollideAll {
  size_t operator()(uint64_t) const { return 0; }
};

// A FlatLru against an unordered_map + std::list reference LRU under a
// random mix of every call. After each step the sizes match and a Peek of
// every key (which changes no recency) finds exactly the reference's
// values, so an eviction of the wrong entry shows at the step it happens.
template <typename Hash>
void CheckAgainstReferenceLru(uint64_t seed) {
  constexpr size_t kCapacity = 24;
  constexpr uint64_t kKeys = 40;
  FlatLru<uint64_t, int, Hash> lru(kCapacity);
  std::list<uint64_t> order;  // front = most recent
  std::unordered_map<uint64_t, std::pair<int, std::list<uint64_t>::iterator>>
      ref;
  auto touch = [&](uint64_t key) {
    order.splice(order.begin(), order, ref.at(key).second);
  };
  auto erase = [&](uint64_t key) {
    order.erase(ref.at(key).second);
    ref.erase(key);
  };
  Rng rng(seed);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = rng.Below(kKeys);
    const uint64_t roll = rng.Below(100);
    if (roll < 25) {
      int* got = lru.Lookup(key);
      ASSERT_EQ(got != nullptr, ref.count(key) == 1) << "step " << step;
      if (got != nullptr) {
        ASSERT_EQ(*got, ref.at(key).first) << "step " << step;
        touch(key);
      }
    } else if (roll < 65) {
      const int value = step;
      ASSERT_EQ(*lru.Put(key, value), value);
      if (ref.count(key) == 1) {
        ref.at(key).first = value;
        touch(key);
      } else {
        if (ref.size() >= kCapacity) erase(order.back());
        order.push_front(key);
        ref.emplace(key, std::make_pair(value, order.begin()));
      }
    } else if (roll < 90) {
      lru.Erase(key);
      if (ref.count(key) == 1) erase(key);
    } else if (roll < 99) {
      lru.EraseIf([&](uint64_t k) { return k % 7 == key % 7; });
      for (uint64_t k = key % 7; k < kKeys; k += 7) {
        if (ref.count(k) == 1) erase(k);
      }
    } else {
      lru.Clear();
      ref.clear();
      order.clear();
    }
    ASSERT_EQ(lru.size(), ref.size()) << "step " << step;
    for (uint64_t k = 0; k < kKeys; ++k) {
      const int* got = lru.Peek(k);
      ASSERT_EQ(got != nullptr, ref.count(k) == 1)
          << "step " << step << " key " << k;
      if (got != nullptr) {
        ASSERT_EQ(*got, ref.at(k).first) << "step " << step;
      }
    }
  }
}

TEST(FlatLruTest, MatchesAReferenceLruWhenEveryKeyCollides) {
  CheckAgainstReferenceLru<CollideAll>(5);
}

TEST(FlatLruTest, MatchesAReferenceLru) {
  CheckAgainstReferenceLru<std::hash<uint64_t>>(6);
}

TEST(DentryCacheTest, PositiveAndNegativeEntries) {
  DentryCache cache(16);
  EXPECT_EQ(cache.Lookup(1, "a"), nullptr);

  cache.PutPositive(1, "a", 42);
  const DentryCache::Entry* e = cache.Lookup(1, "a");
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->negative);
  EXPECT_EQ(e->inum, 42u);

  cache.PutNegative(1, "gone");
  e = cache.Lookup(1, "gone");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->negative);

  // Same name under a different directory is a distinct key.
  EXPECT_EQ(cache.Lookup(2, "a"), nullptr);
}

TEST(DentryCacheTest, PutOverwritesInPlace) {
  DentryCache cache(16);
  cache.PutPositive(1, "a", 42);
  cache.PutNegative(1, "a");
  const DentryCache::Entry* e = cache.Lookup(1, "a");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->negative);

  cache.PutPositive(1, "a", 7);
  e = cache.Lookup(1, "a");
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->negative);
  EXPECT_EQ(e->inum, 7u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DentryCacheTest, EvictsLeastRecentlyUsed) {
  DentryCache cache(3);
  cache.PutPositive(1, "a", 10);
  cache.PutPositive(1, "b", 11);
  cache.PutPositive(1, "c", 12);
  // Touch "a" so "b" is now the LRU entry.
  ASSERT_NE(cache.Lookup(1, "a"), nullptr);
  cache.PutPositive(1, "d", 13);

  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup(1, "b"), nullptr);
  EXPECT_NE(cache.Lookup(1, "a"), nullptr);
  EXPECT_NE(cache.Lookup(1, "c"), nullptr);
  EXPECT_NE(cache.Lookup(1, "d"), nullptr);
}

TEST(DentryCacheTest, EraseAndEraseDir) {
  DentryCache cache(16);
  cache.PutPositive(1, "a", 10);
  cache.PutPositive(1, "b", 11);
  cache.PutPositive(2, "a", 12);

  cache.Erase(1, "a");
  EXPECT_EQ(cache.Lookup(1, "a"), nullptr);
  EXPECT_NE(cache.Lookup(1, "b"), nullptr);
  // Erasing a missing key is a no-op.
  cache.Erase(1, "nope");

  cache.EraseDir(1);
  EXPECT_EQ(cache.Lookup(1, "b"), nullptr);
  EXPECT_NE(cache.Lookup(2, "a"), nullptr);
  EXPECT_EQ(cache.size(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(2, "a"), nullptr);
}

// Erasing an entry (present or not) leaves the others' recency alone, and a
// Put reusing the freed slot links it as the most recent.
TEST(DentryCacheTest, EraseLeavesRecencyAlone) {
  DentryCache cache(3);
  cache.PutPositive(1, "a", 10);
  cache.PutPositive(1, "b", 11);
  cache.PutPositive(1, "c", 12);
  cache.Erase(1, "b");
  cache.Erase(1, "nope");
  cache.PutPositive(1, "d", 13);  // full again: nothing evicted
  cache.PutPositive(1, "e", 14);  // evicts the LRU entry, still "a"

  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup(1, "a"), nullptr);
  EXPECT_NE(cache.Lookup(1, "c"), nullptr);
  EXPECT_NE(cache.Lookup(1, "d"), nullptr);
  EXPECT_NE(cache.Lookup(1, "e"), nullptr);
}

TEST(DentryCacheTest, ZeroCapacityNeverStores) {
  DentryCache cache(0);
  cache.PutPositive(1, "a", 10);
  cache.PutNegative(1, "b");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1, "a"), nullptr);
  EXPECT_EQ(cache.Lookup(1, "b"), nullptr);
}

TEST(DirIndexCacheTest, InstallFindAddRemove) {
  DirIndexCache cache(4);
  EXPECT_EQ(cache.Find(1), nullptr);

  DirIndexCache::Index idx;
  idx.by_name["a"] = DirEntryLoc{0, 100, 8};
  DirIndexCache::Index* installed = cache.Install(1, std::move(idx));
  ASSERT_NE(installed, nullptr);
  EXPECT_EQ(installed->by_name.size(), 1u);

  DirIndexCache::Index* found = cache.Find(1);
  ASSERT_NE(found, nullptr);
  ASSERT_TRUE(found->by_name.count("a"));
  EXPECT_EQ(found->by_name["a"].bno, 100u);
  EXPECT_EQ(found->by_name["a"].offset, 8);

  // Incremental maintenance only touches an index that exists.
  cache.Add(1, "b", DirEntryLoc{1, 101, 16});
  cache.Add(9, "x", DirEntryLoc{0, 5, 0});  // no index for dir 9: no-op
  EXPECT_EQ(cache.Find(9), nullptr);
  found = cache.Find(1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->by_name.size(), 2u);

  cache.Remove(1, "a");
  found = cache.Find(1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->by_name.count("a"), 0u);
  EXPECT_EQ(found->by_name.count("b"), 1u);
}

TEST(DirIndexCacheTest, EvictsLeastRecentlyUsedDirectory) {
  DirIndexCache cache(2);
  cache.Install(1, {});
  cache.Install(2, {});
  ASSERT_NE(cache.Find(1), nullptr);  // dir 2 becomes the LRU victim
  cache.Install(3, {});

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Find(2), nullptr);
  EXPECT_NE(cache.Find(1), nullptr);
  EXPECT_NE(cache.Find(3), nullptr);
}

// Incremental maintenance is not a use: Add and Remove leave the LRU
// directory the LRU directory, so which index is rebuilt next (and the
// directory-block reads behind it) does not depend on them.
TEST(DirIndexCacheTest, AddAndRemoveLeaveRecencyAlone) {
  DirIndexCache cache(2);
  cache.Install(1, {});
  cache.Install(2, {});  // dir 1 is the LRU directory
  cache.Add(1, "a", DirEntryLoc{0, 100, 8});
  cache.Remove(1, "a");
  cache.Add(1, "b", DirEntryLoc{0, 100, 16});
  cache.Install(3, {});  // evicts dir 1 all the same

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_NE(cache.Find(2), nullptr);
  EXPECT_NE(cache.Find(3), nullptr);
}

TEST(DirIndexCacheTest, EraseDirAndClear) {
  DirIndexCache cache(4);
  cache.Install(1, {});
  cache.Install(2, {});
  cache.EraseDir(1);
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_NE(cache.Find(2), nullptr);
  cache.EraseDir(7);  // absent: no-op
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find(2), nullptr);
}

TEST(InodeCacheTest, PutLookupEraseOverwrite) {
  InodeCache cache(16);
  EXPECT_EQ(cache.Lookup(5), nullptr);

  InodeData ino;
  ino.type = FileType::kRegular;
  ino.size = 123;
  ino.self = 5;
  cache.Put(5, ino);

  const InodeData* hit = cache.Lookup(5);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size, 123u);
  EXPECT_EQ(hit->self, 5u);

  ino.size = 456;
  cache.Put(5, ino);
  hit = cache.Lookup(5);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size, 456u);
  EXPECT_EQ(cache.size(), 1u);

  cache.Erase(5);
  EXPECT_EQ(cache.Lookup(5), nullptr);
  cache.Erase(5);  // absent: no-op
}

TEST(InodeCacheTest, EvictsLeastRecentlyUsed) {
  InodeCache cache(2);
  InodeData ino;
  ino.type = FileType::kRegular;
  cache.Put(1, ino);
  cache.Put(2, ino);
  ASSERT_NE(cache.Lookup(1), nullptr);  // inode 2 becomes the LRU victim
  cache.Put(3, ino);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
}

TEST(InodeCacheTest, ZeroCapacityNeverStores) {
  InodeCache cache(0);
  InodeData ino;
  cache.Put(1, ino);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
}

TEST(NameCacheTest, ClearDropsAllThree) {
  NameCache nc;
  nc.dentries.PutPositive(1, "a", 2);
  nc.dir_indexes.Install(1, {});
  InodeData ino;
  nc.inodes.Put(2, ino);

  nc.Clear();
  EXPECT_EQ(nc.dentries.size(), 0u);
  EXPECT_EQ(nc.dir_indexes.size(), 0u);
  EXPECT_EQ(nc.inodes.size(), 0u);
}

}  // namespace
}  // namespace cffs::fs
