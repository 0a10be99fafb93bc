// Unit tests for the block device and the dual-indexed buffer cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk_model.h"
#include "src/io/io_engine.h"
#include "src/io/readahead.h"
#include "src/util/rng.h"

namespace cffs {
namespace {

// The cache under test, with the one group-read path above it: readahead_
// stages whole groups through an I/O engine on the same device.
class CacheTest : public ::testing::Test {
 protected:
  CacheTest()
      : model_(disk::TestDisk(256, 4, 64), &clock_),
        dev_(&model_, disk::SchedulerPolicy::kCLook),
        cache_(&dev_, 64),
        engine_(&dev_),
        readahead_(&cache_, &engine_) {}

  SimClock clock_;
  disk::DiskModel model_;
  blk::BlockDevice dev_;
  cache::BufferCache cache_;
  io::IoEngine engine_;
  io::Readahead readahead_;
};

TEST_F(CacheTest, MissReadsFromDiskHitDoesNot) {
  auto a = cache_.Get(42);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(dev_.stats().reads, 1u);
  a->data()[0] = 9;
  a.value().Release();
  auto b = cache_.Get(42);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(dev_.stats().reads, 1u);  // served from cache
  EXPECT_EQ(b->data()[0], 9);
}

TEST_F(CacheTest, GetZeroClearsStaleResidentContents) {
  // Regression: a group read can insert a block that is still FREE on
  // disk; when that block is later allocated (e.g. as an indirect block),
  // GetZero must hand back zeroes, not the stale data — otherwise garbage
  // is interpreted as block pointers (observed as a cross-link corruption
  // under near-full churn).
  const std::vector<uint8_t> old_file(blk::kBlockSize, 0x5a);
  ASSERT_TRUE(dev_.WriteBlock(602, old_file).ok());
  ASSERT_TRUE(readahead_.StageGroup(600, 4, /*demand_bno=*/600).ok());
  EXPECT_EQ(cache_.stats().readahead_staged, 3u);  // 602 among them
  auto fresh = cache_.GetZero(602);
  ASSERT_TRUE(fresh.ok());
  // The staged copy was overwritten, not read.
  EXPECT_EQ(cache_.stats().readahead_wasted, 1u);
  for (uint8_t b : (*fresh)->data()) ASSERT_EQ(b, 0);
}

TEST_F(CacheTest, GetZeroAvoidsDiskRead) {
  auto a = cache_.GetZero(10);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(dev_.stats().reads, 0u);
  for (uint8_t b : a->data()) EXPECT_EQ(b, 0);
}

TEST_F(CacheTest, DirtyDataSurvivesEvictionViaWriteback) {
  {
    auto a = cache_.GetZero(5);
    ASSERT_TRUE(a.ok());
    a->data()[0] = 0x77;
    cache_.MarkDirty(*a);
  }
  // Evict block 5 by filling the cache with other blocks.
  for (uint64_t b = 100; b < 100 + 80; ++b) {
    auto r = cache_.GetZero(b);
    ASSERT_TRUE(r.ok());
  }
  EXPECT_GE(cache_.stats().evictions, 1u);
  auto back = cache_.Get(5);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data()[0], 0x77);
}

TEST_F(CacheTest, PinnedBuffersAreNotEvicted) {
  auto pinned = cache_.GetZero(1);
  ASSERT_TRUE(pinned.ok());
  pinned->data()[0] = 0xee;
  for (uint64_t b = 100; b < 100 + 100; ++b) {
    auto r = cache_.GetZero(b);
    ASSERT_TRUE(r.ok());
  }
  // Still resident and identical (the pin protected it).
  EXPECT_EQ(pinned->data()[0], 0xee);
  auto again = cache_.Lookup(1);
  EXPECT_TRUE(again.ok());
}

TEST_F(CacheTest, LruOrderEvictsColdest) {
  auto a = cache_.GetZero(1);
  a.value().Release();
  auto b = cache_.GetZero(2);
  b.value().Release();
  // Touch 1 again so 2 is the LRU.
  cache_.Lookup(1).value().Release();
  for (uint64_t blk = 100; blk < 100 + 63; ++blk) {
    cache_.GetZero(blk).value().Release();
  }
  // 2 should be gone before 1.
  EXPECT_FALSE(cache_.Lookup(2).ok());
}

TEST_F(CacheTest, ReadGroupIsOneDiskCommand) {
  ASSERT_TRUE(readahead_.StageGroup(200, 16, /*demand_bno=*/200).ok());
  EXPECT_EQ(dev_.stats().reads, 1u);
  EXPECT_EQ(dev_.stats().blocks_read, 16u);
  // All 16 blocks resident without further I/O.
  for (uint64_t b = 200; b < 216; ++b) {
    EXPECT_TRUE(cache_.Lookup(b).ok()) << b;
  }
  EXPECT_EQ(dev_.stats().reads, 1u);
}

TEST_F(CacheTest, ReadGroupKeepsNewerDirtyCopy) {
  {
    auto a = cache_.GetZero(205);
    a->data()[0] = 0x31;
    cache_.MarkDirty(*a);
  }
  ASSERT_TRUE(readahead_.StageGroup(200, 16, /*demand_bno=*/200).ok());
  auto b = cache_.Get(205);
  EXPECT_EQ(b->data()[0], 0x31);  // dirty copy not clobbered
}

TEST_F(CacheTest, SyncBlockWritesThroughOnce) {
  auto a = cache_.GetZero(9);
  a->data()[0] = 1;
  cache_.MarkDirty(*a);
  a.value().Release();
  EXPECT_EQ(cache_.dirty_count(), 1u);
  ASSERT_TRUE(cache_.SyncBlock(9).ok());
  EXPECT_EQ(cache_.dirty_count(), 0u);
  EXPECT_EQ(dev_.stats().writes, 1u);
  // Second sync is a no-op.
  ASSERT_TRUE(cache_.SyncBlock(9).ok());
  EXPECT_EQ(dev_.stats().writes, 1u);
}

TEST_F(CacheTest, SyncAllCoalescesSameUnitRuns) {
  for (uint64_t b = 300; b < 316; ++b) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
    cache_.SetFlushUnit(*r, 300);
  }
  ASSERT_TRUE(cache_.SyncAll().ok());
  EXPECT_EQ(dev_.stats().writes, 1u);  // one coalesced command
  EXPECT_EQ(dev_.stats().blocks_written, 16u);
}

TEST_F(CacheTest, SyncAllDoesNotCoalesceDifferentUnits) {
  for (uint64_t b = 300; b < 308; ++b) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
    cache_.SetFlushUnit(*r, b);  // every block its own unit
  }
  ASSERT_TRUE(cache_.SyncAll().ok());
  EXPECT_EQ(dev_.stats().writes, 8u);
}

TEST_F(CacheTest, SyncAllFillsGapsWithResidentCleanBlocks) {
  // Dirty 300 and 303 (same unit), clean-resident 301, 302: the flush
  // should write 300..303 as one command.
  for (uint64_t b = 301; b <= 302; ++b) {
    cache_.GetZero(b).value().Release();
  }
  for (uint64_t b : {300, 303}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
    cache_.SetFlushUnit(*r, 300);
  }
  ASSERT_TRUE(cache_.SyncAll().ok());
  EXPECT_EQ(dev_.stats().writes, 1u);
  EXPECT_EQ(dev_.stats().blocks_written, 4u);
}

TEST_F(CacheTest, SyncAllLeavesGapWhenBlockNotResident) {
  for (uint64_t b : {400, 403}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
    cache_.SetFlushUnit(*r, 400);
  }
  ASSERT_TRUE(cache_.SyncAll().ok());
  EXPECT_EQ(dev_.stats().writes, 2u);  // cannot bridge 401-402
}

TEST_F(CacheTest, InvalidateDropsDirtyData) {
  {
    auto a = cache_.GetZero(11);
    a->data()[0] = 0x55;
    cache_.MarkDirty(*a);
  }
  cache_.Invalidate(11);
  EXPECT_EQ(cache_.dirty_count(), 0u);
  auto back = cache_.Get(11);  // re-reads from disk: zeros
  EXPECT_EQ(back->data()[0], 0);
}

TEST_F(CacheTest, StatsTrackHitsAndMisses) {
  cache_.Get(1).value().Release();
  cache_.Get(1).value().Release();
  cache_.Get(2).value().Release();
  EXPECT_EQ(cache_.stats().misses, 2u);
  EXPECT_EQ(cache_.stats().hits, 1u);
}

// --- Flush-plan API shared by SyncAll and the syncer ----------------------

TEST_F(CacheTest, BuildFlushPlanIsSortedAndNoteFlushedCleans) {
  for (uint64_t b : {50, 10, 30}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
  }
  std::vector<blk::WriteOp> plan = cache_.BuildFlushPlan();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].bno, 10u);
  EXPECT_EQ(plan[1].bno, 30u);
  EXPECT_EQ(plan[2].bno, 50u);
  // NoteFlushed is the bookkeeping half of SyncAll: it cleans exactly the
  // dirty blocks the plan covered and counts them as writebacks.
  EXPECT_EQ(cache_.NoteFlushed(plan), 3u);
  EXPECT_EQ(cache_.dirty_count(), 0u);
  EXPECT_EQ(cache_.stats().writebacks, 3u);
  // A second pass over the same (now clean) plan is a no-op.
  EXPECT_EQ(cache_.NoteFlushed(plan), 0u);
}

TEST_F(CacheTest, FlushPlanIncludesCleanGapFillers) {
  for (uint64_t b = 301; b <= 302; ++b) {
    cache_.GetZero(b).value().Release();
  }
  for (uint64_t b : {300, 303}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
    cache_.SetFlushUnit(*r, 300);
  }
  std::vector<blk::WriteOp> plan = cache_.BuildFlushPlan();
  EXPECT_EQ(plan.size(), 4u);  // 2 dirty + 2 clean bridging blocks
  EXPECT_EQ(cache_.NoteFlushed(plan), 2u);  // fillers are not writebacks
  EXPECT_EQ(cache_.stats().writebacks, 2u);
}

TEST_F(CacheTest, OldestDirtyNsTracksAgingAndCleaning) {
  EXPECT_EQ(cache_.oldest_dirty_ns(), -1);
  {
    auto a = cache_.GetZero(5);
    cache_.MarkDirty(*a);
  }
  const int64_t first = cache_.oldest_dirty_ns();
  ASSERT_GE(first, 0);
  clock_.AdvanceBy(SimTime::Millis(5));
  {
    auto b = cache_.GetZero(6);
    cache_.MarkDirty(*b);
  }
  // The older of the two transitions wins.
  EXPECT_EQ(cache_.oldest_dirty_ns(), first);
  ASSERT_TRUE(cache_.SyncAll().ok());
  EXPECT_EQ(cache_.oldest_dirty_ns(), -1);
  // Re-dirtying after the flush starts a fresh age.
  clock_.AdvanceBy(SimTime::Millis(5));
  {
    auto c = cache_.GetZero(5);
    cache_.MarkDirty(*c);
  }
  EXPECT_GT(cache_.oldest_dirty_ns(), first);
}

TEST_F(CacheTest, FlushPlanBlocksComeInServiceOrder) {
  for (uint64_t b : {50, 10, 30}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
  }
  // C-LOOK from head 0: ascending block numbers.
  const auto blocks = cache_.FlushPlanBlocks();
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].bno, 10u);
  EXPECT_EQ(blocks[1].bno, 30u);
  EXPECT_EQ(blocks[2].bno, 50u);
  EXPECT_EQ(blocks[0].data.size(), blk::kBlockSize);
  // Snapshotting the plan does not clean anything.
  EXPECT_EQ(cache_.dirty_count(), 3u);
}

TEST_F(CacheTest, InsertRunStagesOnlyNonDemandBlocks) {
  std::vector<uint8_t> raw(4 * blk::kBlockSize);
  for (size_t i = 0; i < 4; ++i) raw[i * blk::kBlockSize] = static_cast<uint8_t>(i + 1);
  // Block 202 is already resident and dirty: its newer copy must survive.
  {
    auto r = cache_.GetZero(202);
    r->data()[0] = 0x77;
    cache_.MarkDirty(*r);
  }
  ASSERT_TRUE(cache_.InsertRun(200, 4, raw, /*demand_bno=*/200).ok());
  // 3 inserted (202 kept its resident copy), demand block 200 un-staged.
  EXPECT_EQ(cache_.stats().readahead_staged, 2u);
  EXPECT_EQ(cache_.stats().group_reads, 1u);
  EXPECT_EQ(cache_.stats().group_blocks, 3u);
  EXPECT_FALSE(cache_.Lookup(200).value()->staged());
  EXPECT_EQ(cache_.Lookup(202).value()->data()[0], 0x77);
  EXPECT_EQ(cache_.Lookup(201).value()->flush_unit(), 200u);
}

// What a BufferCache must hold: residency in LRU order with each buffer's
// flush unit and pin count, and the dirty blocks in clean->dirty order with
// their transition times and the byte last written to them.
struct CacheModel {
  struct Dirty {
    uint64_t bno;
    int64_t since_ns;
    uint8_t tag;
  };

  explicit CacheModel(size_t cap) : capacity(cap) {}

  bool resident(uint64_t bno) const { return unit.count(bno) != 0; }
  std::vector<Dirty>::iterator FindDirty(uint64_t bno) {
    return std::find_if(dirty.begin(), dirty.end(),
                        [&](const Dirty& d) { return d.bno == bno; });
  }
  void Clean(uint64_t bno) {
    auto it = FindDirty(bno);
    if (it != dirty.end()) dirty.erase(it);
  }
  void Touch(uint64_t bno) {
    lru.remove(bno);
    lru.push_front(bno);
  }
  // The least recent unpinned block, or 0 when every block is pinned.
  uint64_t Victim() const {
    for (auto it = lru.rbegin(); it != lru.rend(); ++it) {
      if (pins.count(*it) == 0) return *it;
    }
    return 0;
  }
  // A Get/GetZero of `bno`: a hit touches it; a miss first makes room the
  // way EvictIfNeeded does (a full flush at the dirty high-watermark, then
  // LRU eviction of unpinned blocks, writing a dirty victim back). With
  // every block pinned the miss goes over capacity instead.
  void Access(uint64_t bno) {
    if (!resident(bno)) {
      if (unit.size() >= capacity && dirty.size() >= capacity / 4) {
        dirty.clear();
      }
      while (unit.size() >= capacity && Victim() != 0) {
        Drop(Victim());
      }
      unit[bno] = cache::kNoFlushUnit;
    }
    Touch(bno);
  }
  void Unpin(uint64_t bno) {
    if (--pins.at(bno) == 0) pins.erase(bno);
  }
  void Drop(uint64_t bno) {
    Clean(bno);
    lru.remove(bno);
    unit.erase(bno);
  }

  // BuildFlushPlan's block list: the dirty blocks plus the clean resident
  // blocks bridging two same-unit dirty blocks at most 64 apart.
  std::vector<uint64_t> PlanBlocks() const {
    std::vector<uint64_t> d;
    for (const Dirty& e : dirty) d.push_back(e.bno);
    std::sort(d.begin(), d.end());
    std::vector<uint64_t> plan = d;
    for (size_t i = 0; i + 1 < d.size(); ++i) {
      const uint64_t u = unit.at(d[i]);
      if (u == cache::kNoFlushUnit || u != unit.at(d[i + 1]) ||
          d[i + 1] - d[i] > 64) {
        continue;
      }
      bool all_resident = true;
      for (uint64_t b = d[i] + 1; b < d[i + 1]; ++b) {
        all_resident = all_resident && resident(b);
      }
      for (uint64_t b = d[i] + 1; all_resident && b < d[i + 1]; ++b) {
        plan.push_back(b);  // strictly between neighbours: never dirty
      }
    }
    std::sort(plan.begin(), plan.end());
    return plan;
  }

  size_t capacity;
  std::list<uint64_t> lru;            // front = most recent
  std::map<uint64_t, uint64_t> unit;  // resident bno -> flush unit
  std::map<uint64_t, int> pins;       // pinned bno -> live BufferRefs
  std::vector<Dirty> dirty;           // clean->dirty order
};

// The cache's dirty list and flush plan against the model: the dirty count,
// the oldest clean->dirty time, each dirty block's last-written byte, and
// the plan's blocks in order with the dirty ones' contents.
void ExpectMatchesModel(cache::BufferCache& cache, const CacheModel& model) {
  ASSERT_EQ(cache.dirty_count(), model.dirty.size());
  ASSERT_EQ(cache.oldest_dirty_ns(),
            model.dirty.empty() ? -1 : model.dirty.front().since_ns);
  std::map<uint64_t, uint8_t> tags;
  for (const CacheModel::Dirty& d : model.dirty) tags[d.bno] = d.tag;
  const auto blocks = cache.DirtyBlocks();
  ASSERT_EQ(blocks.size(), tags.size());
  auto want = tags.begin();
  for (const auto& b : blocks) {
    ASSERT_EQ(b.bno, want->first);
    ASSERT_EQ(b.data[0], want->second);
    ++want;
  }
  const std::vector<blk::WriteOp> plan = cache.BuildFlushPlan();
  const std::vector<uint64_t> plan_want = model.PlanBlocks();
  ASSERT_EQ(plan.size(), plan_want.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    ASSERT_EQ(plan[i].bno, plan_want[i]);
    if (tags.count(plan[i].bno)) {
      ASSERT_EQ(plan[i].data[0], tags[plan[i].bno]);
    }
  }
}

// The dirty list against the model under a random mix of dirtying (with
// and without flush units), clean reads, scans that push dirty blocks out
// of a 16-block cache (dirty evictions, or a full flush at the dirty
// high-watermark), SyncBlock, SyncAll, partial NoteFlushed and Invalidate
// (which clean without time passing, so blocks are re-dirtied at the sim
// ns they were cleaned), and CrashDropAll.
TEST_F(CacheTest, DirtyListMatchesAModel) {
  constexpr size_t kCapacity = 16;
  cache::BufferCache small(&dev_, kCapacity);
  CacheModel model(kCapacity);
  Rng rng(7);
  uint8_t next_tag = 1;
  uint64_t scan_pos = 0;
  uint64_t dirty_evictions = 0, same_ns_redirties = 0;
  std::map<uint64_t, int64_t> cleaned_ns;  // bno -> when last cleaned
  uint64_t last_cleaned = 0;
  auto access = [&](uint64_t bno, bool zero) {
    const uint64_t writebacks = small.stats().writebacks;
    const bool dirty_victim =
        !model.resident(bno) && model.unit.size() >= kCapacity &&
        model.dirty.size() < kCapacity / 4 &&
        model.FindDirty(model.Victim()) != model.dirty.end();
    auto ref = zero ? small.GetZero(bno) : small.Get(bno);
    model.Access(bno);
    if (dirty_victim) {
      ++dirty_evictions;
      EXPECT_EQ(small.stats().writebacks, writebacks + 1);
    }
    return ref;
  };
  auto clean = [&](uint64_t bno) {
    if (model.FindDirty(bno) == model.dirty.end()) return;
    model.Clean(bno);
    cleaned_ns[bno] = clock_.now().nanos();
    last_cleaned = bno;
  };

  for (int step = 0; step < 20000; ++step) {
    uint64_t bno = 100 + rng.Below(40);
    const uint64_t roll = rng.Below(100);
    if (roll < 20) {
      if (last_cleaned != 0 && rng.Below(3) == 0) bno = last_cleaned;
      auto ref = access(bno, /*zero=*/rng.Below(2) == 0);
      ASSERT_TRUE(ref.ok());
      if (rng.Below(2) == 0) {
        small.SetFlushUnit(*ref, bno / 8);
        model.unit[bno] = bno / 8;
      }
      const uint8_t tag = next_tag++;
      ref->data()[0] = tag;
      small.MarkDirty(*ref);
      auto it = model.FindDirty(bno);
      if (it == model.dirty.end()) {
        const int64_t now = clock_.now().nanos();
        auto c = cleaned_ns.find(bno);
        same_ns_redirties += c != cleaned_ns.end() && c->second == now;
        model.dirty.push_back({bno, now, tag});
      } else {
        it->tag = tag;
      }
    } else if (roll < 40) {
      ASSERT_TRUE(access(bno, /*zero=*/false).ok());
    } else if (roll < 45) {
      for (size_t i = 0; i < kCapacity / 2; ++i) {
        ASSERT_TRUE(access(200 + scan_pos++ % 64, /*zero=*/false).ok());
      }
    } else if (roll < 55) {
      const uint64_t target =
          model.dirty.empty() ? bno
                              : model.dirty[rng.Below(model.dirty.size())].bno;
      ASSERT_TRUE(small.SyncBlock(target).ok());
      model.Clean(target);
    } else if (roll < 57) {
      ASSERT_TRUE(small.SyncAll().ok());
      model.dirty.clear();
    } else if (roll < 67) {
      std::vector<blk::WriteOp> part;
      for (const blk::WriteOp& op : small.BuildFlushPlan()) {
        if (rng.Below(2) == 0) part.push_back(op);
      }
      small.NoteFlushed(part);
      for (const blk::WriteOp& op : part) clean(op.bno);
    } else if (roll < 77) {
      small.Invalidate(bno);
      clean(bno);
      if (model.resident(bno)) model.Drop(bno);
    } else if (roll < 78) {
      EXPECT_EQ(small.CrashDropAll(), model.dirty.size());
      model = CacheModel(kCapacity);
    } else {
      clock_.AdvanceBy(SimTime::Nanos(static_cast<int64_t>(rng.Below(3))));
    }

    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(small, model));
  }
  // The mix reached the paths it is meant to cover.
  EXPECT_GT(dirty_evictions, 50u);
  EXPECT_GT(same_ns_redirties, 50u);
}

// Pinned buffers against the same model. Some BufferRefs stay live across
// steps, so the victim walk must skip pinned buffers; pin storms hold more
// buffers than the cache's capacity, so a miss finds every buffer pinned
// and the cache must grow past capacity, then evict back down once the pins
// drop. After every step the resident set, its recency order (probed
// oldest first, which leaves the order as it was), size(), the dirty list
// and the flush plan match the model.
TEST_F(CacheTest, PinnedBuffersMatchAModel) {
  constexpr size_t kCapacity = 8;
  cache::BufferCache small(&dev_, kCapacity);
  CacheModel model(kCapacity);
  Rng rng(11);
  std::vector<cache::BufferRef> held;
  uint8_t next_tag = 1;
  uint64_t storm_pos = 0;
  uint64_t pinned_skips = 0, over_capacity = 0, shrinks = 0;
  // A Get/GetZero in both; with `hold` the pin stays live in `held`.
  auto access = [&](uint64_t bno, bool zero, bool hold) -> cache::BufferRef {
    pinned_skips += !model.resident(bno) && model.unit.size() >= kCapacity &&
                    model.pins.count(model.lru.back()) != 0;
    auto ref = zero ? small.GetZero(bno) : small.Get(bno);
    model.Access(bno);
    EXPECT_TRUE(ref.ok());
    if (!ref.ok()) return {};
    auto dirty = model.FindDirty(bno);
    if (zero && dirty != model.dirty.end()) dirty->tag = 0;  // still dirty
    if (!hold) return std::move(*ref);
    ++model.pins[bno];
    held.push_back(std::move(*ref));
    return {};
  };
  auto release = [&](size_t i) {
    model.Unpin(held[i]->bno());
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
  };

  for (int step = 0; step < 20000; ++step) {
    const size_t size_before = small.size();
    const uint64_t bno = 100 + rng.Below(24);
    const uint64_t roll = rng.Below(100);
    if (roll < 35) {
      access(bno, /*zero=*/rng.Below(2) == 0, /*hold=*/rng.Below(3) == 0);
    } else if (roll < 45) {
      cache::BufferRef ref = access(bno, /*zero=*/false, /*hold=*/false);
      ASSERT_TRUE(ref.valid());
      const uint8_t tag = next_tag++;
      ref.data()[0] = tag;
      small.MarkDirty(ref);
      auto it = model.FindDirty(bno);
      if (it == model.dirty.end()) {
        model.dirty.push_back({bno, clock_.now().nanos(), tag});
      } else {
        it->tag = tag;
      }
    } else if (roll < 70) {
      if (!held.empty()) release(rng.Below(held.size()));
    } else if (roll < 72) {
      // A pin storm: more live pins than the cache has room for.
      for (size_t i = 0; i < kCapacity + 3; ++i) {
        access(200 + storm_pos++ % 64, /*zero=*/false, /*hold=*/true);
      }
      ASSERT_GT(small.size(), kCapacity) << "step " << step;
    } else if (roll < 80) {
      ASSERT_TRUE(small.SyncAll().ok());
      model.dirty.clear();
    } else if (roll < 88) {
      if (model.pins.count(bno) == 0) {
        small.Invalidate(bno);
        if (model.resident(bno)) model.Drop(bno);
      }
    } else if (roll < 89) {
      held.clear();
      model.pins.clear();
      EXPECT_EQ(small.CrashDropAll(), model.dirty.size());
      model = CacheModel(kCapacity);
    } else {
      clock_.AdvanceBy(SimTime::Nanos(static_cast<int64_t>(rng.Below(3))));
    }

    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_EQ(small.size(), model.unit.size());
    for (auto it = model.lru.rbegin(); it != model.lru.rend(); ++it) {
      ASSERT_TRUE(small.Lookup(*it).ok()) << "block " << *it;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(small, model));
    over_capacity += small.size() > kCapacity;
    shrinks += size_before > kCapacity && small.size() <= kCapacity;
  }
  // The mix reached the paths it is meant to cover.
  EXPECT_GT(pinned_skips, 200u);
  EXPECT_GT(over_capacity, 200u);
  EXPECT_GT(shrinks, 20u);
}

TEST(BlockDeviceTest, RunBoundsChecked) {
  SimClock clock;
  disk::DiskModel model(disk::TestDisk(64, 2, 32), &clock);
  blk::BlockDevice dev(&model, disk::SchedulerPolicy::kCLook);
  std::vector<uint8_t> buf(blk::kBlockSize * 4);
  EXPECT_EQ(dev.ReadRun(dev.block_count() - 1, 2, buf).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.WriteRun(dev.block_count(), 1, buf).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.ReadRun(0, 0, buf).code(), ErrorCode::kOutOfRange);
}

TEST(BlockDeviceTest, WriteBatchSchedulesAndCoalesces) {
  SimClock clock;
  disk::DiskModel model(disk::TestDisk(256, 4, 64), &clock);
  blk::BlockDevice dev(&model, disk::SchedulerPolicy::kCLook);
  std::vector<uint8_t> data(blk::kBlockSize, 0xcd);
  // Submit out of order; adjacent same-unit blocks must merge.
  std::vector<blk::WriteOp> ops = {
      {12, data.data(), 7}, {10, data.data(), 7}, {11, data.data(), 7},
      {500, data.data(), 8}};
  ASSERT_TRUE(dev.WriteBatch(ops).ok());
  EXPECT_EQ(dev.stats().writes, 2u);  // [10..12] and [500]
  EXPECT_EQ(dev.stats().blocks_written, 4u);
}

TEST(BlockDeviceTest, ReadRunMovesDataCorrectly) {
  SimClock clock;
  disk::DiskModel model(disk::TestDisk(256, 4, 64), &clock);
  blk::BlockDevice dev(&model, disk::SchedulerPolicy::kCLook);
  std::vector<uint8_t> in(blk::kBlockSize * 3);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i / 7);
  ASSERT_TRUE(dev.WriteRun(20, 3, in).ok());
  std::vector<uint8_t> out(in.size());
  ASSERT_TRUE(dev.ReadRun(20, 3, out).ok());
  EXPECT_EQ(in, out);
}

}  // namespace
}  // namespace cffs
