// Wall-clock component microbenchmarks (google-benchmark): the in-memory
// hot paths of the library — cache hits, misses, group inserts and flush
// plans, dentry lookups, directory record codec, seek-curve evaluation,
// sector-store copies, the DRR pick, flash batches, whole-FS operation
// cost. These measure the implementation itself, not the simulated disk.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "src/disk/seek_curve.h"
#include "src/flash/flash_device.h"
#include "src/fs/common/dir_block.h"
#include "src/fs/common/name_cache.h"
#include "src/mt/scheduler.h"
#include "src/sim/sim_env.h"
#include "src/util/rng.h"

using namespace cffs;

namespace {

void BM_SeekCurveEval(benchmark::State& state) {
  disk::SeekCurve curve(SimTime::Millis(1.7), SimTime::Millis(10.0),
                        SimTime::Millis(22.0), 2699);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        curve.SeekTime(static_cast<uint32_t>(rng.Below(2700))));
  }
}
BENCHMARK(BM_SeekCurveEval);

void BM_DirBlockAddFind(benchmark::State& state) {
  std::vector<uint8_t> block(fs::kBlockSize);
  for (auto _ : state) {
    fs::InitDirBlock(block);
    for (int i = 0; i < 20; ++i) {
      auto r = fs::AddDirEntry(block, "file" + std::to_string(i),
                               fs::kExternalRecord, 100 + i, nullptr);
      benchmark::DoNotOptimize(r.ok());
    }
    auto f = fs::FindDirEntry(block, "file19");
    benchmark::DoNotOptimize(f.ok());
  }
}
BENCHMARK(BM_DirBlockAddFind);

void BM_CacheHit(benchmark::State& state) {
  SimClock clock;
  disk::DiskModel disk(disk::TestDisk(), &clock);
  blk::BlockDevice dev(&disk, disk::SchedulerPolicy::kCLook);
  cache::BufferCache cache(&dev, 1024);
  for (uint64_t b = 100; b < 200; ++b) {
    auto ref = cache.GetZero(b);
    benchmark::DoNotOptimize(ref.ok());
  }
  uint64_t b = 100;
  for (auto _ : state) {
    auto ref = cache.Get(100 + (b++ % 100));
    benchmark::DoNotOptimize(ref.ok());
  }
}
BENCHMARK(BM_CacheHit);

// A 16-block group inserted into a full 1024-block cache of clean blocks:
// every block of the group misses and evicts one clean block. The groups
// cycle over twice the capacity, so each is gone by the time it returns.
void BM_CacheInsertRun(benchmark::State& state) {
  SimClock clock;
  disk::DiskModel disk(disk::TestDisk(), &clock);
  blk::BlockDevice dev(&disk, disk::SchedulerPolicy::kCLook);
  constexpr uint64_t kCapacity = 1024;
  cache::BufferCache cache(&dev, kCapacity);
  for (uint64_t b = 0; b < kCapacity; ++b) {
    if (!cache.GetZero(b).ok()) {
      state.SkipWithError("cache fill failed");
      return;
    }
  }
  std::vector<uint8_t> group(16 * blk::kBlockSize, 0x6b);
  uint64_t next = 0;
  for (auto _ : state) {
    const uint64_t start = 2048 + (next++ % (2 * kCapacity / 16)) * 16;
    benchmark::DoNotOptimize(cache.InsertRun(start, 16, group, start).ok());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_CacheInsertRun);

// Get misses cycling over twice a 1024-block cache: every access evicts
// the least recent block and reads one from the device.
void BM_CacheEvictCycle(benchmark::State& state) {
  SimClock clock;
  disk::DiskModel disk(disk::TestDisk(), &clock);
  blk::BlockDevice dev(&disk, disk::SchedulerPolicy::kCLook);
  constexpr uint64_t kCapacity = 1024;
  cache::BufferCache cache(&dev, kCapacity);
  uint64_t next = 0;
  for (auto _ : state) {
    auto ref = cache.Get(next++ % (2 * kCapacity));
    benchmark::DoNotOptimize(ref.ok());
  }
}
BENCHMARK(BM_CacheEvictCycle);

// Hits in a full 8192-entry dentry cache, cycling over every entry.
void BM_DentryLookup(benchmark::State& state) {
  constexpr size_t kEntries = fs::NameCache::kDefaultDentries;
  fs::DentryCache dentries(kEntries);
  std::vector<std::string> names;
  for (size_t i = 0; i < kEntries; ++i) {
    names.push_back("f" + std::to_string(i));
    dentries.PutPositive(2 + i % 16, names.back(), 100 + i);
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t k = i++ % kEntries;
    benchmark::DoNotOptimize(dentries.Lookup(2 + k % 16, names[k]));
  }
}
BENCHMARK(BM_DentryLookup);

void BM_InodeCodec(benchmark::State& state) {
  fs::InodeData ino;
  ino.type = fs::FileType::kRegular;
  ino.size = 123456;
  for (uint32_t i = 0; i < fs::kDirectBlocks; ++i) ino.direct[i] = 1000 + i;
  std::vector<uint8_t> buf(fs::kInodeSize);
  for (auto _ : state) {
    ino.Encode(buf, 0);
    auto out = fs::InodeData::Decode(buf, 0);
    benchmark::DoNotOptimize(out.size);
  }
}
BENCHMARK(BM_InodeCodec);

// Arg: extent_alloc (0 = classic block maps, 1 = extent maps), one per
// encoding the data-allocation hook serves.
void BM_CffsCreateWriteDelete(benchmark::State& state) {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.blocks_per_cg = 1024;
  config.extent_alloc = state.range(0) != 0;
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, config);
  if (!env.ok()) {
    state.SkipWithError("env creation failed");
    return;
  }
  auto& p = (*env)->path();
  if (!p.MkdirAll("/bm").ok()) {
    state.SkipWithError("mkdir /bm failed");
    return;
  }
  std::vector<uint8_t> data(1024, 0x11);
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string path = "/bm/f" + std::to_string(i++ % 64);
    benchmark::DoNotOptimize(p.WriteFile(path, data).ok());
    if (i % 64 == 0) {
      state.PauseTiming();
      bool unlinked = true;
      for (int k = 0; k < 64; ++k) {
        unlinked = p.Unlink("/bm/f" + std::to_string(k)).ok() && unlinked;
      }
      state.ResumeTiming();
      if (!unlinked) {
        state.SkipWithError("unlink failed");
        return;
      }
    }
  }
}
BENCHMARK(BM_CffsCreateWriteDelete)->Arg(0)->Arg(1);

// One cycle of the shared namespace operations: mkdir /a/d, create /a/g,
// link /b/g2 to it, rename /a/g to /b/f, unlink /b/g2 and /b/f, rmdir
// /a/d. Each cycle leaves the tree as it found it. Arg: 0 = ffs,
// 1 = conventional, 2 = c-ffs.
void BM_NamespaceCycle(benchmark::State& state) {
  const sim::FsKind kinds[] = {sim::FsKind::kFfs, sim::FsKind::kConventional,
                               sim::FsKind::kCffs};
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  auto env = sim::SimEnv::Create(kinds[state.range(0)], config);
  if (!env.ok()) {
    state.SkipWithError("env creation failed");
    return;
  }
  fs::FileSystem* fs = (*env)->fs();
  auto a = fs->Mkdir(fs->root(), "a");
  auto b = fs->Mkdir(fs->root(), "b");
  if (!a.ok() || !b.ok()) {
    state.SkipWithError("mkdir /a or /b failed");
    return;
  }
  for (auto _ : state) {
    const bool made = fs->Mkdir(*a, "d").ok();
    auto g = fs->Create(*a, "g");
    const bool ok = made && g.ok() && fs->Link(*b, "g2", *g).ok() &&
                    fs->Rename(*a, "g", *b, "f").ok() &&
                    fs->Unlink(*b, "g2").ok() && fs->Unlink(*b, "f").ok() &&
                    fs->Rmdir(*a, "d").ok();
    if (!ok) {
      state.SkipWithError("namespace cycle failed");
      return;
    }
  }
}
BENCHMARK(BM_NamespaceCycle)->Arg(0)->Arg(1)->Arg(2);

void BM_DiskModelAccess(benchmark::State& state) {
  SimClock clock;
  disk::DiskModel disk(disk::SeagateSt31200(), &clock);
  std::vector<uint8_t> buf(8 * disk::kSectorSize);
  Rng rng(2);
  const uint64_t total = disk.total_sectors() - 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.Read(rng.Below(total), 8, buf).ok());
  }
}
BENCHMARK(BM_DiskModelAccess);

// One pick + service + re-enqueue of a 64-client backlogged DRR loop where
// every op costs 100 quanta, so most picks must grant idle passes.
void BM_DrrPick(benchmark::State& state) {
  constexpr uint32_t kClients = 64;
  mt::DrrScheduler sched(kClients);
  const std::vector<uint8_t> none(kClients, 0);
  const int64_t cost = 100 * sched.quantum_ns();
  for (uint32_t c = 0; c < kClients; ++c) sched.Enqueue(c, 0);
  int64_t now = 0;
  for (auto _ : state) {
    uint64_t id = 0;
    if (!sched.PickNext(none, &id)) {
      state.SkipWithError("no client to pick");
      return;
    }
    now += cost;
    sched.NoteServiced(id, cost);
    sched.Enqueue(id, now);
    benchmark::DoNotOptimize(id);
  }
}
BENCHMARK(BM_DrrPick);

// A flush plan over a full 2048-block cache with 8 dirty blocks: the shape
// of a journal sync on a warm shard.
void BM_BuildFlushPlan(benchmark::State& state) {
  SimClock clock;
  disk::DiskModel disk(disk::TestDisk(), &clock);
  blk::BlockDevice dev(&disk, disk::SchedulerPolicy::kCLook);
  cache::BufferCache cache(&dev, 2048);
  for (uint64_t b = 0; b < 2048; ++b) {
    auto ref = cache.GetZero(b);
    if (!ref.ok()) {
      state.SkipWithError("cache fill failed");
      return;
    }
    if (b % 256 == 0) cache.MarkDirty(*ref);
  }
  for (auto _ : state) {
    std::vector<blk::WriteOp> plan = cache.BuildFlushPlan();
    benchmark::DoNotOptimize(plan.data());
  }
}
BENCHMARK(BM_BuildFlushPlan);

// A 128-sector (64 KB) read whose second half lies in the next 128 KB
// sector-store chunk. Repeats hit the drive's segment cache, so the time
// is mostly the copy.
void BM_DiskReadRun(benchmark::State& state) {
  SimClock clock;
  disk::DiskModel disk(disk::SeagateSt31200(), &clock);
  const uint64_t lba = 8 * disk::DiskModel::kImageChunkSectors - 64;
  std::vector<uint8_t> buf(128 * disk::kSectorSize, 0x5a);
  if (!disk.Write(lba, 128, buf).ok()) {
    state.SkipWithError("write failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.Read(lba, 128, buf).ok());
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DiskReadRun);

// PokeSector writes of whole 4 KB blocks, cycling over 2,048 blocks, with
// a payload of state.range(0) bytes and zeros after it. The store keeps
// each block's sectors up to its last non-zero one: a 1 KB payload (a
// Fig. 5 file's block) copies a quarter of the bytes, and a full 4 KB one
// shows what the zero scan costs.
void BM_DiskWriteBlock(benchmark::State& state) {
  SimClock clock;
  disk::DiskModel disk(disk::SeagateSt31200(), &clock);
  std::vector<uint8_t> block(blk::kBlockSize, 0);
  std::fill_n(block.begin(), state.range(0), 0x6e);
  constexpr uint64_t kBlocks = 2048;
  uint64_t bno = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        disk.PokeSector(bno * blk::kSectorsPerBlock, block).ok());
    bno = (bno + 1) % kBlocks;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DiskWriteBlock)->Arg(1024)->Arg(4096);

// One WriteBatch of 16 separate 4 KB blocks on the default flash spec.
void BM_FlashWriteBatch(benchmark::State& state) {
  SimClock clock;
  disk::DiskModel disk(disk::TestDisk(), &clock);
  flash::FlashDevice dev(&disk, &clock, flash::DefaultFlash());
  std::vector<uint8_t> data(16 * blk::kBlockSize, 0x3c);
  std::vector<blk::WriteOp> ops;
  for (uint64_t i = 0; i < 16; ++i) {
    ops.push_back({100 + 2 * i, data.data() + i * blk::kBlockSize,
                   cache::kNoFlushUnit});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.WriteBatch(ops).ok());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FlashWriteBatch);

}  // namespace

BENCHMARK_MAIN();
