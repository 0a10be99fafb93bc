#include "src/fs/common/allocator.h"

#include <cassert>
#include <cstring>

#include "src/fs/common/bitmap.h"

namespace cffs::fs {

CgAllocator::CgAllocator(cache::BufferCache* cache, std::vector<CgLayout> groups)
    : cache_(cache), groups_(std::move(groups)) {
  assert(!groups_.empty());
  free_runs_.resize(groups_.size());
  for (uint32_t cg = 0; cg < groups_.size(); ++cg) {
    [[maybe_unused]] const CgLayout& g = groups_[cg];
    assert(g.blocks > 0 && g.blocks <= kBlockSize * 8);
    assert(g.data_start >= g.first_block &&
           g.data_start <= g.first_block + g.blocks);
    // CgOf's arithmetic: equal groups, back to back.
    assert(g.blocks == groups_[0].blocks &&
           g.first_block == groups_[0].first_block + cg * g.blocks);
  }
}

void CgAllocator::set_trace(obs::TraceRecorder* trace, const uint64_t* op_id,
                            SimClock* clock) {
  trace_ = trace;
  op_id_ = op_id;
  clock_ = clock;
}

void CgAllocator::TraceMapBit(obs::MetaUpdateKind kind, uint32_t bitmap_block,
                              uint32_t bno) {
  if (!trace_) return;
  obs::TraceEvent e;
  e.kind = obs::EventKind::kMetaUpdate;
  e.ts_ns = clock_ ? clock_->now().nanos() : 0;
  e.meta = kind;
  e.a = bitmap_block;
  e.b = bno;
  e.op_id = op_id_ ? *op_id_ : 0;
  trace_->Record(e);
}

uint32_t CgAllocator::CgOf(uint32_t bno) const {
  const CgLayout& first = groups_.front();
  if (bno < first.first_block) return 0;
  const uint32_t cg = (bno - first.first_block) / first.blocks;
  return cg < groups_.size() ? cg : 0;
}

Status CgAllocator::FormatBitmaps() {
  free_blocks_ = 0;
  for (const CgLayout& g : groups_) {
    {
      ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->GetZero(g.bitmap_block));
      std::memset(bm.data().data(), 0, kBlockSize);
      for (uint32_t b = g.first_block; b < g.data_start; ++b) {
        BitSet(bm.data(), b - g.first_block);
      }
      // cffs-lint: allow(dirty-no-annotation): mkfs-time formatting; no
      // trace recorder is attached yet and there is no prior state to order
      // these writes against.
      cache_->MarkDirty(bm);
      free_blocks_ += g.first_block + g.blocks - g.data_start;
    }
    if (g.resv_block != 0) {
      ASSIGN_OR_RETURN(cache::BufferRef rm, cache_->GetZero(g.resv_block));
      std::memset(rm.data().data(), 0, kBlockSize);
      // cffs-lint: allow(dirty-no-annotation): mkfs-time formatting.
      cache_->MarkDirty(rm);
    }
  }
  return OkStatus();
}

Status CgAllocator::RecountFree() {
  free_blocks_ = 0;
  for (const CgLayout& g : groups_) {
    ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(g.bitmap_block));
    free_blocks_ += g.blocks - CountSetBits(bm.data(), g.blocks);
  }
  return OkStatus();
}

Result<uint32_t> CgAllocator::AllocInCg(uint32_t cg, uint32_t goal_abs,
                                        bool ignore_reservations) {
  const CgLayout& g = groups_[cg];
  uint32_t from = goal_abs >= g.first_block && goal_abs < g.first_block + g.blocks
                      ? goal_abs - g.first_block
                      : g.data_start - g.first_block;
  ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(g.bitmap_block));
  cache::BufferRef rm;
  std::span<const uint8_t> resv;
  if (g.resv_block != 0 && !ignore_reservations) {
    ASSIGN_OR_RETURN(cache::BufferRef r, cache_->Get(g.resv_block));
    rm = std::move(r);
    resv = rm.data();
  }
  // Scan forward with wrap, skipping reserved blocks.
  for (uint32_t n = 0; n < g.blocks; ++n) {
    const uint32_t bit = (from + n) % g.blocks;
    if (bit < g.data_start - g.first_block) continue;
    if (BitGet(bm.data(), bit)) continue;
    if (!resv.empty() && BitGet(resv, bit)) continue;
    BitSet(bm.data(), bit);
    cache_->MarkDirty(bm);
    TraceMapBit(obs::MetaUpdateKind::kFreeMapAlloc, g.bitmap_block,
                g.first_block + bit);
    assert(free_blocks_ > 0);
    --free_blocks_;
    return g.first_block + bit;
  }
  return NoSpace("cylinder group full");
}

Result<uint32_t> CgAllocator::AllocNearPass(uint32_t goal,
                                            bool ignore_reservations) {
  const uint32_t home = CgOf(goal);
  Result<uint32_t> r = AllocInCg(home, goal, ignore_reservations);
  if (r.ok() || r.status().code() != ErrorCode::kNoSpace) return r;
  for (uint32_t n = 1; n < groups_.size(); ++n) {
    const uint32_t cg = (home + n) % groups_.size();
    r = AllocInCg(cg, 0, ignore_reservations);
    if (r.ok() || r.status().code() != ErrorCode::kNoSpace) return r;
  }
  return NoSpace("file system full");
}

Result<uint32_t> CgAllocator::AllocNear(uint32_t goal) {
  Result<uint32_t> r = AllocNearPass(goal, /*ignore_reservations=*/false);
  if (r.ok() || r.status().code() != ErrorCode::kNoSpace) return r;
  if (free_blocks_ == 0) return NoSpace("file system full");
  // Free space exists but sits inside group reservations: reclaim idle
  // extents, then as a last resort take reserved-but-free blocks.
  ASSIGN_OR_RETURN(uint32_t released, SweepIdleReservations());
  if (released > 0) {
    r = AllocNearPass(goal, /*ignore_reservations=*/false);
    if (r.ok() || r.status().code() != ErrorCode::kNoSpace) return r;
  }
  return AllocNearPass(goal, /*ignore_reservations=*/true);
}

Result<bool> CgAllocator::TryAllocAt(uint32_t bno) {
  const uint32_t cg = CgOf(bno);
  const CgLayout& g = groups_[cg];
  if (bno < g.data_start || bno >= g.first_block + g.blocks) return false;
  const uint32_t bit = bno - g.first_block;
  ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(g.bitmap_block));
  if (BitGet(bm.data(), bit)) return false;
  if (g.resv_block != 0) {
    ASSIGN_OR_RETURN(cache::BufferRef rm, cache_->Get(g.resv_block));
    if (BitGet(rm.data(), bit)) return false;
  }
  BitSet(bm.data(), bit);
  cache_->MarkDirty(bm);
  TraceMapBit(obs::MetaUpdateKind::kFreeMapAlloc, g.bitmap_block, bno);
  assert(free_blocks_ > 0);
  --free_blocks_;
  return true;
}

Result<BlockRun> CgAllocator::AllocRun(uint32_t goal, uint32_t want) {
  if (want == 0) want = 1;
  // Pass 1: the free-run hint stack of the goal's cylinder group. Claim a
  // validated prefix of the most recently freed run.
  std::vector<BlockRun>& stack = free_runs_[CgOf(goal)];
  while (!stack.empty()) {
    const BlockRun hint = stack.back();
    stack.pop_back();
    uint32_t got = 0;
    while (got < hint.count && got < want) {
      ASSIGN_OR_RETURN(bool ok, TryAllocAt(hint.start + got));
      if (!ok) break;
      ++got;
    }
    if (got == 0) continue;  // stale hint — drop it, try the next
    if (got == want && got < hint.count) {
      stack.push_back({hint.start + got, hint.count - got});
    }
    return BlockRun{hint.start, got};
  }
  // Pass 2: goal-directed first block, extended greedily in place. The
  // extension respects reservations and cg bounds (TryAllocAt), so a run
  // never invades group territory or crosses into another group's
  // metadata area.
  ASSIGN_OR_RETURN(uint32_t first, AllocNear(goal));
  uint32_t got = 1;
  while (got < want) {
    ASSIGN_OR_RETURN(bool ok, TryAllocAt(first + got));
    if (!ok) break;
    ++got;
  }
  return BlockRun{first, got};
}

Result<uint32_t> CgAllocator::SweepIdleReservations() {
  uint32_t released = 0;
  for (const CgLayout& g : groups_) {
    if (g.resv_block == 0) continue;
    ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(g.bitmap_block));
    ASSIGN_OR_RETURN(cache::BufferRef rm, cache_->Get(g.resv_block));
    bool dirtied = false;
    for (uint32_t w = 0; w + g.resv_align <= g.blocks; w += g.resv_align) {
      bool reserved = false, used = false;
      for (uint32_t i = 0; i < g.resv_align; ++i) {
        reserved |= BitGet(rm.data(), w + i) != 0;
        used |= BitGet(bm.data(), w + i) != 0;
        if (used) break;
      }
      if (!reserved || used) continue;
      for (uint32_t i = 0; i < g.resv_align; ++i) BitClear(rm.data(), w + i);
      dirtied = true;
      ++released;
    }
    if (dirtied) {
      cache_->MarkDirty(rm);
      TraceMapBit(obs::MetaUpdateKind::kResvUpdate, g.resv_block,
                  g.first_block);
    }
  }
  return released;
}

Result<uint32_t> CgAllocator::AllocExtent(uint32_t cg, uint32_t run,
                                          uint32_t align) {
  if (run == 0) return InvalidArgument("empty extent");
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (attempt == 1) {
      // No extent anywhere: reclaim idle reservations and retry once.
      ASSIGN_OR_RETURN(uint32_t released, SweepIdleReservations());
      if (released == 0) break;
    }
  for (uint32_t n = 0; n < groups_.size(); ++n) {
    const uint32_t c = (cg + n) % groups_.size();
    const CgLayout& g = groups_[c];
    if (g.resv_block == 0) return Unsupported("no reservation bitmap");
    ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(g.bitmap_block));
    ASSIGN_OR_RETURN(cache::BufferRef rm, cache_->Get(g.resv_block));
    // A candidate run must be free in BOTH bitmaps. Scan aligned starts
    // beyond the metadata area.
    const uint32_t lo = g.data_start - g.first_block;
    const uint32_t hi = g.blocks;
    uint32_t start = ((lo + align - 1) / align) * align;
    for (uint32_t s = start; s + run <= hi; s += align) {
      bool ok = true;
      for (uint32_t i = 0; i < run; ++i) {
        if (s + i < lo || BitGet(bm.data(), s + i) ||
            BitGet(rm.data(), s + i)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      for (uint32_t i = 0; i < run; ++i) BitSet(rm.data(), s + i);
      cache_->MarkDirty(rm);
      TraceMapBit(obs::MetaUpdateKind::kResvUpdate, g.resv_block,
                  g.first_block + s);
      return g.first_block + s;
    }
  }
  }
  return NoSpace("no free extent for group");
}

Result<uint32_t> CgAllocator::AllocInExtent(uint32_t start, uint32_t len) {
  const uint32_t cg = CgOf(start);
  const CgLayout& g = groups_[cg];
  ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(g.bitmap_block));
  for (uint32_t i = 0; i < len; ++i) {
    const uint32_t bit = start - g.first_block + i;
    if (!BitGet(bm.data(), bit)) {
      BitSet(bm.data(), bit);
      cache_->MarkDirty(bm);
      TraceMapBit(obs::MetaUpdateKind::kFreeMapAlloc, g.bitmap_block,
                  start + i);
      assert(free_blocks_ > 0);
      --free_blocks_;
      return start + i;
    }
  }
  return NoSpace("group extent full");
}

Result<bool> CgAllocator::ExtentIdle(uint32_t start, uint32_t len) {
  const uint32_t cg = CgOf(start);
  const CgLayout& g = groups_[cg];
  ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(g.bitmap_block));
  for (uint32_t i = 0; i < len; ++i) {
    if (BitGet(bm.data(), start - g.first_block + i)) return false;
  }
  return true;
}

Status CgAllocator::ReleaseExtent(uint32_t start, uint32_t len) {
  const uint32_t cg = CgOf(start);
  const CgLayout& g = groups_[cg];
  if (g.resv_block == 0) return Unsupported("no reservation bitmap");
  ASSIGN_OR_RETURN(cache::BufferRef rm, cache_->Get(g.resv_block));
  for (uint32_t i = 0; i < len; ++i) {
    BitClear(rm.data(), start - g.first_block + i);
  }
  cache_->MarkDirty(rm);
  TraceMapBit(obs::MetaUpdateKind::kResvUpdate, g.resv_block, start);
  return OkStatus();
}

Result<bool> CgAllocator::ExtentReserved(uint32_t start, uint32_t len) {
  const uint32_t cg = CgOf(start);
  const CgLayout& g = groups_[cg];
  if (g.resv_block == 0) return false;
  if (start < g.first_block || start + len > g.first_block + g.blocks) {
    return false;
  }
  ASSIGN_OR_RETURN(cache::BufferRef rm, cache_->Get(g.resv_block));
  for (uint32_t i = 0; i < len; ++i) {
    if (!BitGet(rm.data(), start - g.first_block + i)) return false;
  }
  return true;
}

Status CgAllocator::Free(uint32_t bno) {
  const uint32_t cg = CgOf(bno);
  const CgLayout& g = groups_[cg];
  if (bno < g.data_start || bno >= g.first_block + g.blocks) {
    return InvalidArgument("freeing metadata or out-of-range block");
  }
  ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(g.bitmap_block));
  const uint32_t bit = bno - g.first_block;
  if (!BitGet(bm.data(), bit)) return Corrupt("double free of block");
  BitClear(bm.data(), bit);
  if (!skip_free_write_) cache_->MarkDirty(bm);
  TraceMapBit(obs::MetaUpdateKind::kFreeMapFree, g.bitmap_block, bno);
  ++free_blocks_;
  // Record a free-run hint for AllocRun, coalescing with the stack top so
  // a truncated extent comes back as one run.
  std::vector<BlockRun>& stack = free_runs_[cg];
  if (!stack.empty() && bno == stack.back().start + stack.back().count) {
    ++stack.back().count;
  } else if (!stack.empty() && bno + 1 == stack.back().start) {
    --stack.back().start;
    ++stack.back().count;
  } else {
    if (stack.size() >= kMaxFreeRunHints) stack.erase(stack.begin());
    stack.push_back({bno, 1});
  }
  return OkStatus();
}

Status CgAllocator::MarkUsed(uint32_t bno) {
  const uint32_t cg = CgOf(bno);
  const CgLayout& g = groups_[cg];
  ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(g.bitmap_block));
  const uint32_t bit = bno - g.first_block;
  if (BitGet(bm.data(), bit)) return Corrupt("block already used");
  BitSet(bm.data(), bit);
  cache_->MarkDirty(bm);
  TraceMapBit(obs::MetaUpdateKind::kFreeMapAlloc, g.bitmap_block, bno);
  assert(free_blocks_ > 0);
  --free_blocks_;
  return OkStatus();
}

Result<bool> CgAllocator::IsFree(uint32_t bno) {
  const uint32_t cg = CgOf(bno);
  const CgLayout& g = groups_[cg];
  ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(g.bitmap_block));
  return !BitGet(bm.data(), bno - g.first_block);
}

}  // namespace cffs::fs
