#include "src/cache/buffer_cache.h"

#include <algorithm>
#include <cstring>

namespace cffs::cache {

BufferRef& BufferRef::operator=(BufferRef&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    buf_ = other.buf_;
    other.cache_ = nullptr;
    other.buf_ = nullptr;
  }
  return *this;
}

BufferRef::~BufferRef() { Release(); }

void BufferRef::Release() {
  if (buf_ != nullptr) {
    cache_->Unpin(buf_);
    buf_ = nullptr;
    cache_ = nullptr;
  }
}

BufferCache::BufferCache(blk::BlockDevice* dev, size_t capacity_blocks)
    : dev_(dev), capacity_(capacity_blocks) {
  assert(capacity_ >= 8);
}

Buffer* BufferCache::FindResident(uint64_t bno) {
  Buffer* found = nullptr;
  index_.Find(SlotIndex::Mix(bno), [&](uint32_t id) {
    Buffer* b = Frame(id);
    if (b->bno_ != bno) return false;
    found = b;
    return true;
  });
  return found;
}

void BufferCache::Touch(Buffer* buf) {
  if (lru_.front() == buf) return;
  lru_.erase(buf);
  lru_.push_front(buf);
}

BufferRef BufferCache::Pin(Buffer* buf) {
  ++buf->pins_;
  Touch(buf);
  return BufferRef(this, buf);
}

void BufferCache::Unpin(Buffer* buf) {
  assert(buf->pins_ > 0);
  --buf->pins_;
}

void BufferCache::NoteLookup(uint64_t bno, bool hit) {
  ++stats_.lookups;
  if (hit) {
    ++stats_.hits;
    if (spans_) spans_->CountHit();
  } else {
    ++stats_.misses;
  }
  if (trace_) {
    obs::TraceEvent e;
    e.kind = hit ? obs::EventKind::kCacheHit : obs::EventKind::kCacheMiss;
    e.ts_ns = dev_->disk()->now().nanos();
    e.a = bno;
    trace_->Record(e);
  }
}

void BufferCache::SetDirty(Buffer* buf, bool dirty) {
  if (buf->dirty_ == dirty) return;
  buf->dirty_ = dirty;
  if (dirty) {
    buf->dirty_since_ns_ = dev_->disk()->now().nanos();
    dirty_.push_back(buf);
  } else {
    dirty_.erase(buf);
  }
}

void BufferCache::NoteDemand(Buffer* buf) {
  if (!buf->staged_) return;
  buf->staged_ = false;
  ++stats_.readahead_hits;
}

void BufferCache::NoteStagedDropped(Buffer* buf) {
  if (!buf->staged_) return;
  buf->staged_ = false;
  ++stats_.readahead_wasted;
}

int64_t BufferCache::oldest_dirty_ns() const {
  return dirty_.empty() ? -1 : dirty_.front()->dirty_since_ns_;
}

Status BufferCache::EvictIfNeeded() {
  // High-watermark write-back (the role of the update daemon): when a
  // quarter of the cache is dirty and we need space, flush everything in
  // one scheduled, clustered batch instead of dribbling single-block
  // eviction writes.
  if (size() >= capacity_ && dirty_.size() >= capacity_ / 4) {
    RETURN_IF_ERROR(SyncAll());
  }
  while (size() >= capacity_) {
    // Walk from the LRU end for an unpinned victim.
    Buffer* victim = lru_.back();
    while (victim != nullptr && victim->pins_ > 0) victim = lru_.prev(victim);
    if (victim == nullptr) {
      // Everything pinned: allow temporary over-capacity rather than fail.
      return OkStatus();
    }
    if (trace_) {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kCacheEvict;
      e.ts_ns = dev_->disk()->now().nanos();
      e.a = victim->bno_;
      e.flag = victim->dirty_;
      trace_->Record(e);
    }
    if (victim->dirty_) {
      RETURN_IF_ERROR(dev_->WriteBlock(victim->bno_, victim->data()));
      ++stats_.writebacks;
      SetDirty(victim, false);
    }
    NoteStagedDropped(victim);
    ++stats_.evictions;
    Release(victim);
  }
  return OkStatus();
}

Buffer* BufferCache::InsertNew(uint64_t bno) {
  if (free_.empty()) {
    const uint32_t first = static_cast<uint32_t>(slabs_.size()) * kSlabFrames;
    Slab& slab = slabs_.emplace_back(Slab{
        std::unique_ptr<Buffer[]>(new Buffer[kSlabFrames]),
        std::make_unique_for_overwrite<uint8_t[]>(
            static_cast<size_t>(kSlabFrames) * blk::kBlockSize)});
    // Reversed, so frames leave the free list in address order.
    for (uint32_t i = kSlabFrames; i-- > 0;) {
      Buffer* frame = &slab.frames[i];
      frame->id_ = first + i;
      frame->data_ = slab.data.get() + static_cast<size_t>(i) * blk::kBlockSize;
      free_.push_back(frame);
    }
  }
  Buffer* buf = free_.back();
  free_.pop_back();
  buf->bno_ = bno;
  buf->flush_unit_ = kNoFlushUnit;
  buf->staged_ = false;
  index_.Insert(SlotIndex::Mix(bno), buf->id_);
  lru_.push_front(buf);
  return buf;
}

void BufferCache::Release(Buffer* buf) {
  assert(buf->pins_ == 0 && !buf->dirty_);
  index_.Erase(SlotIndex::Mix(buf->bno_), buf->id_);
  lru_.erase(buf);
  free_.push_back(buf);
}

void BufferCache::ReleaseAll() {
  for (Buffer* b = lru_.front(); b != nullptr; b = lru_.next(b)) {
    assert(b->pins_ == 0);
    NoteStagedDropped(b);
    b->dirty_ = false;
    free_.push_back(b);
  }
  index_.Clear();
  lru_.clear();
  dirty_.clear();
}

Result<BufferRef> BufferCache::Get(uint64_t bno) {
  if (bno >= dev_->block_count()) {
    return OutOfRange("cache get past device end: block " +
                      std::to_string(bno));
  }
  if (Buffer* buf = FindResident(bno)) {
    NoteLookup(bno, /*hit=*/true);
    NoteDemand(buf);
    return Pin(buf);
  }
  NoteLookup(bno, /*hit=*/false);
  RETURN_IF_ERROR(EvictIfNeeded());
  Buffer* buf = InsertNew(bno);
  Status s = dev_->ReadBlock(bno, buf->data());
  if (!s.ok()) {
    Release(buf);
    return s;
  }
  return Pin(buf);
}

Result<BufferRef> BufferCache::GetZero(uint64_t bno) {
  if (bno >= dev_->block_count()) {
    return OutOfRange("cache getzero past device end: block " +
                      std::to_string(bno));
  }
  if (Buffer* buf = FindResident(bno)) {
    NoteLookup(bno, /*hit=*/true);
    // The caller is (re)initializing this block: any resident contents are
    // stale (e.g. inserted by a group read while the block was still
    // free) and must not leak into the fresh block — zero unconditionally.
    // A staged buffer's prefetched contents were therefore never used.
    NoteStagedDropped(buf);
    std::memset(buf->data().data(), 0, blk::kBlockSize);
    return Pin(buf);
  }
  NoteLookup(bno, /*hit=*/false);
  RETURN_IF_ERROR(EvictIfNeeded());
  Buffer* buf = InsertNew(bno);
  std::memset(buf->data().data(), 0, blk::kBlockSize);
  return Pin(buf);
}

Result<BufferRef> BufferCache::Lookup(uint64_t bno) {
  if (Buffer* buf = FindResident(bno)) {
    NoteLookup(bno, /*hit=*/true);
    NoteDemand(buf);
    return Pin(buf);
  }
  NoteLookup(bno, /*hit=*/false);
  return NotFound("block not resident");
}

void BufferCache::MarkDirty(BufferRef& ref) {
  assert(ref.buf_ != nullptr);
  SetDirty(ref.buf_, true);
}

void BufferCache::SetFlushUnit(BufferRef& ref, uint64_t unit) {
  assert(ref.buf_ != nullptr);
  ref.buf_->flush_unit_ = unit;
}

Status BufferCache::SyncBlock(uint64_t bno) {
  Buffer* buf = FindResident(bno);
  if (buf == nullptr || !buf->dirty_) return OkStatus();
  RETURN_IF_ERROR(dev_->WriteBlock(bno, buf->data()));
  ++stats_.writebacks;
  SetDirty(buf, false);
  return OkStatus();
}

std::vector<blk::WriteOp> BufferCache::BuildFlushPlan() {
  std::vector<blk::WriteOp> ops;
  ops.reserve(dirty_.size());
  for (Buffer* buf = dirty_.front(); buf != nullptr; buf = dirty_.next(buf)) {
    ops.push_back({buf->bno_, buf->data_, buf->flush_unit_});
  }
  if (ops.empty()) return ops;

  // Group write units go to disk whole: when two dirty blocks of the same
  // unit have a small gap between them and every gap block is resident
  // (clean), rewrite the gap blocks too so the unit stays one command.
  std::sort(ops.begin(), ops.end(),
            [](const blk::WriteOp& a, const blk::WriteOp& b) {
              return a.bno < b.bno;
            });
  const size_t dirty_end = ops.size();
  std::vector<blk::WriteOp> fills;
  for (size_t i = 0; i + 1 < dirty_end; ++i) {
    if (ops[i].unit == kNoFlushUnit || ops[i].unit != ops[i + 1].unit ||
        ops[i + 1].bno - ops[i].bno > 64) {
      continue;
    }
    bool all_resident = true;
    for (uint64_t b = ops[i].bno + 1; b < ops[i + 1].bno; ++b) {
      Buffer* gap = FindResident(b);
      if (gap == nullptr) {
        all_resident = false;
        break;
      }
    }
    if (!all_resident) continue;
    for (uint64_t b = ops[i].bno + 1; b < ops[i + 1].bno; ++b) {
      Buffer* gap = FindResident(b);
      if (!gap->dirty_) {
        fills.push_back({b, gap->data().data(), ops[i].unit});
      }
    }
  }
  ops.insert(ops.end(), fills.begin(), fills.end());
  std::sort(ops.begin(), ops.end(),
            [](const blk::WriteOp& a, const blk::WriteOp& b) {
              return a.bno < b.bno;
            });
  return ops;
}

size_t BufferCache::NoteFlushed(const std::vector<blk::WriteOp>& plan) {
  size_t cleaned = 0;
  for (const blk::WriteOp& op : plan) {
    Buffer* buf = FindResident(op.bno);
    if (buf == nullptr || !buf->dirty_) continue;  // clean gap-filler
    ++stats_.writebacks;
    SetDirty(buf, false);
    ++cleaned;
  }
  return cleaned;
}

Status BufferCache::SyncAll() {
  std::vector<blk::WriteOp> ops = BuildFlushPlan();
  if (ops.empty()) return OkStatus();
  RETURN_IF_ERROR(dev_->WriteBatch(ops));
  NoteFlushed(ops);
  return OkStatus();
}

std::vector<BufferCache::DirtyBlock> BufferCache::FlushPlanBlocks() {
  std::vector<blk::WriteOp> plan = BuildFlushPlan();
  const std::vector<size_t> order = dev_->ServiceOrder(plan);
  std::vector<DirtyBlock> out;
  out.reserve(plan.size());
  for (size_t idx : order) {
    DirtyBlock d;
    d.bno = plan[idx].bno;
    d.data.assign(plan[idx].data, plan[idx].data + blk::kBlockSize);
    out.push_back(std::move(d));
  }
  return out;
}

Status BufferCache::InsertRun(uint64_t start_bno, uint32_t count,
                              std::span<const uint8_t> data,
                              uint64_t demand_bno) {
  if (count == 0) return InvalidArgument("empty run insert");
  if (data.size() < static_cast<size_t>(count) * blk::kBlockSize) {
    return InvalidArgument("run insert data too short");
  }
  ++stats_.group_reads;
  // Each block's state when the run was read. A dirty block is newer than
  // the run's copy, and the eviction below can write it back and drop it
  // mid-loop, so it is never inserted: the copy would lose the write. A
  // clean block evicted mid-loop may come back, since its copy equals the
  // disk. An absent block stays absent until this loop inserts it.
  enum : uint8_t { kAbsent, kClean, kDirty };
  run_state_.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    const Buffer* b = FindResident(start_bno + i);
    run_state_[i] = b == nullptr ? kAbsent : b->dirty_ ? kDirty : kClean;
  }
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t bno = start_bno + i;
    if (run_state_[i] == kDirty ||
        (run_state_[i] == kClean && FindResident(bno) != nullptr)) {
      continue;  // the resident copy is as new or newer
    }
    RETURN_IF_ERROR(EvictIfNeeded());
    Buffer* buf = InsertNew(bno);
    std::memcpy(buf->data().data(),
                data.data() + static_cast<size_t>(i) * blk::kBlockSize,
                blk::kBlockSize);
    // Blocks fetched as a group also flush as that group.
    buf->flush_unit_ = start_bno;
    ++stats_.group_blocks;
    if (bno != demand_bno) {
      buf->staged_ = true;
      ++stats_.readahead_staged;
    }
  }
  return OkStatus();
}

void BufferCache::Invalidate(uint64_t bno) {
  Buffer* buf = FindResident(bno);
  if (buf == nullptr) return;
  assert(buf->pins_ == 0 && "cannot invalidate a pinned buffer");
  NoteStagedDropped(buf);
  if (buf->dirty_) SetDirty(buf, false);
  Release(buf);
}

size_t BufferCache::CrashDropAll() {
  const size_t lost = dirty_.size();
  ReleaseAll();
  return lost;
}

std::vector<BufferCache::DirtyBlock> BufferCache::DirtyBlocks() const {
  std::vector<DirtyBlock> out;
  out.reserve(dirty_.size());
  for (const Buffer* buf = dirty_.front(); buf != nullptr;
       buf = dirty_.next(buf)) {
    DirtyBlock d;
    d.bno = buf->bno_;
    d.data.assign(buf->data_, buf->data_ + blk::kBlockSize);
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(),
            [](const DirtyBlock& a, const DirtyBlock& b) {
              return a.bno < b.bno;
            });
  return out;
}

void BufferCache::InvalidateAll() {
  assert(dirty_.empty() && "sync before invalidating the whole cache");
  ReleaseAll();
}

}  // namespace cffs::cache
