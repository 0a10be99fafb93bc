#include "src/fs/common/fs_base.h"

#include <algorithm>
#include <cstring>

namespace cffs::fs {

void FsBase::TraceMeta(obs::MetaUpdateKind kind, uint64_t home_bno,
                       uint64_t subject, uint64_t aux, bool flag) {
  if (!trace_) return;
  obs::TraceEvent e;
  e.kind = obs::EventKind::kMetaUpdate;
  e.ts_ns = NowNs();
  e.meta = kind;
  e.a = home_bno;
  e.b = subject;
  e.aux = aux;
  e.flag = flag;
  e.op_id = op_seq_;
  trace_->Record(e);
}

FsBase::OpScope::~OpScope() {
  const int64_t end_ns = fs_->NowNs();
  if (fs_->spans_) fs_->spans_->EndOp(end_ns);
  if (fs_->trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kFsOp;
    e.ts_ns = start_ns_;
    e.dur_ns = end_ns - start_ns_;
    e.op = op_;
    e.a = ino_;
    fs_->trace_->Record(e);
  }
}

Status FsBase::MetaDirty(cache::BufferRef& ref, bool order_critical) {
  // cffs-lint: allow(dirty-no-annotation): this IS the annotation funnel;
  // callers emit the TraceMeta describing what the dirty block means.
  cache_->MarkDirty(ref);
  return SyncMetaBlock(ref->bno(), order_critical);
}

Status FsBase::SyncMetaBlock(uint32_t bno, bool order_critical) {
  if (order_critical && policy_ == MetadataPolicy::kSynchronous) {
    ++op_stats_.sync_metadata_writes;
    if (trace_) {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kSyncMetaWrite;
      e.ts_ns = NowNs();
      e.a = bno;
      trace_->Record(e);
    }
    return cache_->SyncBlock(bno);
  }
  return OkStatus();
}

Result<BlockRun> FsBase::MapHost::AllocData(uint64_t idx, uint32_t want) {
  return fs_->AllocData(num_, ino_, idx, want, size_hint_blocks_);
}

Result<uint32_t> FsBase::MapHost::AllocMapBlock() {
  return fs_->AllocMetaBlock(num_, *ino_);
}

Status FsBase::MapHost::FreeBlock(uint32_t bno) {
  fs_->cache_->Invalidate(bno);
  return fs_->FreeBlock(bno);
}

Status FsBase::MapHost::DirtyMapBlock(cache::BufferRef& ref) {
  // Indirect-block updates are delayed writes in FFS.
  // cffs-lint: allow(dirty-no-annotation): Write emits the kMapUpdate
  // annotation for the attachment this indirect-block write records.
  return fs_->MetaDirty(ref, /*order_critical=*/false);
}

Result<BlockRun> FsBase::AllocDataAt(const InodeData& ino, uint32_t goal,
                                     uint64_t idx, uint32_t want,
                                     uint64_t size_hint_blocks) {
  if (!(ino.flags & kInodeFlagExtents)) {
    ASSIGN_OR_RETURN(uint32_t bno, alloc_->AllocNear(goal));
    return BlockRun{bno, 1};
  }
  if (size_hint_blocks > idx) {
    want = static_cast<uint32_t>(
        std::min<uint64_t>(want, size_hint_blocks - idx));
  } else {
    want = 1;  // unknown size: grow block-by-block, goal adjacency merges
  }
  return alloc_->AllocRun(goal, want);
}

uint32_t FsBase::GoalAfterPrevious(const InodeData& ino, uint64_t idx,
                                   uint32_t fallback) {
  if (idx == 0) return fallback;
  Result<uint32_t> prev = BmapRead(*cache_, ino, idx - 1);
  return prev.ok() && *prev != 0 ? *prev + 1 : fallback;
}

void FsBase::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  alloc_->set_trace(trace, &op_seq_, clock_);
}

Status FsBase::Sync() {
  OpScope scope(this, obs::FsOp::kSync);
  RETURN_IF_ERROR(WriteSuperblock());
  return cache_->SyncAll();
}

void FsBase::set_name_cache_enabled(bool enabled) {
  if (!enabled) name_cache_.Clear();
  name_cache_enabled_ = enabled;
}

Result<InodeData> FsBase::GetInode(InodeNum num, bool* from_cache) {
  if (from_cache) *from_cache = false;
  if (name_cache_enabled_) {
    if (const InodeData* hit = name_cache_.inodes.Lookup(num)) {
      ++op_stats_.inode_cache_hits;
      if (spans_) spans_->CountHit();
      if (from_cache) *from_cache = true;
      return *hit;
    }
  }
  ++op_stats_.inode_cache_misses;
  ASSIGN_OR_RETURN(InodeData ino, LoadInode(num));
  if (name_cache_enabled_) name_cache_.inodes.Put(num, ino);
  return ino;
}

Status FsBase::StoreInode(InodeNum num, const InodeData& ino,
                          bool order_critical) {
  RETURN_IF_ERROR(StoreInodeImpl(num, ino, order_critical));
  NoteInodeWritten(num, ino);
  return OkStatus();
}

void FsBase::NoteInodeWritten(InodeNum num, const InodeData& ino) {
  if (!name_cache_enabled_) return;
  if (ino.is_free()) {
    name_cache_.inodes.Erase(num);
  } else {
    name_cache_.inodes.Put(num, ino);
  }
}

void FsBase::NoteInodeGone(InodeNum num) { name_cache_.inodes.Erase(num); }

void FsBase::NoteDirGone(InodeNum dir) {
  name_cache_.dentries.EraseDir(dir);
  name_cache_.dir_indexes.EraseDir(dir);
  name_cache_.inodes.Erase(dir);
}

void FsBase::NoteDentryGone(InodeNum dir, std::string_view name) {
  name_cache_.dentries.Erase(dir, name);
}

void FsBase::TraceDentry(InodeNum dir, bool hit, bool negative) {
  if (hit && spans_) spans_->CountHit();
  if (!trace_) return;
  obs::TraceEvent e;
  e.kind = obs::EventKind::kDentryLookup;
  e.ts_ns = NowNs();
  e.op = obs::FsOp::kLookup;
  e.flag = hit;
  e.hit = negative;
  e.a = dir;
  trace_->Record(e);
}

Result<InodeNum> FsBase::Lookup(InodeNum dir, std::string_view name) {
  ++op_stats_.lookups;
  OpScope scope(this, obs::FsOp::kLookup, dir);
  // "." and ".." are answered from the directory's own inode and never
  // enter the dentry cache (".." would go stale when the directory moves);
  // they and all error paths count as misses so the accounting invariant
  // lookups == hits + neg_hits + misses holds unconditionally.
  if (name_cache_enabled_ && name != "." && name != "..") {
    if (const DentryCache::Entry* e = name_cache_.dentries.Lookup(dir, name)) {
      if (e->negative) {
        ++op_stats_.dentry_neg_hits;
        TraceDentry(dir, /*hit=*/true, /*negative=*/true);
        return NotFound("cached negative entry");
      }
      ++op_stats_.dentry_hits;
      TraceDentry(dir, /*hit=*/true, /*negative=*/false);
      return e->inum;
    }
  }
  ++op_stats_.dentry_misses;
  TraceDentry(dir, /*hit=*/false, /*negative=*/false);
  ASSIGN_OR_RETURN(InodeData d, GetInode(dir));
  if (!d.is_dir()) return NotDirectory("lookup in non-directory");
  if (name == ".") return dir;
  if (name == "..") return d.parent == kInvalidInode ? dir : d.parent;
  Result<DirSlot> slot = DirFind(d, name);
  if (!slot.ok()) {
    if (name_cache_enabled_ &&
        slot.status().code() == ErrorCode::kNotFound) {
      name_cache_.dentries.PutNegative(dir, name);
    }
    return slot.status();
  }
  if (name_cache_enabled_) {
    name_cache_.dentries.PutPositive(dir, name, slot->rec.inum);
  }
  return slot->rec.inum;
}

Result<std::vector<DirEntryInfo>> FsBase::ReadDir(InodeNum dir) {
  ASSIGN_OR_RETURN(InodeData d, GetInode(dir));
  if (!d.is_dir()) return NotDirectory("readdir of non-directory");
  std::vector<DirEntryInfo> out;
  const uint64_t nblocks = d.BlockCount();
  for (uint64_t i = 0; i < nblocks; ++i) {
    ASSIGN_OR_RETURN(uint32_t bno, BmapRead(*cache_, d, i));
    if (bno == 0) continue;
    RETURN_IF_ERROR(PrepareDataRead(d, bno));
    ASSIGN_OR_RETURN(cache::BufferRef buf, cache_->Get(bno));
    RETURN_IF_ERROR(ForEachDirRecord(buf.data(), [&](const DirRecord& r) {
      if (r.kind != kFreeRecord) {
        DirEntryInfo e;
        e.name = std::string(r.name);
        e.inum = r.inum;
        e.embedded = r.kind == kEmbeddedRecord;
        if (r.kind == kEmbeddedRecord) {
          e.type = InodeData::Decode(buf.data(), r.inode_off).type;
        }
        out.push_back(std::move(e));
      }
      return true;
    }));
  }
  // Fill types for external entries. Routing through the inode cache means
  // a directory that was just listed (or whose children were just stat'ed)
  // fills types without re-decoding — count each avoided decode.
  for (DirEntryInfo& e : out) {
    if (!e.embedded) {
      bool from_cache = false;
      Result<InodeData> ino = GetInode(e.inum, &from_cache);
      if (ino.ok()) {
        e.type = ino->type;
        if (from_cache) ++op_stats_.readdir_inode_loads_saved;
      }
    }
  }
  return out;
}

Result<uint64_t> FsBase::Read(InodeNum num, uint64_t off,
                              std::span<uint8_t> out) {
  ++op_stats_.reads;
  OpScope scope(this, obs::FsOp::kRead, num);
  ASSIGN_OR_RETURN(InodeData ino, GetInode(num));
  if (ino.is_dir()) return IsDirectory("read of directory");
  if (off >= ino.size) return uint64_t{0};
  const uint64_t want = std::min<uint64_t>(out.size(), ino.size - off);

  uint64_t done = 0;
  while (done < want) {
    const uint64_t pos = off + done;
    const uint64_t idx = pos / kBlockSize;
    const uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
    const uint64_t n = std::min<uint64_t>(want - done, kBlockSize - in_block);
    ASSIGN_OR_RETURN(uint32_t bno, BmapRead(*cache_, ino, idx));
    if (bno == 0) {
      std::memset(out.data() + done, 0, n);
    } else {
      if (!cache_->Lookup(bno).ok()) {
        RETURN_IF_ERROR(PrepareDataRead(ino, bno));
        if (!cache_->Lookup(bno).ok()) {
          // Cluster read ([Peacock88, McVoy91]): if the file's next blocks
          // are physically contiguous, fetch them with one command. The
          // window starts at 64 KB and ramps on sequential streaks
          // (io::Readahead doubles it up to its max); the fetch is staged
          // through the I/O engine.
          const uint32_t cap = readahead_->WindowFor(num, idx);
          uint32_t run = 1;
          const uint64_t nblocks = ino.BlockCount();
          while (run < cap && idx + run < nblocks) {
            Result<uint32_t> next = BmapRead(*cache_, ino, idx + run);
            if (!next.ok() || *next != bno + run) break;
            ++run;
          }
          readahead_->NoteRun(num, idx, run);
          if (run > 1) RETURN_IF_ERROR(readahead_->StageRun(bno, run, bno));
        }
      }
      ASSIGN_OR_RETURN(cache::BufferRef buf, cache_->Get(bno));
      std::memcpy(out.data() + done, buf.data().data() + in_block, n);
    }
    done += n;
  }
  return done;
}

Result<uint64_t> FsBase::Write(InodeNum num, uint64_t off,
                               std::span<const uint8_t> in) {
  ++op_stats_.writes;
  OpScope scope(this, obs::FsOp::kWrite, num);
  ASSIGN_OR_RETURN(InodeData ino, GetInode(num));
  if (ino.is_dir()) return IsDirectory("write of directory");
  const uint64_t want = in.size();
  const uint64_t reach = std::max<uint64_t>(ino.size, off + want);
  MapHost host(this, num, &ino, (reach + kBlockSize - 1) / kBlockSize);
  bool inode_dirty = false;

  uint64_t done = 0;
  while (done < want) {
    const uint64_t pos = off + done;
    const uint64_t idx = pos / kBlockSize;
    const uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
    const uint64_t n = std::min<uint64_t>(want - done, kBlockSize - in_block);

    const bool was_hole = [&]() {
      Result<uint32_t> b = BmapRead(*cache_, ino, idx);
      return b.ok() && *b == 0;
    }();
    Result<uint32_t> bno_or = BmapAlloc(host, &ino, idx, &inode_dirty);
    if (!bno_or.ok()) {
      if (bno_or.status().code() == ErrorCode::kNoSpace && done > 0) {
        break;  // short write: report what did fit
      }
      // Record any blocks this call already attached before surfacing the
      // error, so they are not stranded outside the on-disk inode.
      if (done > 0 || inode_dirty) {
        if (off + done > ino.size) ino.size = off + done;
        (void)StoreInode(num, ino, /*order_critical=*/false);
      }
      return bno_or.status();
    }
    const uint32_t bno = *bno_or;

    // Annotate a fresh direct-map attach: the pointer to `bno` lives in
    // the inode image itself, so it commits when the inode's home block
    // does. (Indirect-mapped attaches commit via the indirect block and
    // are outside the grouped-small-file rule the checker enforces.)
    if (trace_ && was_hole && idx < kDirectBlocks) {
      const bool grouped = ino.group_start != 0 && bno >= ino.group_start &&
                           bno < static_cast<uint64_t>(ino.group_start) +
                                     ino.group_len;
      Result<uint32_t> home = InodeHomeBlock(num);
      if (home.ok()) {
        TraceMeta(obs::MetaUpdateKind::kMapUpdate, *home, num, bno, grouped);
      }
    }

    // Avoid the read-modify-write disk read when the write covers all the
    // valid bytes of the block.
    const uint64_t block_start = idx * kBlockSize;
    const bool covers_valid =
        was_hole || (n == kBlockSize) || block_start >= ino.size ||
        (in_block == 0 && pos + n >= std::min<uint64_t>(ino.size, block_start + kBlockSize));
    cache::BufferRef buf;
    if (covers_valid) {
      ASSIGN_OR_RETURN(cache::BufferRef b, cache_->GetZero(bno));
      buf = std::move(b);
    } else {
      RETURN_IF_ERROR(PrepareDataRead(ino, bno));
      ASSIGN_OR_RETURN(cache::BufferRef b, cache_->Get(bno));
      buf = std::move(b);
    }
    std::memcpy(buf.data().data() + in_block, in.data() + done, n);
    cache_->MarkDirty(buf);
    cache_->SetFlushUnit(buf, FlushUnitFor(num, ino, bno));
    done += n;
  }

  if (off + want > ino.size) {
    ino.size = off + want;
    inode_dirty = true;
  }
  ino.mtime_ns = MtimeNs();
  // File-data inode updates (size/mtime) are delayed writes in FFS.
  RETURN_IF_ERROR(StoreInode(num, ino, /*order_critical=*/false));
  (void)inode_dirty;
  return done;
}

Status FsBase::Truncate(InodeNum num, uint64_t new_size) {
  OpScope scope(this, obs::FsOp::kTruncate, num);
  ASSIGN_OR_RETURN(InodeData ino, GetInode(num));
  if (ino.is_dir()) return IsDirectory("truncate of directory");
  if (new_size < ino.size) {
    MapHost host(this, num, &ino);
    const uint64_t keep = (new_size + kBlockSize - 1) / kBlockSize;
    RETURN_IF_ERROR(BmapTruncate(host, &ino, keep));
    // Zero the tail of the (kept) partial block so data past the new EOF
    // cannot reappear if the file is later extended.
    if (new_size % kBlockSize != 0) {
      ASSIGN_OR_RETURN(uint32_t bno,
                       BmapRead(*cache_, ino, new_size / kBlockSize));
      if (bno != 0) {
        ASSIGN_OR_RETURN(cache::BufferRef buf, cache_->Get(bno));
        const uint32_t from = static_cast<uint32_t>(new_size % kBlockSize);
        std::memset(buf.data().data() + from, 0, kBlockSize - from);
        // cffs-lint: allow(dirty-no-annotation): file-data tail zeroing,
        // not metadata; no ordering rule constrains this block's commit.
        cache_->MarkDirty(buf);
      }
    }
    RETURN_IF_ERROR(AfterBlocksFreed(num, &ino));
  }
  ino.size = new_size;
  ino.mtime_ns = MtimeNs();
  return StoreInode(num, ino, /*order_critical=*/false);
}

Result<Attr> FsBase::GetAttr(InodeNum num) {
  ASSIGN_OR_RETURN(InodeData ino, GetInode(num));
  Attr a;
  a.inum = num;
  a.type = ino.type;
  a.nlink = ino.nlink;
  a.size = ino.size;
  a.mtime = SimTime::Nanos(ino.mtime_ns);
  return a;
}

Result<cache::BufferRef> FsBase::DirBlockGet(const InodeData& dir,
                                             uint32_t bno) {
  ++op_stats_.dir_block_reads;
  RETURN_IF_ERROR(PrepareDataRead(dir, bno));
  return cache_->Get(bno);
}

Result<DirIndexCache::Index*> FsBase::BuildDirIndex(const InodeData& dir) {
  DirIndexCache::Index index;
  const uint64_t nblocks = dir.BlockCount();
  for (uint64_t i = 0; i < nblocks; ++i) {
    ASSIGN_OR_RETURN(uint32_t bno, BmapRead(*cache_, dir, i));
    if (bno == 0) continue;
    ASSIGN_OR_RETURN(cache::BufferRef buf, DirBlockGet(dir, bno));
    RETURN_IF_ERROR(ForEachDirRecord(buf.data(), [&](const DirRecord& r) {
      if (r.kind != kFreeRecord) {
        index.by_name[std::string(r.name)] =
            DirEntryLoc{i, bno, r.offset};
      }
      return true;
    }));
  }
  ++op_stats_.dir_index_builds;
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kDirIndexBuild;
    e.ts_ns = NowNs();
    e.op = obs::FsOp::kLookup;
    e.a = dir.self;
    e.b = index.by_name.size();
    trace_->Record(e);
  }
  return name_cache_.dir_indexes.Install(dir.self, std::move(index));
}

Result<FsBase::DirSlot> FsBase::DirFindIndexed(const InodeData& dir,
                                               std::string_view name) {
  DirIndexCache::Index* idx = name_cache_.dir_indexes.Find(dir.self);
  if (idx == nullptr) {
    ASSIGN_OR_RETURN(idx, BuildDirIndex(dir));
    if (idx == nullptr) return Unsupported("directory indexing disabled");
  }
  ++op_stats_.dir_index_probes;
  const auto it = idx->by_name.find(std::string(name));
  // The index is complete (built from a full scan and maintained by
  // DirAdd/DirRemove), so a probe miss is an authoritative answer.
  if (it == idx->by_name.end()) return NotFound("no directory entry");
  const DirEntryLoc loc = it->second;
  ASSIGN_OR_RETURN(cache::BufferRef buf, DirBlockGet(dir, loc.bno));
  Result<DirRecord> rec = ReadDirRecordAt(buf.data(), loc.offset);
  if (!rec.ok() || rec->name != name) {
    // The remembered location no longer holds this name: the index is
    // stale (should not happen — coherence bug guard). Drop it and let the
    // caller fall back to the authoritative scan.
    name_cache_.dir_indexes.EraseDir(dir.self);
    return Unsupported("stale directory index entry");
  }
  DirSlot slot;
  slot.file_idx = loc.file_idx;
  slot.bno = loc.bno;
  slot.rec = *rec;
  slot.rec.name = {};  // buffer pin is about to drop
  return slot;
}

Result<FsBase::DirSlot> FsBase::DirFind(const InodeData& dir,
                                        std::string_view name) {
  if (name_cache_enabled_ && dir.self != kInvalidInode) {
    Result<DirSlot> fast = DirFindIndexed(dir, name);
    if (fast.ok() || fast.status().code() != ErrorCode::kUnsupported) {
      return fast;
    }
  }
  const uint64_t nblocks = dir.BlockCount();
  for (uint64_t i = 0; i < nblocks; ++i) {
    ASSIGN_OR_RETURN(uint32_t bno, BmapRead(*cache_, dir, i));
    if (bno == 0) continue;
    ASSIGN_OR_RETURN(cache::BufferRef buf, DirBlockGet(dir, bno));
    Result<DirRecord> rec = FindDirEntry(buf.data(), name);
    if (rec.ok()) {
      DirSlot slot;
      slot.file_idx = i;
      slot.bno = bno;
      slot.rec = *rec;
      slot.rec.name = {};  // buffer pin is about to drop
      return slot;
    }
    if (rec.status().code() != ErrorCode::kNotFound) return rec.status();
  }
  return NotFound("no directory entry");
}

Result<FsBase::DirSlot> FsBase::DirAdd(InodeNum dir_num, InodeData* dir,
                                       std::string_view name, uint8_t kind,
                                       InodeNum inum,
                                       const InodeData* embedded,
                                       bool* dir_dirtied) {
  if (name.size() > kMaxNameLen) return NameTooLong(std::string(name));
  const uint64_t nblocks = dir->BlockCount();

  for (uint64_t i = 0; i < nblocks; ++i) {
    ASSIGN_OR_RETURN(uint32_t bno, BmapRead(*cache_, *dir, i));
    if (bno == 0) continue;
    ASSIGN_OR_RETURN(cache::BufferRef buf, cache_->Get(bno));
    Result<DirRecord> rec = AddDirEntry(buf.data(), name, kind, inum, embedded);
    if (rec.ok()) {
      cache_->MarkDirty(buf);
      cache_->SetFlushUnit(buf, FlushUnitFor(dir_num, *dir, bno));
      // Embedded creates pass kInvalidInode here (the inum is derived from
      // the slot and patched in afterwards); those paths annotate
      // themselves once the final number is known.
      if (inum != kInvalidInode) {
        TraceMeta(obs::MetaUpdateKind::kDentryAdd, bno, inum, dir_num,
                  kind == kEmbeddedRecord);
      }
      if (name_cache_enabled_) {
        name_cache_.dir_indexes.Add(dir_num, name,
                                    DirEntryLoc{i, bno, rec->offset});
        // A stale negative entry may exist; the next Lookup repopulates
        // from the authoritative record (whose inum C-FFS may still patch).
        name_cache_.dentries.Erase(dir_num, name);
      }
      DirSlot slot;
      slot.file_idx = i;
      slot.bno = bno;
      slot.rec = *rec;
      slot.rec.name = {};
      return slot;
    }
    if (rec.status().code() != ErrorCode::kNoSpace) return rec.status();
  }

  // Extend the directory with a fresh block.
  MapHost host(this, dir_num, dir);
  bool inode_dirty = false;
  ASSIGN_OR_RETURN(uint32_t bno, BmapAlloc(host, dir, nblocks, &inode_dirty));
  ASSIGN_OR_RETURN(cache::BufferRef buf, cache_->GetZero(bno));
  InitDirBlock(buf.data());
  ASSIGN_OR_RETURN(DirRecord rec,
                   AddDirEntry(buf.data(), name, kind, inum, embedded));
  cache_->MarkDirty(buf);
  cache_->SetFlushUnit(buf, FlushUnitFor(dir_num, *dir, bno));
  if (inum != kInvalidInode) {
    TraceMeta(obs::MetaUpdateKind::kDentryAdd, bno, inum, dir_num,
              kind == kEmbeddedRecord);
  }
  dir->size = (nblocks + 1) * kBlockSize;
  dir->mtime_ns = MtimeNs();
  if (dir_dirtied) *dir_dirtied = true;
  if (name_cache_enabled_) {
    name_cache_.dir_indexes.Add(dir_num, name,
                                DirEntryLoc{nblocks, bno, rec.offset});
    name_cache_.dentries.Erase(dir_num, name);
  }
  DirSlot slot;
  slot.file_idx = nblocks;
  slot.bno = bno;
  slot.rec = rec;
  slot.rec.name = {};
  return slot;
}

Status FsBase::DirRemove(InodeNum dir_num, std::string_view name,
                         const DirSlot& slot) {
  ASSIGN_OR_RETURN(cache::BufferRef buf, cache_->Get(slot.bno));
  RETURN_IF_ERROR(RemoveDirEntry(buf.data(), slot.rec.offset));
  cache_->MarkDirty(buf);
  TraceMeta(obs::MetaUpdateKind::kDentryRemove, slot.bno, slot.rec.inum,
            dir_num);
  if (name_cache_enabled_) {
    name_cache_.dir_indexes.Remove(dir_num, name);
    // A lookup-after-unlink answers kNotFound without touching the
    // directory again.
    name_cache_.dentries.PutNegative(dir_num, name);
  }
  return OkStatus();
}

Status FsBase::CheckRenameLoop(InodeNum moved, InodeNum new_dir) {
  InodeNum cur = new_dir;
  for (int depth = 0; depth < 4096; ++depth) {
    if (cur == moved) {
      return InvalidArgument("cannot move a directory into itself");
    }
    ASSIGN_OR_RETURN(InodeData ino, GetInode(cur));
    if (ino.parent == cur || ino.parent == kInvalidInode) return OkStatus();
    cur = ino.parent;
  }
  return Corrupt("parent chain does not terminate");
}

Result<bool> FsBase::DirIsEmpty(const InodeData& dir) {
  const uint64_t nblocks = dir.BlockCount();
  for (uint64_t i = 0; i < nblocks; ++i) {
    ASSIGN_OR_RETURN(uint32_t bno, BmapRead(*cache_, dir, i));
    if (bno == 0) continue;
    RETURN_IF_ERROR(PrepareDataRead(dir, bno));
    ASSIGN_OR_RETURN(cache::BufferRef buf, cache_->Get(bno));
    if (!DirBlockEmpty(buf.data())) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Namespace operations.
// ---------------------------------------------------------------------------

Result<InodeNum> FsBase::Create(InodeNum dir, std::string_view name) {
  ++op_stats_.creates;
  OpScope scope(this, obs::FsOp::kCreate, dir);
  return MakeNode(dir, name, FileType::kRegular);
}

Result<InodeNum> FsBase::Mkdir(InodeNum dir, std::string_view name) {
  ++op_stats_.mkdirs;
  OpScope scope(this, obs::FsOp::kMkdir, dir);
  return MakeNode(dir, name, FileType::kDirectory);
}

Result<InodeNum> FsBase::MakeNode(InodeNum dir, std::string_view name,
                                  FileType type) {
  ASSIGN_OR_RETURN(InodeData d, GetInode(dir));
  if (!d.is_dir()) {
    return NotDirectory(type == FileType::kDirectory
                            ? "mkdir in non-directory"
                            : "create in non-directory");
  }
  if (DirFind(d, name).ok()) return Exists(std::string(name));
  bool grown = false;
  ASSIGN_OR_RETURN(const InodeNum inum,
                   CreateStep(dir, &d, name, type, &grown));
  // The directory grew: its inode (new block pointer, size) must reach the
  // disk before the operation is durable.
  if (grown) RETURN_IF_ERROR(StoreInode(dir, d, /*order_critical=*/true));
  return inum;
}

Result<InodeNum> FsBase::CreateStep(InodeNum dir, InodeData* d,
                                    std::string_view name, FileType type,
                                    bool* grown) {
  InodeData ino;
  ASSIGN_OR_RETURN(const InodeNum inum, NewInode(dir, type, &ino));
  RETURN_IF_ERROR(AddName(dir, d, name, inum, &ino, grown));
  return inum;
}

InodeData FsBase::NewImage(InodeNum dir, FileType type, bool extents) const {
  InodeData ino;
  ino.type = type;
  ino.nlink = 1;
  if (extents) ino.flags |= kInodeFlagExtents;
  ino.parent = dir;
  ino.mtime_ns = MtimeNs();
  return ino;
}

Status FsBase::AddName(InodeNum dir, InodeData* d, std::string_view name,
                       InodeNum inum, const InodeData* ino, bool* grown) {
  // The self-test mutation commits the name before the inode it names.
  const bool defer =
      ino != nullptr && mutation_ == OrderingMutation::kDeferInodeInit;
  if (ino != nullptr && !defer) {
    RETURN_IF_ERROR(StoreInode(inum, *ino, /*order_critical=*/true));
  }
  ASSIGN_OR_RETURN(DirSlot slot, DirAdd(dir, d, name, kExternalRecord, inum,
                                        nullptr, grown));
  RETURN_IF_ERROR(SyncMetaBlock(slot.bno, /*order_critical=*/true));
  if (defer) RETURN_IF_ERROR(StoreInode(inum, *ino, /*order_critical=*/true));
  return OkStatus();
}

Status FsBase::FreeAllBlocks(InodeNum num, InodeData* ino) {
  MapHost host(this, num, ino);
  RETURN_IF_ERROR(BmapTruncate(host, ino, 0));
  return AfterBlocksFreed(num, ino);
}

Status FsBase::Unlink(InodeNum dir, std::string_view name) {
  ++op_stats_.unlinks;
  OpScope scope(this, obs::FsOp::kUnlink, dir);
  ASSIGN_OR_RETURN(InodeData d, GetInode(dir));
  if (!d.is_dir()) return NotDirectory("unlink in non-directory");
  ASSIGN_OR_RETURN(DirSlot slot, DirFind(d, name));
  ASSIGN_OR_RETURN(InodeData ino, GetInode(slot.rec.inum));
  if (ino.is_dir()) return IsDirectory(std::string(name));
  return UnlinkStep(dir, name, slot, &ino);
}

Status FsBase::UnlinkStep(InodeNum dir, std::string_view name,
                          const DirSlot& slot, InodeData* ino) {
  // Ordered update #1: remove the name before freeing the inode.
  const InodeNum inum = slot.rec.inum;
  RETURN_IF_ERROR(DirRemove(dir, name, slot));
  RETURN_IF_ERROR(SyncMetaBlock(slot.bno, /*order_critical=*/true));
  if (ino->nlink > 1) {
    --ino->nlink;
    return StoreInode(inum, *ino, /*order_critical=*/true);
  }
  // Free data; 4.4BSD's ffs_truncate writes the zero-length inode
  // synchronously before the blocks are freed (ordered update #2), and
  // ReleaseInode rewrites it once more (ordered update #3).
  RETURN_IF_ERROR(FreeAllBlocks(inum, ino));
  ino->size = 0;
  RETURN_IF_ERROR(StoreInode(inum, *ino, /*order_critical=*/true));
  return ReleaseInode(inum);
}

Status FsBase::Rmdir(InodeNum dir, std::string_view name) {
  ++op_stats_.rmdirs;
  OpScope scope(this, obs::FsOp::kRmdir, dir);
  ASSIGN_OR_RETURN(InodeData d, GetInode(dir));
  if (!d.is_dir()) return NotDirectory("rmdir in non-directory");
  ASSIGN_OR_RETURN(DirSlot slot, DirFind(d, name));
  const InodeNum inum = slot.rec.inum;
  ASSIGN_OR_RETURN(InodeData ino, GetInode(inum));
  if (!ino.is_dir()) return NotDirectory(std::string(name));
  ASSIGN_OR_RETURN(bool empty, DirIsEmpty(ino));
  if (!empty) return NotEmpty(std::string(name));

  RETURN_IF_ERROR(DirRemove(dir, name, slot));
  RETURN_IF_ERROR(SyncMetaBlock(slot.bno, /*order_critical=*/true));
  RETURN_IF_ERROR(FreeAllBlocks(inum, &ino));
  // The directory's number is free for reuse: drop every dentry and the
  // index keyed under it.
  NoteDirGone(inum);
  return ReleaseInode(inum);
}

Status FsBase::Link(InodeNum dir, std::string_view name, InodeNum target) {
  ++op_stats_.links;
  OpScope scope(this, obs::FsOp::kLink, dir);
  ASSIGN_OR_RETURN(InodeData d, GetInode(dir));
  if (!d.is_dir()) return NotDirectory("link in non-directory");
  if (DirFind(d, name).ok()) return Exists(std::string(name));
  ASSIGN_OR_RETURN(InodeData tino, GetInode(target));
  if (tino.is_dir()) return IsDirectory("hard link to directory");
  bool grown = false;
  RETURN_IF_ERROR(LinkStep(dir, &d, name, target, &tino, &grown));
  if (grown) RETURN_IF_ERROR(StoreInode(dir, d, /*order_critical=*/true));
  return OkStatus();
}

Status FsBase::LinkStep(InodeNum dir, InodeData* d, std::string_view name,
                        InodeNum target, InodeData* tino, bool* grown) {
  ++tino->nlink;
  return AddName(dir, d, name, target, tino, grown);
}

Status FsBase::Rename(InodeNum old_dir, std::string_view old_name,
                      InodeNum new_dir, std::string_view new_name) {
  ++op_stats_.renames;
  OpScope scope(this, obs::FsOp::kRename, old_dir);
  ASSIGN_OR_RETURN(InodeData od, GetInode(old_dir));
  if (!od.is_dir()) return NotDirectory("rename source dir");
  ASSIGN_OR_RETURN(InodeData nd, GetInode(new_dir));
  if (!nd.is_dir()) return NotDirectory("rename target dir");
  ASSIGN_OR_RETURN(DirSlot src, DirFind(od, old_name));
  if (DirFind(nd, new_name).ok()) return Exists(std::string(new_name));
  const InodeNum inum = src.rec.inum;
  {
    ASSIGN_OR_RETURN(InodeData moved, GetInode(inum));
    if (moved.is_dir()) RETURN_IF_ERROR(CheckRenameLoop(inum, new_dir));
  }
  // New name first (sync), then remove the old one — a crash in between
  // leaves an extra link, never a lost file.
  InodeData* nd_ptr = new_dir == old_dir ? &od : &nd;
  bool grown = false;
  RETURN_IF_ERROR(RenameStep(inum, new_dir, nd_ptr, new_name, &grown));
  if (grown) {
    RETURN_IF_ERROR(StoreInode(new_dir, *nd_ptr, /*order_critical=*/true));
  }
  // Re-find the source: the add may have reshaped blocks.
  ASSIGN_OR_RETURN(InodeData od2, GetInode(old_dir));
  ASSIGN_OR_RETURN(DirSlot src2, DirFind(od2, old_name));
  RETURN_IF_ERROR(DirRemove(old_dir, old_name, src2));
  return SyncMetaBlock(src2.bno, /*order_critical=*/true);
}

Status FsBase::RenameStep(InodeNum inum, InodeNum new_dir, InodeData* nd,
                          std::string_view new_name, bool* grown) {
  RETURN_IF_ERROR(AddName(new_dir, nd, new_name, inum, nullptr, grown));
  ASSIGN_OR_RETURN(InodeData moved, GetInode(inum));
  if (moved.parent == new_dir) return OkStatus();
  moved.parent = new_dir;
  return StoreInode(inum, moved, /*order_critical=*/false);
}

}  // namespace cffs::fs
