#include "src/fs/common/extent_map.h"

#include <algorithm>
#include <cstring>

#include "src/util/bytes.h"

namespace cffs::fs {

ExtentOnDisk DirectExtent(const InodeData& ino, uint32_t slot) {
  ExtentOnDisk e;
  e.logical = ino.direct[slot * 3 + 0];
  e.start = ino.direct[slot * 3 + 1];
  e.count = ino.direct[slot * 3 + 2];
  return e;
}

void SetDirectExtent(InodeData* ino, uint32_t slot, const ExtentOnDisk& e) {
  ino->direct[slot * 3 + 0] = e.logical;
  ino->direct[slot * 3 + 1] = e.start;
  ino->direct[slot * 3 + 2] = e.count;
}

namespace {

ExtentOnDisk GetBlockExtent(std::span<const uint8_t> block, uint32_t i) {
  const size_t off = static_cast<size_t>(i) * kExtentOnDiskSize;
  ExtentOnDisk e;
  e.logical = GetU32(block, off + 0);
  e.start = GetU32(block, off + 4);
  e.count = GetU32(block, off + 8);
  return e;
}

void PutBlockExtent(std::span<uint8_t> block, uint32_t i,
                    const ExtentOnDisk& e) {
  const size_t off = static_cast<size_t>(i) * kExtentOnDiskSize;
  PutU32(block, off + 0, e.logical);
  PutU32(block, off + 4, e.start);
  PutU32(block, off + 8, e.count);
}

bool Contains(const ExtentOnDisk& e, uint64_t idx) {
  return e.count != 0 && idx >= e.logical &&
         idx < static_cast<uint64_t>(e.logical) + e.count;
}

// Storage location of one extent: a direct slot or an indirect-block entry.
struct Loc {
  uint32_t slot = 0;
  bool direct = true;
};

// One pass over the stored extents, gathering everything alloc/append need.
struct Scan {
  bool found = false;          // idx already mapped
  uint32_t found_bno = 0;
  bool has_tail = false;       // extent ending at the highest file block
  ExtentOnDisk tail;
  Loc tail_loc;
  uint32_t next_logical = UINT32_MAX;  // smallest logical above idx
  int free_direct = -1;        // first empty direct slot
  int free_indirect = -1;      // first empty indirect entry (if block exists)
};

Status ScanExtents(cache::BufferCache& cache, const InodeData& ino,
                   uint64_t idx, Scan* s) {
  const auto visit = [&](const ExtentOnDisk& e, Loc loc) {
    if (e.count == 0) {
      if (loc.direct && s->free_direct < 0) {
        s->free_direct = static_cast<int>(loc.slot);
      }
      if (!loc.direct && s->free_indirect < 0) {
        s->free_indirect = static_cast<int>(loc.slot);
      }
      return;
    }
    if (Contains(e, idx)) {
      s->found = true;
      s->found_bno = e.start + static_cast<uint32_t>(idx - e.logical);
    }
    if (e.logical > idx) {
      s->next_logical = std::min(s->next_logical, e.logical);
    }
    const uint64_t end = static_cast<uint64_t>(e.logical) + e.count;
    if (!s->has_tail ||
        end > static_cast<uint64_t>(s->tail.logical) + s->tail.count) {
      s->has_tail = true;
      s->tail = e;
      s->tail_loc = loc;
    }
  };
  for (uint32_t i = 0; i < kDirectExtents; ++i) {
    visit(DirectExtent(ino, i), {i, /*direct=*/true});
  }
  if (ino.indirect != 0) {
    ASSIGN_OR_RETURN(cache::BufferRef ib, cache.Get(ino.indirect));
    for (uint32_t i = 0; i < kExtentsPerBlock; ++i) {
      visit(GetBlockExtent(ib.data(), i), {i, /*direct=*/false});
    }
  }
  return OkStatus();
}

Status StoreExtentAt(BmapHost& host, InodeData* ino, Loc loc,
                     const ExtentOnDisk& e, bool* inode_dirtied) {
  if (loc.direct) {
    SetDirectExtent(ino, loc.slot, e);
    if (inode_dirtied) *inode_dirtied = true;
    return OkStatus();
  }
  ASSIGN_OR_RETURN(cache::BufferRef ib, host.cache().Get(ino->indirect));
  PutBlockExtent(ib.data(), loc.slot, e);
  return host.DirtyMapBlock(ib);
}

// Merge `run` (the new mapping of file block idx) into the tail extent
// when logically and physically adjacent, else store it as a new extent.
Result<uint32_t> InsertRun(BmapHost& host, InodeData* ino, uint64_t idx,
                           BlockRun run, const Scan& s, bool* inode_dirtied) {
  if (s.has_tail &&
      idx == static_cast<uint64_t>(s.tail.logical) + s.tail.count &&
      run.start == s.tail.start + s.tail.count) {
    ExtentOnDisk grown = s.tail;
    grown.count += run.count;
    RETURN_IF_ERROR(StoreExtentAt(host, ino, s.tail_loc, grown,
                                  inode_dirtied));
    return run.start;
  }

  ExtentOnDisk e;
  e.logical = static_cast<uint32_t>(idx);
  e.start = run.start;
  e.count = run.count;

  if (s.free_direct >= 0) {
    SetDirectExtent(ino, static_cast<uint32_t>(s.free_direct), e);
    if (inode_dirtied) *inode_dirtied = true;
    return run.start;
  }
  if (ino->indirect == 0) {
    ASSIGN_OR_RETURN(uint32_t ib_bno, host.AllocMapBlock());
    ASSIGN_OR_RETURN(cache::BufferRef ib, host.cache().GetZero(ib_bno));
    PutBlockExtent(ib.data(), 0, e);
    RETURN_IF_ERROR(host.DirtyMapBlock(ib));
    ino->indirect = ib_bno;
    if (inode_dirtied) *inode_dirtied = true;
    return run.start;
  }
  if (s.free_indirect >= 0) {
    RETURN_IF_ERROR(StoreExtentAt(
        host, ino, {static_cast<uint32_t>(s.free_indirect), /*direct=*/false},
        e, inode_dirtied));
    return run.start;
  }
  return NoSpace("extent map full");
}

}  // namespace

Result<uint32_t> ExtentBmapRead(cache::BufferCache& cache,
                                const InodeData& ino, uint64_t idx) {
  if (idx >= kMaxFileBlocks) return OutOfRange("file block index");
  for (uint32_t i = 0; i < kDirectExtents; ++i) {
    const ExtentOnDisk e = DirectExtent(ino, i);
    if (Contains(e, idx)) {
      return e.start + static_cast<uint32_t>(idx - e.logical);
    }
  }
  if (ino.indirect != 0) {
    ASSIGN_OR_RETURN(cache::BufferRef ib, cache.Get(ino.indirect));
    for (uint32_t i = 0; i < kExtentsPerBlock; ++i) {
      const ExtentOnDisk e = GetBlockExtent(ib.data(), i);
      if (Contains(e, idx)) {
        return e.start + static_cast<uint32_t>(idx - e.logical);
      }
    }
  }
  return uint32_t{0};
}

Result<uint32_t> ExtentBmapAlloc(BmapHost& host, InodeData* ino, uint64_t idx,
                                 bool* inode_dirtied) {
  if (idx >= kMaxFileBlocks) return OutOfRange("file block index");
  Scan s;
  RETURN_IF_ERROR(ScanExtents(host.cache(), *ino, idx, &s));
  if (s.found) return s.found_bno;

  // Never let a run grow into the next stored extent's logical range.
  uint32_t want = kMaxExtentLen;
  if (s.next_logical != UINT32_MAX) {
    want = static_cast<uint32_t>(
        std::min<uint64_t>(want, s.next_logical - idx));
  }

  ASSIGN_OR_RETURN(BlockRun run, host.AllocData(idx, want));
  if (run.count == 0) return Corrupt("allocator returned an empty run");
  if (run.count > want) {
    // Defensive: return any surplus the allocator handed out.
    for (uint32_t i = want; i < run.count; ++i) {
      RETURN_IF_ERROR(host.FreeBlock(run.start + i));
    }
    run.count = want;
  }
  // The allocator may have restructured the map underneath us (C-FFS
  // migrates a file out of its group when it crosses the small-file
  // bound, rebuilding every extent): re-scan so the insert sees current
  // slots, not the pre-allocation snapshot.
  s = Scan{};
  RETURN_IF_ERROR(ScanExtents(host.cache(), *ino, idx, &s));
  if (s.found) {
    // The rebuild already mapped idx; hand the fresh run back.
    for (uint32_t i = 0; i < run.count; ++i) {
      RETURN_IF_ERROR(host.FreeBlock(run.start + i));
    }
    return s.found_bno;
  }
  return InsertRun(host, ino, idx, run, s, inode_dirtied);
}

Status ExtentAppendMapping(BmapHost& host, InodeData* ino, uint64_t idx,
                           uint32_t bno, bool* inode_dirtied) {
  Scan s;
  RETURN_IF_ERROR(ScanExtents(host.cache(), *ino, idx, &s));
  if (s.found) {
    return s.found_bno == bno
               ? OkStatus()
               : Corrupt("extent append over an existing mapping");
  }
  return InsertRun(host, ino, idx, {bno, 1}, s, inode_dirtied).status();
}

namespace {

// Frees the part of `e` at file blocks >= keep; returns the surviving
// prefix (count 0 when the whole extent went away).
Result<ExtentOnDisk> ShrinkExtent(BmapHost& host, ExtentOnDisk e,
                                  uint64_t keep) {
  if (e.count == 0 || static_cast<uint64_t>(e.logical) + e.count <= keep) {
    return e;
  }
  const uint32_t kept =
      keep > e.logical ? static_cast<uint32_t>(keep - e.logical) : 0;
  for (uint32_t i = kept; i < e.count; ++i) {
    RETURN_IF_ERROR(host.FreeBlock(e.start + i));
  }
  e.count = kept;
  if (e.count == 0) e = ExtentOnDisk{};
  return e;
}

bool SameExtent(const ExtentOnDisk& a, const ExtentOnDisk& b) {
  return a.logical == b.logical && a.start == b.start && a.count == b.count;
}

}  // namespace

Status ExtentBmapTruncate(BmapHost& host, InodeData* ino,
                          uint64_t keep_blocks) {
  for (uint32_t i = 0; i < kDirectExtents; ++i) {
    const ExtentOnDisk e = DirectExtent(*ino, i);
    ASSIGN_OR_RETURN(ExtentOnDisk kept, ShrinkExtent(host, e, keep_blocks));
    if (!SameExtent(e, kept)) SetDirectExtent(ino, i, kept);
  }
  if (ino->indirect != 0) {
    bool any_left = false;
    bool dirtied = false;
    {
      ASSIGN_OR_RETURN(cache::BufferRef ib, host.cache().Get(ino->indirect));
      for (uint32_t i = 0; i < kExtentsPerBlock; ++i) {
        const ExtentOnDisk e = GetBlockExtent(ib.data(), i);
        ASSIGN_OR_RETURN(ExtentOnDisk kept,
                         ShrinkExtent(host, e, keep_blocks));
        if (!SameExtent(e, kept)) {
          PutBlockExtent(ib.data(), i, kept);
          dirtied = true;
        }
        if (kept.count != 0) any_left = true;
      }
      if (dirtied) RETURN_IF_ERROR(host.DirtyMapBlock(ib));
    }
    if (!any_left) {
      host.cache().Invalidate(ino->indirect);
      RETURN_IF_ERROR(host.FreeBlock(ino->indirect));
      ino->indirect = 0;
    }
  }
  return OkStatus();
}

Status ExtentBmapForEach(
    cache::BufferCache& cache, const InodeData& ino,
    const std::function<Status(uint64_t idx, uint32_t bno)>& fn) {
  const auto visit = [&](const ExtentOnDisk& e) -> Status {
    for (uint32_t i = 0; i < e.count; ++i) {
      RETURN_IF_ERROR(fn(static_cast<uint64_t>(e.logical) + i, e.start + i));
    }
    return OkStatus();
  };
  for (uint32_t i = 0; i < kDirectExtents; ++i) {
    RETURN_IF_ERROR(visit(DirectExtent(ino, i)));
  }
  if (ino.indirect != 0) {
    RETURN_IF_ERROR(fn(UINT64_MAX, ino.indirect));
    // Copy the entries out so no pin is held while fn touches the cache.
    std::vector<ExtentOnDisk> entries;
    {
      ASSIGN_OR_RETURN(cache::BufferRef ib, cache.Get(ino.indirect));
      for (uint32_t i = 0; i < kExtentsPerBlock; ++i) {
        const ExtentOnDisk e = GetBlockExtent(ib.data(), i);
        if (e.count != 0) entries.push_back(e);
      }
    }
    for (const ExtentOnDisk& e : entries) RETURN_IF_ERROR(visit(e));
  }
  return OkStatus();
}

Result<std::vector<ExtentOnDisk>> ExtentList(cache::BufferCache& cache,
                                             const InodeData& ino) {
  std::vector<ExtentOnDisk> out;
  for (uint32_t i = 0; i < kDirectExtents; ++i) {
    const ExtentOnDisk e = DirectExtent(ino, i);
    if (e.count != 0) out.push_back(e);
  }
  if (ino.indirect != 0) {
    ASSIGN_OR_RETURN(cache::BufferRef ib, cache.Get(ino.indirect));
    for (uint32_t i = 0; i < kExtentsPerBlock; ++i) {
      const ExtentOnDisk e = GetBlockExtent(ib.data(), i);
      if (e.count != 0) out.push_back(e);
    }
  }
  return out;
}

}  // namespace cffs::fs
