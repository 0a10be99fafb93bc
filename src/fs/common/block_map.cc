#include "src/fs/common/block_map.h"

#include <algorithm>
#include <vector>

#include "src/fs/common/extent_map.h"
#include "src/util/bytes.h"

namespace cffs::fs {

namespace {

uint32_t GetPtr(std::span<const uint8_t> block, uint32_t slot) {
  return GetU32(block, static_cast<size_t>(slot) * 4);
}

void SetPtr(std::span<uint8_t> block, uint32_t slot, uint32_t bno) {
  PutU32(block, static_cast<size_t>(slot) * 4, bno);
}

// A classic map holds one block per pointer, so it asks for a run of one.
Result<uint32_t> AllocOneBlock(BmapHost& host, uint64_t idx) {
  ASSIGN_OR_RETURN(BlockRun run, host.AllocData(idx, 1));
  return run.start;
}

}  // namespace

Result<uint32_t> BmapRead(cache::BufferCache& cache, const InodeData& ino,
                          uint64_t idx) {
  if (ino.flags & kInodeFlagExtents) return ExtentBmapRead(cache, ino, idx);
  if (idx >= kMaxFileBlocks) return OutOfRange("file block index");
  if (idx < kDirectBlocks) return ino.direct[idx];

  idx -= kDirectBlocks;
  if (idx < kPtrsPerBlock) {
    if (ino.indirect == 0) return uint32_t{0};
    ASSIGN_OR_RETURN(cache::BufferRef ib, cache.Get(ino.indirect));
    return GetPtr(ib.data(), static_cast<uint32_t>(idx));
  }

  idx -= kPtrsPerBlock;
  if (ino.dindirect == 0) return uint32_t{0};
  ASSIGN_OR_RETURN(cache::BufferRef dib, cache.Get(ino.dindirect));
  const uint32_t l1 = GetPtr(dib.data(), static_cast<uint32_t>(idx / kPtrsPerBlock));
  if (l1 == 0) return uint32_t{0};
  ASSIGN_OR_RETURN(cache::BufferRef ib, cache.Get(l1));
  return GetPtr(ib.data(), static_cast<uint32_t>(idx % kPtrsPerBlock));
}

Result<uint32_t> BmapAlloc(BmapHost& host, InodeData* ino, uint64_t idx,
                           bool* inode_dirtied) {
  if (ino->flags & kInodeFlagExtents) {
    return ExtentBmapAlloc(host, ino, idx, inode_dirtied);
  }
  if (idx >= kMaxFileBlocks) return OutOfRange("file block index");
  if (idx < kDirectBlocks) {
    if (ino->direct[idx] == 0) {
      ASSIGN_OR_RETURN(uint32_t bno, AllocOneBlock(host, idx));
      ino->direct[idx] = bno;
      if (inode_dirtied) *inode_dirtied = true;
    }
    return ino->direct[idx];
  }

  uint64_t rel = idx - kDirectBlocks;
  if (rel < kPtrsPerBlock) {
    if (ino->indirect == 0) {
      ASSIGN_OR_RETURN(uint32_t ib_bno, host.AllocMapBlock());
      ASSIGN_OR_RETURN(cache::BufferRef ib, host.cache().GetZero(ib_bno));
      RETURN_IF_ERROR(host.DirtyMapBlock(ib));
      ino->indirect = ib_bno;
      if (inode_dirtied) *inode_dirtied = true;
    }
    ASSIGN_OR_RETURN(cache::BufferRef ib, host.cache().Get(ino->indirect));
    uint32_t bno = GetPtr(ib.data(), static_cast<uint32_t>(rel));
    if (bno == 0) {
      ASSIGN_OR_RETURN(uint32_t nb, AllocOneBlock(host, idx));
      bno = nb;
      SetPtr(ib.data(), static_cast<uint32_t>(rel), bno);
      RETURN_IF_ERROR(host.DirtyMapBlock(ib));
    }
    return bno;
  }

  rel -= kPtrsPerBlock;
  const uint32_t l1_slot = static_cast<uint32_t>(rel / kPtrsPerBlock);
  const uint32_t l2_slot = static_cast<uint32_t>(rel % kPtrsPerBlock);
  if (ino->dindirect == 0) {
    ASSIGN_OR_RETURN(uint32_t db_bno, host.AllocMapBlock());
    ASSIGN_OR_RETURN(cache::BufferRef dib, host.cache().GetZero(db_bno));
    RETURN_IF_ERROR(host.DirtyMapBlock(dib));
    ino->dindirect = db_bno;
    if (inode_dirtied) *inode_dirtied = true;
  }
  ASSIGN_OR_RETURN(cache::BufferRef dib, host.cache().Get(ino->dindirect));
  uint32_t l1 = GetPtr(dib.data(), l1_slot);
  if (l1 == 0) {
    ASSIGN_OR_RETURN(uint32_t ib_bno, host.AllocMapBlock());
    l1 = ib_bno;
    ASSIGN_OR_RETURN(cache::BufferRef ib, host.cache().GetZero(l1));
    RETURN_IF_ERROR(host.DirtyMapBlock(ib));
    SetPtr(dib.data(), l1_slot, l1);
    RETURN_IF_ERROR(host.DirtyMapBlock(dib));
  }
  ASSIGN_OR_RETURN(cache::BufferRef ib, host.cache().Get(l1));
  uint32_t bno = GetPtr(ib.data(), l2_slot);
  if (bno == 0) {
    ASSIGN_OR_RETURN(uint32_t nb, AllocOneBlock(host, idx));
    bno = nb;
    SetPtr(ib.data(), l2_slot, bno);
    RETURN_IF_ERROR(host.DirtyMapBlock(ib));
  }
  return bno;
}

namespace {

// Frees pointers in an indirect block with slot index >= first_kept_slot.
// Returns true if the block still maps something.
Result<bool> TruncateIndirect(BmapHost& host, uint32_t ib_bno,
                              uint32_t first_kept_slot) {
  ASSIGN_OR_RETURN(cache::BufferRef ib, host.cache().Get(ib_bno));
  bool any_left = false;
  bool dirtied = false;
  for (uint32_t s = 0; s < kPtrsPerBlock; ++s) {
    const uint32_t bno = GetPtr(ib.data(), s);
    if (bno == 0) continue;
    if (s >= first_kept_slot) {
      RETURN_IF_ERROR(host.FreeBlock(bno));
      SetPtr(ib.data(), s, 0);
      dirtied = true;
    } else {
      any_left = true;
    }
  }
  if (dirtied) RETURN_IF_ERROR(host.DirtyMapBlock(ib));
  return any_left;
}

}  // namespace

Status BmapTruncate(BmapHost& host, InodeData* ino, uint64_t keep_blocks) {
  if (ino->flags & kInodeFlagExtents) {
    return ExtentBmapTruncate(host, ino, keep_blocks);
  }
  // Direct blocks.
  for (uint64_t i = keep_blocks; i < kDirectBlocks; ++i) {
    if (ino->direct[i] != 0) {
      RETURN_IF_ERROR(host.FreeBlock(ino->direct[i]));
      ino->direct[i] = 0;
    }
  }

  // Single indirect.
  if (ino->indirect != 0) {
    const uint64_t base = kDirectBlocks;
    const uint32_t first_kept =
        keep_blocks <= base
            ? 0
            : static_cast<uint32_t>(
                  std::min<uint64_t>(keep_blocks - base, kPtrsPerBlock));
    ASSIGN_OR_RETURN(bool any_left,
                     TruncateIndirect(host, ino->indirect, first_kept));
    if (!any_left) {
      host.cache().Invalidate(ino->indirect);
      RETURN_IF_ERROR(host.FreeBlock(ino->indirect));
      ino->indirect = 0;
    }
  }

  // Double indirect.
  if (ino->dindirect != 0) {
    const uint64_t base = kDirectBlocks + kPtrsPerBlock;
    const uint64_t kept = keep_blocks <= base ? 0 : keep_blocks - base;
    ASSIGN_OR_RETURN(cache::BufferRef dib, host.cache().Get(ino->dindirect));
    bool any_left = false;
    bool dirtied = false;
    for (uint32_t s = 0; s < kPtrsPerBlock; ++s) {
      const uint32_t l1 = GetPtr(dib.data(), s);
      if (l1 == 0) continue;
      const uint64_t slot_base = static_cast<uint64_t>(s) * kPtrsPerBlock;
      uint32_t first_kept_slot;
      if (kept <= slot_base) {
        first_kept_slot = 0;
      } else if (kept >= slot_base + kPtrsPerBlock) {
        first_kept_slot = kPtrsPerBlock;
      } else {
        first_kept_slot = static_cast<uint32_t>(kept - slot_base);
      }
      if (first_kept_slot == kPtrsPerBlock) {
        any_left = true;
        continue;
      }
      ASSIGN_OR_RETURN(bool l1_left,
                       TruncateIndirect(host, l1, first_kept_slot));
      if (!l1_left) {
        host.cache().Invalidate(l1);
        RETURN_IF_ERROR(host.FreeBlock(l1));
        SetPtr(dib.data(), s, 0);
        dirtied = true;
      } else {
        any_left = true;
      }
    }
    if (dirtied) RETURN_IF_ERROR(host.DirtyMapBlock(dib));
    dib.Release();
    if (!any_left) {
      host.cache().Invalidate(ino->dindirect);
      RETURN_IF_ERROR(host.FreeBlock(ino->dindirect));
      ino->dindirect = 0;
    }
  }
  return OkStatus();
}

Status BmapForEach(
    cache::BufferCache& cache, const InodeData& ino,
    const std::function<Status(uint64_t idx, uint32_t bno)>& fn) {
  if (ino.flags & kInodeFlagExtents) return ExtentBmapForEach(cache, ino, fn);
  for (uint32_t i = 0; i < kDirectBlocks; ++i) {
    if (ino.direct[i] != 0) RETURN_IF_ERROR(fn(i, ino.direct[i]));
  }
  if (ino.indirect != 0) {
    RETURN_IF_ERROR(fn(UINT64_MAX, ino.indirect));
    ASSIGN_OR_RETURN(cache::BufferRef ib, cache.Get(ino.indirect));
    for (uint32_t s = 0; s < kPtrsPerBlock; ++s) {
      const uint32_t bno = GetPtr(ib.data(), s);
      if (bno != 0) RETURN_IF_ERROR(fn(kDirectBlocks + s, bno));
    }
  }
  if (ino.dindirect != 0) {
    RETURN_IF_ERROR(fn(UINT64_MAX, ino.dindirect));
    // Copy the level-1 pointers out so we don't hold two pins while
    // visiting level-2 blocks.
    std::vector<uint32_t> l1s;
    {
      ASSIGN_OR_RETURN(cache::BufferRef dib, cache.Get(ino.dindirect));
      for (uint32_t s = 0; s < kPtrsPerBlock; ++s) {
        const uint32_t l1 = GetPtr(dib.data(), s);
        l1s.push_back(l1);
      }
    }
    for (uint32_t s = 0; s < kPtrsPerBlock; ++s) {
      if (l1s[s] == 0) continue;
      RETURN_IF_ERROR(fn(UINT64_MAX, l1s[s]));
      ASSIGN_OR_RETURN(cache::BufferRef ib, cache.Get(l1s[s]));
      for (uint32_t t = 0; t < kPtrsPerBlock; ++t) {
        const uint32_t bno = GetPtr(ib.data(), t);
        if (bno != 0) {
          const uint64_t idx = kDirectBlocks + kPtrsPerBlock +
                               static_cast<uint64_t>(s) * kPtrsPerBlock + t;
          RETURN_IF_ERROR(fn(idx, bno));
        }
      }
    }
  }
  return OkStatus();
}

}  // namespace cffs::fs
