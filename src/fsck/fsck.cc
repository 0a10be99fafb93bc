#include "src/fsck/fsck.h"

#include <unordered_map>
#include <unordered_set>

#include "src/fs/common/bitmap.h"
#include "src/fs/common/block_map.h"
#include "src/fs/common/dir_block.h"

namespace cffs::fsck {

namespace {

using fs::BmapForEach;
using fs::CgLayout;
using fs::InodeData;
using fs::InodeNum;
using fs::kBlockSize;

// Tracks how many inodes reference each physical block.
class RefMap {
 public:
  void Add(uint32_t bno, FsckReport* report) {
    const uint32_t prev = refs_[bno]++;
    if (prev == 1) {
      report->Problem("block " + std::to_string(bno) +
                      " referenced by multiple inodes");
    }
  }
  void Remove(uint32_t bno) {
    auto it = refs_.find(bno);
    if (it == refs_.end()) return;
    if (it->second <= 1) {
      refs_.erase(it);
    } else {
      --it->second;
    }
  }
  bool Contains(uint32_t bno) const { return refs_.count(bno) != 0; }
  size_t size() const { return refs_.size(); }

 private:
  std::unordered_map<uint32_t, uint32_t> refs_;
};

// Collects every block mapped by an inode (data + indirect).
Status CollectBlocks(cache::BufferCache* cache, const InodeData& ino,
                     RefMap* refs, FsckReport* report) {
  return BmapForEach(*cache, ino, [&](uint64_t, uint32_t bno) -> Status {
    refs->Add(bno, report);
    return OkStatus();
  });
}

// Drops every block mapped by an inode from the ref map; used when an
// orphaned inode is cleared so the bitmap audit frees its blocks.
Status DropBlocks(cache::BufferCache* cache, const InodeData& ino,
                  RefMap* refs) {
  return BmapForEach(*cache, ino, [&](uint64_t, uint32_t bno) -> Status {
    refs->Remove(bno);
    return OkStatus();
  });
}

// Compares a cylinder group's on-disk block bitmap with the expected
// used-set; repairs in place when asked.
Status AuditBitmap(cache::BufferCache* cache, const CgLayout& g,
                   const RefMap& refs, const FsckOptions& options,
                   FsckReport* report) {
  ASSIGN_OR_RETURN(cache::BufferRef bm, cache->Get(g.bitmap_block));
  for (uint32_t bit = 0; bit < g.blocks; ++bit) {
    const uint32_t bno = g.first_block + bit;
    const bool metadata = bno < g.data_start;
    const bool expect_used = metadata || refs.Contains(bno);
    const bool marked = fs::BitGet(bm.data(), bit);
    if (marked == expect_used) continue;
    if (marked) {
      report->Problem("orphaned block " + std::to_string(bno) +
                      " (marked used, unreferenced)");
    } else {
      report->Problem("referenced block " + std::to_string(bno) +
                      " marked free");
    }
    if (options.repair) {
      if (expect_used) {
        fs::BitSet(bm.data(), bit);
      } else {
        fs::BitClear(bm.data(), bit);
      }
      cache->MarkDirty(bm);
      ++report->repaired;
    }
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// FFS
// ---------------------------------------------------------------------------

Result<FsckReport> CheckFfs(fs::FfsFileSystem* ffs, const FsckOptions& options) {
  FsckReport report;
  cache::BufferCache* cache = ffs->buffer_cache();
  RefMap refs;
  std::unordered_map<InodeNum, uint32_t> name_refs;

  const uint64_t max_inum =
      static_cast<uint64_t>(ffs->cg_count()) * ffs->inodes_per_cg();

  // Pass 1: scan the static inode tables; collect block references.
  std::vector<InodeNum> dirs;
  for (InodeNum num = 1; num <= max_inum; ++num) {
    uint32_t bno = 0, off = 0;
    RETURN_IF_ERROR(ffs->LocateInode(num, &bno, &off));
    ASSIGN_OR_RETURN(cache::BufferRef buf, cache->Get(bno));
    const InodeData ino = InodeData::Decode(buf.data(), off);
    buf.Release();
    ASSIGN_OR_RETURN(bool marked, ffs->InodeIsAllocated(num));
    if (ino.is_free()) {
      if (marked) {
        report.Problem("inode " + std::to_string(num) +
                       " marked allocated but free");
        if (options.repair) {
          // Clear the bit: content wins (a free inode cannot be trusted).
          ASSIGN_OR_RETURN(cache::BufferRef bm,
                           cache->Get(ffs->InodeBitmapBlock(
                               static_cast<uint32_t>((num - 1) /
                                                     ffs->inodes_per_cg()))));
          fs::BitClear(bm.data(),
                       static_cast<uint32_t>((num - 1) % ffs->inodes_per_cg()));
          cache->MarkDirty(bm);
          ++report.repaired;
        }
      }
      continue;
    }
    if (!marked) {
      report.Problem("inode " + std::to_string(num) +
                     " in use but marked free");
      if (options.repair) {
        ASSIGN_OR_RETURN(cache::BufferRef bm,
                         cache->Get(ffs->InodeBitmapBlock(
                             static_cast<uint32_t>((num - 1) /
                                                   ffs->inodes_per_cg()))));
        fs::BitSet(bm.data(),
                   static_cast<uint32_t>((num - 1) % ffs->inodes_per_cg()));
        cache->MarkDirty(bm);
        ++report.repaired;
      }
    }
    if (ino.is_dir()) {
      ++report.directories;
      dirs.push_back(num);
    } else {
      ++report.files;
    }
    RETURN_IF_ERROR(CollectBlocks(cache, ino, &refs, &report));
  }

  // Pass 2: walk directories, validating format and counting name refs.
  for (InodeNum dnum : dirs) {
    ASSIGN_OR_RETURN(InodeData dino, ffs->LoadInode(dnum));
    for (uint64_t i = 0; i < dino.BlockCount(); ++i) {
      ASSIGN_OR_RETURN(uint32_t bno, fs::BmapRead(*cache, dino, i));
      if (bno == 0) continue;
      ASSIGN_OR_RETURN(cache::BufferRef buf, cache->Get(bno));
      std::vector<fs::DirRecord> records;
      Status s = fs::ForEachDirRecord(buf.data(), [&](const fs::DirRecord& r) {
        if (r.kind == fs::kExternalRecord) records.push_back(r);
        return true;
      });
      if (!s.ok()) {
        report.Problem("directory " + std::to_string(dnum) + " block " +
                       std::to_string(bno) + ": " + s.ToString());
        continue;
      }
      for (const fs::DirRecord& r : records) {
        // A name whose inode slot is free or out of range is dangling
        // (the directory block committed but the inode write was lost).
        if (!ffs->LoadInode(r.inum).ok()) {
          report.Problem("dangling name in directory " + std::to_string(dnum) +
                         " for inode " + std::to_string(r.inum));
          if (options.repair) {
            RETURN_IF_ERROR(fs::RemoveDirEntry(buf.data(), r.offset));
            cache->MarkDirty(buf);
            ++report.repaired;
          }
          continue;
        }
        ++name_refs[r.inum];
      }
    }
  }
  ++name_refs[fs::FfsFileSystem::kRootInum];  // the root has an implicit name

  // Pass 3: link counts.
  for (InodeNum num = 1; num <= max_inum; ++num) {
    Result<InodeData> ino = ffs->LoadInode(num);
    if (!ino.ok()) continue;
    const uint32_t expected = name_refs.count(num) ? name_refs[num] : 0;
    if (expected == 0) {
      report.Problem("inode " + std::to_string(num) + " has no name");
      if (options.repair) {
        // Clear the orphan: the inode-table block committed but every
        // directory entry naming it was lost. Drop its blocks from the
        // ref set (pass 4 then frees them in the bitmap), zero the
        // on-disk inode, and release its allocation bit. Clearing an
        // orphaned directory can orphan its children; callers re-run
        // fsck until it converges, as classic fsck does.
        RETURN_IF_ERROR(DropBlocks(cache, *ino, &refs));
        uint32_t bno = 0, off = 0;
        RETURN_IF_ERROR(ffs->LocateInode(num, &bno, &off));
        ASSIGN_OR_RETURN(cache::BufferRef buf, cache->Get(bno));
        InodeData().Encode(buf.data(), off);
        cache->MarkDirty(buf);
        buf.Release();
        ASSIGN_OR_RETURN(cache::BufferRef bm,
                         cache->Get(ffs->InodeBitmapBlock(
                             static_cast<uint32_t>((num - 1) /
                                                   ffs->inodes_per_cg()))));
        fs::BitClear(bm.data(),
                     static_cast<uint32_t>((num - 1) % ffs->inodes_per_cg()));
        cache->MarkDirty(bm);
        ++report.repaired;
      }
    } else if (ino->nlink != expected) {
      report.Problem("inode " + std::to_string(num) + " nlink " +
                     std::to_string(ino->nlink) + " != " +
                     std::to_string(expected) + " names");
      if (options.repair) {
        InodeData fixed = *ino;
        fixed.nlink = static_cast<uint16_t>(expected);
        uint32_t bno = 0, off = 0;
        RETURN_IF_ERROR(ffs->LocateInode(num, &bno, &off));
        ASSIGN_OR_RETURN(cache::BufferRef buf, cache->Get(bno));
        fixed.Encode(buf.data(), off);
        cache->MarkDirty(buf);
        ++report.repaired;
      }
    }
  }
  report.referenced_blocks = refs.size();

  // Pass 4: block bitmaps.
  for (uint32_t cg = 0; cg < ffs->cg_count(); ++cg) {
    RETURN_IF_ERROR(AuditBitmap(cache, ffs->allocator()->layout(cg), refs,
                                options, &report));
  }
  return report;
}

}  // namespace

// ---------------------------------------------------------------------------
// C-FFS
// ---------------------------------------------------------------------------

Result<FsckReport> CheckCffs(fs::CffsFileSystem* cfs,
                             const FsckOptions& options) {
  FsckReport report;
  cache::BufferCache* cache = cfs->buffer_cache();
  RefMap refs;
  std::unordered_map<uint64_t, uint32_t> ext_refs;  // external slot -> names
  std::unordered_set<uint32_t> live_extents;        // group extents in use
  const uint16_t gb = cfs->options().group_blocks;

  // IFILE blocks are metadata-referenced.
  RETURN_IF_ERROR(CollectBlocks(cache, cfs->ifile_inode(), &refs, &report));

  // Walk the namespace from the root (embedded inodes are only findable
  // this way — exactly the paper's recovery argument).
  std::vector<InodeNum> pending{cfs->root()};
  ++ext_refs[cfs->root()];
  while (!pending.empty()) {
    const InodeNum dnum = pending.back();
    pending.pop_back();
    Result<InodeData> dino_or = cfs->LoadInode(dnum);
    if (!dino_or.ok()) {
      report.Problem("unreadable directory inode " + std::to_string(dnum));
      continue;
    }
    const InodeData dino = *dino_or;
    ++report.directories;
    RETURN_IF_ERROR(CollectBlocks(cache, dino, &refs, &report));
    if (dino.active_group != 0) live_extents.insert(dino.active_group);

    for (uint64_t i = 0; i < dino.BlockCount(); ++i) {
      ASSIGN_OR_RETURN(uint32_t bno, fs::BmapRead(*cache, dino, i));
      if (bno == 0) continue;
      ASSIGN_OR_RETURN(cache::BufferRef buf, cache->Get(bno));
      std::vector<fs::DirRecord> records;
      Status s = fs::ForEachDirRecord(buf.data(), [&](const fs::DirRecord& r) {
        if (r.kind != fs::kFreeRecord) records.push_back(r);
        return true;
      });
      if (!s.ok()) {
        report.Problem("directory " + std::to_string(dnum) + " block " +
                       std::to_string(bno) + ": " + s.ToString());
        continue;
      }
      for (const fs::DirRecord& r : records) {
        if (r.kind == fs::kEmbeddedRecord) {
          const InodeNum expect = fs::MakeEmbedded(bno, r.inode_off);
          const InodeData ino = InodeData::Decode(buf.data(), r.inode_off);
          if (r.inum != expect || ino.self != expect) {
            report.Problem("embedded inode id mismatch in dir " +
                           std::to_string(dnum));
            continue;
          }
          ++report.files;
          RETURN_IF_ERROR(CollectBlocks(cache, ino, &refs, &report));
          if (ino.group_start != 0) live_extents.insert(ino.group_start);
        } else {
          ++ext_refs[r.inum];
          Result<InodeData> child = cfs->LoadExternalInode(r.inum);
          if (!child.ok() || child->is_free()) {
            report.Problem("dangling external reference to slot " +
                           std::to_string(r.inum));
            if (options.repair) {
              // The directory block committed but the IFILE write was
              // lost; drop the name so the tree stays consistent.
              RETURN_IF_ERROR(fs::RemoveDirEntry(buf.data(), r.offset));
              cache->MarkDirty(buf);
              --ext_refs[r.inum];
              ++report.repaired;
            }
            continue;
          }
          if (child->is_dir()) {
            pending.push_back(r.inum);
            if (child->parent != dnum) {
              report.Problem("directory slot " + std::to_string(r.inum) +
                             " has wrong parent pointer");
            }
          }
          // Regular external files are collected below in the slot scan
          // (they may be multiply referenced).
        }
      }
    }
  }

  // External inode slots: allocation consistency, link counts, blocks.
  const uint64_t slots = cfs->external_slot_count();
  for (uint64_t slot = 1; slot < slots; ++slot) {
    ASSIGN_OR_RETURN(InodeData ino, cfs->LoadExternalInode(slot));
    const uint32_t names = ext_refs.count(slot) ? ext_refs[slot] : 0;
    if (ino.is_free()) {
      if (names != 0) {
        // already reported as dangling above
      }
      continue;
    }
    if (names == 0) {
      report.Problem("external inode slot " + std::to_string(slot) +
                     " allocated but unreachable");
      if (options.repair) {
        // An unreachable inode's blocks are not collected, so the bitmap
        // audit frees them; clear the slot itself so a re-run (and the
        // mount-time free-slot scan) sees it free.
        ASSIGN_OR_RETURN(uint32_t bno, cfs->ExternalSlotBlock(slot));
        ASSIGN_OR_RETURN(cache::BufferRef buf, cache->Get(bno));
        InodeData().Encode(
            buf.data(),
            static_cast<uint32_t>((slot * fs::kInodeSize) % kBlockSize));
        cache->MarkDirty(buf);
        ++report.repaired;
      }
      continue;
    }
    if (!ino.is_dir()) {
      ++report.files;
      RETURN_IF_ERROR(CollectBlocks(cache, ino, &refs, &report));
      if (ino.group_start != 0) live_extents.insert(ino.group_start);
    }
    if (ino.nlink != names) {
      report.Problem("external inode slot " + std::to_string(slot) +
                     " nlink " + std::to_string(ino.nlink) + " != " +
                     std::to_string(names) + " names");
    }
  }
  report.referenced_blocks = refs.size();

  // Block bitmaps.
  for (uint32_t cg = 0; cg < cfs->allocator()->cg_count(); ++cg) {
    RETURN_IF_ERROR(AuditBitmap(cache, cfs->allocator()->layout(cg), refs,
                                options, &report));
  }

  // Reservation bitmaps: a reserved window must either contain used blocks
  // or be somebody's live extent; fully-free non-live reservations are
  // stale (space held hostage) and are released on repair.
  for (uint32_t cg = 0; cg < cfs->allocator()->cg_count(); ++cg) {
    const CgLayout& g = cfs->allocator()->layout(cg);
    ASSIGN_OR_RETURN(cache::BufferRef rm, cache->Get(g.resv_block));
    for (uint32_t w = 0; w + gb <= g.blocks; w += gb) {
      uint32_t set = 0;
      for (uint32_t i = 0; i < gb; ++i) {
        if (fs::BitGet(rm.data(), w + i)) ++set;
      }
      if (set == 0) continue;
      if (set != gb) {
        report.Problem("partially reserved group window at block " +
                       std::to_string(g.first_block + w));
        continue;
      }
      const uint32_t start = g.first_block + w;
      bool any_used = false;
      for (uint32_t i = 0; i < gb; ++i) {
        if (refs.Contains(start + i)) {
          any_used = true;
          break;
        }
      }
      if (!any_used && !live_extents.count(start)) {
        report.Problem("stale group reservation at block " +
                       std::to_string(start));
        if (options.repair) {
          for (uint32_t i = 0; i < gb; ++i) fs::BitClear(rm.data(), w + i);
          cache->MarkDirty(rm);
          ++report.repaired;
        }
      }
    }
  }
  return report;
}

Result<FsckReport> Check(fs::FsBase* fs, const FsckOptions& options) {
  if (auto* ffs = dynamic_cast<fs::FfsFileSystem*>(fs)) {
    return CheckFfs(ffs, options);
  }
  if (auto* cfs = dynamic_cast<fs::CffsFileSystem*>(fs)) {
    return CheckCffs(cfs, options);
  }
  return Unsupported("fsck knows only FFS and C-FFS");
}

}  // namespace cffs::fsck
