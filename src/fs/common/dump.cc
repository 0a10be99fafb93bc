#include "src/fs/common/dump.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <functional>

#include "src/fs/common/bitmap.h"
#include "src/fs/common/extent_map.h"

namespace cffs::fs {

namespace {

std::string Sprintf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

std::string InumString(InodeNum num) {
  if (num & (InodeNum{1} << 62)) {
    return Sprintf("emb@%u+%u", static_cast<unsigned>((num & ~(InodeNum{1} << 62)) >> 9),
                   static_cast<unsigned>((num & 0x1ff) * 8));
  }
  return Sprintf("#%" PRIu64, num);
}

}  // namespace

std::string DescribeInode(const InodeData& ino) {
  const char* type = ino.is_free() ? "free"
                     : ino.is_dir() ? "dir"
                                    : "file";
  std::string out = Sprintf("%s nlink=%u size=%" PRIu64, type, ino.nlink,
                            ino.size);
  if (ino.group_start != 0) {
    out += Sprintf(" group=[%u..%u)", ino.group_start,
                   ino.group_start + ino.group_len);
  }
  if (ino.is_dir() && ino.active_group != 0) {
    out += Sprintf(" active_group=%u", ino.active_group);
  }
  if (ino.flags & kInodeFlagExtents) {
    // Extent encoding: the direct words are 4 (logical, start, count)
    // triples; `indirect` is the spill block of more extents.
    out += " extents=";
    bool first = true;
    for (uint32_t slot = 0; slot < kDirectExtents; ++slot) {
      const ExtentOnDisk e = DirectExtent(ino, slot);
      if (e.count == 0) continue;
      if (!first) out += ",";
      out += Sprintf("%u:[%u+%u)", e.logical, e.start, e.count);
      first = false;
    }
    if (ino.indirect != 0) out += Sprintf(" extblk=%u", ino.indirect);
    return out;
  }
  out += " blocks=";
  bool first = true;
  int shown = 0;
  for (uint32_t i = 0; i < kDirectBlocks && shown < 6; ++i) {
    if (ino.direct[i] == 0) continue;
    if (!first) out += ",";
    out += Sprintf("%u", ino.direct[i]);
    first = false;
    if (++shown == 6) out += ",...";
  }
  if (ino.indirect != 0) out += Sprintf(" ind=%u", ino.indirect);
  if (ino.dindirect != 0) out += Sprintf(" dind=%u", ino.dindirect);
  return out;
}

Result<std::string> DumpDirectory(FsBase* fs, InodeNum dir) {
  ASSIGN_OR_RETURN(std::vector<DirEntryInfo> entries, fs->ReadDir(dir));
  std::string out = Sprintf("directory %s: %zu entries\n",
                            InumString(dir).c_str(), entries.size());
  for (const DirEntryInfo& e : entries) {
    ASSIGN_OR_RETURN(InodeData ino, fs->LoadInode(e.inum));
    out += Sprintf("  %-28s %-10s %s %s\n", e.name.c_str(),
                   InumString(e.inum).c_str(),
                   e.embedded ? "[embedded]" : "[external]",
                   DescribeInode(ino).c_str());
  }
  return out;
}

Result<std::string> DumpTree(FsBase* fs) {
  std::string out;
  std::function<Status(InodeNum, const std::string&, int)> walk =
      [&](InodeNum dir, const std::string& name, int depth) -> Status {
    // Load purely to validate the directory inode before printing it.
    RETURN_IF_ERROR(fs->LoadInode(dir).status());
    out += std::string(static_cast<size_t>(depth) * 2, ' ');
    out += Sprintf("%s/ (%s)\n", name.c_str(), InumString(dir).c_str());
    ASSIGN_OR_RETURN(std::vector<DirEntryInfo> entries, fs->ReadDir(dir));
    for (const DirEntryInfo& e : entries) {
      if (e.type == FileType::kDirectory) {
        RETURN_IF_ERROR(walk(e.inum, e.name, depth + 1));
      } else {
        ASSIGN_OR_RETURN(InodeData child, fs->LoadInode(e.inum));
        out += std::string(static_cast<size_t>(depth + 1) * 2, ' ');
        out += Sprintf("%s (%s, %" PRIu64 " B%s)\n", e.name.c_str(),
                       InumString(e.inum).c_str(), child.size,
                       child.group_start != 0 ? ", grouped" : "");
      }
    }
    return OkStatus();
  };
  RETURN_IF_ERROR(walk(fs->root(), "", 0));
  return out;
}

namespace {

Result<std::string> DumpFfsSuperblock(FfsFileSystem* fs) {
  std::string out = "FFS superblock\n";
  out += Sprintf("  cylinder groups     %u x %u blocks\n", fs->cg_count(),
                 fs->blocks_per_cg());
  out += Sprintf("  inodes per group    %u (table %u blocks)\n",
                 fs->inodes_per_cg(),
                 fs->inodes_per_cg() * kInodeSize / kBlockSize);
  ASSIGN_OR_RETURN(FsSpaceInfo space, fs->SpaceInfo());
  out += Sprintf("  blocks              %" PRIu64 " total, %" PRIu64
                 " free, %" PRIu64 " metadata\n",
                 space.total_blocks, space.free_blocks, space.metadata_blocks);
  return out;
}

Result<std::string> DumpCffsSuperblock(CffsFileSystem* fs) {
  const CffsOptions& o = fs->options();
  std::string out = "C-FFS superblock\n";
  out += Sprintf("  embedded inodes     %s\n", o.embed_inodes ? "on" : "off");
  out += Sprintf("  explicit grouping   %s (extents of %u blocks, small file"
                 " <= %u blocks)\n",
                 o.grouping ? "on" : "off", o.group_blocks,
                 o.small_file_max_blocks);
  out += Sprintf("  extent allocation   %s\n", o.extent_alloc ? "on" : "off");
  out += Sprintf("  cylinder groups     %u blocks each\n", o.blocks_per_cg);
  out += Sprintf("  IFILE               %" PRIu64 " slots, %s\n",
                 fs->external_slot_count(),
                 DescribeInode(fs->ifile_inode()).c_str());
  ASSIGN_OR_RETURN(FsSpaceInfo space, fs->SpaceInfo());
  out += Sprintf("  blocks              %" PRIu64 " total, %" PRIu64
                 " free, %" PRIu64 " metadata\n",
                 space.total_blocks, space.free_blocks, space.metadata_blocks);
  return out;
}

}  // namespace

Result<std::string> DumpSuperblock(FsBase* fs) {
  if (auto* ffs = dynamic_cast<FfsFileSystem*>(fs)) {
    return DumpFfsSuperblock(ffs);
  }
  if (auto* cfs = dynamic_cast<CffsFileSystem*>(fs)) {
    return DumpCffsSuperblock(cfs);
  }
  return Unsupported("no superblock dump for " + fs->name());
}

Result<std::string> DumpAllocation(FsBase* fs) {
  CgAllocator* alloc = fs->allocator();
  std::string out = Sprintf("%4s %10s %10s %10s %10s\n", "cg", "blocks",
                            "used", "free", "reserved");
  cache::BufferCache* cache = fs->buffer_cache();
  for (uint32_t cg = 0; cg < alloc->cg_count(); ++cg) {
    const CgLayout& g = alloc->layout(cg);
    ASSIGN_OR_RETURN(cache::BufferRef bm, cache->Get(g.bitmap_block));
    const uint32_t used = CountSetBits(bm.data(), g.blocks);
    uint32_t reserved = 0;
    if (g.resv_block != 0) {
      ASSIGN_OR_RETURN(cache::BufferRef rm, cache->Get(g.resv_block));
      reserved = CountSetBits(rm.data(), g.blocks);
    }
    out += Sprintf("%4u %10u %10u %10u %10u\n", cg, g.blocks, used,
                   g.blocks - used, reserved);
  }
  return out;
}

Result<FragmentationStats> MeasureFragmentation(CgAllocator* alloc,
                                                uint16_t group_blocks) {
  FragmentationStats stats;
  uint64_t groupable = 0;
  for (uint32_t cg = 0; cg < alloc->cg_count(); ++cg) {
    const CgLayout& g = alloc->layout(cg);
    uint32_t run = 0;
    for (uint32_t b = g.data_start; b <= g.first_block + g.blocks; ++b) {
      bool free = false;
      if (b < g.first_block + g.blocks) {
        ASSIGN_OR_RETURN(bool f, alloc->IsFree(b));
        free = f;
      }
      if (free) {
        ++run;
      } else if (run > 0) {
        stats.free_blocks += run;
        ++stats.free_runs;
        stats.longest_run = std::max<uint64_t>(stats.longest_run, run);
        if (run >= group_blocks) groupable += run;
        run = 0;
      }
    }
  }
  if (stats.free_runs > 0) {
    stats.avg_run = static_cast<double>(stats.free_blocks) / stats.free_runs;
  }
  if (stats.free_blocks > 0) {
    stats.groupable_fraction =
        static_cast<double>(groupable) / stats.free_blocks;
  }
  return stats;
}

std::string DescribeFragmentation(const FragmentationStats& stats) {
  return Sprintf("free=%" PRIu64 " blocks in %" PRIu64
                 " runs (avg %.1f, longest %" PRIu64 "), %.0f%% groupable",
                 stats.free_blocks, stats.free_runs, stats.avg_run,
                 stats.longest_run, 100.0 * stats.groupable_fraction);
}

}  // namespace cffs::fs
