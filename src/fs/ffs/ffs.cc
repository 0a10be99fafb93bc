#include "src/fs/ffs/ffs.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/fs/common/bitmap.h"
#include "src/util/bytes.h"

namespace cffs::fs {

namespace {
constexpr uint32_t kFfsMagic = 0x46465331;  // "FFS1"

// Cylinder groups Format lays out on a device of `device_blocks` blocks.
uint32_t CgCount(const FfsParams& params, uint64_t device_blocks) {
  return static_cast<uint32_t>((device_blocks - 1) / params.blocks_per_cg);
}

// The one parameter check: Format writes only parameters that pass it and
// ReadParams trusts only a superblock that does, so a mount accepts
// exactly what Format writes. Returns the field at fault and why, or "".
std::string ParamError(const FfsParams& params, uint64_t device_blocks) {
  if (params.blocks_per_cg < 64 || params.blocks_per_cg > kBlockSize * 8) {
    return "blocks_per_cg " + std::to_string(params.blocks_per_cg) +
           " outside [64, " + std::to_string(kBlockSize * 8) + "]";
  }
  if (params.inodes_per_cg == 0 || params.inodes_per_cg % 32 != 0) {
    return "inodes_per_cg " + std::to_string(params.inodes_per_cg) +
           " is not a nonzero multiple of 32";
  }
  const uint64_t table =
      uint64_t{params.inodes_per_cg} * kInodeSize / kBlockSize;
  if (params.blocks_per_cg < table + 16) {
    return "blocks_per_cg " + std::to_string(params.blocks_per_cg) +
           " leaves no room for a " + std::to_string(table) +
           "-block inode table plus 16 blocks";
  }
  if (CgCount(params, device_blocks) == 0) {
    return "ncg 0: the device is smaller than one cylinder group";
  }
  return "";
}
}  // namespace

FfsFileSystem::FfsFileSystem(cache::BufferCache* cache,
                             io::Readahead* readahead, SimClock* clock,
                             MetadataPolicy policy, FfsParams params,
                             uint32_t ncg)
    : FsBase(cache, readahead, clock, policy), params_(params), ncg_(ncg) {
  alloc_ = std::make_unique<CgAllocator>(cache, MakeLayouts());
}

std::vector<CgLayout> FfsFileSystem::MakeLayouts() const {
  std::vector<CgLayout> layouts;
  const uint32_t itb = InodeTableBlocks();
  for (uint32_t cg = 0; cg < ncg_; ++cg) {
    CgLayout g;
    g.first_block = CgBase(cg);
    g.blocks = params_.blocks_per_cg;
    g.bitmap_block = g.first_block;          // [0] block bitmap
    g.resv_block = 0;                        // FFS has no reservations
    g.data_start = g.first_block + 2 + itb;  // [1] inode bitmap, then table
    layouts.push_back(g);
  }
  return layouts;
}

uint32_t FfsFileSystem::InodeBitmapBlock(uint32_t cg) const {
  return CgBase(cg) + 1;
}

Result<std::unique_ptr<FfsFileSystem>> FfsFileSystem::Format(
    cache::BufferCache* cache, io::Readahead* readahead, SimClock* clock,
    const FfsParams& params, MetadataPolicy policy) {
  const uint64_t total = cache->device()->block_count();
  if (std::string error = ParamError(params, total); !error.empty()) {
    return InvalidArgument("FFS parameters: " + error);
  }
  const uint32_t ncg = CgCount(params, total);

  auto fs = std::unique_ptr<FfsFileSystem>(
      new FfsFileSystem(cache, readahead, clock, policy, params, ncg));
  RETURN_IF_ERROR(fs->alloc_->FormatBitmaps());

  // Zero the inode bitmaps; inode table blocks are zeroed lazily on first
  // use (GetZero) — their bitmap bits already say "free".
  for (uint32_t cg = 0; cg < ncg; ++cg) {
    ASSIGN_OR_RETURN(cache::BufferRef bm,
                     cache->GetZero(fs->InodeBitmapBlock(cg)));
    std::memset(bm.data().data(), 0, kBlockSize);
    // cffs-lint: allow(dirty-no-annotation): mkfs-time formatting; no trace
    // recorder is attached and there is no prior state to order against.
    cache->MarkDirty(bm);
  }
  // Inode table blocks must be zeroed on disk so LoadInode of a free slot
  // decodes as kFree; create them as zero dirty blocks.
  for (uint32_t cg = 0; cg < ncg; ++cg) {
    for (uint32_t b = 0; b < fs->InodeTableBlocks(); ++b) {
      ASSIGN_OR_RETURN(cache::BufferRef tb,
                       cache->GetZero(fs->InodeTableStart(cg) + b));
      // cffs-lint: allow(dirty-no-annotation): mkfs-time formatting.
      cache->MarkDirty(tb);
    }
  }

  // Root directory: inode 1 (cg 0, slot 0).
  {
    ASSIGN_OR_RETURN(cache::BufferRef bm,
                     cache->Get(fs->InodeBitmapBlock(0)));
    BitSet(bm.data(), 0);
    // cffs-lint: allow(dirty-no-annotation): mkfs-time formatting.
    cache->MarkDirty(bm);
  }
  InodeData root =
      fs->NewImage(kRootInum, FileType::kDirectory, params.extent_alloc);
  root.self = kRootInum;
  RETURN_IF_ERROR(fs->StoreInode(kRootInum, root, /*order_critical=*/false));

  RETURN_IF_ERROR(fs->WriteSuperblock());
  RETURN_IF_ERROR(fs->Sync());
  return fs;
}

bool FfsFileSystem::IsSuperblock(std::span<const uint8_t> block0) {
  return GetU32(block0, 0) == kFfsMagic;
}

Result<FfsParams> FfsFileSystem::ReadParams(std::span<const uint8_t> block0,
                                            uint64_t device_blocks) {
  if (!IsSuperblock(block0)) return Corrupt("bad FFS magic");
  FfsParams params;
  params.blocks_per_cg = GetU32(block0, 4);
  params.inodes_per_cg = GetU32(block0, 8);
  params.extent_alloc = GetU32(block0, 24) != 0;
  if (std::string error = ParamError(params, device_blocks); !error.empty()) {
    return Corrupt("FFS superblock: " + error);
  }
  const uint32_t ncg = GetU32(block0, 12);
  if (ncg != CgCount(params, device_blocks)) {
    return Corrupt("FFS superblock: ncg " + std::to_string(ncg) + " != " +
                   std::to_string(CgCount(params, device_blocks)) +
                   " cylinder groups on this device");
  }
  const uint64_t blocks = GetU64(block0, 16);
  if (blocks != device_blocks) {
    return Corrupt("FFS superblock: block_count " + std::to_string(blocks) +
                   " != the device's " + std::to_string(device_blocks));
  }
  return params;
}

Result<std::unique_ptr<FfsFileSystem>> FfsFileSystem::Mount(
    cache::BufferCache* cache, io::Readahead* readahead, SimClock* clock,
    MetadataPolicy policy) {
  const uint64_t blocks = cache->device()->block_count();
  ASSIGN_OR_RETURN(cache::BufferRef sb, cache->Get(0));
  ASSIGN_OR_RETURN(const FfsParams params, ReadParams(sb.data(), blocks));
  sb.Release();
  auto fs = std::unique_ptr<FfsFileSystem>(new FfsFileSystem(
      cache, readahead, clock, policy, params, CgCount(params, blocks)));
  RETURN_IF_ERROR(fs->alloc_->RecountFree());
  return fs;
}

Status FfsFileSystem::WriteSuperblock() {
  ASSIGN_OR_RETURN(cache::BufferRef sb, cache_->GetZero(0));
  std::memset(sb.data().data(), 0, kBlockSize);
  PutU32(sb.data(), 0, kFfsMagic);
  PutU32(sb.data(), 4, params_.blocks_per_cg);
  PutU32(sb.data(), 8, params_.inodes_per_cg);
  PutU32(sb.data(), 12, ncg_);
  PutU64(sb.data(), 16, cache_->device()->block_count());
  PutU32(sb.data(), 24, params_.extent_alloc ? 1 : 0);
  cache_->MarkDirty(sb);
  TraceMeta(obs::MetaUpdateKind::kSuperUpdate, /*home_bno=*/0, /*subject=*/0);
  return OkStatus();
}

Status FfsFileSystem::LocateInode(InodeNum num, uint32_t* bno,
                                  uint32_t* off) const {
  if (num == kInvalidInode ||
      num > static_cast<uint64_t>(ncg_) * params_.inodes_per_cg) {
    return BadHandle("inode number out of range");
  }
  const uint64_t idx0 = num - 1;
  const uint32_t cg = static_cast<uint32_t>(idx0 / params_.inodes_per_cg);
  const uint32_t slot = static_cast<uint32_t>(idx0 % params_.inodes_per_cg);
  *bno = InodeTableStart(cg) + slot / (kBlockSize / kInodeSize);
  *off = (slot % (kBlockSize / kInodeSize)) * kInodeSize;
  return OkStatus();
}

Result<InodeData> FfsFileSystem::LoadInode(InodeNum num) {
  uint32_t bno = 0, off = 0;
  RETURN_IF_ERROR(LocateInode(num, &bno, &off));
  ASSIGN_OR_RETURN(cache::BufferRef buf, cache_->Get(bno));
  InodeData ino = InodeData::Decode(buf.data(), off);
  if (ino.is_free()) return BadHandle("inode not allocated");
  return ino;
}

Status FfsFileSystem::StoreInodeImpl(InodeNum num, const InodeData& ino,
                                     bool order_critical) {
  uint32_t bno = 0, off = 0;
  RETURN_IF_ERROR(LocateInode(num, &bno, &off));
  ASSIGN_OR_RETURN(cache::BufferRef buf, cache_->Get(bno));
  if (trace_) {
    // Classify the write by the allocated/free transition it performs —
    // the distinction the ordering rules are phrased in.
    const bool was_free = InodeData::Decode(buf.data(), off).is_free();
    const obs::MetaUpdateKind kind =
        ino.is_free() ? obs::MetaUpdateKind::kInodeFree
        : was_free    ? obs::MetaUpdateKind::kInodeInit
                      : obs::MetaUpdateKind::kInodeUpdate;
    TraceMeta(kind, bno, num);
  }
  ino.Encode(buf.data(), off);
  return MetaDirty(buf, order_critical);
}

Result<uint32_t> FfsFileSystem::InodeHomeBlock(InodeNum num) {
  uint32_t bno = 0, off = 0;
  RETURN_IF_ERROR(LocateInode(num, &bno, &off));
  return bno;
}

Result<bool> FfsFileSystem::InodeIsAllocated(InodeNum num) {
  if (num == kInvalidInode ||
      num > static_cast<uint64_t>(ncg_) * params_.inodes_per_cg) {
    return false;
  }
  const uint64_t idx0 = num - 1;
  const uint32_t cg = static_cast<uint32_t>(idx0 / params_.inodes_per_cg);
  const uint32_t slot = static_cast<uint32_t>(idx0 % params_.inodes_per_cg);
  ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(InodeBitmapBlock(cg)));
  return BitGet(bm.data(), slot);
}

Result<InodeNum> FfsFileSystem::NewInode(InodeNum dir, FileType type,
                                         InodeData* ino) {
  // Directories round-robin across cylinder groups, files go in the same
  // group as their directory (the FFS policy).
  const uint32_t home =
      type == FileType::kDirectory ? (dir_rotor_++ % ncg_) : CgOfInode(dir);
  for (uint32_t n = 0; n < ncg_; ++n) {
    const uint32_t cg = (home + n) % ncg_;
    ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(InodeBitmapBlock(cg)));
    std::optional<uint32_t> slot =
        FindClearBit(bm.data(), params_.inodes_per_cg, 0);
    if (!slot) continue;
    BitSet(bm.data(), *slot);
    // Inode bitmap updates are delayed, like block bitmaps.
    cache_->MarkDirty(bm);
    const InodeNum num =
        1 + static_cast<uint64_t>(cg) * params_.inodes_per_cg + *slot;
    TraceMeta(obs::MetaUpdateKind::kInodeMapUpdate, InodeBitmapBlock(cg), num);
    *ino = NewImage(dir, type, params_.extent_alloc);
    ino->self = num;
    return num;
  }
  return NoSpace("out of inodes");
}

Status FfsFileSystem::ReleaseInode(InodeNum num) {
  InodeData cleared;
  cleared.self = num;
  RETURN_IF_ERROR(StoreInode(num, cleared, /*order_critical=*/true));
  const uint64_t idx0 = num - 1;
  const uint32_t cg = static_cast<uint32_t>(idx0 / params_.inodes_per_cg);
  const uint32_t slot = static_cast<uint32_t>(idx0 % params_.inodes_per_cg);
  ASSIGN_OR_RETURN(cache::BufferRef bm, cache_->Get(InodeBitmapBlock(cg)));
  if (!BitGet(bm.data(), slot)) return Corrupt("double inode free");
  BitClear(bm.data(), slot);
  cache_->MarkDirty(bm);
  TraceMeta(obs::MetaUpdateKind::kInodeMapUpdate, InodeBitmapBlock(cg), num);
  return OkStatus();
}

Result<BlockRun> FfsFileSystem::AllocData(InodeNum num, InodeData* ino,
                                          uint64_t idx, uint32_t want,
                                          uint64_t size_hint_blocks) {
  // Goal: right after the file's previous block; for a file's first block,
  // the start of the inode's cylinder group data area.
  const uint32_t cg_data =
      alloc_->layout(CgOfInode(num) % alloc_->cg_count()).data_start;
  return AllocDataAt(*ino, GoalAfterPrevious(*ino, idx, cg_data), idx, want,
                     size_hint_blocks);
}

Result<uint32_t> FfsFileSystem::AllocMetaBlock(InodeNum num,
                                               const InodeData& ino) {
  // First data block as the goal; BmapRead handles both inode encodings
  // (direct[0] would read an extent's `logical` field on flagged inodes).
  uint32_t first = 0;
  Result<uint32_t> r = BmapRead(*cache_, ino, 0);
  if (r.ok()) first = *r;
  uint32_t goal = first != 0
                      ? first
                      : alloc_->layout(CgOfInode(num) % alloc_->cg_count()).data_start;
  return alloc_->AllocNear(goal);
}

Status FfsFileSystem::FreeBlock(uint32_t bno) { return alloc_->Free(bno); }

Result<FsSpaceInfo> FfsFileSystem::SpaceInfo() {
  FsSpaceInfo info;
  info.total_blocks = cache_->device()->block_count();
  info.free_blocks = alloc_->free_blocks();
  info.metadata_blocks = 1 + static_cast<uint64_t>(ncg_) * (2 + InodeTableBlocks());
  return info;
}

}  // namespace cffs::fs
