#include "src/disk/disk_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

namespace cffs::disk {

namespace {

// Whether the sector at `p` is all zeros. The whole sector is OR-reduced
// before the one test, with no early exit: a branch per word costs more
// than the words it would skip. The byte loop compiles to 16-byte vector
// ORs at -O2, and the two halves give it two independent chains.
bool ZeroSector(const uint8_t* p) {
  constexpr uint32_t kHalf = kSectorSize / 2;
  uint8_t lo = 0;
  uint8_t hi = 0;
  for (uint32_t i = 0; i < kHalf; ++i) {
    lo |= p[i];
    hi |= p[kHalf + i];
  }
  return (lo | hi) == 0;
}

}  // namespace

DiskModel::DiskModel(DiskSpec spec, SimClock* clock)
    : spec_(std::move(spec)),
      geometry_(spec_.MakeGeometry()),
      seek_curve_(spec_.seek_single, spec_.seek_avg, spec_.seek_max,
                  geometry_.total_cylinders() > 1 ? geometry_.total_cylinders() - 1 : 3),
      clock_(clock),
      chunks_((geometry_.total_sectors() + kImageChunkSectors - 1) /
              kImageChunkSectors) {
  assert(clock_ != nullptr);
  cache_.resize(std::max<uint32_t>(1, spec_.cache_segments));
}

double DiskModel::AngleAt(SimTime t) const {
  const double period = spec_.RotationPeriod().seconds();
  const double s = t.seconds();
  const double frac = s / period - std::floor(s / period);
  return frac;
}

SimTime DiskModel::BusAccess(SimTime start, uint32_t nsectors) {
  const double bytes = static_cast<double>(nsectors) * kSectorSize;
  const SimTime bus = SimTime::Seconds(bytes / (spec_.bus_mb_per_s * 1e6));
  stats_.overhead_time += spec_.command_overhead;
  stats_.transfer_time += bus;
  return start + spec_.command_overhead + bus;
}

SimTime DiskModel::MechanicalAccess(SimTime start, uint64_t lba,
                                    uint32_t nsectors) {
  assert(nsectors > 0);
  assert(lba + nsectors <= geometry_.total_sectors());
  const SimTime period = spec_.RotationPeriod();

  stats_.overhead_time += spec_.command_overhead;
  SimTime t = start + spec_.command_overhead;
  Location loc = geometry_.Locate(lba);

  // Seek.
  const uint32_t from = current_cylinder_;
  const uint32_t dist = loc.cylinder > from ? loc.cylinder - from : from - loc.cylinder;
  const SimTime seek = seek_curve_.SeekTime(dist);
  t += seek;
  stats_.seek_time += seek;
  stats_.seek_cylinders += dist;

  // Rotational latency: wait for the target sector's leading edge.
  {
    const double target = static_cast<double>(loc.sector) /
                          static_cast<double>(loc.sectors_per_track);
    const double angle = AngleAt(t);
    double wait_frac = target - angle;
    if (wait_frac < 0) wait_frac += 1.0;
    const SimTime wait = SimTime::Nanos(
        static_cast<int64_t>(wait_frac * static_cast<double>(period.nanos())));
    t += wait;
    stats_.rotation_time += wait;
  }

  // Media transfer, track by track. Track/cylinder skew is assumed optimal,
  // so a boundary crossing costs exactly the switch time with no extra
  // rotational wait.
  uint32_t remaining = nsectors;
  uint32_t sector = loc.sector;
  uint32_t head = loc.head;
  uint32_t cylinder = loc.cylinder;
  uint32_t spt = loc.sectors_per_track;
  while (remaining > 0) {
    const uint32_t on_track = std::min(remaining, spt - sector);
    const SimTime xfer = SimTime::Nanos(
        period.nanos() * on_track / spt);
    t += xfer;
    stats_.transfer_time += xfer;
    remaining -= on_track;
    if (remaining == 0) break;
    sector = 0;
    ++head;
    if (head == geometry_.heads()) {
      head = 0;
      ++cylinder;
      assert(cylinder < geometry_.total_cylinders());
      spt = geometry_.SectorsPerTrackAt(cylinder);
      const SimTime sw = seek_curve_.SeekTime(1);
      t += sw;
      stats_.seek_time += sw;
    } else {
      t += spec_.head_switch;
      stats_.transfer_time += spec_.head_switch;
    }
  }
  current_cylinder_ = cylinder;
  return t;
}

SimTime DiskModel::AverageAccessTime(uint64_t bytes) const {
  const uint64_t nsectors = std::max<uint64_t>(1, (bytes + kSectorSize - 1) / kSectorSize);
  // Transfer on the middle zone.
  const Zone& mid = spec_.zones[spec_.zones.size() / 2];
  const SimTime period = spec_.RotationPeriod();
  const double per_sector_ns = static_cast<double>(period.nanos()) / mid.sectors_per_track;
  // Average number of track boundaries crossed.
  const double tracks_crossed =
      static_cast<double>(nsectors) / mid.sectors_per_track;
  const SimTime transfer = SimTime::Nanos(static_cast<int64_t>(
      per_sector_ns * static_cast<double>(nsectors) +
      tracks_crossed * static_cast<double>(spec_.head_switch.nanos())));
  const SimTime half_rotation = SimTime::Nanos(period.nanos() / 2);
  return spec_.command_overhead + seek_curve_.MeanOverUniformPairs() +
         half_rotation + transfer;
}

bool DiskModel::CacheHit(uint64_t lba, uint32_t nsectors) {
  // Extend the prefetching segment by the media read-ahead the drive could
  // do in the idle gap since the last read completed. The drive stops
  // prefetching as soon as this command arrives.
  if (last_read_segment_ >= 0) {
    CacheSegment& seg = cache_[static_cast<size_t>(last_read_segment_)];
    if (seg.valid) {
      const SimTime idle = clock_->now() - last_read_complete_;
      if (idle > SimTime::Zero() && seg.end < geometry_.total_sectors()) {
        const Location at = geometry_.Locate(seg.end == 0 ? 0 : seg.end - 1);
        const double rate_sectors_per_s =
            static_cast<double>(at.sectors_per_track) /
            spec_.RotationPeriod().seconds();
        const uint64_t ahead = static_cast<uint64_t>(
            idle.seconds() * rate_sectors_per_s);
        seg.end = std::min({seg.end + ahead, seg.max_end,
                            geometry_.total_sectors()});
      }
    }
    last_read_segment_ = -1;
  }
  for (auto& seg : cache_) {
    if (seg.valid && lba >= seg.begin && lba + nsectors <= seg.end) {
      seg.last_use = ++cache_clock_;
      return true;
    }
  }
  return false;
}

void DiskModel::CacheInsert(uint64_t lba, uint32_t nsectors) {
  // The segment initially holds exactly what was read; it grows only with
  // idle-time read-ahead (see CacheHit). prefetch_sectors bounds the growth.
  const uint64_t end = std::min<uint64_t>(lba + nsectors, geometry_.total_sectors());
  // Replace the least recently used segment.
  CacheSegment* victim = &cache_[0];
  for (auto& seg : cache_) {
    if (!seg.valid) {
      victim = &seg;
      break;
    }
    if (seg.last_use < victim->last_use) victim = &seg;
  }
  victim->begin = lba;
  victim->end = end;
  victim->max_end = end + spec_.prefetch_sectors;
  victim->valid = true;
  victim->last_use = ++cache_clock_;
  last_read_segment_ = static_cast<int>(victim - cache_.data());
  last_read_complete_ = clock_->now();
}

void DiskModel::CacheInvalidate(uint64_t lba, uint32_t nsectors) {
  for (auto& seg : cache_) {
    if (!seg.valid) continue;
    if (lba < seg.end && lba + nsectors > seg.begin) seg.valid = false;
  }
}

void DiskModel::FinishCommand(const DiskStats& before, SimTime start,
                              SimTime done, uint64_t lba, uint32_t nsectors,
                              bool is_write, bool segment_hit) {
  if (is_write) {
    ++stats_.write_requests;
    stats_.sectors_written += nsectors;
  } else {
    ++stats_.read_requests;
    stats_.sectors_read += nsectors;
  }
  stats_.busy_time += done - start;
  clock_->AdvanceTo(done);
  const int64_t seek = (stats_.seek_time - before.seek_time).nanos();
  const int64_t rotation =
      (stats_.rotation_time - before.rotation_time).nanos();
  const int64_t transfer =
      (stats_.transfer_time - before.transfer_time).nanos();
  const int64_t overhead =
      (stats_.overhead_time - before.overhead_time).nanos();
  if (spans_) {
    spans_->AttributeDisk(start.nanos(), seek, rotation, transfer, overhead,
                          lba);
  }
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kDiskIo;
    e.ts_ns = start.nanos();
    e.dur_ns = (done - start).nanos();
    e.flag = is_write;
    e.hit = segment_hit;
    e.a = lba;
    e.b = nsectors;
    e.seek_ns = seek;
    e.rotation_ns = rotation;
    e.transfer_ns = transfer;
    e.overhead_ns = overhead;
    trace_->Record(e);
  }
}

const DiskModel::Chunk* DiskModel::FindChunk(uint64_t index) const {
  return index < chunks_.size() ? chunks_[index].get() : nullptr;
}

DiskModel::Chunk& DiskModel::ChunkOf(uint64_t lba) {
  std::unique_ptr<Chunk>& slot = chunks_.at(lba / kImageChunkSectors);
  if (!slot) slot = std::make_unique<Chunk>();
  return *slot;
}

void DiskModel::CopyOut(const Chunk* chunk, uint32_t block, uint32_t first,
                        uint32_t n, uint8_t* out) {
  const uint32_t kept = chunk != nullptr ? chunk->kept[block] : 0;
  const uint32_t copied = kept > first ? std::min(n, kept - first) : 0;
  if (copied > 0) {
    std::memcpy(out, chunk->data[block].get() + first * kSectorSize,
                copied * kSectorSize);
  }
  std::memset(out + copied * kSectorSize, 0, (n - copied) * kSectorSize);
}

void DiskModel::StoreBlock(Chunk& chunk, uint32_t block, const uint8_t* in) {
  uint32_t kept = kBlockSectors;
  while (kept > 0 && ZeroSector(in + (kept - 1) * kSectorSize)) --kept;
  if (kept != chunk.kept[block]) {
    chunk.data[block] =
        kept == 0 ? nullptr
                  : std::make_unique_for_overwrite<uint8_t[]>(kept * kSectorSize);
    chunk.kept[block] = static_cast<uint8_t>(kept);
  }
  if (kept > 0) std::memcpy(chunk.data[block].get(), in, kept * kSectorSize);
}

Status DiskModel::Read(uint64_t lba, uint32_t nsectors, std::span<uint8_t> out) {
  if (nsectors == 0 || lba + nsectors > geometry_.total_sectors()) {
    return OutOfRange("disk read past end");
  }
  if (out.size() < static_cast<size_t>(nsectors) * kSectorSize) {
    return InvalidArgument("read buffer too small");
  }
  if (HasReadError(lba, nsectors)) return IoError("unreadable sector");

  const SimTime start = clock_->now();
  const DiskStats before = stats_;
  const bool segment_hit = CacheHit(lba, nsectors);
  const SimTime done = segment_hit ? BusAccess(start, nsectors)
                                   : MechanicalAccess(start, lba, nsectors);
  FinishCommand(before, start, done, lba, nsectors, /*is_write=*/false,
                segment_hit);
  if (segment_hit) {
    ++stats_.cache_hit_requests;
  } else {
    CacheInsert(lba, nsectors);  // records the completion time for prefetch
  }

  PeekSector(lba, out.first(static_cast<size_t>(nsectors) * kSectorSize));
  return OkStatus();
}

Status DiskModel::Write(uint64_t lba, uint32_t nsectors,
                        std::span<const uint8_t> in) {
  if (nsectors == 0 || lba + nsectors > geometry_.total_sectors()) {
    return OutOfRange("disk write past end");
  }
  if (in.size() < static_cast<size_t>(nsectors) * kSectorSize) {
    return InvalidArgument("write buffer too small");
  }

  const SimTime start = clock_->now();
  const DiskStats before = stats_;
  const SimTime done = spec_.write_cache_enabled
                           ? BusAccess(start, nsectors)
                           : MechanicalAccess(start, lba, nsectors);
  CacheInvalidate(lba, nsectors);
  FinishCommand(before, start, done, lba, nsectors, /*is_write=*/true,
                /*segment_hit=*/false);

  return PokeSector(lba, in.first(static_cast<size_t>(nsectors) * kSectorSize));
}

Status DiskModel::CorruptSector(uint64_t lba) {
  if (lba >= total_sectors()) {
    return OutOfRange("corrupt sector " + std::to_string(lba) +
                      " past the drive's end");
  }
  std::array<uint8_t, kSectorSize> sector{};
  PeekSector(lba, sector);
  for (uint32_t i = 0; i < kSectorSize; i += 16) sector[i] ^= 0xa5;
  return PokeSector(lba, sector);
}

bool DiskModel::HasReadError(uint64_t lba, uint32_t nsectors) const {
  if (bad_sectors_.empty()) return false;
  for (uint64_t s = lba; s < lba + nsectors; ++s) {
    if (bad_sectors_.count(s)) return true;
  }
  return false;
}

// Both copies walk the run one block (or part of one) at a time.
void DiskModel::PeekSector(uint64_t lba, std::span<uint8_t> out) const {
  assert(out.size() % kSectorSize == 0);
  uint8_t* p = out.data();
  for (uint64_t left = out.size() / kSectorSize; left > 0;) {
    const uint32_t first = lba % kBlockSectors;
    const uint32_t n =
        static_cast<uint32_t>(std::min<uint64_t>(left, kBlockSectors - first));
    CopyOut(FindChunk(lba / kImageChunkSectors),
            (lba % kImageChunkSectors) / kBlockSectors, first, n, p);
    lba += n;
    p += n * kSectorSize;
    left -= n;
  }
}

Status DiskModel::PokeSector(uint64_t lba, std::span<const uint8_t> in) {
  if (in.size() % kSectorSize != 0) {
    return InvalidArgument("poke of a partial sector");
  }
  const uint64_t nsectors = in.size() / kSectorSize;
  if (lba > total_sectors() || nsectors > total_sectors() - lba) {
    return OutOfRange("poke of " + std::to_string(nsectors) + " sectors at " +
                      std::to_string(lba) + " past the drive's end");
  }
  const uint8_t* p = in.data();
  for (uint64_t left = nsectors; left > 0;) {
    const uint32_t first = lba % kBlockSectors;
    const uint32_t n =
        static_cast<uint32_t>(std::min<uint64_t>(left, kBlockSectors - first));
    Chunk& chunk = ChunkOf(lba);
    const uint32_t block = (lba % kImageChunkSectors) / kBlockSectors;
    if (n == kBlockSectors) {
      StoreBlock(chunk, block, p);
    } else {
      std::array<uint8_t, kBlockSectors * kSectorSize> merged{};
      CopyOut(&chunk, block, 0, kBlockSectors, merged.data());
      std::memcpy(merged.data() + first * kSectorSize, p, n * kSectorSize);
      StoreBlock(chunk, block, merged.data());
    }
    lba += n;
    p += n * kSectorSize;
    left -= n;
  }
  return OkStatus();
}

void DiskModel::ForEachChunk(
    const std::function<void(uint64_t, std::span<const uint8_t>)>& fn) const {
  std::vector<uint8_t> bytes(kImageChunkSectors * kSectorSize);
  for (uint64_t index = 0; index < chunks_.size(); ++index) {
    if (chunks_[index] == nullptr) continue;
    PeekSector(index * kImageChunkSectors, bytes);
    fn(index, bytes);
  }
}

Status DiskModel::RestoreChunk(uint64_t chunk_index,
                               std::span<const uint8_t> data) {
  if (data.size() != kImageChunkSectors * kSectorSize) {
    return InvalidArgument("a chunk is " +
                           std::to_string(kImageChunkSectors * kSectorSize) +
                           " bytes, not " + std::to_string(data.size()));
  }
  if (chunk_index >= chunks_.size()) {
    return OutOfRange("chunk " + std::to_string(chunk_index) +
                      " past the drive's last chunk " +
                      std::to_string(chunks_.size() - 1));
  }
  // Block by block rather than through PokeSector: the drive's last chunk
  // may run past its last sector.
  Chunk& chunk = ChunkOf(chunk_index * kImageChunkSectors);
  for (uint32_t b = 0; b < kChunkBlocks; ++b) {
    StoreBlock(chunk, b, data.data() + b * kBlockSectors * kSectorSize);
  }
  return OkStatus();
}

void DiskModel::TakeContents(DiskModel& other) {
  assert(other.chunks_.size() == chunks_.size());
  chunks_ = std::exchange(other.chunks_, std::vector<std::unique_ptr<Chunk>>(
                                             other.chunks_.size()));
}

}  // namespace cffs::disk
