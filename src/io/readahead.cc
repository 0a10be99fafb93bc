#include "src/io/readahead.h"

#include <algorithm>
#include <span>

namespace cffs::io {

Readahead::Readahead(cache::BufferCache* cache, IoEngine* engine)
    : cache_(cache), engine_(engine) {}

uint32_t Readahead::WindowFor(uint64_t file, uint64_t idx) {
  if (streams_.size() > 256) streams_.clear();  // bound per-file state
  auto [it, inserted] = streams_.try_emplace(file);
  Stream& s = it->second;
  if (inserted) {
    s.window = kMinWindow;
  } else if (idx == s.next_idx) {
    s.window = std::min(s.window * 2, kMaxWindow);
  } else {
    if (s.window != kMinWindow) ++stats_.ramp_resets;
    s.window = kMinWindow;
  }
  return s.window;
}

void Readahead::NoteRun(uint64_t file, uint64_t idx, uint32_t run) {
  streams_[file].next_idx = idx + run;
}

Status Readahead::StageGroup(uint64_t extent_start, uint32_t count,
                             uint64_t demand_bno) {
  ++stats_.group_stages;
  return Stage(extent_start, count, demand_bno, /*group=*/true);
}

Status Readahead::StageRun(uint64_t start_bno, uint32_t count,
                           uint64_t demand_bno) {
  ++stats_.ramp_stages;
  return Stage(start_bno, count, demand_bno, /*group=*/false);
}

Status Readahead::Stage(uint64_t start_bno, uint32_t count,
                        uint64_t demand_bno, bool group) {
  if (count == 0) return InvalidArgument("empty readahead stage");
  stats_.blocks_requested += count;
  const size_t bytes = static_cast<size_t>(count) * blk::kBlockSize;
  if (bounce_.size() < bytes) bounce_.resize(bytes);
  const std::span<uint8_t> raw(bounce_.data(), bytes);
  RETURN_IF_ERROR(engine_->ReadRun(start_bno, count, raw));
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kReadaheadStage;
    e.ts_ns = engine_->device()->disk()->now().nanos();
    e.a = start_bno;
    e.b = count;
    e.flag = group;
    trace_->Record(e);
  }
  // Inserted as a group read: the run shares one flush unit and counts in
  // the cache's group counters.
  return cache_->InsertRun(start_bno, count, raw, demand_bno);
}

}  // namespace cffs::io
