// File-system operation traces: a recordable, replayable op stream.
//
// Traces decouple workload generation from execution: a generator (or a
// conversion from an external trace format) produces a Trace, and
// ReplayTrace() drives any file system with it, measuring simulated time
// and disk work.
#ifndef CFFS_WORKLOAD_TRACE_H_
#define CFFS_WORKLOAD_TRACE_H_

#include <string>
#include <vector>

#include "src/sim/sim_env.h"
#include "src/util/rng.h"

namespace cffs::workload {

enum class TraceOp : uint8_t {
  kCreate,    // a: path (empty file)
  kWrite,     // a: path, offset, size (creates if missing)
  kRead,      // a: path, offset, size
  kUnlink,    // a: path
  kMkdir,     // a: path (mkdir -p)
  kRmdir,     // a: path
  kRename,    // a -> b
  kTruncate,  // a: path, size
  kSync,      // flush everything
};

struct TraceRecord {
  TraceOp op = TraceOp::kSync;
  std::string a;
  std::string b;
  uint64_t offset = 0;
  uint64_t size = 0;
};

class Trace {
 public:
  void Add(TraceRecord record) { records_.push_back(std::move(record)); }
  const std::vector<TraceRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }

 private:
  std::vector<TraceRecord> records_;
};

struct ReplayStats {
  double seconds = 0;         // simulated
  uint64_t ops_applied = 0;
  uint64_t ops_failed = 0;    // e.g. unlink of a name already gone
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t disk_requests = 0;
};

// Applies the trace; op failures on individual records are counted, not
// fatal (traces converted from real systems are often slightly racy).
Result<ReplayStats> ReplayTrace(sim::SimEnv* env, const Trace& trace);

// PostMark-style generator ("mail/netnews/web-commerce server" mix): an
// initial pool of small files, then transactions that pair a read or an
// append with a create or a delete, then teardown.
struct PostmarkParams {
  uint32_t initial_files = 500;
  uint32_t transactions = 2000;
  uint32_t num_dirs = 10;
  uint64_t min_bytes = 512;
  uint64_t max_bytes = 16 * 1024;
  uint64_t seed = 42;
};

Trace GeneratePostmark(const PostmarkParams& params);

}  // namespace cffs::workload

#endif  // CFFS_WORKLOAD_TRACE_H_
