// Crash-state enumeration over the cross-shard rename protocol.
//
// shard_test.cc's recovery test models the coarse crash (every unsynced
// block lost at once, on both shards). This suite drives the fine-grained
// CrashStateEnumerator instead: a cross-shard rename is halted right BEFORE
// the sync of each protocol step, so the acting shard's cache holds exactly
// that step's dirty mutations, and the enumerator explores prefixes,
// dropouts and random subsets of that write-back queue. Every enumerated
// image must repair (fsck) to a state from which JournalRecovery — run
// against the surviving peer shard — leaves the renamed file on exactly one
// shard with its content intact. That is the protocol's §3-style integrity
// claim, checked through the enumerator's post_repair_check hook.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/check/crash_enum.h"
#include "src/disk/disk_model.h"
#include "src/fs/common/path.h"
#include "src/shard/placement.h"
#include "src/shard/router.h"
#include "src/sim/sim_env.h"

namespace cffs::shard {
namespace {

std::vector<uint8_t> Payload(size_t n) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint8_t>(i * 13 + 5);
  return data;
}

std::string DirOwnedBy(uint32_t want, uint32_t shards) {
  for (int i = 0; i < 1000; ++i) {
    std::string d = "/x" + std::to_string(i);
    if (ShardForDir(d, shards) == want) return d;
  }
  ADD_FAILURE() << "no probe dir hashed to shard " << want;
  return "/";
}

// Which shard acts (and so holds dirty protocol state) at each step.
uint32_t ActingShard(XStep step, uint32_t src, uint32_t dst) {
  switch (step) {
    case XStep::kSrcPrepare:
    case XStep::kSrcClear:
      return src;
    case XStep::kDstPrepare:
    case XStep::kCommit:
    case XStep::kDstClear:
      return dst;
  }
  return src;
}

// The protocol-level postcondition: after recovery, `from` exists on the
// source side or `to` exists on the destination side — exactly one of them
// — with the original content, and no journal files remain anywhere.
Status CheckExactlyOneCopy(fs::PathOps& src_ops, fs::PathOps& dst_ops,
                           const std::string& from, const std::string& to,
                           const std::vector<uint8_t>& want) {
  const bool src_exists = src_ops.Resolve(from).ok();
  const bool dst_exists = dst_ops.Resolve(to).ok();
  if (src_exists == dst_exists) {
    return Corrupt(std::string("file survives ") +
                   (src_exists ? "twice" : "zero times"));
  }
  ASSIGN_OR_RETURN(auto data,
                   src_exists ? src_ops.ReadFile(from) : dst_ops.ReadFile(to));
  if (data != want) return Corrupt("surviving copy has wrong content");
  for (fs::PathOps* ops : {&src_ops, &dst_ops}) {
    auto jdir = ops->Resolve(kJournalDir);
    if (!jdir.ok()) continue;
    ASSIGN_OR_RETURN(auto entries, ops->fs()->ReadDir(*jdir));
    for (const auto& e : entries) {
      if (e.name != "." && e.name != "..") {
        return Corrupt("journal file left behind: " + e.name);
      }
    }
  }
  return OkStatus();
}

TEST(ShardCrashEnumTest, EveryImageAtEveryProtocolBoundaryIsRecoverable) {
  const XStep steps[] = {XStep::kSrcPrepare, XStep::kDstPrepare, XStep::kCommit,
                         XStep::kSrcClear, XStep::kDstClear};
  for (XStep step : steps) {
    SCOPED_TRACE(XStepName(step));
    sim::SimConfig cfg;
    cfg.shards = 2;
    auto router = ShardRouter::Create(sim::FsKind::kCffs, cfg);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ShardRouter& r = **router;
    const std::string src_dir = DirOwnedBy(0, 2);
    const std::string dst_dir = DirOwnedBy(1, 2);
    const std::string from = src_dir + "/file";
    const std::string to = dst_dir + "/file";
    const auto data = Payload(900);
    ASSERT_TRUE(r.Mkdir(src_dir).ok());
    ASSERT_TRUE(r.Mkdir(dst_dir).ok());
    ASSERT_TRUE(r.WriteFile(from, data).ok());
    ASSERT_TRUE(r.SyncAll().ok());

    // Halt right before this step's sync: the acting shard's cache holds
    // exactly the step's mutations as pending dirty blocks.
    r.set_xtx_crash_point(step, /*after_sync=*/false);
    ASSERT_EQ(r.Rename(from, to).code(), ErrorCode::kIoError);

    const uint32_t acting = ActingShard(step, 0, 1);
    const uint32_t peer = 1 - acting;
    sim::SimEnv* acting_env = r.env(acting);
    sim::SimEnv* peer_env = r.env(peer);

    check::CrashEnumOptions opts;
    opts.quick = true;
    // Recover each enumerated image of the acting shard against the peer's
    // durable state (the peer synced at its last protocol step, so its
    // platter is its authoritative state) and assert the rename resolved
    // to exactly one surviving copy.
    opts.post_repair_check = [&](fs::FileSystem* crashed_fs) -> Status {
      ASSIGN_OR_RETURN(
          auto peer_copy,
          sim::SimEnv::Open(peer_env->config(), [&](disk::DiskModel& platter) {
            Status restored = OkStatus();
            peer_env->disk().ForEachChunk(
                [&](uint64_t chunk, std::span<const uint8_t> bytes) {
                  if (restored.ok()) restored = platter.RestoreChunk(chunk, bytes);
                });
            return restored;
          }));
      fs::PathOps crashed_ops(crashed_fs);
      fs::PathOps* by_shard[2];
      by_shard[acting] = &crashed_ops;
      by_shard[peer] = &peer_copy->path();
      RETURN_IF_ERROR(JournalRecovery(by_shard));
      return CheckExactlyOneCopy(*by_shard[0], *by_shard[1], from, to, data);
    };

    check::CrashStateEnumerator enumerator(acting_env, opts);
    auto report = enumerator.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->states, 0u);
    EXPECT_TRUE(report->all_recoverable()) << report->ToJson();
    EXPECT_EQ(report->repair_failures, 0u) << report->ToJson();
  }
}

}  // namespace
}  // namespace cffs::shard
