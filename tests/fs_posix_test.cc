// POSIX-style semantics tests, parameterized over all five file-system
// configurations: name-space operations, errors, data-path edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/sim/sim_env.h"

namespace cffs {
namespace {

using cffs::ErrorCode;
using sim::FsKind;

class PosixTest : public ::testing::TestWithParam<FsKind> {
 protected:
  void SetUp() override {
    sim::SimConfig config;
    config.disk_spec = disk::TestDisk(512, 4, 64);  // 64 MB
    config.blocks_per_cg = 1024;
    auto env = sim::SimEnv::Create(GetParam(), config);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = std::move(*env);
  }

  fs::FileSystem* fs() { return env_->fs(); }
  fs::PathOps& path() { return env_->path(); }
  std::vector<uint8_t> Bytes(std::string_view s) {
    return std::vector<uint8_t>(s.begin(), s.end());
  }

  std::unique_ptr<sim::SimEnv> env_;
};

TEST_P(PosixTest, RootIsADirectory) {
  auto attr = fs()->GetAttr(fs()->root());
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, fs::FileType::kDirectory);
}

TEST_P(PosixTest, LookupMissingFails) {
  EXPECT_EQ(fs()->Lookup(fs()->root(), "nope").status().code(),
            ErrorCode::kNotFound);
}

TEST_P(PosixTest, CreateThenLookup) {
  auto ino = fs()->Create(fs()->root(), "f");
  ASSERT_TRUE(ino.ok());
  auto found = fs()->Lookup(fs()->root(), "f");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *ino);
}

TEST_P(PosixTest, CreateDuplicateFails) {
  ASSERT_TRUE(fs()->Create(fs()->root(), "f").ok());
  EXPECT_EQ(fs()->Create(fs()->root(), "f").status().code(),
            ErrorCode::kExists);
}

TEST_P(PosixTest, CreateInFileFails) {
  auto f = fs()->Create(fs()->root(), "f");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(fs()->Create(*f, "child").status().code(),
            ErrorCode::kNotDirectory);
}

TEST_P(PosixTest, DotAndDotDotResolve) {
  auto dir = fs()->Mkdir(fs()->root(), "d");
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(*fs()->Lookup(*dir, "."), *dir);
  EXPECT_EQ(*fs()->Lookup(*dir, ".."), fs()->root());
  EXPECT_EQ(*fs()->Lookup(fs()->root(), ".."), fs()->root());
  EXPECT_EQ(*path().Resolve("/d/../d/./../d"), *dir);
}

TEST_P(PosixTest, UnlinkDirectoryFails) {
  ASSERT_TRUE(fs()->Mkdir(fs()->root(), "d").ok());
  EXPECT_EQ(fs()->Unlink(fs()->root(), "d").code(), ErrorCode::kIsDirectory);
}

TEST_P(PosixTest, RmdirOnFileFails) {
  ASSERT_TRUE(fs()->Create(fs()->root(), "f").ok());
  EXPECT_EQ(fs()->Rmdir(fs()->root(), "f").code(), ErrorCode::kNotDirectory);
}

TEST_P(PosixTest, RmdirNonEmptyFails) {
  auto d = fs()->Mkdir(fs()->root(), "d");
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(fs()->Create(*d, "f").ok());
  EXPECT_EQ(fs()->Rmdir(fs()->root(), "d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(fs()->Unlink(*d, "f").ok());
  EXPECT_TRUE(fs()->Rmdir(fs()->root(), "d").ok());
  EXPECT_FALSE(fs()->Lookup(fs()->root(), "d").ok());
}

TEST_P(PosixTest, ReadDirListsEntriesWithTypes) {
  auto d = fs()->Mkdir(fs()->root(), "d");
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(fs()->Create(*d, "file1").ok());
  ASSERT_TRUE(fs()->Mkdir(*d, "sub").ok());
  auto entries = fs()->ReadDir(*d);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  std::set<std::string> names;
  for (const auto& e : *entries) {
    names.insert(e.name);
    if (e.name == "file1") {
      EXPECT_EQ(e.type, fs::FileType::kRegular);
    }
    if (e.name == "sub") {
      EXPECT_EQ(e.type, fs::FileType::kDirectory);
    }
  }
  EXPECT_EQ(names, (std::set<std::string>{"file1", "sub"}));
}

TEST_P(PosixTest, WriteExtendsAndGetAttrSeesIt) {
  auto f = fs()->Create(fs()->root(), "f");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(fs()->GetAttr(*f)->size, 0u);
  auto n = fs()->Write(*f, 0, Bytes("0123456789"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10u);
  EXPECT_EQ(fs()->GetAttr(*f)->size, 10u);
  // Extend with a gap: sparse hole reads back as zeros.
  ASSERT_TRUE(fs()->Write(*f, 10000, Bytes("end")).ok());
  EXPECT_EQ(fs()->GetAttr(*f)->size, 10003u);
  std::vector<uint8_t> buf(16);
  auto r = fs()->Read(*f, 5000, buf);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < *r; ++i) EXPECT_EQ(buf[i], 0) << i;
}

TEST_P(PosixTest, ReadPastEofReturnsZeroBytes) {
  auto f = fs()->Create(fs()->root(), "f");
  ASSERT_TRUE(fs()->Write(*f, 0, Bytes("abc")).ok());
  std::vector<uint8_t> buf(8);
  auto n = fs()->Read(*f, 3, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  n = fs()->Read(*f, 100, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST_P(PosixTest, ShortReadAtEof) {
  auto f = fs()->Create(fs()->root(), "f");
  ASSERT_TRUE(fs()->Write(*f, 0, Bytes("abcdef")).ok());
  std::vector<uint8_t> buf(100);
  auto n = fs()->Read(*f, 4, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(buf[0], 'e');
  EXPECT_EQ(buf[1], 'f');
}

TEST_P(PosixTest, UnalignedWritesAcrossBlockBoundary) {
  auto f = fs()->Create(fs()->root(), "f");
  std::vector<uint8_t> data(10000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  // Write in awkward chunks.
  uint64_t off = 0;
  const size_t chunks[] = {1, 4095, 4097, 100, 1707};
  size_t c = 0;
  while (off < data.size()) {
    const size_t n = std::min(chunks[c++ % 5], data.size() - off);
    auto w = fs()->Write(*f, off, std::span(data.data() + off, n));
    ASSERT_TRUE(w.ok());
    off += n;
  }
  std::vector<uint8_t> back(data.size());
  auto r = fs()->Read(*f, 0, back);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(back, data);
}

TEST_P(PosixTest, OverwriteMiddleOfBlockPreservesRest) {
  auto f = fs()->Create(fs()->root(), "f");
  std::vector<uint8_t> data(8192, 0x11);
  ASSERT_TRUE(fs()->Write(*f, 0, data).ok());
  ASSERT_TRUE(fs()->Write(*f, 1000, Bytes("XYZ")).ok());
  std::vector<uint8_t> back(8192);
  ASSERT_TRUE(fs()->Read(*f, 0, back).ok());
  EXPECT_EQ(back[999], 0x11);
  EXPECT_EQ(back[1000], 'X');
  EXPECT_EQ(back[1002], 'Z');
  EXPECT_EQ(back[1003], 0x11);
  EXPECT_EQ(back[8191], 0x11);
}

TEST_P(PosixTest, TruncateShrinkAndGrow) {
  auto f = fs()->Create(fs()->root(), "f");
  std::vector<uint8_t> data(20000, 0x7c);
  ASSERT_TRUE(fs()->Write(*f, 0, data).ok());
  ASSERT_TRUE(fs()->Truncate(*f, 5000).ok());
  EXPECT_EQ(fs()->GetAttr(*f)->size, 5000u);
  ASSERT_TRUE(fs()->Truncate(*f, 12000).ok());
  EXPECT_EQ(fs()->GetAttr(*f)->size, 12000u);
  std::vector<uint8_t> back(12000);
  auto n = fs()->Read(*f, 0, back);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 12000u);
  for (int i = 0; i < 5000; ++i) ASSERT_EQ(back[i], 0x7c) << i;
  for (int i = 5000; i < 12000; ++i) ASSERT_EQ(back[i], 0) << i;
}

TEST_P(PosixTest, TruncateFreesSpace) {
  // Force the root directory's first block to exist before the baseline
  // snapshot (directories never shrink).
  ASSERT_TRUE(fs()->Create(fs()->root(), "warmup").ok());
  ASSERT_TRUE(fs()->Unlink(fs()->root(), "warmup").ok());
  auto space0 = fs()->SpaceInfo();
  auto f = fs()->Create(fs()->root(), "f");
  std::vector<uint8_t> data(1 << 20, 1);
  ASSERT_TRUE(fs()->Write(*f, 0, data).ok());
  ASSERT_TRUE(fs()->Truncate(*f, 0).ok());
  ASSERT_TRUE(fs()->Unlink(fs()->root(), "f").ok());
  auto space1 = fs()->SpaceInfo();
  EXPECT_EQ(space0->free_blocks, space1->free_blocks);
}

TEST_P(PosixTest, RenameWithinDirectory) {
  auto f = fs()->Create(fs()->root(), "old");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs()->Write(*f, 0, Bytes("payload")).ok());
  ASSERT_TRUE(fs()->Rename(fs()->root(), "old", fs()->root(), "new").ok());
  EXPECT_FALSE(fs()->Lookup(fs()->root(), "old").ok());
  auto moved = fs()->Lookup(fs()->root(), "new");
  ASSERT_TRUE(moved.ok());
  auto data = path().ReadFile("/new");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("payload"));
}

TEST_P(PosixTest, RenameAcrossDirectories) {
  auto d1 = fs()->Mkdir(fs()->root(), "d1");
  auto d2 = fs()->Mkdir(fs()->root(), "d2");
  ASSERT_TRUE(d1.ok() && d2.ok());
  ASSERT_TRUE(path().WriteFile("/d1/f", Bytes("move me")).ok());
  ASSERT_TRUE(fs()->Rename(*d1, "f", *d2, "f2").ok());
  EXPECT_FALSE(path().Resolve("/d1/f").ok());
  EXPECT_EQ(*path().ReadFile("/d2/f2"), Bytes("move me"));
  // The moved file's inode names its new directory as its parent.
  auto moved = path().Resolve("/d2/f2");
  ASSERT_TRUE(moved.ok());
  auto ino = env_->fs_base()->LoadInode(*moved);
  ASSERT_TRUE(ino.ok()) << ino.status().ToString();
  EXPECT_EQ(ino->parent, *d2);
}

TEST_P(PosixTest, RenameDirectoryUpdatesParent) {
  ASSERT_TRUE(path().MkdirAll("/a/b").ok());
  ASSERT_TRUE(path().MkdirAll("/c").ok());
  ASSERT_TRUE(path().WriteFile("/a/b/f", Bytes("x")).ok());
  ASSERT_TRUE(path().Rename("/a/b", "/c/b").ok());
  EXPECT_TRUE(path().Resolve("/c/b/f").ok());
  // ".." of the moved directory points at its new parent.
  auto moved = path().Resolve("/c/b");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*fs()->Lookup(*moved, ".."), *path().Resolve("/c"));
}

TEST_P(PosixTest, RenameOntoExistingFails) {
  ASSERT_TRUE(fs()->Create(fs()->root(), "a").ok());
  ASSERT_TRUE(fs()->Create(fs()->root(), "b").ok());
  EXPECT_EQ(fs()->Rename(fs()->root(), "a", fs()->root(), "b").code(),
            ErrorCode::kExists);
}

TEST_P(PosixTest, HardLinkSharesData) {
  auto f = fs()->Create(fs()->root(), "orig");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs()->Write(*f, 0, Bytes("shared")).ok());
  ASSERT_TRUE(fs()->Link(fs()->root(), "alias", *f).ok());
  // Re-resolve: C-FFS may have externalized (renumbered) the inode.
  auto orig = fs()->Lookup(fs()->root(), "orig");
  auto alias = fs()->Lookup(fs()->root(), "alias");
  ASSERT_TRUE(orig.ok() && alias.ok());
  EXPECT_EQ(*orig, *alias);
  EXPECT_EQ(fs()->GetAttr(*orig)->nlink, 2u);
  // Write through one name, read through the other.
  ASSERT_TRUE(fs()->Write(*alias, 0, Bytes("SHARED")).ok());
  EXPECT_EQ(*path().ReadFile("/orig"), Bytes("SHARED"));
  // Unlink one: data stays.
  ASSERT_TRUE(fs()->Unlink(fs()->root(), "orig").ok());
  EXPECT_EQ(*path().ReadFile("/alias"), Bytes("SHARED"));
  EXPECT_EQ(fs()->GetAttr(*alias)->nlink, 1u);
}

TEST_P(PosixTest, LinkToDirectoryFails) {
  auto d = fs()->Mkdir(fs()->root(), "d");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(fs()->Link(fs()->root(), "dlink", *d).code(),
            ErrorCode::kIsDirectory);
}

TEST_P(PosixTest, DirectoryGrowsPastOneBlock) {
  auto d = fs()->Mkdir(fs()->root(), "big");
  ASSERT_TRUE(d.ok());
  // Enough entries to need several blocks even with external records.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(fs()->Create(*d, "file_with_a_longish_name_" +
                                     std::to_string(i)).ok())
        << i;
  }
  auto entries = fs()->ReadDir(*d);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 400u);
  EXPECT_GT(fs()->GetAttr(*d)->size, fs::kBlockSize);
  // All entries resolvable.
  for (int i = 0; i < 400; i += 37) {
    EXPECT_TRUE(
        fs()->Lookup(*d, "file_with_a_longish_name_" + std::to_string(i)).ok())
        << i;
  }
}

TEST_P(PosixTest, DeepPaths) {
  std::string path_str;
  for (int depth = 0; depth < 24; ++depth) path_str += "/lvl" + std::to_string(depth);
  ASSERT_TRUE(path().MkdirAll(path_str).ok());
  ASSERT_TRUE(path().WriteFile(path_str + "/leaf", Bytes("deep")).ok());
  ASSERT_TRUE(env_->Remount().ok());
  EXPECT_EQ(*env_->path().ReadFile(path_str + "/leaf"), Bytes("deep"));
}

TEST_P(PosixTest, MaxNameLengthEnforced) {
  const std::string long_ok(fs::kMaxNameLen, 'n');
  const std::string too_long(fs::kMaxNameLen + 1, 'n');
  EXPECT_TRUE(fs()->Create(fs()->root(), long_ok).ok());
  EXPECT_EQ(fs()->Create(fs()->root(), too_long).status().code(),
            ErrorCode::kNameTooLong);
  EXPECT_TRUE(fs()->Lookup(fs()->root(), long_ok).ok());
}

TEST_P(PosixTest, ReadWriteOnDirectoryFails) {
  auto d = fs()->Mkdir(fs()->root(), "d");
  ASSERT_TRUE(d.ok());
  std::vector<uint8_t> buf(8);
  EXPECT_EQ(fs()->Read(*d, 0, buf).status().code(), ErrorCode::kIsDirectory);
  EXPECT_EQ(fs()->Write(*d, 0, buf).status().code(), ErrorCode::kIsDirectory);
  EXPECT_EQ(fs()->Truncate(*d, 0).code(), ErrorCode::kIsDirectory);
}

TEST_P(PosixTest, StaleInodeNumberRejectedAfterDelete) {
  auto f = fs()->Create(fs()->root(), "f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs()->Unlink(fs()->root(), "f").ok());
  std::vector<uint8_t> buf(4);
  EXPECT_FALSE(fs()->Read(*f, 0, buf).ok());
}

TEST_P(PosixTest, FillDiskReturnsNoSpaceAndRecovers) {
  // Pre-create all names (empty files) so directory growth happens before
  // the baseline snapshot; then write data until ENOSPC, truncate it all
  // away, and confirm the space comes back exactly.
  constexpr int kMaxFiles = 600;
  std::vector<fs::InodeNum> files;
  for (int i = 0; i < kMaxFiles; ++i) {
    auto f = fs()->Create(fs()->root(), "fill" + std::to_string(i));
    ASSERT_TRUE(f.ok());
    files.push_back(*f);
  }
  auto space0 = fs()->SpaceInfo();
  std::vector<uint8_t> chunk(256 * 1024, 0x3f);
  int wrote = 0;
  bool enospc = false;
  for (int i = 0; i < kMaxFiles && !enospc; ++i) {
    uint64_t off = 0;
    while (off < chunk.size()) {
      auto n = fs()->Write(files[i], off, std::span(chunk).subspan(off));
      if (!n.ok()) {
        EXPECT_EQ(n.status().code(), ErrorCode::kNoSpace);
        enospc = true;
        break;
      }
      off += *n;
    }
    ++wrote;
  }
  EXPECT_TRUE(enospc);
  EXPECT_GT(wrote, 50);
  for (int i = 0; i < kMaxFiles; ++i) {
    // File numbers may have changed for embedded inodes? No rename/link
    // occurred, so they are stable — truncate by number.
    ASSERT_TRUE(fs()->Truncate(files[i], 0).ok()) << i;
  }
  ASSERT_TRUE(fs()->Sync().ok());
  auto space1 = fs()->SpaceInfo();
  EXPECT_EQ(space0->free_blocks, space1->free_blocks);
  EXPECT_TRUE(path().WriteFile("/after", Bytes("works")).ok());
}

TEST_P(PosixTest, RepeatedLookupServedByDentryCacheWithoutBlockReads) {
  ASSERT_TRUE(fs()->Create(fs()->root(), "f").ok());
  ASSERT_TRUE(fs()->Lookup(fs()->root(), "f").ok());  // populates the cache

  const auto before = fs()->op_stats();
  ASSERT_TRUE(fs()->Lookup(fs()->root(), "f").ok());
  const auto after = fs()->op_stats();
  EXPECT_EQ(after.dentry_hits, before.dentry_hits + 1);
  EXPECT_EQ(after.dir_block_reads, before.dir_block_reads);
}

TEST_P(PosixTest, LookupAfterUnlinkAnsweredByNegativeEntry) {
  ASSERT_TRUE(fs()->Create(fs()->root(), "f").ok());
  ASSERT_TRUE(fs()->Lookup(fs()->root(), "f").ok());
  ASSERT_TRUE(fs()->Unlink(fs()->root(), "f").ok());

  // Unlink converted the dentry to a negative entry: the lookup must fail
  // without touching a single directory block.
  const auto before = fs()->op_stats();
  EXPECT_EQ(fs()->Lookup(fs()->root(), "f").status().code(),
            ErrorCode::kNotFound);
  const auto after = fs()->op_stats();
  EXPECT_EQ(after.dentry_neg_hits, before.dentry_neg_hits + 1);
  EXPECT_EQ(after.dir_block_reads, before.dir_block_reads);

  // The negative entry must not mask a re-created name.
  ASSERT_TRUE(fs()->Create(fs()->root(), "f").ok());
  EXPECT_TRUE(fs()->Lookup(fs()->root(), "f").ok());
}

TEST_P(PosixTest, RenameInvalidatesStaleInodeNumber) {
  // For C-FFS embedded files, rename assigns a NEW inode number (the number
  // encodes the record's physical location); the old number must stop
  // resolving even when its image sits in the inode cache.
  auto f = fs()->Create(fs()->root(), "f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs()->GetAttr(*f).ok());  // warm the inode cache

  ASSERT_TRUE(fs()->Rename(fs()->root(), "f", fs()->root(), "g").ok());
  auto g = fs()->Lookup(fs()->root(), "g");
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(fs()->GetAttr(*g).ok());
  EXPECT_EQ(fs()->Lookup(fs()->root(), "f").status().code(),
            ErrorCode::kNotFound);
  if (*g != *f) {
    // Embedded rename changed the number: the stale one must be rejected.
    EXPECT_FALSE(fs()->GetAttr(*f).ok());
  }
}

TEST_P(PosixTest, RemountStartsWithColdNameCaches) {
  ASSERT_TRUE(path().WriteFile("/f", Bytes("x")).ok());
  ASSERT_TRUE(fs()->Lookup(fs()->root(), "f").ok());
  ASSERT_TRUE(fs()->Lookup(fs()->root(), "f").ok());  // a dentry hit

  ASSERT_TRUE(env_->Remount().ok());
  // A remount constructs a fresh file system, so all name caches are
  // dropped: the first lookup is a miss, only the repeat hits.
  const auto before = fs()->op_stats();
  EXPECT_EQ(before.dentry_hits, 0u);
  ASSERT_TRUE(fs()->Lookup(fs()->root(), "f").ok());
  ASSERT_TRUE(fs()->Lookup(fs()->root(), "f").ok());
  const auto after = fs()->op_stats();
  EXPECT_EQ(after.dentry_misses, before.dentry_misses + 1);
  EXPECT_EQ(after.dentry_hits, before.dentry_hits + 1);
}

TEST_P(PosixTest, SyncThenRemountPreservesEverything) {
  ASSERT_TRUE(path().MkdirAll("/x/y").ok());
  ASSERT_TRUE(path().WriteFile("/x/y/one", Bytes("1")).ok());
  ASSERT_TRUE(path().WriteFile("/x/two", Bytes("22")).ok());
  ASSERT_TRUE(fs()->Link(*path().Resolve("/x"), "alias",
                         *path().Resolve("/x/two")).ok());
  ASSERT_TRUE(env_->Remount().ok());
  EXPECT_EQ(*env_->path().ReadFile("/x/y/one"), Bytes("1"));
  EXPECT_EQ(*env_->path().ReadFile("/x/alias"), Bytes("22"));
  EXPECT_EQ(env_->fs()->GetAttr(*env_->path().Resolve("/x/two"))->nlink, 2u);
}

// The ordered synchronous metadata writes of each namespace operation, on
// a synchronous-metadata machine with /a holding file f and /b empty. The
// columns are ffs, conventional and c-ffs: C-FFS writes an embedded
// file's name and inode together, and externalizes it on its first link.
TEST(NamespaceSyncWritesTest, OrderedWritesPerOperation) {
  const FsKind kinds[] = {FsKind::kFfs, FsKind::kConventional, FsKind::kCffs};
  struct Step {
    const char* op;
    int writes[3];
  };
  const Step steps[] = {
      {"mkdir /a/d", {2, 2, 2}},
      {"create /a/g", {2, 2, 1}},
      {"link /b/g2 to /a/g", {3, 3, 4}},  // /b grows: its inode too
      {"rename /a/f to /b/f", {2, 2, 2}},
      {"unlink /b/g2", {2, 2, 2}},  // /a/g keeps a link
      {"unlink /b/f", {3, 3, 1}},
      {"rmdir /a/d", {2, 2, 2}},
  };
  for (int k = 0; k < 3; ++k) {
    sim::SimConfig config;
    config.disk_spec = disk::TestDisk(512, 4, 64);
    config.blocks_per_cg = 1024;
    auto env_or = sim::SimEnv::Create(kinds[k], config);
    ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
    sim::SimEnv& env = **env_or;
    fs::PathOps& p = env.path();
    ASSERT_TRUE(p.MkdirAll("/a").ok());
    ASSERT_TRUE(p.MkdirAll("/b").ok());
    ASSERT_TRUE(p.WriteFile("/a/f", std::vector<uint8_t>(1024, 7)).ok());
    const fs::InodeNum a = *p.Resolve("/a");
    const fs::InodeNum b = *p.Resolve("/b");
    const auto run = [&](int i) -> Status {
      switch (i) {
        case 0: return p.Mkdir("/a/d").status();
        case 1: return p.CreateFile("/a/g").status();
        case 2: return env.fs()->Link(b, "g2", *p.Resolve("/a/g"));
        case 3: return p.Rename("/a/f", "/b/f");
        case 4: return p.Unlink("/b/g2");
        case 5: return p.Unlink("/b/f");
        default: return env.fs()->Rmdir(a, "d");
      }
    };
    for (int i = 0; i < static_cast<int>(std::size(steps)); ++i) {
      const uint64_t before = env.fs()->op_stats().sync_metadata_writes;
      ASSERT_TRUE(run(i).ok()) << steps[i].op;
      EXPECT_EQ(env.fs()->op_stats().sync_metadata_writes - before,
                static_cast<uint64_t>(steps[i].writes[k]))
          << sim::FsKindName(kinds[k]) << ": " << steps[i].op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFs, PosixTest,
    ::testing::Values(FsKind::kFfs, FsKind::kConventional, FsKind::kEmbedOnly,
                      FsKind::kGroupOnly, FsKind::kCffs),
    [](const ::testing::TestParamInfo<FsKind>& param_info) {
      std::string n = sim::FsKindName(param_info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

}  // namespace
}  // namespace cffs
