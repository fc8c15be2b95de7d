// Write-ahead-log battery: WriteAheadLog unit behavior (replay,
// in-place recycling, base_seq pinning, salted frames, sticky fsync
// failure, group-commit accounting), SegmentedDiskBackend WAL
// integration (WAL replay beyond the segment tail, torn final frames,
// one recycled wal.log, a seal path that frees no file), the crash
// matrices (a fault-injected "process death" at EVERY syscall index of
// a mixed append/checkpoint/seal workload, then a clean reopen
// asserting zero acknowledged-record loss, no replayed stale
// generation and metadata recovery), group-commit concurrency
// (TSAN-covered), and the service-level surfacing (durability config,
// WAL stats, sticky degradation on fsync failure).
#include <gtest/gtest.h>
#include <sys/inotify.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "logstore/disk_backend.h"
#include "logstore/fault_injection.h"
#include "logstore/frame_format.h"
#include "logstore/wal.h"
#include "service/log_service.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace bytebrain {
namespace {

class TempDir {
 public:
  TempDir() {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("bb_wal_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

StorageConfig WalConfig(const std::string& dir,
                        DurabilityMode mode = DurabilityMode::kWalGroupCommit,
                        uint64_t segment_bytes = 64 * 1024,
                        FileOps* ops = nullptr) {
  StorageConfig cfg;
  cfg.kind = StorageConfig::Kind::kSegmentedDisk;
  cfg.directory = dir;
  cfg.segment_data_bytes = segment_bytes;
  cfg.durability = mode;
  cfg.file_ops = ops;
  return cfg;
}

LogRecord MakeRecord(std::string text, uint64_t ts) {
  LogRecord record;
  record.text = std::move(text);
  record.timestamp_us = ts;
  return record;
}

/// WAL frames of the generation starting at `base_seq` (salted).
std::string FrameBytes(const std::vector<LogRecord>& records,
                       uint64_t base_seq = 0) {
  std::string out;
  for (const LogRecord& r : records) {
    char header[logframe::kFrameHeaderBytes];
    logframe::FillFrameHeader(header, r,
                              RecordChecksum(r.timestamp_us, r.text) ^
                                  logframe::WalSalt(base_seq));
    out.append(header, sizeof(header));
    out.append(r.text);
  }
  return out;
}

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

uint64_t Inode(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_ino)
                                        : 0;
}

// ---------------------------------------------------------------------
// WriteAheadLog unit behavior
// ---------------------------------------------------------------------

TEST(WriteAheadLogTest, FreshOpenCreatesEmptyFile) {
  TempDir dir;
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalGroupCommit,
                    RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(0, &replayed).ok());
  EXPECT_TRUE(replayed.empty());
  EXPECT_TRUE(std::filesystem::exists(WalPath(dir.path())));
  EXPECT_EQ(wal.bytes(), 0u);
}

TEST(WriteAheadLogTest, AppendedFramesReplayOnReopen) {
  TempDir dir;
  std::vector<LogRecord> written = {MakeRecord("alpha", 1),
                                    MakeRecord("beta", 2),
                                    MakeRecord("gamma gamma", 3)};
  {
    WriteAheadLog wal(dir.path(), DurabilityMode::kWalGroupCommit,
                      RealFileOps());
    std::vector<LogRecord> replayed;
    ASSERT_TRUE(wal.OpenAndReplay(0, &replayed).ok());
    ASSERT_TRUE(wal.Append(FrameBytes(written)).ok());
    ASSERT_TRUE(wal.WaitDurable().ok());
    EXPECT_GE(wal.fsyncs(), 1u);
    EXPECT_EQ(wal.group_commits(), 1u);
  }
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalGroupCommit,
                    RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(0, &replayed).ok());
  ASSERT_EQ(replayed.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(replayed[i].text, written[i].text);
    EXPECT_EQ(replayed[i].timestamp_us, written[i].timestamp_us);
  }
}

TEST(WriteAheadLogTest, TornTailIsTruncatedAway) {
  TempDir dir;
  std::vector<LogRecord> written = {MakeRecord("first", 1),
                                    MakeRecord("second", 2)};
  {
    WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
    std::vector<LogRecord> replayed;
    ASSERT_TRUE(wal.OpenAndReplay(0, &replayed).ok());
    ASSERT_TRUE(wal.Append(FrameBytes(written)).ok());
  }
  // Tear the final frame: drop its last 3 bytes.
  const std::string path = WalPath(dir.path());
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);

  WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(0, &replayed).ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].text, "first");
  // The torn bytes are gone: appending now must produce a cleanly
  // replayable file again.
  ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("third", 3)})).ok());
  std::vector<LogRecord> again;
  WriteAheadLog wal2(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
  ASSERT_TRUE(wal2.OpenAndReplay(0, &again).ok());
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[1].text, "third");
}

TEST(WriteAheadLogTest, BaseSeqMismatchIsCorruption) {
  TempDir dir;
  {
    WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
    std::vector<LogRecord> replayed;
    ASSERT_TRUE(wal.OpenAndReplay(5, &replayed).ok());
    ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("x", 1)}, 5)).ok());
  }
  // The stored base (5) is beyond what the manifest sealed (0): the
  // file claims records that must never splice into position 0.
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
  std::vector<LogRecord> replayed;
  const Status opened = wal.OpenAndReplay(0, &replayed);
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.IsCorruption());
  EXPECT_TRUE(replayed.empty());
}

TEST(WriteAheadLogTest, RotateRecyclesTheFileAndStartsFresh) {
  TempDir dir;
  const std::string long_text(200, 'L');
  {
    WriteAheadLog wal(dir.path(), DurabilityMode::kWalGroupCommit,
                      RealFileOps());
    std::vector<LogRecord> replayed;
    ASSERT_TRUE(wal.OpenAndReplay(0, &replayed).ok());
    const uint64_t inode = Inode(WalPath(dir.path()));
    ASSERT_NE(inode, 0u);
    ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("x", 1),
                                       MakeRecord(long_text, 2),
                                       MakeRecord(long_text, 3)}))
                    .ok());
    const auto long_size = std::filesystem::file_size(WalPath(dir.path()));
    ASSERT_TRUE(wal.Rotate(3).ok());
    // Same file, same length: the header was rewritten in place and
    // nothing was truncated or deleted.
    EXPECT_EQ(Inode(WalPath(dir.path())), inode);
    EXPECT_EQ(std::filesystem::file_size(WalPath(dir.path())), long_size);
    EXPECT_EQ(wal.bytes(), 0u);
    // A waiter arriving after the rotation is already durable (the seal
    // fsynced its bytes): WaitDurable returns without a new append.
    ASSERT_TRUE(wal.WaitDurable().ok());
    ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("y", 4)}, 3)).ok());
    ASSERT_TRUE(wal.WaitDurable().ok());
  }
  // "y" overwrote "x" exactly, so the earlier generation's two long
  // frames still follow it, whole and frame-aligned: only their salt
  // keeps them from replaying.
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalGroupCommit,
                    RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(3, &replayed).ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].text, "y");
}

TEST(WriteAheadLogTest, EarlierGenerationReplaysNothing) {
  TempDir dir;
  // A crash between the seal's manifest write and its Rotate leaves the
  // previous generation in wal.log; every frame of it is sealed, so the
  // next open must replay none and recycle the file.
  {
    WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
    std::vector<LogRecord> replayed;
    ASSERT_TRUE(wal.OpenAndReplay(96, &replayed).ok());
    ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("sealed 96", 1),
                                       MakeRecord("sealed 97", 2)},
                                      96))
                    .ok());
  }
  const uint64_t inode = Inode(WalPath(dir.path()));
  {
    WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
    std::vector<LogRecord> replayed;
    ASSERT_TRUE(wal.OpenAndReplay(100, &replayed).ok());
    EXPECT_TRUE(replayed.empty());
    EXPECT_EQ(Inode(WalPath(dir.path())), inode);
    ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("live 100", 3)}, 100)).ok());
  }
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(100, &replayed).ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].text, "live 100");
}

TEST(WriteAheadLogTest, AsyncModeNeverBlocksInWaitDurable) {
  TempDir dir;
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(0, &replayed).ok());
  ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("x", 1)})).ok());
  ASSERT_TRUE(wal.WaitDurable().ok());  // immediate: no group commit
  EXPECT_EQ(wal.group_commits(), 0u);
}

TEST(WriteAheadLogTest, FsyncFailureGoesStickyAndRotateClearsIt) {
  TempDir dir;
  FaultSchedule schedule;
  // Op 1 is the header write at create; op 2 the first frame append;
  // op 3 the commit thread's fsync over it.
  schedule.fail_fsync_at = 3;
  FaultInjectingFileOps ops(schedule);
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalGroupCommit, &ops);
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(0, &replayed).ok());
  ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("x", 1)})).ok());
  EXPECT_FALSE(wal.WaitDurable().ok());
  // Sticky: later appends and waits keep failing without touching IO.
  EXPECT_FALSE(wal.Append(FrameBytes({MakeRecord("y", 2)})).ok());
  EXPECT_FALSE(wal.WaitDurable().ok());
  // Rotate (a healthy seal elsewhere) starts a clean file and clears
  // the error: the WAL is usable again.
  ASSERT_TRUE(wal.Rotate(2).ok());
  ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("z", 3)}, 2)).ok());
  ASSERT_TRUE(wal.WaitDurable().ok());
}

// ---------------------------------------------------------------------
// SegmentedDiskBackend + WAL integration
// ---------------------------------------------------------------------

TEST(WalBackendTest, WalReplaysRecordsTheSegmentFileNeverReceived) {
  TempDir dir;
  FaultInjectingFileOps ops;
  std::vector<LogRecord> written;
  for (int i = 0; i < 20; ++i) {
    written.push_back(MakeRecord("record number " + std::to_string(i), i));
  }
  {
    SegmentedDiskBackend backend(
        WalConfig(dir.path(), DurabilityMode::kWalGroupCommit, 64 * 1024,
                  &ops));
    ASSERT_TRUE(backend.Open().ok());
    ASSERT_TRUE(backend.AppendBatch(written).ok());
    ASSERT_TRUE(backend.WaitDurable().ok());
    // "Process death": the active segment's write buffer (still shy of
    // its drain threshold) never reaches the segment file, but every
    // frame is in the WAL. All further IO — including the destructor's
    // best-effort flush — fails.
    ops.CrashNow();
  }
  SegmentedDiskBackend reopened(
      WalConfig(dir.path(), DurabilityMode::kWalGroupCommit));
  ASSERT_TRUE(reopened.Open().ok());
  ASSERT_EQ(reopened.size(), written.size());
  EXPECT_EQ(reopened.stats().wal_replayed_records, written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    LogRecord out;
    ASSERT_TRUE(reopened.Read(i, &out).ok());
    EXPECT_EQ(out.text, written[i].text);
    EXPECT_EQ(out.timestamp_us, written[i].timestamp_us);
  }
}

TEST(WalBackendTest, TornFinalWalFrameLosesOnlyThatFrame) {
  TempDir dir;
  FaultInjectingFileOps ops;
  {
    SegmentedDiskBackend backend(
        WalConfig(dir.path(), DurabilityMode::kWalGroupCommit, 64 * 1024,
                  &ops));
    ASSERT_TRUE(backend.Open().ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          backend.AppendBatch({MakeRecord("rec " + std::to_string(i), i)})
              .ok());
    }
    ops.CrashNow();
  }
  const std::string wal_path = WalPath(dir.path());
  ASSERT_TRUE(std::filesystem::exists(wal_path));
  std::filesystem::resize_file(wal_path,
                               std::filesystem::file_size(wal_path) - 2);

  SegmentedDiskBackend reopened(
      WalConfig(dir.path(), DurabilityMode::kWalGroupCommit));
  ASSERT_TRUE(reopened.Open().ok());
  ASSERT_EQ(reopened.size(), 4u);
  LogRecord out;
  ASSERT_TRUE(reopened.Read(3, &out).ok());
  EXPECT_EQ(out.text, "rec 3");
}

TEST(WalBackendTest, SealRotatesTheWalFile) {
  TempDir dir;
  // Tiny segments: a few appends force a seal.
  SegmentedDiskBackend backend(
      WalConfig(dir.path(), DurabilityMode::kWalGroupCommit, 256));
  ASSERT_TRUE(backend.Open().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(backend
                    .AppendBatch({MakeRecord(
                        "seal-forcing record text " + std::to_string(i), i)})
                    .ok());
  }
  ASSERT_TRUE(backend.WaitDurable().ok());
  EXPECT_GE(backend.stats().storage_sealed_segments, 1u);
  // Exactly one wal file, recycled by every seal rather than replaced.
  size_t wal_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().filename().string().rfind("wal", 0) == 0) ++wal_files;
  }
  EXPECT_EQ(wal_files, 1u);
  EXPECT_TRUE(std::filesystem::exists(WalPath(dir.path())));
  // Reopen: all records recovered (sealed segments + tail WAL).
  SegmentedDiskBackend reopened(
      WalConfig(dir.path(), DurabilityMode::kWalGroupCommit, 256));
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.size(), 20u);
}

TEST(WalBackendTest, DurabilityNoneWritesNoWalFile) {
  TempDir dir;
  SegmentedDiskBackend backend(
      WalConfig(dir.path(), DurabilityMode::kNone));
  ASSERT_TRUE(backend.Open().ok());
  ASSERT_TRUE(backend.AppendBatch({MakeRecord("x", 1)}).ok());
  ASSERT_TRUE(backend.WaitDurable().ok());  // trivially OK
  EXPECT_EQ(backend.stats().wal_bytes, 0u);
  EXPECT_FALSE(std::filesystem::exists(WalPath(dir.path())));
}

// The fault decorator forwards the inner backend's stats() snapshot:
// after a seal, a windowed query and a WAL-replaying reopen that
// rebuilds an index, every counter reads the same through both.
TEST(WalBackendTest, StatsPassThroughTheFaultDecorator) {
  static_assert(sizeof(StorageStats) == 11 * sizeof(uint64_t),
                "compare every StorageStats field below");
  const auto expect_same = [](const StorageBackend& wrapped,
                              const StorageBackend& inner) {
    const StorageStats a = wrapped.stats();
    const StorageStats b = inner.stats();
    EXPECT_EQ(a.storage_sealed_segments, b.storage_sealed_segments);
    EXPECT_EQ(a.storage_mapped_bytes, b.storage_mapped_bytes);
    EXPECT_EQ(a.storage_cache_hits, b.storage_cache_hits);
    EXPECT_EQ(a.storage_cache_misses, b.storage_cache_misses);
    EXPECT_EQ(a.storage_cache_evictions, b.storage_cache_evictions);
    EXPECT_EQ(a.storage_index_rebuilds, b.storage_index_rebuilds);
    EXPECT_EQ(a.storage_scan_record_visits, b.storage_scan_record_visits);
    EXPECT_EQ(a.wal_bytes, b.wal_bytes);
    EXPECT_EQ(a.wal_group_commits, b.wal_group_commits);
    EXPECT_EQ(a.wal_fsyncs, b.wal_fsyncs);
    EXPECT_EQ(a.wal_replayed_records, b.wal_replayed_records);
  };
  const auto open = [](const std::string& dir, FileOps* ops,
                       SegmentedDiskBackend** inner) {
    auto disk = std::make_unique<SegmentedDiskBackend>(
        WalConfig(dir, DurabilityMode::kWalGroupCommit, 256, ops));
    *inner = disk.get();
    return std::make_unique<FaultInjectingBackend>(std::move(disk),
                                                   BackendFaultSchedule{});
  };
  TempDir dir;
  FaultInjectingFileOps ops;
  {
    SegmentedDiskBackend* inner = nullptr;
    auto backend = open(dir.path(), &ops, &inner);
    ASSERT_TRUE(backend->Open().ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(backend
                      ->AppendBatch({MakeRecord(
                          "seal-forcing record text " + std::to_string(i), i)})
                      .ok());
    }
    // Seal what is left through the decorator, so the two records below
    // are the whole unsealed tail.
    ASSERT_TRUE(backend->SealActive().ok());
    ASSERT_TRUE(backend
                    ->AppendBatch({MakeRecord("tail 20", 20),
                                   MakeRecord("tail 21", 21)})
                    .ok());
    ASSERT_TRUE(backend->WaitDurable().ok());
    // A window that cuts through the sealed segments: they are pinned
    // and filtered record by record.
    std::unordered_map<TemplateId, uint64_t> counts;
    ASSERT_TRUE(backend->TemplateCounts(0, 22, 3, 12, &counts).ok());
    const StorageStats s = backend->stats();
    EXPECT_GE(s.storage_sealed_segments, 2u);
    EXPECT_GT(s.storage_mapped_bytes, 0u);
    EXPECT_GT(s.storage_cache_misses, 0u);
    EXPECT_GT(s.storage_scan_record_visits, 0u);
    EXPECT_GT(s.wal_bytes, 0u);
    EXPECT_GT(s.wal_group_commits, 0u);
    EXPECT_GT(s.wal_fsyncs, 0u);
    expect_same(*backend, *inner);
    // "Process death": the unsealed tail survives only in the WAL.
    ops.CrashNow();
  }
  ASSERT_TRUE(std::filesystem::remove(dir.path() + "/seg-000000.idx"));
  SegmentedDiskBackend* inner = nullptr;
  auto reopened = open(dir.path(), nullptr, &inner);
  ASSERT_TRUE(reopened->Open().ok());
  EXPECT_EQ(reopened->size(), 22u);
  const StorageStats s = reopened->stats();
  EXPECT_EQ(s.wal_replayed_records, 2u);
  EXPECT_EQ(s.storage_index_rebuilds, 1u);
  expect_same(*reopened, *inner);
}

// The decorator forwards SealActive and the replication reads, so a
// promote's SealTail over a fault-wrapped disk backend really seals.
TEST(WalBackendTest, SealTailThroughTheFaultDecorator) {
  TempDir dir;
  TopicConfig config;
  config.storage = WalConfig(dir.path(), DurabilityMode::kWalGroupCommit);
  config.durability = DurabilityMode::kWalGroupCommit;
  config.initial_train_records = 1000000;  // appends only: no training
  config.train_interval_records = 1000000;
  auto disk = std::make_unique<SegmentedDiskBackend>(config.storage);
  SegmentedDiskBackend* inner = disk.get();
  ManagedTopic topic("sealed-through-decorator", config,
                     std::make_unique<FaultInjectingBackend>(
                         std::move(disk), BackendFaultSchedule{}));
  ASSERT_TRUE(topic.StorageStatus().ok());
  std::vector<std::string> texts = {"tail 0", "tail 1", "tail 2"};
  ASSERT_TRUE(topic.IngestBatch(std::move(texts), {0, 1, 2}).ok());
  bool sealed = false;
  ASSERT_TRUE(topic.SealTail(&sealed).ok());
  EXPECT_TRUE(sealed);
  EXPECT_EQ(inner->stats().storage_sealed_segments, 1u);
  uint64_t segment = 0, offset = 0, inner_segment = 0, inner_offset = 0;
  ASSERT_TRUE(topic.ReplicationPosition(&segment, &offset).ok());
  ASSERT_TRUE(inner->ReplicationPosition(&inner_segment, &inner_offset).ok());
  EXPECT_EQ(segment, inner_segment);
  EXPECT_EQ(offset, inner_offset);
  EXPECT_EQ(segment, 1u);
}

// The seal and checkpoint path frees no file. Each seal recycles
// wal.log and writes a manifest slot in place, and every .idx rewrite
// (at seal, and after AssignTemplates dirties a sealed segment) lands
// in place too. So each tracked file keeps its inode from creation on,
// nothing is deleted or renamed, and no tmp file ever appears — on any
// filesystem, whether or not freeing blocks is slow there.
TEST(WalBackendTest, SealPathFreesNoFile) {
  TempDir dir;
  // Every create/delete/rename in the directory, as it happens.
  const int notify = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  ASSERT_GE(notify, 0);
  ASSERT_GE(::inotify_add_watch(notify, dir.path().c_str(),
                                IN_CREATE | IN_DELETE | IN_MOVED_FROM |
                                    IN_MOVED_TO),
            0);
  std::map<std::string, uint64_t> inodes;  // tracked name -> first st_ino
  const auto check = [&](const std::string& step) {
    SCOPED_TRACE(step);
    alignas(struct inotify_event) char buf[4096];
    ssize_t n;
    while ((n = ::read(notify, buf, sizeof(buf))) > 0) {
      for (char* p = buf; p < buf + n;) {
        const auto* ev = reinterpret_cast<const struct inotify_event*>(p);
        const std::string name = ev->len > 0 ? ev->name : "";
        EXPECT_EQ(ev->mask & (IN_DELETE | IN_MOVED_FROM | IN_MOVED_TO), 0u)
            << "deleted or renamed: " << name;
        EXPECT_FALSE(name.ends_with(".tmp")) << name;
        p += sizeof(struct inotify_event) + ev->len;
      }
    }
    for (const auto& entry :
         std::filesystem::directory_iterator(dir.path())) {
      const std::string name = entry.path().filename().string();
      EXPECT_FALSE(name.ends_with(".tmp")) << name;
      if (name != "wal.log" && name.rfind("MANIFEST-", 0) != 0 &&
          !name.ends_with(".idx")) {
        continue;
      }
      const uint64_t inode = Inode(entry.path().string());
      const auto [it, first] = inodes.emplace(name, inode);
      EXPECT_EQ(it->second, inode) << name << " was replaced";
    }
  };
  const auto append = [](SegmentedDiskBackend* backend, int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(backend
                      ->AppendBatch({MakeRecord(
                          "seal-forcing record text " + std::to_string(i), i)})
                      .ok());
    }
    ASSERT_TRUE(backend->WaitDurable().ok());
  };
  {
    // Tiny segments: a few appends force a seal.
    SegmentedDiskBackend backend(
        WalConfig(dir.path(), DurabilityMode::kWalGroupCommit, 256));
    ASSERT_TRUE(backend.Open().ok());
    check("open");
    for (int round = 0; round < 4; ++round) {
      append(&backend, round * 8, round * 8 + 8);
      check("appends " + std::to_string(round));
    }
    ASSERT_GE(backend.stats().storage_sealed_segments, 3u);
    ASSERT_TRUE(backend.Checkpoint("model blob").ok());
    check("checkpoint");
    // A retrain moves every sealed record to a new template id: each
    // sealed .idx goes stale and the Flush rewrites it.
    const uint64_t sealed = backend.stats().storage_sealed_segments;
    ASSERT_TRUE(
        backend.AssignTemplates(0, std::vector<TemplateId>(32, 7)).ok());
    ASSERT_TRUE(backend.Flush().ok());
    check("retrain + flush");
    // And once more through a seal, whose Flush rewrites them again.
    ASSERT_TRUE(
        backend.AssignTemplates(0, std::vector<TemplateId>(32, 9)).ok());
    append(&backend, 32, 48);
    ASSERT_GT(backend.stats().storage_sealed_segments, sealed);
    check("retrain + seal");
  }
  check("close");
  SegmentedDiskBackend reopened(
      WalConfig(dir.path(), DurabilityMode::kWalGroupCommit, 256));
  ASSERT_TRUE(reopened.Open().ok());
  check("reopen");
  EXPECT_EQ(reopened.size(), 48u);
  EXPECT_EQ(reopened.metadata(), "model blob");
  // Every in-place .idx was current: nothing to rebuild.
  EXPECT_EQ(reopened.stats().storage_index_rebuilds, 0u);
  EXPECT_EQ(inodes.count("wal.log"), 1u);
  EXPECT_EQ(inodes.count("MANIFEST-0"), 1u);
  EXPECT_EQ(inodes.count("MANIFEST-1"), 1u);
  EXPECT_GE(inodes.size(), 3u + 3u);
  ::close(notify);
}

// ---------------------------------------------------------------------
// The crash matrix: kill the process (fault-injected) at EVERY syscall
// index of a mixed workload, reopen clean, and assert the durability
// contract. BB_CRASH_SEED varies the workload (CI runs several seeds).
// ---------------------------------------------------------------------

struct CrashWorkloadResult {
  std::vector<LogRecord> written;   // everything offered
  uint64_t acked = 0;               // Append+WaitDurable both OK
  std::string acked_metadata;       // last blob whose Checkpoint acked
  std::vector<std::string> attempted_metadata;  // every blob offered
  uint64_t total_ops = 0;           // syscalls the clean run performed
  uint64_t sealed_segments = 0;     // seals (= WAL rotations) completed
};

/// Record sizes of a crash workload: `batches` batches, of which the
/// first `long_batches` carry ~350-byte texts and the rest the default
/// short ones.
struct CrashWorkloadShape {
  int batches = 12;
  int long_batches = 0;
};

/// Runs the seeded workload against a fresh backend in `dir` with
/// `ops`; stops at the first failed call (the crash made every
/// subsequent syscall fail anyway).
CrashWorkloadResult RunCrashWorkload(const std::string& dir, uint64_t seed,
                                     FaultInjectingFileOps* ops,
                                     CrashWorkloadShape shape = {}) {
  CrashWorkloadResult result;
  Rng rng(seed);
  SegmentedDiskBackend backend(
      WalConfig(dir, DurabilityMode::kWalGroupCommit, 512, ops));
  if (!backend.Open().ok()) {
    result.total_ops = ops->ops_seen();
    return result;
  }
  uint64_t ts = 0;
  for (int batch = 0; batch < shape.batches; ++batch) {
    const size_t batch_size = 1 + rng.NextBelow(6);
    std::vector<LogRecord> records;
    for (size_t i = 0; i < batch_size; ++i) {
      std::string text = "b" + std::to_string(batch) + "r" +
                         std::to_string(i) + " ";
      const size_t pad = batch < shape.long_batches
                             ? 300 + rng.NextBelow(100)
                             : rng.NextBelow(40);
      text.append(pad, 'x');
      records.push_back(MakeRecord(text, ++ts));
    }
    result.written.insert(result.written.end(), records.begin(),
                          records.end());
    const Status appended = backend.AppendBatch(records);
    const Status durable = backend.WaitDurable();
    if (!appended.ok() || !durable.ok()) break;
    result.acked = result.written.size();
    if (batch % 3 == 2) {
      const std::string blob = "model-after-batch-" + std::to_string(batch);
      result.attempted_metadata.push_back(blob);
      if (backend.Checkpoint(blob).ok()) result.acked_metadata = blob;
    }
  }
  result.total_ops = ops->ops_seen();
  result.sealed_segments = backend.stats().storage_sealed_segments;
  return result;
}

TEST(WalCrashMatrixTest, NoAckedRecordLossAtAnyCrashPoint) {
  uint64_t seed = 42;
  if (const char* env = std::getenv("BB_CRASH_SEED"); env != nullptr) {
    seed = std::strtoull(env, nullptr, 10);
  }
  // Clean run: learn the op-index domain for the sweep.
  uint64_t clean_ops = 0;
  uint64_t clean_written = 0;
  {
    TempDir dir;
    FaultInjectingFileOps ops;
    const CrashWorkloadResult clean =
        RunCrashWorkload(dir.path(), seed, &ops);
    ASSERT_EQ(clean.acked, clean.written.size());
    ASSERT_FALSE(clean.acked_metadata.empty());
    clean_ops = clean.total_ops;
    clean_written = clean.written.size();
  }
  ASSERT_GT(clean_ops, 20u);

  // The commit thread makes exact op indices nondeterministic run to
  // run; that is fine — every index is SOME valid crash point, and the
  // contract must hold at all of them.
  for (uint64_t crash_at = 1; crash_at <= clean_ops; ++crash_at) {
    SCOPED_TRACE("crash_at_op=" + std::to_string(crash_at) +
                 " seed=" + std::to_string(seed));
    TempDir dir;
    FaultSchedule schedule;
    schedule.crash_at_op = crash_at;
    FaultInjectingFileOps ops(schedule);
    const CrashWorkloadResult run =
        RunCrashWorkload(dir.path(), seed, &ops);

    // Post-crash restart: clean syscalls, same directory.
    SegmentedDiskBackend reopened(
        WalConfig(dir.path(), DurabilityMode::kWalGroupCommit, 512));
    const Status opened = reopened.Open();
    // Recovery must never crash and never refuse the store outright —
    // every injected state is reachable by a real kill.
    ASSERT_TRUE(opened.ok()) << opened.ToString();

    // Zero acknowledged-record loss...
    ASSERT_GE(reopened.size(), run.acked);
    // ...and nothing invented: what is recovered is a byte-identical
    // prefix of what was offered.
    ASSERT_LE(reopened.size(), run.written.size());
    for (uint64_t i = 0; i < reopened.size(); ++i) {
      LogRecord out;
      ASSERT_TRUE(reopened.Read(i, &out).ok());
      ASSERT_EQ(out.text, run.written[i].text);
      ASSERT_EQ(out.timestamp_us, run.written[i].timestamp_us);
    }
    // Metadata: the two manifest slots recover either the last
    // acknowledged checkpoint or a later attempted one — never a torn
    // in-between and never a regression past the acked blob.
    if (!run.acked_metadata.empty()) {
      bool valid = reopened.metadata() == run.acked_metadata;
      bool passed_acked = false;
      for (const std::string& blob : run.attempted_metadata) {
        if (blob == run.acked_metadata) passed_acked = true;
        if (passed_acked && reopened.metadata() == blob) valid = true;
      }
      ASSERT_TRUE(valid) << "recovered metadata '" << reopened.metadata()
                         << "' is neither the acked checkpoint nor a "
                            "later attempt";
    }
  }
  // Sanity: the workload is non-trivial.
  EXPECT_GT(clean_written, 10u);
}

// The recycled wal.log across generations: long frames first, so every
// later generation of short frames overwrites only the start of the
// file and leaves earlier generations' frames behind it. Killed at
// every op index, a reopen must replay none of those leftovers (their
// salt differs): what it recovers is exactly a prefix of what was
// offered, with nothing acknowledged lost.
TEST(WalCrashMatrixTest, StaleGenerationsNeverReplay) {
  const char* env = std::getenv("BB_CRASH_SEED");
  const uint64_t seed = env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
  const CrashWorkloadShape shape{/*batches=*/12, /*long_batches=*/4};
  uint64_t clean_ops = 0;
  {
    TempDir dir;
    FaultInjectingFileOps ops;
    const CrashWorkloadResult clean =
        RunCrashWorkload(dir.path(), seed, &ops, shape);
    ASSERT_EQ(clean.acked, clean.written.size());
    ASSERT_GE(clean.sealed_segments, 4u) << "too few WAL rotations";
    clean_ops = clean.total_ops;
  }
  for (uint64_t crash_at = 1; crash_at <= clean_ops; ++crash_at) {
    SCOPED_TRACE("crash_at_op=" + std::to_string(crash_at) +
                 " seed=" + std::to_string(seed));
    TempDir dir;
    FaultSchedule schedule;
    schedule.crash_at_op = crash_at;
    FaultInjectingFileOps ops(schedule);
    const CrashWorkloadResult run =
        RunCrashWorkload(dir.path(), seed, &ops, shape);
    SegmentedDiskBackend reopened(
        WalConfig(dir.path(), DurabilityMode::kWalGroupCommit, 512));
    const Status opened = reopened.Open();
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    ASSERT_GE(reopened.size(), run.acked);
    ASSERT_LE(reopened.size(), run.written.size());
    for (uint64_t i = 0; i < reopened.size(); ++i) {
      LogRecord out;
      ASSERT_TRUE(reopened.Read(i, &out).ok());
      ASSERT_EQ(out.text, run.written[i].text);
      ASSERT_EQ(out.timestamp_us, run.written[i].timestamp_us);
    }
  }
}

// ---------------------------------------------------------------------
// Group commit concurrency (TSAN-covered via the sanitized test run)
// ---------------------------------------------------------------------

TEST(WalGroupCommitTest, ConcurrentBatchesShareFsyncs) {
  TempDir dir;
  TopicConfig config;
  config.storage = WalConfig(dir.path(), DurabilityMode::kNone);
  config.durability = DurabilityMode::kWalGroupCommit;
  config.initial_train_records = 1000000;  // appends only: no training
  config.train_interval_records = 1000000;
  auto topic = std::make_unique<ManagedTopic>("wal-concurrency", config);
  ASSERT_TRUE(topic->StorageStatus().ok());
  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 25;
  constexpr int kRecordsPerBatch = 4;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> acks{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int b = 0; b < kBatchesPerThread; ++b) {
        std::vector<std::string> texts;
        std::vector<uint64_t> timestamps;
        for (int r = 0; r < kRecordsPerBatch; ++r) {
          texts.push_back("t" + std::to_string(t) + "b" + std::to_string(b) +
                          "r" + std::to_string(r));
          timestamps.push_back(b);
        }
        // IngestBatch returns only after its group-commit wait.
        if (topic->IngestBatch(std::move(texts), timestamps).ok()) {
          acks.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t total_batches = kThreads * kBatchesPerThread;
  const TopicStats stats = topic->stats();
  EXPECT_EQ(topic->size(), total_batches * kRecordsPerBatch);
  EXPECT_EQ(acks.load(), total_batches);
  EXPECT_TRUE(stats.storage_ok);
  EXPECT_EQ(stats.wal_group_commits, total_batches);
  // The whole point of group commit: every ack is covered by an fsync,
  // with (under concurrency, usually far) fewer fsyncs than acks.
  EXPECT_GE(stats.wal_fsyncs, 1u);
  EXPECT_LE(stats.wal_fsyncs, total_batches);
  EXPECT_GT(stats.wal_bytes, 0u);

  // Everything recovers on reopen.
  topic.reset();
  ManagedTopic reopened("wal-concurrency", config);
  ASSERT_TRUE(reopened.StorageStatus().ok());
  EXPECT_EQ(reopened.size(), total_batches * kRecordsPerBatch);
}

// ---------------------------------------------------------------------
// Service-level durability surfacing
// ---------------------------------------------------------------------

/// Pass-through ops whose fsyncs can be failed at will — the
/// deterministic seam for "the disk's fsync started failing mid-run" —
/// and whose next pwrite can be failed once.
class FailableFsyncOps : public FileOps {
 public:
  ssize_t Write(int fd, const void* buf, size_t count) override {
    return RealFileOps()->Write(fd, buf, count);
  }
  ssize_t PWrite(int fd, const void* buf, size_t count,
                 uint64_t offset) override {
    if (fail_next_pwrite_.exchange(false, std::memory_order_relaxed)) {
      errno = EIO;
      return -1;
    }
    return RealFileOps()->PWrite(fd, buf, count, offset);
  }
  int Fsync(int fd) override {
    if (fail_.load(std::memory_order_relaxed)) {
      failed_fsyncs_.fetch_add(1, std::memory_order_relaxed);
      errno = EIO;
      return -1;
    }
    return RealFileOps()->Fsync(fd);
  }
  void StartFailing() { fail_.store(true, std::memory_order_relaxed); }
  void FailNextPWrite() {
    fail_next_pwrite_.store(true, std::memory_order_relaxed);
  }
  uint64_t failed_fsyncs() const {
    return failed_fsyncs_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> fail_{false};
  std::atomic<bool> fail_next_pwrite_{false};
  std::atomic<uint64_t> failed_fsyncs_{0};
};

TopicConfig DurableTopicConfig(const std::string& dir, DurabilityMode mode,
                               FileOps* ops = nullptr) {
  TopicConfig config;
  config.storage = WalConfig(dir, DurabilityMode::kNone, 64 * 1024, ops);
  config.durability = mode;
  config.initial_train_records = 4;
  return config;
}

TEST(ServiceDurabilityTest, DurabilityRequiresDiskStorage) {
  TopicConfig config;  // kMemory storage
  config.durability = DurabilityMode::kWalGroupCommit;
  LogService service;
  EXPECT_FALSE(service.CreateTopic("t", config).ok());
}

TEST(ServiceDurabilityTest, WalStatsSurfaceThroughTopicStats) {
  TempDir dir;
  LogService service;
  auto topic = service.CreateTopic(
      "t", DurableTopicConfig(dir.path(), DurabilityMode::kWalGroupCommit));
  ASSERT_TRUE(topic.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        topic.value()->Ingest("service record " + std::to_string(i), i).ok());
  }
  const TopicStats stats = topic.value()->stats();
  EXPECT_TRUE(stats.storage_ok);
  EXPECT_GT(stats.wal_bytes, 0u);
  EXPECT_GE(stats.wal_group_commits, 8u);
  EXPECT_GE(stats.wal_fsyncs, 1u);
  EXPECT_EQ(stats.wal_replayed_records, 0u);
}

TEST(ServiceDurabilityTest, RecoveryReplaysWalTailIntoTheService) {
  TempDir dir;
  FaultInjectingFileOps ops;
  {
    LogService service;
    auto topic = service.CreateTopic(
        "t", DurableTopicConfig(dir.path(), DurabilityMode::kWalGroupCommit,
                                &ops));
    ASSERT_TRUE(topic.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          topic.value()->Ingest("crash survivor " + std::to_string(i), i)
              .ok());
    }
    // Kill the storage layer before the service can checkpoint at
    // shutdown: the active segment file never got the tail, the WAL did.
    ops.CrashNow();
    topic.value().reset();  // release the handle so DeleteTopic can run
    (void)service.DeleteTopic("t", /*purge_storage=*/false);
  }
  LogService service;
  auto topic = service.CreateTopic(
      "t", DurableTopicConfig(dir.path(), DurabilityMode::kWalGroupCommit));
  ASSERT_TRUE(topic.ok());
  EXPECT_EQ(topic.value()->size(), 10u);
  const TopicStats stats = topic.value()->stats();
  EXPECT_EQ(stats.recovered_records, 10u);
  EXPECT_GT(stats.wal_replayed_records, 0u);
  auto record = topic.value()->ReadRecord(9);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().text, "crash survivor 9");
}

TEST(ServiceDurabilityTest, FsyncFailureDegradesStickyButKeepsAcking) {
  TempDir dir;
  FailableFsyncOps ops;
  LogService service;
  auto topic = service.CreateTopic(
      "t", DurableTopicConfig(dir.path(), DurabilityMode::kWalGroupCommit,
                              &ops));
  ASSERT_TRUE(topic.ok());
  ASSERT_TRUE(topic.value()->Ingest("healthy", 1).ok());
  ASSERT_TRUE(topic.value()->stats().storage_ok);

  ops.StartFailing();
  // The ingest is still acknowledged (fail-soft), but the WAL fsync
  // failure lands sticky in the topic's storage status.
  ASSERT_TRUE(topic.value()->Ingest("degraded", 2).ok());
  EXPECT_FALSE(topic.value()->stats().storage_ok);
  // And it STAYS degraded — exactly like an append-path IO error.
  ASSERT_TRUE(topic.value()->Ingest("still acked", 3).ok());
  EXPECT_FALSE(topic.value()->stats().storage_ok);
  EXPECT_EQ(topic.value()->size(), 3u);
  topic.value().reset();  // release the handle so DeleteTopic is prompt
  (void)service.DeleteTopic("t");
}

TEST(ServiceDurabilityTest, CheckpointFsyncFailureGoesSticky) {
  // kNone: no WAL, so the model checkpoint a training stages is the only
  // fsync — and a failed one must not stay silent.
  TempDir dir;
  FailableFsyncOps ops;
  LogService service;
  auto topic = service.CreateTopic(
      "t", DurableTopicConfig(dir.path(), DurabilityMode::kNone, &ops));
  ASSERT_TRUE(topic.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        topic.value()->Ingest("checkpointed " + std::to_string(i), i).ok());
  }
  ASSERT_TRUE(topic.value()->stats().storage_ok);

  ops.StartFailing();
  // The training itself commits; only its checkpoint's fsync fails, and
  // that failure lands sticky in the storage status.
  ASSERT_TRUE(topic.value()->TrainNow().ok());
  EXPECT_EQ(ops.failed_fsyncs(), 1u);
  EXPECT_FALSE(topic.value()->stats().storage_ok);
  EXPECT_TRUE(topic.value()->StorageStatus().IsIOError())
      << topic.value()->StorageStatus().ToString();
  topic.value().reset();  // release the handle so DeleteTopic is prompt
  (void)service.DeleteTopic("t");
}

TEST(ServiceDurabilityTest, FailedTemplatePWriteStrandsOnlyItsRecord) {
  // A training commit rewrites the ids of every record the swap made
  // stale (ingest before the first training adopts temporaries). When
  // one sealed-segment pwrite fails, only that record may keep its stale
  // id: the rest of the range — later sealed records and the in-memory
  // active tail — is still re-assigned, and the failure is reported both
  // by TrainNow and by the sticky storage status.
  TempDir dir;
  FailableFsyncOps ops;
  LogService service;
  TopicConfig config;
  config.storage = WalConfig(dir.path(), DurabilityMode::kNone, 2048, &ops);
  config.initial_train_records = 1u << 30;  // trains on TrainNow only
  config.train_interval_records = 1u << 30;
  auto topic = service.CreateTopic("t", config);
  ASSERT_TRUE(topic.ok());
  constexpr uint64_t kRecords = 200;
  for (uint64_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(topic.value()
                    ->Ingest("worker " + std::to_string(i % 7) +
                                 " finished job " + std::to_string(i),
                             i)
                    .ok());
  }
  ASSERT_GT(topic.value()->stats().storage_sealed_segments, 1u);
  ASSERT_TRUE(topic.value()->stats().storage_ok);

  ops.FailNextPWrite();
  const Status trained = topic.value()->TrainNow();
  EXPECT_TRUE(trained.IsIOError()) << trained.ToString();

  // Collected first: the scan callback must not re-enter the topic.
  std::vector<TemplateId> ids;
  ASSERT_TRUE(topic.value()
                  ->ScanRecords(0, kRecords,
                                [&ids](uint64_t, const LogRecord& rec) {
                                  ids.push_back(rec.template_id);
                                })
                  .ok());
  ASSERT_EQ(ids.size(), kRecords);
  uint64_t unresolvable = 0;
  for (TemplateId id : ids) {
    if (!topic.value()->HasTemplate(id)) ++unresolvable;
  }
  EXPECT_EQ(unresolvable, 1u);
  EXPECT_FALSE(topic.value()->stats().storage_ok);
  EXPECT_TRUE(topic.value()->StorageStatus().IsIOError())
      << topic.value()->StorageStatus().ToString();
  topic.value().reset();  // release the handle so DeleteTopic is prompt
  (void)service.DeleteTopic("t");
}

}  // namespace
}  // namespace bytebrain
