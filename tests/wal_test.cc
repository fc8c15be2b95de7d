// Write-ahead-log battery (ISSUE 6 tentpole): WriteAheadLog unit
// behavior (replay, rotation, base_seq pinning, sticky fsync failure,
// group-commit accounting), SegmentedDiskBackend WAL integration (WAL
// replay beyond the segment tail, torn final frames, stale-file
// cleanup), the crash matrix (a fault-injected "process death" at EVERY
// syscall index of a mixed append/checkpoint/seal workload, then a
// clean reopen asserting zero acknowledged-record loss and metadata
// recovery), group-commit concurrency (TSAN-covered), and the
// service-level surfacing (durability config, WAL stats, sticky
// degradation on fsync failure).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
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

std::string FrameBytes(const std::vector<LogRecord>& records) {
  std::string out;
  for (const LogRecord& r : records) {
    char header[logframe::kFrameHeaderBytes];
    logframe::FillFrameHeader(header, r,
                              RecordChecksum(r.timestamp_us, r.text));
    out.append(header, sizeof(header));
    out.append(r.text);
  }
  return out;
}

std::string WalPath(const std::string& dir, uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06llu.log",
                static_cast<unsigned long long>(index));
  return dir + "/" + name;
}

// ---------------------------------------------------------------------
// WriteAheadLog unit behavior
// ---------------------------------------------------------------------

TEST(WriteAheadLogTest, FreshOpenCreatesEmptyFile) {
  TempDir dir;
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalGroupCommit,
                    RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(0, 0, &replayed).ok());
  EXPECT_TRUE(replayed.empty());
  EXPECT_TRUE(std::filesystem::exists(WalPath(dir.path(), 0)));
  EXPECT_EQ(wal.wal_bytes(), 0u);
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
    ASSERT_TRUE(wal.OpenAndReplay(0, 0, &replayed).ok());
    ASSERT_TRUE(wal.Append(FrameBytes(written)).ok());
    ASSERT_TRUE(wal.WaitDurable().ok());
    EXPECT_GE(wal.fsyncs(), 1u);
    EXPECT_EQ(wal.group_commits(), 1u);
  }
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalGroupCommit,
                    RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(0, 0, &replayed).ok());
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
    ASSERT_TRUE(wal.OpenAndReplay(0, 0, &replayed).ok());
    ASSERT_TRUE(wal.Append(FrameBytes(written)).ok());
  }
  // Tear the final frame: drop its last 3 bytes.
  const std::string path = WalPath(dir.path(), 0);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);

  WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(0, 0, &replayed).ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].text, "first");
  // The torn bytes are gone: appending now must produce a cleanly
  // replayable file again.
  ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("third", 3)})).ok());
  std::vector<LogRecord> again;
  WriteAheadLog wal2(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
  ASSERT_TRUE(wal2.OpenAndReplay(0, 0, &again).ok());
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[1].text, "third");
}

TEST(WriteAheadLogTest, BaseSeqMismatchIsCorruption) {
  TempDir dir;
  {
    WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
    std::vector<LogRecord> replayed;
    ASSERT_TRUE(wal.OpenAndReplay(0, 0, &replayed).ok());
    ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("x", 1)})).ok());
  }
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
  std::vector<LogRecord> replayed;
  const Status opened = wal.OpenAndReplay(0, 5, &replayed);
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.IsCorruption());
}

TEST(WriteAheadLogTest, RotateDeletesOldFileAndStartsFresh) {
  TempDir dir;
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalGroupCommit,
                    RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(0, 0, &replayed).ok());
  ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("x", 1)})).ok());
  ASSERT_TRUE(wal.Rotate(1, 1).ok());
  EXPECT_FALSE(std::filesystem::exists(WalPath(dir.path(), 0)));
  EXPECT_TRUE(std::filesystem::exists(WalPath(dir.path(), 1)));
  EXPECT_EQ(wal.wal_bytes(), 0u);
  // A waiter arriving after the rotation is already durable (the seal
  // fsynced its bytes): WaitDurable returns without a new append.
  ASSERT_TRUE(wal.WaitDurable().ok());
  ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("y", 2)})).ok());
  ASSERT_TRUE(wal.WaitDurable().ok());
}

TEST(WriteAheadLogTest, StaleFilesFromOtherSegmentsAreDeleted) {
  TempDir dir;
  // A crash between the seal's manifest write and Rotate leaves the
  // previous segment's wal file behind; the next open must remove it.
  std::ofstream(WalPath(dir.path(), 3)) << "stale-not-even-a-header";
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(4, 100, &replayed).ok());
  EXPECT_FALSE(std::filesystem::exists(WalPath(dir.path(), 3)));
  EXPECT_TRUE(std::filesystem::exists(WalPath(dir.path(), 4)));
}

TEST(WriteAheadLogTest, AsyncModeNeverBlocksInWaitDurable) {
  TempDir dir;
  WriteAheadLog wal(dir.path(), DurabilityMode::kWalAsync, RealFileOps());
  std::vector<LogRecord> replayed;
  ASSERT_TRUE(wal.OpenAndReplay(0, 0, &replayed).ok());
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
  ASSERT_TRUE(wal.OpenAndReplay(0, 0, &replayed).ok());
  ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("x", 1)})).ok());
  EXPECT_FALSE(wal.WaitDurable().ok());
  // Sticky: later appends and waits keep failing without touching IO.
  EXPECT_FALSE(wal.Append(FrameBytes({MakeRecord("y", 2)})).ok());
  EXPECT_FALSE(wal.WaitDurable().ok());
  // Rotate (a healthy seal elsewhere) starts a clean file and clears
  // the error: the WAL is usable again.
  ASSERT_TRUE(wal.Rotate(1, 2).ok());
  ASSERT_TRUE(wal.Append(FrameBytes({MakeRecord("z", 3)})).ok());
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
  EXPECT_EQ(reopened.wal_replayed_records(), written.size());
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
  const std::string wal_path = WalPath(dir.path(), 0);
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
  EXPECT_GE(backend.sealed_segment_count(), 1u);
  // Exactly one wal file remains — the active segment's; every sealed
  // segment's file was rotated away.
  size_t wal_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) ++wal_files;
  }
  EXPECT_EQ(wal_files, 1u);
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
  EXPECT_EQ(backend.wal_bytes(), 0u);
  EXPECT_FALSE(std::filesystem::exists(WalPath(dir.path(), 0)));
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
};

/// Runs the seeded workload against a fresh backend in `dir` with
/// `ops`; stops at the first failed call (the crash made every
/// subsequent syscall fail anyway).
CrashWorkloadResult RunCrashWorkload(const std::string& dir, uint64_t seed,
                                     FaultInjectingFileOps* ops) {
  CrashWorkloadResult result;
  Rng rng(seed);
  SegmentedDiskBackend backend(
      WalConfig(dir, DurabilityMode::kWalGroupCommit, 512, ops));
  if (!backend.Open().ok()) {
    result.total_ops = ops->ops_seen();
    return result;
  }
  uint64_t ts = 0;
  for (int batch = 0; batch < 12; ++batch) {
    const size_t batch_size = 1 + rng.NextBelow(6);
    std::vector<LogRecord> records;
    for (size_t i = 0; i < batch_size; ++i) {
      std::string text = "b" + std::to_string(batch) + "r" +
                         std::to_string(i) + " ";
      const size_t pad = rng.NextBelow(40);
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
    // Metadata: the atomic tmp+rename manifest recovers either the last
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
