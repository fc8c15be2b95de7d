// Fault-injection harness battery: the FaultInjectingFileOps syscall
// shim (short writes, EIO, fsync failures, crash points that tear the
// final write and then kill every subsequent op) and the
// FaultInjectingBackend decorator (Status-level faults over any
// StorageBackend, preserving the fail-soft append contract).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "logstore/fault_injection.h"
#include "logstore/storage_backend.h"

namespace bytebrain {
namespace {

/// A real scratch file to aim the shim's (pass-through) syscalls at.
class TempFile {
 public:
  TempFile() {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("bb_faultops_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  }
  ~TempFile() {
    if (fd_ >= 0) ::close(fd_);
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  int fd() const { return fd_; }

 private:
  std::string path_;
  int fd_ = -1;
};

TEST(FaultInjectingFileOpsTest, PassesThroughWithEmptySchedule) {
  TempFile file;
  FaultInjectingFileOps ops;
  EXPECT_EQ(ops.Write(file.fd(), "hello", 5), 5);
  EXPECT_EQ(ops.PWrite(file.fd(), "HE", 2, 0), 2);
  EXPECT_EQ(ops.Fsync(file.fd()), 0);
  EXPECT_EQ(ops.ops_seen(), 3u);
  EXPECT_FALSE(ops.crashed());
  char buf[6] = {};
  ASSERT_EQ(::pread(file.fd(), buf, 5, 0), 5);
  EXPECT_STREQ(buf, "HEllo");
}

TEST(FaultInjectingFileOpsTest, ShortWriteWritesHalf) {
  TempFile file;
  FaultSchedule schedule;
  schedule.short_write_at = 2;
  FaultInjectingFileOps ops(schedule);
  EXPECT_EQ(ops.Write(file.fd(), "aaaa", 4), 4);  // op 1: clean
  EXPECT_EQ(ops.Write(file.fd(), "bbbb", 4), 2);  // op 2: torn in half
  EXPECT_EQ(ops.Write(file.fd(), "cccc", 4), 4);  // one-shot: clean again
  char buf[11] = {};
  ASSERT_EQ(::pread(file.fd(), buf, 10, 0), 10);
  EXPECT_STREQ(buf, "aaaabbcccc");
}

TEST(FaultInjectingFileOpsTest, FailTriggersAreKindSpecific) {
  TempFile file;
  FaultSchedule schedule;
  schedule.fail_write_at = 1;
  schedule.fail_pwrite_at = 2;
  schedule.fail_fsync_at = 3;
  FaultInjectingFileOps ops(schedule);
  errno = 0;
  EXPECT_EQ(ops.Write(file.fd(), "x", 1), -1);  // op 1 is a Write: fires
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(ops.PWrite(file.fd(), "y", 1, 0), -1);  // op 2 is a PWrite
  EXPECT_EQ(ops.Fsync(file.fd()), -1);              // op 3 is an Fsync
  // All one-shot: the same kinds succeed on later ops.
  EXPECT_EQ(ops.Write(file.fd(), "x", 1), 1);
  EXPECT_EQ(ops.PWrite(file.fd(), "y", 1, 0), 1);
  EXPECT_EQ(ops.Fsync(file.fd()), 0);
}

TEST(FaultInjectingFileOpsTest, MismatchedKindDoesNotFire) {
  TempFile file;
  FaultSchedule schedule;
  schedule.fail_fsync_at = 1;  // op 1 will be a Write, not an Fsync
  FaultInjectingFileOps ops(schedule);
  EXPECT_EQ(ops.Write(file.fd(), "x", 1), 1);
  EXPECT_EQ(ops.Fsync(file.fd()), 0);  // op 2: trigger already passed
}

TEST(FaultInjectingFileOpsTest, CrashTearsThenKillsEverything) {
  TempFile file;
  FaultSchedule schedule;
  schedule.crash_at_op = 2;
  FaultInjectingFileOps ops(schedule);
  EXPECT_EQ(ops.Write(file.fd(), "aaaa", 4), 4);
  EXPECT_EQ(ops.Write(file.fd(), "bbbb", 4), 2);  // torn final write
  EXPECT_TRUE(ops.crashed());
  errno = 0;
  EXPECT_EQ(ops.Write(file.fd(), "cccc", 4), -1);  // dead forever after
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(ops.PWrite(file.fd(), "d", 1, 0), -1);
  EXPECT_EQ(ops.Fsync(file.fd()), -1);
  char buf[7] = {};
  ASSERT_EQ(::pread(file.fd(), buf, 6, 0), 6);
  EXPECT_STREQ(buf, "aaaabb");
}

TEST(FaultInjectingFileOpsTest, CrashOnFsyncFailsOutright) {
  TempFile file;
  FaultSchedule schedule;
  schedule.crash_at_op = 1;
  FaultInjectingFileOps ops(schedule);
  EXPECT_EQ(ops.Fsync(file.fd()), -1);  // fsync cannot tear: plain death
  EXPECT_TRUE(ops.crashed());
}

TEST(FaultInjectingFileOpsTest, CrashNowNeedsNoOpCount) {
  TempFile file;
  FaultInjectingFileOps ops;
  EXPECT_EQ(ops.Write(file.fd(), "x", 1), 1);
  ops.CrashNow();
  EXPECT_TRUE(ops.crashed());
  EXPECT_EQ(ops.Write(file.fd(), "x", 1), -1);
  EXPECT_EQ(ops.Fsync(file.fd()), -1);
}

// ---------------------------------------------------------------------
// FaultInjectingBackend (Status-level decorator)
// ---------------------------------------------------------------------

LogRecord MakeRecord(const std::string& text, uint64_t ts = 7) {
  LogRecord record;
  record.text = text;
  record.timestamp_us = ts;
  return record;
}

std::unique_ptr<FaultInjectingBackend> FaultyMemory(
    BackendFaultSchedule schedule) {
  auto backend = std::make_unique<FaultInjectingBackend>(
      std::make_unique<MemoryBackend>(16), schedule);
  EXPECT_TRUE(backend->Open().ok());
  return backend;
}

TEST(FaultInjectingBackendTest, PassesThroughWithEmptySchedule) {
  auto backend = FaultyMemory({});
  ASSERT_TRUE(backend->AppendBatch({MakeRecord("a")}).ok());
  ASSERT_TRUE(backend->AppendBatch({MakeRecord("b"), MakeRecord("c")}).ok());
  EXPECT_EQ(backend->size(), 3u);
  LogRecord out;
  ASSERT_TRUE(backend->Read(2, &out).ok());
  EXPECT_EQ(out.text, "c");
  EXPECT_TRUE(backend->Flush().ok());
  EXPECT_TRUE(backend->Checkpoint("meta").ok());
}

TEST(FaultInjectingBackendTest, FaultedAppendStillLands) {
  BackendFaultSchedule schedule;
  schedule.fail_append_at = 2;
  auto backend = FaultyMemory(schedule);
  ASSERT_TRUE(backend->AppendBatch({MakeRecord("a")}).ok());
  // The fail-soft contract: the error surfaces but the record is in —
  // sequence numbering must not skip.
  EXPECT_FALSE(backend->AppendBatch({MakeRecord("b")}).ok());
  ASSERT_TRUE(backend->AppendBatch({MakeRecord("c")}).ok());
  EXPECT_EQ(backend->size(), 3u);
  LogRecord out;
  ASSERT_TRUE(backend->Read(1, &out).ok());
  EXPECT_EQ(out.text, "b");
}

TEST(FaultInjectingBackendTest, AppendAndAppendBatchShareTheCounter) {
  BackendFaultSchedule schedule;
  schedule.fail_append_at = 2;
  auto backend = FaultyMemory(schedule);
  ASSERT_TRUE(backend->AppendBatch({MakeRecord("a")}).ok());
  EXPECT_FALSE(backend->AppendBatch({MakeRecord("b"), MakeRecord("c")}).ok());
  EXPECT_EQ(backend->size(), 3u);  // batch records landed regardless
}

TEST(FaultInjectingBackendTest, ReadAndScanShareTheCounter) {
  BackendFaultSchedule schedule;
  schedule.fail_read_at = 2;
  auto backend = FaultyMemory(schedule);
  ASSERT_TRUE(backend->AppendBatch({MakeRecord("a")}).ok());
  LogRecord out;
  ASSERT_TRUE(backend->Read(0, &out).ok());
  // Call 2 is a Scan: the injected error comes back without forwarding.
  size_t seen = 0;
  EXPECT_FALSE(
      backend->Scan(0, 1, [&](uint64_t, const LogRecord&) { ++seen; }).ok());
  EXPECT_EQ(seen, 0u);
  ASSERT_TRUE(backend->Read(0, &out).ok());  // one-shot
}

TEST(FaultInjectingBackendTest, FlushAndCheckpointFaults) {
  BackendFaultSchedule schedule;
  schedule.fail_flush_at = 1;
  schedule.fail_checkpoint_at = 2;
  auto backend = FaultyMemory(schedule);
  EXPECT_FALSE(backend->Flush().ok());
  EXPECT_TRUE(backend->Flush().ok());
  EXPECT_TRUE(backend->Checkpoint("one").ok());
  EXPECT_FALSE(backend->Checkpoint("two").ok());
  // The faulted checkpoint did NOT forward: metadata is still "one".
  EXPECT_EQ(backend->metadata(), "one");
}

}  // namespace
}  // namespace bytebrain
