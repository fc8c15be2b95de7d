// Deterministic IO fault injection for the storage layer (ISSUE 6; see
// ARCHITECTURE.md §Durability "Testing the failure paths").
//
// Two layers, matching the two places a storage failure can surface:
//
//   * FileOps / FaultInjectingFileOps — a syscall shim for write/pwrite/
//     fsync. SegmentedDiskBackend and WriteAheadLog route every data-path
//     syscall through the StorageConfig::file_ops pointer, so a test can
//     inject short writes, EIO, fsync failures, and crash points (a torn
//     final write after which EVERY op fails, simulating process death)
//     at an exact global op index — deterministically, even across the
//     WAL commit thread.
//   * FaultInjectingBackend — a StorageBackend decorator injecting
//     Status-level faults (EIO on the Nth AppendBatch/Read/Flush/
//     Checkpoint) to exercise the fail-soft error plumbing above the
//     syscall layer.
//
// All counters are atomics: the shim is shared between request threads
// and the WAL commit thread, and the fault-injection suites run under
// TSAN.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "logstore/storage_backend.h"

namespace bytebrain {

/// Syscall indirection for the storage data path. The default
/// implementation (RealFileOps()) forwards to the real syscalls; tests
/// substitute FaultInjectingFileOps via StorageConfig::file_ops. Return
/// conventions match write(2)/pwrite(2)/fsync(2).
class FileOps {
 public:
  virtual ~FileOps() = default;
  virtual ssize_t Write(int fd, const void* buf, size_t count) = 0;
  virtual ssize_t PWrite(int fd, const void* buf, size_t count,
                         uint64_t offset) = 0;
  virtual int Fsync(int fd) = 0;
};

/// The pass-through singleton (real syscalls). Never freed.
FileOps* RealFileOps();

/// When each fault fires, by 1-based GLOBAL op index (each Write/PWrite/
/// Fsync call increments one shared counter). 0 disables a trigger.
struct FaultSchedule {
  /// One-shot: the op writes only half its bytes (the caller's retry
  /// loop — or a crash — decides what happens to the rest).
  uint64_t short_write_at = 0;
  /// One-shot EIO on a Write / PWrite / Fsync op respectively (the op
  /// must be of the matching kind to fire; a mismatch is a no-op).
  uint64_t fail_write_at = 0;
  uint64_t fail_pwrite_at = 0;
  uint64_t fail_fsync_at = 0;
  /// Crash point: this op performs a TORN half write (or fails outright
  /// when it cannot tear: fsync, 1-byte writes), and every subsequent
  /// op fails with EIO — the process is "dead" to the storage layer.
  /// Reopening with clean ops models the post-crash restart.
  uint64_t crash_at_op = 0;
};

/// Injects the schedule above over the real syscalls.
class FaultInjectingFileOps : public FileOps {
 public:
  explicit FaultInjectingFileOps(FaultSchedule schedule = {})
      : schedule_(schedule) {}

  ssize_t Write(int fd, const void* buf, size_t count) override;
  ssize_t PWrite(int fd, const void* buf, size_t count,
                 uint64_t offset) override;
  int Fsync(int fd) override;

  /// Trips the crash state immediately (no op-count guessing): every
  /// subsequent op fails with EIO. For tests that crash at a known
  /// LOGICAL point rather than a syscall index.
  void CrashNow() { crashed_.store(true, std::memory_order_relaxed); }
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }
  /// Total ops seen so far — the domain for crash_at_op sweeps.
  uint64_t ops_seen() const { return ops_.load(std::memory_order_relaxed); }

 private:
  uint64_t NextOp() { return ops_.fetch_add(1, std::memory_order_relaxed) + 1; }

  const FaultSchedule schedule_;
  std::atomic<uint64_t> ops_{0};
  std::atomic<bool> crashed_{false};
};

/// Status-level faults for the backend interface, by 1-based per-method
/// call index (Read and Scan share one counter). 0 disables a trigger.
struct BackendFaultSchedule {
  uint64_t fail_append_at = 0;
  uint64_t fail_read_at = 0;
  uint64_t fail_flush_at = 0;
  uint64_t fail_checkpoint_at = 0;
};

/// Decorates any StorageBackend with injected Status faults. A faulted
/// AppendBatch still FORWARDS to the inner backend before returning the
/// error — the fail-soft contract (the records must land, only
/// durability is lost) means callers rely on size() advancing even on
/// error, and the decorator must not break sequence numbering. Read,
/// Scan, Flush and Checkpoint faults do not forward; AssignTemplates and
/// both query primitives always forward.
class FaultInjectingBackend : public StorageBackend {
 public:
  FaultInjectingBackend(std::unique_ptr<StorageBackend> inner,
                        BackendFaultSchedule schedule)
      : inner_(std::move(inner)), schedule_(schedule) {}

  Status Open() override { return inner_->Open(); }
  Status AppendBatch(std::vector<LogRecord> records) override;
  uint64_t size() const override { return inner_->size(); }
  uint64_t text_bytes() const override { return inner_->text_bytes(); }
  Status Read(uint64_t seq, LogRecord* out) const override;
  Status Scan(uint64_t begin, uint64_t end,
              const std::function<void(uint64_t, const LogRecord&)>& fn)
      const override;
  Status AssignTemplates(uint64_t begin_seq,
                         const std::vector<TemplateId>& ids) override {
    return inner_->AssignTemplates(begin_seq, ids);
  }
  Status TemplateCounts(
      uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
      std::unordered_map<TemplateId, uint64_t>* counts) const override {
    return inner_->TemplateCounts(begin, end, min_ts_us, max_ts_us, counts);
  }
  Status ScanTemplates(
      uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
      const std::unordered_set<TemplateId>& ids,
      const std::function<void(uint64_t, TemplateId)>& fn) const override {
    return inner_->ScanTemplates(begin, end, min_ts_us, max_ts_us, ids, fn);
  }
  Status Flush() override;
  Status Checkpoint(std::string_view metadata) override;
  const std::string& metadata() const override { return inner_->metadata(); }
  std::shared_ptr<const SealedRecordView> SnapshotSealed() const override {
    return inner_->SnapshotSealed();
  }
  bool persistent() const override { return inner_->persistent(); }
  uint64_t sealed_segment_count() const override {
    return inner_->sealed_segment_count();
  }
  uint64_t mapped_bytes() const override { return inner_->mapped_bytes(); }
  uint64_t cache_hits() const override { return inner_->cache_hits(); }
  uint64_t cache_misses() const override { return inner_->cache_misses(); }
  uint64_t cache_evictions() const override {
    return inner_->cache_evictions();
  }
  uint64_t index_rebuilds() const override { return inner_->index_rebuilds(); }
  uint64_t scan_record_visits() const override {
    return inner_->scan_record_visits();
  }
  Status WaitDurable() override { return inner_->WaitDurable(); }
  uint64_t wal_bytes() const override { return inner_->wal_bytes(); }
  uint64_t wal_group_commits() const override {
    return inner_->wal_group_commits();
  }
  uint64_t wal_fsyncs() const override { return inner_->wal_fsyncs(); }
  uint64_t wal_replayed_records() const override {
    return inner_->wal_replayed_records();
  }

 private:
  std::unique_ptr<StorageBackend> inner_;
  const BackendFaultSchedule schedule_;
  mutable std::atomic<uint64_t> append_calls_{0};
  mutable std::atomic<uint64_t> read_calls_{0};
  mutable std::atomic<uint64_t> flush_calls_{0};
  mutable std::atomic<uint64_t> checkpoint_calls_{0};
};

}  // namespace bytebrain
