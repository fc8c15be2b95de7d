// Pluggable record storage for a topic (paper §3 "the system stores
// logs in append-only topics"; ROADMAP "Multi-topic storage backends").
//
// A StorageBackend owns the record bytes of one topic. Two
// implementations:
//   * MemoryBackend — the original in-memory segmented vector; fast,
//     volatile, bounded by RAM.
//   * SegmentedDiskBackend (disk_backend.h) — append-only checksummed
//     segment files with mmap'd sealed segments and a manifest, so
//     training windows can grow far past RAM and a topic survives
//     process restarts.
//
// Threading contract: a backend takes no lock of its own — its owner
// (ManagedTopic) calls it under the topic's one lock, `mu_`:
//   * writers — Append/AppendBatch, AssignTemplate(s), SealActive and
//     the training snapshot (SnapshotSealed) — run under `mu_`
//     EXCLUSIVE;
//   * const readers — Read, Scan, the query primitives, the three
//     replication reads and the stats getters — run under `mu_`
//     SHARED, concurrently with each other, so a const method may
//     mutate only internally synchronized state (the SegmentCache, the
//     relaxed scan-visit tally);
//   * WaitDurable() and the wal_* stats need no lock: the WAL is
//     internally synchronized, and holding the lock through a
//     group-commit fsync wait would serialize the very batches it
//     coalesces;
//   * Checkpoint() runs under `mu_` SHARED, one at a time (the owner's
//     checkpoint mutex): shared excludes every writer, and a
//     checkpoint (with the Flush inside it) mutates only write-path
//     state no reader touches — the write buffer, the dirty template
//     ids, the metadata blob (read back only by recovery, before the
//     topic is shared), the index-dirty flags and the sticky IO error.
// A SealedRecordView needs no lock at all: it is immutable by
// construction (sealed segments never change after sealing and the
// view keeps them alive via shared ownership).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "logstore/log_record.h"
#include "util/status.h"

namespace bytebrain {

class FileOps;       // fault_injection.h
class SegmentCache;  // segment_cache.h

/// What "acknowledged" means for an append (kSegmentedDisk only; see
/// logstore/wal.h and ARCHITECTURE.md §Durability).
enum class DurabilityMode : uint32_t {
  /// Buffered segment writes, fsync at seal/checkpoint — a crash loses
  /// the unflushed tail (PR 4 behavior; the fastest mode).
  kNone = 0,
  /// Every batch's frames are also written to a write-ahead log; a
  /// background thread fsyncs it continuously but acks never wait. A
  /// crash loses at most the bytes between the last background fsync
  /// and the crash.
  kWalAsync = 1,
  /// As kWalAsync, plus each batch blocks until a group-commit fsync
  /// covers its frames: acknowledged ⇒ durable.
  kWalGroupCommit = 2,
};

/// Storage selection for one topic.
struct StorageConfig {
  enum class Kind {
    kMemory,         // in-memory segments (the default; volatile)
    kSegmentedDisk,  // on-disk segment files + manifest, mmap scans
  };
  Kind kind = Kind::kMemory;
  /// Root directory of the topic's segment files; required (and created
  /// if missing) for kSegmentedDisk, ignored for kMemory.
  std::string directory;
  /// Seal threshold: once the active segment holds this many frame
  /// bytes it is fsynced, mmap'd read-only, and a new active segment
  /// opens. Smaller segments seal (and hit the manifest) more often.
  uint64_t segment_data_bytes = 8ull * 1024 * 1024;
  /// Records per in-memory segment (kMemory only; scan locality knob).
  size_t memory_segment_capacity = 65536;
  /// Tail durability (kSegmentedDisk only; ignored for kMemory).
  DurabilityMode durability = DurabilityMode::kNone;
  /// Syscall shim for the storage data path (write/pwrite/fsync).
  /// nullptr means real syscalls; tests point it at a
  /// FaultInjectingFileOps (fault_injection.h). Not owned; must outlive
  /// the backend.
  FileOps* file_ops = nullptr;
  /// Buffer pool that sealed-segment mmaps are charged against
  /// (kSegmentedDisk only). nullptr means the process-wide
  /// SegmentCache::Global(). Not owned; must outlive the backend and
  /// every SealedRecordView taken from it.
  SegmentCache* segment_cache = nullptr;
};

/// One chunk of a topic's replication stream (frame bytes addressed by
/// {segment_index, offset} — the resume key). `data` always holds WHOLE
/// record frames (logstore/frame_format.h), readable with ParseFrame and
/// verified by the per-frame checksum, whether they came from a sealed
/// segment file or were re-framed from the active tail (the WAL frame
/// format IS the segment frame format, so the follower replays both the
/// same way). The source totals let a follower compute its lag without
/// a second round trip.
struct ReplicationChunk {
  uint64_t segment_index = 0;
  /// Byte offset of data[0] within that segment.
  uint64_t offset = 0;
  std::string data;
  /// True when `segment_index` is sealed on the source; the three
  /// fields below then carry its manifest entry so the follower can
  /// verify its own seal byte-for-byte (checksums exclude template ids,
  /// which retraining rewrites in place on either side).
  bool segment_sealed = false;
  uint64_t segment_records = 0;
  uint64_t segment_checksum = 0;
  uint64_t segment_data_len = 0;
  /// Source state at read time (replication lag = source - applied).
  uint64_t source_records = 0;
  uint64_t source_segments = 0;  // sealed segments
  uint64_t source_bytes = 0;     // sealed frame bytes + active tail bytes
};

/// An immutable snapshot of the records that were SEALED at snapshot
/// time: [0, end_seq()). Safe to scan with NO topic lock held — sealed
/// segments never mutate their text bytes, and the view shares
/// ownership of the underlying maps, so it stays valid even if the
/// backend is cleared or sealed further while the scan runs. This is
/// what lets a training thread read its window off-lock (zero-copy, via
/// mmap) instead of the snapshot copying the window under the lock.
class SealedRecordView {
 public:
  virtual ~SealedRecordView() = default;
  /// Records [0, end_seq()) are readable through this view.
  virtual uint64_t end_seq() const = 0;
  /// Invokes fn(seq, text) for each record in [begin, end); the views
  /// point into the mapped segment bytes and are valid for the lifetime
  /// of this SealedRecordView. Template ids are deliberately NOT
  /// exposed: they are the one mutable field of a sealed record
  /// (AssignTemplate), and off-lock readers must not race it.
  virtual Status ScanTexts(
      uint64_t begin, uint64_t end,
      const std::function<void(uint64_t, std::string_view)>& fn) const = 0;
};

/// Append-only record store for one topic. Callers hold the owning
/// topic's lock as the threading contract above prescribes.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Loads existing state (disk: manifest replay, sealed verification,
  /// torn-tail truncation). Must be called once before any other
  /// method; a fresh store opens empty.
  virtual Status Open() = 0;

  /// Appends the record as sequence number size(). On an IO failure
  /// the record is still retained in memory (fail-soft; see the
  /// backend docs) and the Status reports the error.
  virtual Status Append(LogRecord record) = 0;

  /// Appends a batch with consecutive sequence numbers — one interface
  /// crossing and one error check for the whole batch (the batched
  /// ingest hot path). Returns the first failure but appends every
  /// record regardless (same fail-soft contract as Append).
  virtual Status AppendBatch(std::vector<LogRecord> records) {
    Status first_error;
    for (LogRecord& record : records) {
      Status appended = Append(std::move(record));
      if (!appended.ok() && first_error.ok()) {
        first_error = std::move(appended);
      }
    }
    return first_error;
  }

  virtual uint64_t size() const = 0;
  virtual uint64_t text_bytes() const = 0;

  /// Copies the record at `seq` into `*out`; NotFound past the end.
  virtual Status Read(uint64_t seq, LogRecord* out) const = 0;

  /// Invokes fn(seq, record) for each record in [begin, end) (clamped
  /// to size()). The record reference is only valid during the call.
  virtual Status Scan(
      uint64_t begin, uint64_t end,
      const std::function<void(uint64_t, const LogRecord&)>& fn) const = 0;

  /// Rewrites the template id of an appended record (retraining refines
  /// assignments; the text is immutable).
  virtual Status AssignTemplate(uint64_t seq, TemplateId template_id) = 0;

  /// Bulk variant for a contiguous range [begin_seq, begin_seq +
  /// ids.size()): the training-commit path rewrites a whole window in
  /// one call, and backends skip records whose id is unchanged (after
  /// a model merge most established assignments are) instead of paying
  /// per-record work for no-ops. The base implementation honors the
  /// skip contract for any backend: one Scan gathers the current ids,
  /// then only the changed records pay a virtual AssignTemplate call.
  virtual Status AssignTemplates(uint64_t begin_seq,
                                 const std::vector<TemplateId>& ids);

  /// Adds the number of records carrying each template id in [begin,
  /// end) (clamped to size()) into `*counts` — the count-only query
  /// path. The base implementation scans; indexed backends answer
  /// fully-covered sealed segments from their postings without
  /// touching (or even mapping) the record bytes.
  virtual Status TemplateCounts(
      uint64_t begin, uint64_t end,
      std::unordered_map<TemplateId, uint64_t>* counts) const;

  /// Invokes fn(seq, template_id) for each record in [begin, end)
  /// (clamped to size()) whose CURRENT template id is in `ids` — the
  /// template-filtered query path (sequence-number collection). The
  /// base implementation scans and filters; indexed backends skip
  /// sealed segments whose postings contain none of `ids` and read
  /// only frame headers in the rest.
  virtual Status ScanTemplates(
      uint64_t begin, uint64_t end, const std::unordered_set<TemplateId>& ids,
      const std::function<void(uint64_t, TemplateId)>& fn) const;

  /// Time-filtered variant of TemplateCounts: only records whose
  /// timestamp lies in [min_ts_us, max_ts_us] are counted. The base
  /// implementation scans; the disk backend prunes sealed segments
  /// whose persisted [min, max] timestamp range misses the window
  /// entirely and answers fully-covered ones from postings.
  virtual Status TemplateCountsInRange(
      uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
      std::unordered_map<TemplateId, uint64_t>* counts) const;

  /// Time-filtered variant of ScanTemplates (same pruning contract as
  /// TemplateCountsInRange).
  virtual Status ScanTemplatesInRange(
      uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
      const std::unordered_set<TemplateId>& ids,
      const std::function<void(uint64_t, TemplateId)>& fn) const;

  // --- replication (primary/replica pairs; see src/replication/) -----

  /// Reads up to `max_bytes` of whole record frames starting at
  /// {segment_index, offset} into `*out` (at least one frame when any
  /// remain at that position, so a tiny max_bytes still progresses).
  /// `offset` must be a frame boundary — anything else is
  /// InvalidArgument, and an offset past the segment/tail end is
  /// Corruption (the follower diverged; it must resync). NotSupported
  /// for backends with no replicable representation (MemoryBackend).
  virtual Status ReplicationRead(uint64_t segment_index, uint64_t offset,
                                 uint64_t max_bytes,
                                 ReplicationChunk* out) const {
    (void)segment_index, (void)offset, (void)max_bytes, (void)out;
    return Status::NotSupported("backend does not support replication reads");
  }

  /// The position ReplicationRead would append at next: the active
  /// segment's index and its current frame-byte length. A restarted
  /// follower derives its resume key from this.
  virtual Status ReplicationPosition(uint64_t* segment_index,
                                     uint64_t* offset) const {
    (void)segment_index, (void)offset;
    return Status::NotSupported("backend does not support replication reads");
  }

  /// Verifies that sealed segment `segment_index` matches the given
  /// manifest entry (record count + checksum fold); Corruption on any
  /// mismatch. The follower's apply loop calls this after its own seal
  /// to prove byte-level convergence with the primary.
  virtual Status VerifySealedSegment(uint64_t segment_index,
                                     uint64_t expect_records,
                                     uint64_t expect_checksum) const {
    (void)segment_index, (void)expect_records, (void)expect_checksum;
    return Status::NotSupported("backend does not support replication reads");
  }

  /// Seals the active segment NOW regardless of its size (no-op when it
  /// is empty) — promote's "seal the tail" step, giving the new primary
  /// a manifested boundary for everything applied before the failover.
  virtual Status SealActive() {
    return Status::NotSupported("backend does not support explicit seals");
  }

  /// Pushes buffered appends to durable storage (disk: flush + fsync of
  /// the active segment). No-op for volatile backends.
  virtual Status Flush() = 0;

  /// Durably records `metadata` (an opaque blob — the service stores
  /// the topic's serialized model here) alongside the current segment
  /// state; recovered by the next Open and returned by metadata().
  virtual Status Checkpoint(std::string_view metadata) = 0;

  /// The last checkpointed metadata blob (empty if none).
  virtual const std::string& metadata() const = 0;

  /// Snapshot of the currently sealed records, or nullptr when the
  /// backend has no off-lock-stable representation (MemoryBackend).
  virtual std::shared_ptr<const SealedRecordView> SnapshotSealed() const {
    return nullptr;
  }

  /// True when records survive process restarts.
  virtual bool persistent() const = 0;

  /// Blocks until every record appended before this call is durable
  /// (DurabilityMode::kWalGroupCommit); immediate OK for every other
  /// mode/backend. Called with NO lock held (see the threading
  /// contract).
  virtual Status WaitDurable() { return Status::OK(); }

  /// Observability (TopicStats::storage); zeros for volatile backends.
  virtual uint64_t sealed_segment_count() const { return 0; }
  /// Bytes of sealed-segment data currently resident (mapped) in the
  /// segment cache on this backend's behalf — truthful under eviction,
  /// unlike the pre-cache "every sealed byte forever" number.
  virtual uint64_t mapped_bytes() const { return 0; }
  /// Segment-cache accounting attributed to this backend; zeros for
  /// backends that do not use the cache.
  virtual uint64_t cache_hits() const { return 0; }
  virtual uint64_t cache_misses() const { return 0; }
  virtual uint64_t cache_evictions() const { return 0; }
  /// Sealed-segment sparse indexes rebuilt at Open (missing, corrupt,
  /// or stale .idx files).
  virtual uint64_t index_rebuilds() const { return 0; }
  /// Records materialized or filtered by Scan/ScanTemplates/partial
  /// TemplateCounts since Open — the query-cost meter the pagination
  /// regression test asserts on. Postings-answered counts add nothing.
  virtual uint64_t scan_record_visits() const { return 0; }
  /// WAL observability (TopicStats::wal_*); zeros when no WAL is
  /// configured. Like WaitDurable, safe to call without the topic lock.
  virtual uint64_t wal_bytes() const { return 0; }
  virtual uint64_t wal_group_commits() const { return 0; }
  virtual uint64_t wal_fsyncs() const { return 0; }
  virtual uint64_t wal_replayed_records() const { return 0; }
};

/// Tallies one const call's record visits (scan_record_visits) in a
/// local and publishes them with ONE relaxed add on every return path:
/// const readers run concurrently, so a shared counter bumped per
/// record would be a data race and a contended cache line.
class ScanVisitTally {
 public:
  explicit ScanVisitTally(std::atomic<uint64_t>* total) : total_(total) {}
  ~ScanVisitTally() { total_->fetch_add(count, std::memory_order_relaxed); }
  ScanVisitTally(const ScanVisitTally&) = delete;
  ScanVisitTally& operator=(const ScanVisitTally&) = delete;

  uint64_t count = 0;

 private:
  std::atomic<uint64_t>* total_;
};

/// The original in-memory store: fixed-capacity segments of LogRecords.
class MemoryBackend : public StorageBackend {
 public:
  explicit MemoryBackend(size_t segment_capacity);

  Status Open() override { return Status::OK(); }
  Status Append(LogRecord record) override;
  Status AppendBatch(std::vector<LogRecord> records) override;
  uint64_t size() const override { return count_; }
  uint64_t text_bytes() const override { return text_bytes_; }
  Status Read(uint64_t seq, LogRecord* out) const override;
  Status Scan(uint64_t begin, uint64_t end,
              const std::function<void(uint64_t, const LogRecord&)>& fn)
      const override;
  Status AssignTemplate(uint64_t seq, TemplateId template_id) override;
  Status AssignTemplates(uint64_t begin_seq,
                         const std::vector<TemplateId>& ids) override;
  Status TemplateCounts(
      uint64_t begin, uint64_t end,
      std::unordered_map<TemplateId, uint64_t>* counts) const override;
  Status ScanTemplates(
      uint64_t begin, uint64_t end, const std::unordered_set<TemplateId>& ids,
      const std::function<void(uint64_t, TemplateId)>& fn) const override;
  Status Flush() override { return Status::OK(); }
  Status Checkpoint(std::string_view metadata) override;
  const std::string& metadata() const override { return metadata_; }
  bool persistent() const override { return false; }
  uint64_t scan_record_visits() const override {
    return scan_visits_.load(std::memory_order_relaxed);
  }

 private:
  struct Segment {
    std::vector<LogRecord> records;
    // Per-segment template-id counts, maintained by Append and
    // AssignTemplate(s) — the in-memory analogue of the disk backend's
    // persisted postings, so memory topics get the same
    // postings-answered count queries and segment skipping.
    std::unordered_map<TemplateId, uint64_t> postings;
  };

  const LogRecord* Locate(uint64_t seq) const;

  size_t segment_capacity_;
  std::vector<std::unique_ptr<Segment>> segments_;
  uint64_t count_ = 0;
  uint64_t text_bytes_ = 0;
  std::string metadata_;
  mutable std::atomic<uint64_t> scan_visits_{0};
};

/// Builds the backend selected by `config` (not yet Open()ed).
std::unique_ptr<StorageBackend> CreateStorageBackend(
    const StorageConfig& config);

}  // namespace bytebrain
