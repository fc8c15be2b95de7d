// Segmented on-disk topic storage (ROADMAP "Multi-topic storage
// backends"; see ARCHITECTURE.md §5 for the format and the recovery
// protocol, §8 for the sparse index and the segment cache).
//
// Layout of a topic directory (nothing else is ever written there):
//   MANIFEST-0          two manifest slots (sealed-segment catalog +
//   MANIFEST-1          metadata blob + generation, checksummed). Each
//                       seal or checkpoint rewrites the older slot in
//                       place; Open loads the valid slot with the
//                       higher generation
//   seg-000000.log ...  fixed-size segment files of record frames; the
//                       file AFTER the last manifest entry is the
//                       active (append) segment
//   wal.log             tail write-ahead log for the active segment
//                       (StorageConfig::durability != kNone only; see
//                       logstore/wal.h — recycled at every seal)
// The seal and checkpoint path creates only the next segment file and
// frees none: no rename-over, no remove, no truncate. On a filesystem
// mounted with `discard`, each freed file costs tens of milliseconds
// under the topic's exclusive lock. A directory that still holds the
// old layout (MANIFEST, wal-NNNNNN.log) fails Open; there is no
// migration.
//
// Record frame (logstore/frame_format.h; util/hashing.h RecordChecksum
// covers ts + text, NOT the template id, which retraining rewrites in
// place):
//   text_len u32 | timestamp u64 | template_id u64 | checksum u64 | text
//
// Manifest load (recovery): a slot that fails its checksum is the newer
// one torn mid-write, and the older slot is used — unless
// seg-(count+1).log exists, which proves the seal that wrote the newer
// slot completed; then the store is Corruption.
//
// Sealed segments are immutable except for 8-byte template-id rewrites
// (pwrite; excluded from every checksum). Their mappings live in a
// SegmentCache (segment_cache.h): mapped on first use, LRU-evicted
// under a process-wide byte budget, and pinned while any reader needs
// them — so scans are still zero-copy and training snapshots still
// read sealed windows with no topic lock held (SealedRecordView holds
// pins for its lifetime), but a fleet of topics no longer keeps every
// sealed byte mapped forever. Record lookup within a segment seeks via
// the index's fenceposts (byte offset of every K-th frame) and hops at
// most K-1 frame headers, replacing the per-record offset table. The
// active segment is buffered in memory and streamed to its file; a
// crash loses at most the unflushed suffix, and recovery truncates the
// torn tail frame-by-frame while every sealed byte is checksum-verified
// against the manifest.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "logstore/segment_cache.h"
#include "logstore/storage_backend.h"

namespace bytebrain {

class FileOps;
class WriteAheadLog;

class SegmentedDiskBackend : public StorageBackend {
 public:
  explicit SegmentedDiskBackend(StorageConfig config);
  ~SegmentedDiskBackend() override;

  SegmentedDiskBackend(const SegmentedDiskBackend&) = delete;
  SegmentedDiskBackend& operator=(const SegmentedDiskBackend&) = delete;

  Status Open() override;
  Status AppendBatch(std::vector<LogRecord> records) override;
  uint64_t size() const override;
  uint64_t text_bytes() const override { return text_bytes_; }
  Status Read(uint64_t seq, LogRecord* out) const override;
  Status Scan(uint64_t begin, uint64_t end,
              const std::function<void(uint64_t, const LogRecord&)>& fn)
      const override;
  Status AssignTemplates(uint64_t begin_seq,
                         const std::vector<TemplateId>& ids) override;
  /// A sealed segment whose [min, max] timestamp range misses
  /// [min_ts_us, max_ts_us] is skipped, and one whose range lies inside
  /// it is answered from postings or the id column; neither is pinned.
  /// Only a segment the time window cuts is mapped and walked.
  Status TemplateCounts(
      uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
      std::unordered_map<TemplateId, uint64_t>* counts) const override;
  Status ScanTemplates(
      uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
      const std::unordered_set<TemplateId>& ids,
      const std::function<void(uint64_t, TemplateId)>& fn) const override;
  Status ReplicationRead(uint64_t segment_index, uint64_t offset,
                         uint64_t max_bytes,
                         ReplicationChunk* out) const override;
  Status ReplicationPosition(uint64_t* segment_index,
                             uint64_t* offset) const override;
  Status VerifySealedSegment(uint64_t segment_index, uint64_t expect_records,
                             uint64_t expect_checksum) const override;
  Status SealActive() override;
  Status Flush() override;
  Status Checkpoint(std::string_view metadata) override;
  const std::string& metadata() const override { return metadata_; }
  std::shared_ptr<const SealedRecordView> SnapshotSealed() const override;
  bool persistent() const override { return true; }
  /// Reads the segment cache's slice for this backend once.
  StorageStats stats() const override;
  Status WaitDurable() override;

 private:
  /// One sealed segment. Immutable after construction except for
  /// template-id pwrites and the `postings` and `tids` they maintain
  /// (mutated only under the exclusive topic lock, and only after the
  /// pwrite succeeded). The record bytes are mapped on demand through
  /// `entry` (segment_cache.h); the struct is shared by the backend and
  /// every outstanding SealedRecordView, so the backend cannot retire
  /// the file under a concurrent training scan.
  ///
  /// The sparse index lives here and only here, in memory: built from
  /// the mirror at seal and from the verified frames at Open, never
  /// persisted. Fenceposts and the time range never change after
  /// sealing; postings and the template-id column track template
  /// rewrites. The column holds every record's current id (8 B per
  /// sealed record), so count and filter queries over segments whose
  /// time range lies inside the query window, and AssignTemplates
  /// rounds that change no id, never map the segment.
  struct SealedSegment {
    /// Fencepost spacing: byte offsets are kept for records 0, K, 2K,
    /// …, so a point lookup hops at most K-1 frame headers.
    static constexpr uint64_t kFencepostInterval = 64;

    ~SealedSegment();
    /// Indexes record `records` (records must arrive in sequence
    /// order) and counts it.
    void AddRecord(uint64_t byte_offset, uint64_t timestamp_us,
                   TemplateId tid);

    uint64_t first_seq = 0;
    uint64_t records = 0;
    uint64_t checksum = 0;   // fold of frame checksums (manifest copy)
    size_t data_len = 0;     // frame bytes in the segment file
    int fd = -1;             // kept open for AssignTemplates pwrites
    SegmentCache::EntryPtr entry;  // cache handle; maps lazily on pin
    /// Byte offset (within the segment file) of record
    /// i * kFencepostInterval.
    std::vector<uint64_t> fenceposts;
    uint64_t min_timestamp_us = 0;
    uint64_t max_timestamp_us = 0;
    /// template id -> number of records currently carrying it.
    mutable std::unordered_map<TemplateId, uint64_t> postings;
    /// Record i's current template id: equal to the id in its frame.
    mutable std::vector<TemplateId> tids;
  };
  using SealedSet = std::vector<std::shared_ptr<const SealedSegment>>;

  class View;

  std::string SegmentPath(uint64_t index) const;
  std::string ManifestSlotPath(uint64_t slot) const;
  uint64_t active_count() const { return active_offsets_.size(); }
  /// Byte offset of record `ridx` within the mapped segment `data`:
  /// seek to the nearest fencepost, hop at most K-1 frame headers.
  static size_t SeekOffset(const char* data, const SealedSegment& seg,
                           uint64_t ridx);
  /// Maps (or LRU-bumps) the segment through the cache.
  Status PinSegment(const SealedSegment& seg, SegmentCache::Pin* pin) const;
  /// AppendBatch's per-record core: mirrors one record, buffers its
  /// frame while `*buffering` (into the write buffer AND the WAL
  /// scratch when a WAL is configured), runs the drain/seal checks; a
  /// failure lands in `*error` (first one wins) and flips `*buffering`
  /// off.
  void AppendRecordLocked(LogRecord record, bool* buffering, Status* error);
  /// Flushes wal_scratch_ (the current call's frames) to the WAL in one
  /// write; a failure degrades sticky like a segment write failure.
  void FlushWalScratchLocked(Status* error);
  /// Drains write_buffer_ to active_fd_ with plain write()s.
  Status FlushWriteBuffer();
  /// Writes the next manifest generation into its slot in place
  /// (pwrite + fsync through ops_). Const, yet it advances
  /// manifest_generation_: its callers are the seal (topic lock
  /// EXCLUSIVE) and Checkpoint (SHARED, serialized by
  /// ManagedTopic::checkpoint_mu_), which never overlap.
  Status WriteManifest() const;
  /// Loads the newest valid slot (sealed-segment catalog, metadata_,
  /// manifest_generation_); a fresh store loads empty.
  Status LoadManifest(std::vector<uint64_t>* records_per_segment,
                      std::vector<uint64_t>* checksums);
  Status OpenSealedSegment(uint64_t index, uint64_t first_seq,
                           uint64_t expect_records, uint64_t expect_checksum,
                           std::shared_ptr<const SealedSegment>* out);
  Status RecoverActiveSegment();
  Status OpenActiveFile();
  /// Seals the active segment (flush + fsync + index build + manifest +
  /// new active file). Any failure goes sticky via io_error_: a seal
  /// cannot be retried halfway (the active file may already be closed),
  /// so the backend degrades to mirror-only appends instead.
  Status SealActiveLocked();
  Status SealActiveImplLocked();
  void CloseActiveFile();

  StorageConfig config_;
  /// Syscall shim for every data-path write/pwrite/fsync (fault
  /// injection); RealFileOps() unless the config supplies one.
  FileOps* ops_ = nullptr;
  /// Buffer pool for sealed-segment mappings; SegmentCache::Global()
  /// unless the config supplies one. cache_owner_ is this backend's
  /// slice of its counters (shared with the entries it registers).
  SegmentCache* cache_ = nullptr;
  std::shared_ptr<SegmentCache::Counters> cache_owner_;
  bool opened_ = false;

  /// Tail WAL (config_.durability != kNone): internally synchronized,
  /// created at Open, rotated at every seal. wal_scratch_ stages the
  /// current AppendBatch call's frame bytes so the whole batch
  /// reaches the WAL in one write; a seal mid-batch clears it (those
  /// frames just became durable in the sealed segment). wal_replaying_
  /// suppresses re-logging and mid-replay seals while recovered WAL
  /// frames stream back through the normal append path.
  std::unique_ptr<WriteAheadLog> wal_;
  uint64_t wal_salt_ = 0;  // logframe::WalSalt of the WAL's generation
  std::string wal_scratch_;
  bool wal_replaying_ = false;
  uint64_t wal_replayed_ = 0;

  /// Sealed state, published as an immutable set (copy-on-seal).
  std::shared_ptr<const SealedSet> sealed_ = std::make_shared<SealedSet>();
  std::vector<uint64_t> sealed_first_seqs_;  // parallel to *sealed_
  uint64_t sealed_records_ = 0;

  /// Active (append) segment. Records live in `active_` — the read
  /// path serves them directly — and their frame bytes are ALSO
  /// appended to `write_buffer_`, which drains to active_fd_ in one
  /// plain write() per ~256 KiB. (Measured on the reference container:
  /// the userspace memcpy + one big write() beats both stdio — ~3x
  /// per-call overhead — and writev() of per-record iovec pairs, whose
  /// per-iovec kernel cost is ~3x the memcpy it avoids.)
  uint64_t active_index_ = 0;  // segment file index of the active tail
  int active_fd_ = -1;
  std::vector<LogRecord> active_;
  std::string write_buffer_;              // frames not yet on the file
  std::vector<uint64_t> active_offsets_;  // frame offsets within the file
  uint64_t active_bytes_ = 0;             // total frame bytes appended
  uint64_t active_checksum_fold_ = 0;
  /// Active records whose template id changed after their frame may
  /// have reached the file; patched via pwrite at the next flush/seal.
  std::vector<uint32_t> dirty_tids_;

  uint64_t text_bytes_ = 0;
  std::string metadata_;
  /// Generation of the newest durable manifest slot (0: none yet); see
  /// WriteManifest for why a const method may advance it.
  mutable uint64_t manifest_generation_ = 0;
  /// Records touched by Scan/ScanTemplates/partial TemplateCounts —
  /// see StorageStats for the contract.
  mutable std::atomic<uint64_t> scan_visits_{0};
  /// Sticky first append-path IO failure (disk full, lost mount, seal
  /// failure). Once set, appends stop touching the file entirely — new
  /// records live only in the active in-memory mirror (fail-soft:
  /// sealed segments keep serving, nothing is re-copied, nothing
  /// seals) — and Flush/Checkpoint report this error instead of
  /// fsyncing a store whose tail is torn. NOTE the tradeoff:
  /// post-failure appends accumulate in RAM exactly like a memory
  /// backend, so a topic that keeps ingesting against a dead disk
  /// grows unboundedly; the owning ManagedTopic records the failure in
  /// its sticky storage status (StorageStatus(), TopicStats::storage_ok)
  /// and callers decide (the alternative — dropping records — would
  /// corrupt sequence numbering).
  Status io_error_;
};

}  // namespace bytebrain
