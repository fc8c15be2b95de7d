// Append-only log topic storage.
//
// A log topic is the unit of the log service: records are appended in
// arrival order, indexed by sequence number, and never mutated (paper §3).
// Record bytes live in a pluggable StorageBackend — in-memory segments
// by default, or checksummed on-disk segment files with mmap'd sealed
// scans and crash recovery (StorageConfig::Kind::kSegmentedDisk).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "logstore/log_record.h"
#include "logstore/storage_backend.h"
#include "util/status.h"

namespace bytebrain {

/// Thread-safe append-only record log with sequence-number addressing.
class LogTopic {
 public:
  /// `segment_capacity` records per in-memory segment; tuned for scan
  /// locality. Equivalent to a kMemory StorageConfig.
  explicit LogTopic(std::string name, size_t segment_capacity = 65536);

  /// Backend-selecting constructor. A disk-backed topic recovers its
  /// persisted records here (manifest replay, sealed verification,
  /// torn-tail truncation); if recovery fails the topic falls back to
  /// an EMPTY in-memory store and the failure is preserved in
  /// storage_status() for the caller to surface — constructors cannot
  /// return a Status, and a half-broken disk store must never crash.
  LogTopic(std::string name, const StorageConfig& storage);

  const std::string& name() const { return name_; }

  /// OK, or why the configured backend could not be opened (in which
  /// case the topic is running on a fallback in-memory store) / the
  /// first append-path IO error (records past it live only in memory).
  Status storage_status() const;

  /// True when the active backend persists records across restarts.
  bool persistent_storage() const;

  /// Appends a record and returns its sequence number (0-based).
  uint64_t Append(LogRecord record);

  /// Appends a batch under ONE lock acquisition; the records receive
  /// consecutive sequence numbers starting at the returned value. The
  /// high-throughput sibling of Append for the batched ingest path.
  uint64_t AppendBatch(std::vector<LogRecord> records);

  /// Blocks until every record appended before this call is durable
  /// (StorageConfig::durability == kWalGroupCommit; immediate OK for
  /// every other configuration). Deliberately NOT under the topic
  /// mutex — the backend's WAL is internally synchronized, and holding
  /// mu_ through a group-commit fsync wait would serialize the very
  /// batches the commit thread coalesces. A failure (fsync error) goes
  /// sticky into storage_status(), same as an append-path IO error:
  /// callers keep acknowledging from memory and surface the
  /// degradation, they do not fail the request.
  Status WaitDurable();

  /// Number of records appended so far.
  uint64_t size() const;

  /// Total bytes of record text appended (the "log volume").
  uint64_t text_bytes() const;

  /// Reads the record at `seq`. Fails with NotFound past the end.
  Result<LogRecord> Read(uint64_t seq) const;

  /// Invokes fn(seq, record) for each record in [begin_seq, end_seq).
  /// The callback must not re-enter the topic.
  Status Scan(uint64_t begin_seq, uint64_t end_seq,
              const std::function<void(uint64_t, const LogRecord&)>& fn) const;

  /// Rewrites the template id of an already-appended record. The text is
  /// immutable but template assignments may be refined by retraining.
  Status AssignTemplate(uint64_t seq, TemplateId template_id);

  /// Bulk rewrite of [begin_seq, begin_seq + ids.size()) under ONE lock
  /// acquisition — the training-commit path; backends skip unchanged
  /// ids, so re-assigning a mostly-stable window is nearly free.
  Status AssignTemplateRange(uint64_t begin_seq,
                             const std::vector<TemplateId>& ids);

  /// Per-template record counts over [begin_seq, end_seq) — the count
  /// side of Query. Index-aware backends answer fully-covered sealed
  /// segments from their postings without touching record bytes.
  Status TemplateCounts(
      uint64_t begin_seq, uint64_t end_seq,
      std::unordered_map<TemplateId, uint64_t>* counts) const;

  /// Invokes fn(seq, template_id) for records in [begin_seq, end_seq)
  /// whose template id is in `ids` — the sequence-collection side of
  /// Query. Index-aware backends skip sealed segments holding none of
  /// the wanted templates without mapping them.
  Status ScanTemplates(
      uint64_t begin_seq, uint64_t end_seq,
      const std::unordered_set<TemplateId>& ids,
      const std::function<void(uint64_t, TemplateId)>& fn) const;

  /// Time-filtered variants of the two Query primitives above: only
  /// records with timestamp_us in [min_ts_us, max_ts_us] contribute.
  /// Index-aware backends prune whole sealed segments via their
  /// persisted min/max timestamps before touching record bytes.
  Status TemplateCountsInRange(
      uint64_t begin_seq, uint64_t end_seq, uint64_t min_ts_us,
      uint64_t max_ts_us,
      std::unordered_map<TemplateId, uint64_t>* counts) const;
  Status ScanTemplatesInRange(
      uint64_t begin_seq, uint64_t end_seq, uint64_t min_ts_us,
      uint64_t max_ts_us, const std::unordered_set<TemplateId>& ids,
      const std::function<void(uint64_t, TemplateId)>& fn) const;

  /// Replication source: copies whole frames starting at
  /// {segment_index, offset} into `out` (see ReplicationChunk).
  /// NotSupported for backends without a frame representation.
  Status ReplicationRead(uint64_t segment_index, uint64_t offset,
                         uint64_t max_bytes, ReplicationChunk* out) const;

  /// Replication resume point of THIS topic's local store: the first
  /// {segment_index, offset} not yet present locally.
  Status ReplicationPosition(uint64_t* segment_index, uint64_t* offset) const;

  /// Checks a locally sealed segment against the primary's manifest
  /// entry; Corruption on mismatch (divergence), NotFound if the
  /// segment is not sealed here yet.
  Status VerifySealedSegment(uint64_t segment_index, uint64_t expect_records,
                             uint64_t expect_checksum) const;

  /// Force-seals the active segment regardless of its size (promotion
  /// seals the replicated tail before accepting writes). No-op when the
  /// active segment is empty.
  Status SealActive();

  /// Snapshot of the records currently SEALED on disk, scannable with
  /// no topic lock held (see SealedRecordView); nullptr when the
  /// backend has no off-lock-stable representation (memory store).
  std::shared_ptr<const SealedRecordView> SnapshotSealed() const;

  /// Durability point: flushes buffered appends and durably records
  /// `metadata` (an opaque blob — the service checkpoints the topic's
  /// serialized model here) in the backend's manifest. No-op metadata
  /// store for the in-memory backend.
  Status Checkpoint(std::string_view metadata);

  /// The metadata blob recovered by the backend at open (empty if none
  /// was ever checkpointed or the backend is volatile).
  std::string recovered_metadata() const;

  /// Storage observability (TopicStats::storage). mapped_bytes is the
  /// backend's RESIDENT segment-cache bytes — what this topic actually
  /// holds mapped right now, not the sum of its sealed files.
  uint64_t sealed_segment_count() const;
  uint64_t mapped_bytes() const;
  uint64_t cache_hits() const;
  uint64_t cache_misses() const;
  uint64_t cache_evictions() const;
  uint64_t index_rebuilds() const;
  uint64_t scan_record_visits() const;

  /// WAL observability (TopicStats::wal_*); zeros without a WAL.
  uint64_t wal_bytes() const;
  uint64_t wal_group_commits() const;
  uint64_t wal_fsyncs() const;
  uint64_t wal_replayed_records() const;

 private:
  std::string name_;
  std::unique_ptr<StorageBackend> store_;
  /// Sticky: backend-open failure or first append IO error.
  Status storage_status_;
  mutable std::mutex mu_;
};

/// Append-only store for clustering-tree node metadata ("internal topic",
/// paper §3). Supports id lookup and parent traversal for queries.
class InternalTopic {
 public:
  /// Appends (or overwrites, for retraining merges) a node's metadata.
  void Put(TemplateMeta meta);

  /// Looks up a node by template id.
  Result<TemplateMeta> Get(TemplateId id) const;

  /// Walks ancestors from `id` toward the root: the returned chain starts
  /// at `id` itself and ends at the root node.
  Result<std::vector<TemplateMeta>> AncestorChain(TemplateId id) const;

  /// All stored nodes (snapshot), in insertion order.
  std::vector<TemplateMeta> All() const;

  size_t size() const;

 private:
  std::vector<TemplateMeta> entries_;
  std::unordered_map<TemplateId, size_t> index_;
  mutable std::mutex mu_;
};

}  // namespace bytebrain
