// Per-topic write-ahead log for the unsealed tail, with group commit
// (ISSUE 6; ARCHITECTURE.md §Durability).
//
// PR 4's segmented backend buffers active-segment frames in memory and
// drains them in ~256 KiB writes, fsyncing only at seal/checkpoint — a
// crash loses every acknowledged record still in the buffer, and
// recovery TRUNCATES the torn tail. The WAL closes that hole for the
// durability modes that ask for it: each AppendBatch also writes
// its frame bytes to a WAL file with ONE write() per batch, and under
// wal_group_commit the caller then blocks in WaitDurable() until a
// dedicated commit thread has covered its bytes with an fsync — one
// amortized fsync per group of concurrent batches, not one per batch.
//
// One WAL file per active segment, named wal-%06llu.log by the active
// segment's index and living beside the segment files. Sealing a
// segment is the WAL's checkpoint: the seal fsyncs the whole segment
// file, making every WAL frame redundant, so Rotate() deletes the old
// file and starts an empty one for the new active segment. Recovery is
// therefore sealed segments + active-file replay + WAL replay of any
// frames BEYOND the active file ("longest checksummed prefix wins" —
// the WAL is written ahead of the segment drain, so after a crash it
// usually holds more).
//
// File layout: magic u64 | version u32 | base_seq u64, then record
// frames identical to segment frames (logstore/frame_format.h). Frame i
// of wal-N.log is record i of segment N; base_seq pins the mapping so a
// stale or misplaced file can never replay into the wrong position.
// WAL frames keep whatever template id the record had at append time —
// retraining patches the SEGMENT file only, and replayed records are
// re-matched by the service (the frame checksum excludes the id by
// design, util/hashing.h).
//
// Threading: unlike every other part of the storage layer (which the
// owning ManagedTopic's lock serializes; see storage_backend.h), a
// WriteAheadLog is INTERNALLY synchronized — WaitDurable must run with
// no topic lock held (holding it would serialize the very batches group
// commit exists to coalesce) and the commit thread runs concurrently
// with appends by design.
//
// Failure model: the first IO error (write or fsync) goes sticky, the
// commit thread stops syncing, and every waiter is released with the
// error — the owning backend degrades exactly like its segment append
// path (fail-soft: acks continue from memory, TopicStats::storage_ok
// flips false). Rotate() clears the sticky error: it is only reached
// from a healthy seal, which starts a fresh file.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "logstore/log_record.h"
#include "logstore/storage_backend.h"
#include "util/status.h"

namespace bytebrain {

class FileOps;

class WriteAheadLog {
 public:
  /// `ops` must outlive the log; `mode` must be a WAL mode (the owner
  /// simply does not construct one for DurabilityMode::kNone).
  WriteAheadLog(std::string directory, DurabilityMode mode, FileOps* ops);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens (and replays) the WAL file for active segment `index`, whose
  /// first record is global sequence `base_seq`. Every valid frame is
  /// returned through `*replayed` (the caller skips the prefix it
  /// already recovered from the segment file); a torn tail is truncated
  /// away; stale wal files from other segment indexes are deleted. A
  /// base_seq mismatch is Corruption — a well-formed file in the wrong
  /// place must never replay.
  Status OpenAndReplay(uint64_t index, uint64_t base_seq,
                       std::vector<LogRecord>* replayed);

  /// Appends pre-materialized frame bytes (one write() for the whole
  /// batch) and wakes the commit thread. Does NOT wait for durability —
  /// that is WaitDurable's job. Sticky on failure.
  Status Append(std::string_view frames);

  /// wal_group_commit: blocks until every byte appended before this
  /// call is covered by an fsync (or the log is sticky-failed). Other
  /// modes: immediate OK.
  Status WaitDurable();

  /// Checkpoint-on-seal: everything logged so far is durable in the
  /// sealed segment, so waiters are released, the old file is deleted,
  /// and an empty wal-`new_index`.log begins. Clears the sticky error
  /// (see the header comment).
  Status Rotate(uint64_t new_index, uint64_t new_base_seq);

  /// Observability (StorageStats::wal_*). group_commits counts durable
  /// acks served, fsyncs counts fsync calls issued — the ratio is the
  /// amortization group commit buys.
  uint64_t bytes() const;
  uint64_t group_commits() const;
  uint64_t fsyncs() const;

 private:
  std::string PathFor(uint64_t index) const;
  /// Creates an empty WAL file with a fresh header; sticky on failure.
  Status CreateFileLocked(uint64_t base_seq);
  /// Full write of `bytes` to fd_ via ops_; sticky on failure.
  Status WriteFullyLocked(std::string_view bytes);
  void CommitLoop();

  const std::string directory_;
  const DurabilityMode mode_;
  FileOps* const ops_;

  mutable std::mutex mu_;
  std::condition_variable cv_appended_;  // wakes the commit thread
  std::condition_variable cv_synced_;    // wakes WaitDurable waiters
  std::condition_variable cv_idle_;      // wakes Rotate (no fsync in flight)
  int fd_ = -1;
  uint64_t file_index_ = 0;
  /// Monotone byte counters, NEVER reset by rotation (a rotation marks
  /// everything appended-so-far synced instead): appended_ advances on
  /// Append, synced_ advances on fsync completion / rotation, and a
  /// waiter is durable once synced_ passes the appended_ it observed.
  /// File offsets would break here — a post-rotation offset restarts at
  /// 0 and could satisfy a pre-rotation waiter spuriously.
  uint64_t appended_ = 0;
  uint64_t synced_ = 0;
  bool syncing_ = false;  // commit thread holds fd_ off-lock
  bool stop_ = false;
  Status error_;  // sticky first IO failure

  uint64_t file_bytes_ = 0;  // frame bytes in the current file
  uint64_t fsyncs_ = 0;
  uint64_t group_commits_ = 0;

  std::thread committer_;
};

}  // namespace bytebrain
