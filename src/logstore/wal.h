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
// One WAL file per topic, `wal.log`, living beside the segment files
// and recycled rather than replaced. Sealing a segment is the WAL's
// checkpoint: the seal fsyncs the whole segment file, making every WAL
// frame redundant, so Rotate() rewrites the 20-byte header in place
// with the new generation's base_seq and appends continue right after
// it, over the previous generation's frames. No file is created,
// renamed, truncated or deleted on the seal path: on a filesystem
// mounted with `discard`, freeing a file's blocks costs tens of
// milliseconds under the topic's exclusive lock, an in-place pwrite a
// fraction of one. Recovery is therefore sealed segments + active-file
// replay + WAL replay of any frames BEYOND the active file ("longest
// checksummed prefix wins" — the WAL is written ahead of the segment
// drain, so after a crash it usually holds more).
//
// File layout: magic u64 | version u32 | base_seq u64, then record
// frames in the segment frame format (logstore/frame_format.h) with a
// salted checksum field: RecordChecksum ^ WalSalt(base_seq). Frame i is
// global record base_seq + i. The salt is what makes recycling safe —
// frames left over from an earlier generation fail the check, so the
// replayed prefix ends at the first one. Replay compares the stored
// base_seq with the expected one (the sealed record count):
//   * equal — replay the salted frames; a torn tail is truncated away
//     (at open only);
//   * smaller — an earlier generation whose frames are all sealed (a
//     crash between the seal's manifest write and its Rotate): the
//     file is recycled with zero frames;
//   * larger — Corruption: the WAL claims records the manifest never
//     sealed, so replaying it would splice records into the wrong
//     position.
// The header rewrite is a 20-byte pwrite at offset 0, inside one disk
// sector, so a crash leaves either the old base_seq or the new one.
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
// from a healthy seal, which starts a fresh generation.
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

  /// Opens (creating it if missing) and replays wal.log for the
  /// generation whose first record is global sequence `base_seq`. Every
  /// valid frame is returned through `*replayed` (the caller skips the
  /// prefix it already recovered from the segment file) and a torn tail
  /// is truncated away. A file of an earlier generation replays nothing
  /// and is recycled; a stored base_seq beyond `base_seq`, or a foreign
  /// header, is Corruption.
  Status OpenAndReplay(uint64_t base_seq, std::vector<LogRecord>* replayed);

  /// Appends pre-materialized frame bytes, salted with
  /// logframe::WalSalt(base_seq) of the current generation (one write()
  /// for the whole batch), and wakes the commit thread. Does NOT wait
  /// for durability — that is WaitDurable's job. Sticky on failure.
  Status Append(std::string_view frames);

  /// wal_group_commit: blocks until every byte appended before this
  /// call is covered by an fsync (or the log is sticky-failed). Other
  /// modes: immediate OK.
  Status WaitDurable();

  /// Checkpoint-on-seal: everything logged so far is durable in the
  /// sealed segment, so waiters are released and the header is
  /// rewritten in place for the generation starting at `new_base_seq`;
  /// appends continue right after it. Clears the sticky error (see the
  /// header comment).
  Status Rotate(uint64_t new_base_seq);

  /// Observability (StorageStats::wal_*). group_commits counts durable
  /// acks served, fsyncs counts fsync calls issued — the ratio is the
  /// amortization group commit buys.
  uint64_t bytes() const;
  uint64_t group_commits() const;
  uint64_t fsyncs() const;

 private:
  /// Starts generation `base_seq` with zero frames: opens (or creates)
  /// the file if needed, pwrites the header at offset 0 and positions
  /// appends right after it. Sticky on failure.
  Status ResetLocked(uint64_t base_seq);
  /// Full write of `bytes` to fd_ via ops_; sticky on failure.
  Status WriteFullyLocked(std::string_view bytes);
  void CommitLoop();

  const std::string path_;  // <directory>/wal.log
  const DurabilityMode mode_;
  FileOps* const ops_;

  mutable std::mutex mu_;
  std::condition_variable cv_appended_;  // wakes the commit thread
  std::condition_variable cv_synced_;    // wakes WaitDurable waiters
  std::condition_variable cv_idle_;      // wakes Rotate (no fsync in flight)
  int fd_ = -1;
  /// Monotone byte counters, NEVER reset by rotation (a rotation marks
  /// everything appended-so-far synced instead): appended_ advances on
  /// Append, synced_ advances on fsync completion / rotation, and a
  /// waiter is durable once synced_ passes the appended_ it observed.
  /// File offsets would break here — a post-rotation offset restarts
  /// after the header and could satisfy a pre-rotation waiter
  /// spuriously.
  uint64_t appended_ = 0;
  uint64_t synced_ = 0;
  bool syncing_ = false;  // commit thread holds fd_ off-lock
  bool stop_ = false;
  Status error_;  // sticky first IO failure

  uint64_t file_bytes_ = 0;  // frame bytes of the current generation
  uint64_t fsyncs_ = 0;
  uint64_t group_commits_ = 0;

  std::thread committer_;
};

}  // namespace bytebrain
