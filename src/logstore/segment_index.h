// Per-sealed-segment sparse index (ROADMAP "Query engine: indexed
// reads + bounded page cache"; ARCHITECTURE.md §8).
//
// One SegmentIndex summarizes one sealed segment file:
//   * fenceposts — the byte offset of every K-th record frame, so a
//     seq-bounded read seeks to `fenceposts[i / K]` and hops at most
//     K-1 frame headers instead of scanning from byte 0;
//   * postings — per-template-id record counts, so count-only and
//     template-filtered queries answer from the index and skip (never
//     even map) segments with no matching records;
//   * min/max timestamps — segment-skipping for future time filters;
//   * tid_fold — an order-dependent fold of the template ids, used to
//     detect a persisted index that went stale because retraining
//     pwrote template ids into the segment after the .idx was written.
//
// The index is DERIVED data. It is written to `seg-NNNNNN.idx` beside
// the segment (in place, no fsync) at seal time and rewritten
// when template reassignment dirties it, but the segment file stays
// the single source of truth: at open the backend rebuilds the index
// from the verified frames it is already parsing and uses the .idx
// only as a cross-check. A missing, truncated, corrupt, or stale .idx
// is rebuilt in place — never a crash, never an open failure.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "logstore/log_record.h"
#include "util/status.h"

namespace bytebrain {

struct SegmentIndex {
  /// Fencepost spacing: byte offsets are kept for records 0, K, 2K, …
  /// A point lookup therefore hops at most K-1 frame headers.
  static constexpr uint64_t kDefaultInterval = 64;
  /// Seed for tid_fold ("SEGIDX01"); any change invalidates old files.
  static constexpr uint64_t kTidFoldSeed = 0x5345474944583031ULL;

  uint64_t fencepost_interval = kDefaultInterval;
  uint64_t records = 0;
  /// Byte offset (within the segment file) of record i*interval.
  std::vector<uint64_t> fenceposts;
  /// template id -> number of records currently carrying it.
  std::unordered_map<TemplateId, uint64_t> postings;
  uint64_t min_timestamp_us = 0;
  uint64_t max_timestamp_us = 0;
  /// Order-dependent HashCombine fold over the template ids, in
  /// sequence order. Recomputed from the segment at open; a mismatch
  /// against the persisted value means the .idx predates a template
  /// rewrite and must be rebuilt.
  uint64_t tid_fold = kTidFoldSeed;

  /// Feeds record `records` (they must arrive in sequence order).
  void AddRecord(uint64_t byte_offset, uint64_t timestamp_us, TemplateId tid);

  void EncodeTo(std::string* out) const;
  static Status DecodeFrom(std::string_view bytes, SegmentIndex* out);

  /// In-place write (pwrite at offset 0; no tmp file, no rename, no
  /// truncate). Deliberately NOT fsynced and not routed through
  /// StorageConfig::file_ops: the index is rebuildable derived data — a
  /// torn write fails the checksum and Open rebuilds it — and keeping
  /// it off the fault-injection op stream keeps the crash matrix's op
  /// indices stable.
  Status WriteTo(const std::string& path) const;
  /// *exists=false (and OK) when the file is absent. Any read or
  /// decode problem returns Corruption — callers rebuild, never fail.
  static Status ReadFrom(const std::string& path, SegmentIndex* out,
                         bool* exists);
};

/// `<directory>/seg-NNNNNN.idx`, beside the segment's .log file.
std::string SegmentIndexPath(const std::string& directory,
                             uint64_t segment_index);

}  // namespace bytebrain
