// The record frame format shared by the segment files and the
// write-ahead log (logstore/disk_backend.cc, logstore/wal.cc):
//
//   text_len u32 | timestamp u64 | template_id u64 | checksum u64 | text
//
// util/hashing.h RecordChecksum covers ts + text, NOT the template id,
// which retraining rewrites in place (segment files) or leaves stale
// (WAL frames — replay re-matches). The template id sits at a fixed
// offset so AssignTemplates can rewrite it with one 8-byte pwrite.
//
// A WAL frame is a segment frame whose checksum field holds
// RecordChecksum ^ WalSalt(base_seq), base_seq being the WAL
// generation's first sequence number. The WAL file is recycled at every
// seal (logstore/wal.h), so its tail may still hold frames of earlier
// generations; their salt differs, so they never verify as frames of
// the current one. Segment files, replication chunks and the wire carry
// unsalted frames.
//
// These helpers used to live in disk_backend.cc's anonymous namespace;
// the WAL appends and replays the SAME frame bytes, so the one parser
// both use lives here — a frame-format change lands in this header and
// nowhere else.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "logstore/log_record.h"
#include "util/hashing.h"
#include "util/serde.h"

namespace bytebrain {
namespace logframe {

constexpr size_t kFrameHeaderBytes = 4 + 8 + 8 + 8;
constexpr size_t kFrameTidOffset = 4 + 8;
constexpr size_t kFrameCrcOffset = kFrameTidOffset + 8;

/// The checksum salt of the WAL generation starting at `base_seq`.
inline uint64_t WalSalt(uint64_t base_seq) {
  return HashCombine(0x57414c53'414c5431ULL /* "WALSALT1" */, base_seq);
}

// Serializes the fixed-width frame header in place (no intermediate
// string on the append path).
inline void FillFrameHeader(char* header, const LogRecord& rec, uint64_t crc) {
  const uint32_t len = static_cast<uint32_t>(rec.text.size());
  std::memcpy(header, &len, 4);
  std::memcpy(header + 4, &rec.timestamp_us, 8);
  std::memcpy(header + kFrameTidOffset, &rec.template_id, 8);
  std::memcpy(header + kFrameCrcOffset, &crc, 8);
}

/// One decoded frame, as parsed by ParseFrame.
struct Frame {
  size_t start = 0;  // frame offset within the segment
  uint32_t text_len = 0;
  uint64_t ts = 0;
  uint64_t tid = 0;
  uint64_t crc = 0;
  std::string_view text;  // aliases the segment bytes
};

// Decodes one frame at the reader's position (over the segment bytes
// starting at `base`), bounds-checking the text and verifying the
// stored checksum against RecordChecksum ^ `salt` (0 for segment
// frames, WalSalt for WAL frames). Returns false on a torn or corrupt
// frame. The ONE parser recovery, sealed verification, and WAL replay
// all use.
inline bool ParseFrame(ByteReader* reader, const char* base, Frame* out,
                       uint64_t salt = 0) {
  out->start = reader->position();
  if (!reader->GetU32(&out->text_len) || !reader->GetU64(&out->ts) ||
      !reader->GetU64(&out->tid) || !reader->GetU64(&out->crc) ||
      reader->remaining() < out->text_len) {
    return false;
  }
  out->text =
      std::string_view(base + out->start + kFrameHeaderBytes, out->text_len);
  (void)reader->Skip(out->text_len);
  return out->crc == (RecordChecksum(out->ts, out->text) ^ salt);
}

// Copies the frame at `frame` (sealed mmap or active buffer) into a
// LogRecord; `out->text`'s capacity is recycled across calls.
inline void MaterializeFrame(const char* frame, LogRecord* out) {
  uint32_t len;
  std::memcpy(&len, frame, 4);
  std::memcpy(&out->timestamp_us, frame + 4, 8);
  std::memcpy(&out->template_id, frame + kFrameTidOffset, 8);
  out->text.assign(frame + kFrameHeaderBytes, len);
}

}  // namespace logframe
}  // namespace bytebrain
