#include "logstore/segment_index.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "logstore/fault_injection.h"
#include "util/hashing.h"

namespace bytebrain {

namespace {

// File layout (all integers little-endian, host order — same
// assumption the segment and manifest formats already make):
//   magic u64 | version u32 | interval u64 | records u64 |
//   min_ts u64 | max_ts u64 | tid_fold u64 |
//   fencepost_count u64 | fencepost u64 * |
//   postings_count u64 | { tid u64 | count u64 } * |
//   HashBytesFast(everything before this field) u64
constexpr uint64_t kIndexMagic = 0x4242534547494458ULL;  // "BBSEGIDX"
constexpr uint32_t kIndexVersion = 1;

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    std::memcpy(v, bytes_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    std::memcpy(v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }
  size_t pos() const { return pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace

void SegmentIndex::AddRecord(uint64_t byte_offset, uint64_t timestamp_us,
                             TemplateId tid) {
  if (records % fencepost_interval == 0) fenceposts.push_back(byte_offset);
  ++postings[tid];
  if (records == 0) {
    min_timestamp_us = timestamp_us;
    max_timestamp_us = timestamp_us;
  } else {
    min_timestamp_us = std::min(min_timestamp_us, timestamp_us);
    max_timestamp_us = std::max(max_timestamp_us, timestamp_us);
  }
  tid_fold = HashCombine(tid_fold, tid);
  ++records;
}

void SegmentIndex::EncodeTo(std::string* out) const {
  const size_t base = out->size();
  PutU64(out, kIndexMagic);
  PutU32(out, kIndexVersion);
  PutU64(out, fencepost_interval);
  PutU64(out, records);
  PutU64(out, min_timestamp_us);
  PutU64(out, max_timestamp_us);
  PutU64(out, tid_fold);
  PutU64(out, fenceposts.size());
  for (uint64_t f : fenceposts) PutU64(out, f);
  PutU64(out, postings.size());
  // Sorted so the encoding (and its checksum) is deterministic.
  std::vector<std::pair<TemplateId, uint64_t>> sorted(postings.begin(),
                                                      postings.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [tid, count] : sorted) {
    PutU64(out, tid);
    PutU64(out, count);
  }
  PutU64(out, HashBytesFast(std::string_view(*out).substr(base)));
}

Status SegmentIndex::DecodeFrom(std::string_view bytes, SegmentIndex* out) {
  *out = SegmentIndex();
  Reader r(bytes);
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!r.ReadU64(&magic) || magic != kIndexMagic) {
    return Status::Corruption("bad segment-index magic");
  }
  if (!r.ReadU32(&version) || version != kIndexVersion) {
    return Status::Corruption("unsupported segment-index version");
  }
  uint64_t fence_count = 0;
  if (!r.ReadU64(&out->fencepost_interval) || out->fencepost_interval == 0 ||
      !r.ReadU64(&out->records) || !r.ReadU64(&out->min_timestamp_us) ||
      !r.ReadU64(&out->max_timestamp_us) || !r.ReadU64(&out->tid_fold) ||
      !r.ReadU64(&fence_count)) {
    return Status::Corruption("truncated segment-index header");
  }
  // A fencepost every `interval` records bounds the counts; reject
  // absurd values before reserving memory for them.
  if (fence_count > out->records / out->fencepost_interval + 1) {
    return Status::Corruption("segment-index fencepost count out of range");
  }
  out->fenceposts.reserve(fence_count);
  for (uint64_t i = 0; i < fence_count; ++i) {
    uint64_t f = 0;
    if (!r.ReadU64(&f)) {
      return Status::Corruption("truncated segment-index fenceposts");
    }
    out->fenceposts.push_back(f);
  }
  uint64_t postings_count = 0;
  if (!r.ReadU64(&postings_count) || postings_count > out->records) {
    return Status::Corruption("segment-index postings count out of range");
  }
  out->postings.reserve(postings_count);
  for (uint64_t i = 0; i < postings_count; ++i) {
    uint64_t tid = 0;
    uint64_t count = 0;
    if (!r.ReadU64(&tid) || !r.ReadU64(&count)) {
      return Status::Corruption("truncated segment-index postings");
    }
    out->postings[tid] = count;
  }
  const size_t body_end = r.pos();
  uint64_t stored = 0;
  if (!r.ReadU64(&stored) ||
      stored != HashBytesFast(bytes.substr(0, body_end))) {
    return Status::Corruption("segment-index checksum mismatch");
  }
  return Status::OK();
}

Status SegmentIndex::WriteTo(const std::string& path) const {
  std::string payload;
  EncodeTo(&payload);
  // In place, no tmp + rename: a rename over an existing file frees its
  // blocks, which a `discard` mount makes slow, and RewriteDirtyIndexes
  // runs inside the seal's Flush. A torn write fails the checksum and
  // Open rebuilds the index; bytes left past a shorter payload are
  // ignored by DecodeFrom.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open segment index for write: " + path);
  }
  // Real syscalls, off any injected FileOps (see segment_index.h).
  const bool written = PWriteFully(RealFileOps(), fd, payload, 0);
  const int closed = ::close(fd);
  if (!written || closed != 0) {
    return Status::IOError("short segment-index write: " + path);
  }
  return Status::OK();
}

Status SegmentIndex::ReadFrom(const std::string& path, SegmentIndex* out,
                              bool* exists) {
  *exists = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::OK();
  *exists = true;
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Corruption("cannot read segment index: " + path);
  }
  return DecodeFrom(bytes, out);
}

std::string SegmentIndexPath(const std::string& directory,
                             uint64_t segment_index) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.idx",
                static_cast<unsigned long long>(segment_index));
  return directory + "/" + name;
}

}  // namespace bytebrain
