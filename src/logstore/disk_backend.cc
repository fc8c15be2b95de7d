#include "logstore/disk_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>

#include "logstore/fault_injection.h"
#include "logstore/frame_format.h"
#include "logstore/wal.h"
#include "util/hashing.h"
#include "util/serde.h"

namespace bytebrain {

// The record frame helpers live in logstore/frame_format.h now — the
// WAL appends and replays the same frame bytes.
using logframe::FillFrameHeader;
using logframe::Frame;
using logframe::kFrameCrcOffset;
using logframe::kFrameHeaderBytes;
using logframe::kFrameTidOffset;
using logframe::MaterializeFrame;
using logframe::ParseFrame;

namespace {

// Manifest slot layout (MANIFEST-0 / MANIFEST-1): length u64 (bytes
// after it) | magic u64 | version u32 | generation u64 | sealed_count
// u64 | { first_seq u64, records u64, checksum u64 } per sealed segment
// | metadata string | HashBytesFast(everything before it) u64. Every
// seal and checkpoint writes generation g+1 into slot (g+1) % 2 in
// place — one pwrite at offset 0 and one fsync, never a rename — so the
// other slot always holds the previous complete manifest. Bytes past
// the length are leftovers of a longer earlier write and are ignored.
constexpr uint64_t kManifestMagic = 0x4242544d'414e4946ULL;  // "BBTMANIF"
constexpr uint32_t kManifestVersion = 2;

Status IOErrorFor(const std::string& what, const std::string& path) {
  return Status::IOError(what + ": " + path);
}

// Drain threshold: frame bytes accumulate in the write buffer until
// ~256 KiB are pending, then drain in one write(). Measured on the
// reference container the kernel copy costs ~35 ns per 100 B; the
// buffer memcpy adds ~10 ns — cheaper than stdio's per-call overhead
// and than writev()'s per-iovec cost at log-record frame sizes.
constexpr size_t kWriteBufferBytes = 1 << 18;

void SyncDirectory(const std::string& dir) {
  // Durability of a new file's directory entry; best effort (some
  // filesystems reject directory fsync).
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

/// Reads `path` fully into `*out`; a missing file is reported through
/// `*exists`, not as an error (fresh stores have no manifest/tail yet).
/// A mid-file read error IS an error — treating it as EOF would make
/// recovery truncate (or misalign against) durably-written bytes.
Status ReadWholeFile(const std::string& path, std::string* out,
                     bool* exists) {
  out->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  *exists = f != nullptr;
  if (f == nullptr) return Status::OK();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return IOErrorFor("read error", path);
  return Status::OK();
}

/// One decoded manifest slot.
struct ManifestImage {
  uint64_t generation = 0;  // 0: no slot decoded
  std::vector<uint64_t> records;    // per sealed segment
  std::vector<uint64_t> checksums;  // per sealed segment
  std::string metadata;
};

/// Decodes a manifest slot's bytes; false when they are torn or
/// corrupt.
bool DecodeManifestSlot(std::string_view data, ManifestImage* out) {
  uint64_t len = 0;
  if (data.size() < 8) return false;
  std::memcpy(&len, data.data(), 8);
  if (len < 8 || len > data.size() - 8) return false;
  // The checksum is the slot's last 8 bytes and covers all before it.
  uint64_t stored = 0;
  std::memcpy(&stored, data.data() + len, 8);
  if (stored != HashBytesFast(data.substr(0, len))) return false;
  ByteReader reader(data.data() + 8, len - 8);
  uint64_t magic = 0;
  uint32_t version = 0;
  uint64_t sealed_count = 0;
  if (!reader.GetU64(&magic) || magic != kManifestMagic ||
      !reader.GetU32(&version) || version != kManifestVersion ||
      !reader.GetU64(&out->generation) || out->generation == 0 ||
      !reader.GetU64(&sealed_count)) {
    return false;
  }
  uint64_t next_seq = 0;
  for (uint64_t i = 0; i < sealed_count; ++i) {
    uint64_t first_seq = 0, records = 0, checksum = 0;
    if (!reader.GetU64(&first_seq) || !reader.GetU64(&records) ||
        !reader.GetU64(&checksum) || first_seq != next_seq) {
      return false;
    }
    next_seq += records;
    out->records.push_back(records);
    out->checksums.push_back(checksum);
  }
  return reader.GetString(&out->metadata) && reader.AtEnd();
}

}  // namespace

SegmentedDiskBackend::SealedSegment::~SealedSegment() {
  // Dropping the cache entry (last reference: the backend retired the
  // segment and every view is gone) unmaps it; only then is the fd —
  // which Acquire would need for a remap — safe to close.
  entry.reset();
  if (fd >= 0) ::close(fd);
}

void SegmentedDiskBackend::SealedSegment::AddRecord(uint64_t byte_offset,
                                                    uint64_t timestamp_us,
                                                    TemplateId tid) {
  if (records % kFencepostInterval == 0) fenceposts.push_back(byte_offset);
  ++postings[tid];
  tids.push_back(tid);
  if (records == 0) {
    min_timestamp_us = timestamp_us;
    max_timestamp_us = timestamp_us;
  } else {
    min_timestamp_us = std::min(min_timestamp_us, timestamp_us);
    max_timestamp_us = std::max(max_timestamp_us, timestamp_us);
  }
  ++records;
}

/// The off-lock sealed snapshot: shares ownership of the sealed set and
/// pins each segment it reads for its own lifetime, so the text
/// string_views it hands out stay valid regardless of what the backend
/// (further seals) or the cache (eviction pressure from other
/// topics) does after the snapshot.
class SegmentedDiskBackend::View : public SealedRecordView {
 public:
  View(std::shared_ptr<const SealedSet> segments, uint64_t end_seq,
       SegmentCache* cache)
      : segments_(std::move(segments)),
        end_seq_(end_seq),
        cache_(cache),
        pins_(segments_->size()) {}

  uint64_t end_seq() const override { return end_seq_; }

  Status ScanTexts(uint64_t begin, uint64_t end,
                   const std::function<void(uint64_t, std::string_view)>& fn)
      const override {
    if (begin > end) return Status::InvalidArgument("begin > end");
    end = std::min(end, end_seq_);
    for (size_t si = 0; si < segments_->size(); ++si) {
      const SealedSegment& seg = *(*segments_)[si];
      const uint64_t seg_end = seg.first_seq + seg.records;
      if (seg_end <= begin) continue;
      if (seg.first_seq >= end) break;
      const char* data = nullptr;
      BB_RETURN_IF_ERROR(PinIfNeeded(si, seg, &data));
      const uint64_t lo = std::max(begin, seg.first_seq);
      const uint64_t hi = std::min(end, seg_end);
      size_t off = SeekOffset(data, seg, lo - seg.first_seq);
      for (uint64_t seq = lo; seq < hi; ++seq) {
        uint32_t len;
        std::memcpy(&len, data + off, 4);
        fn(seq, std::string_view(data + off + kFrameHeaderBytes, len));
        off += kFrameHeaderBytes + len;
      }
    }
    return Status::OK();
  }

 private:
  /// Pins are taken lazily (first touch per segment) and HELD until
  /// the view is destroyed: the string_views handed to fn must stay
  /// valid for the view's lifetime (the SealedRecordView contract), so
  /// the segments a view has read must be immune to eviction. The
  /// mutex makes the lazy pin race-free if a view is shared across
  /// threads.
  Status PinIfNeeded(size_t si, const SealedSegment& seg,
                     const char** data) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (!pins_[si].valid()) {
      BB_RETURN_IF_ERROR(cache_->Acquire(seg.entry, &pins_[si]));
    }
    *data = pins_[si].data();
    return Status::OK();
  }

  std::shared_ptr<const SealedSet> segments_;
  uint64_t end_seq_;
  SegmentCache* cache_;
  mutable std::mutex mu_;
  mutable std::vector<SegmentCache::Pin> pins_;  // parallel to *segments_
};

SegmentedDiskBackend::SegmentedDiskBackend(StorageConfig config)
    : config_(std::move(config)) {
  if (config_.segment_data_bytes == 0) {
    config_.segment_data_bytes = 8ull * 1024 * 1024;
  }
  ops_ = config_.file_ops != nullptr ? config_.file_ops : RealFileOps();
  cache_ = config_.segment_cache != nullptr ? config_.segment_cache
                                            : SegmentCache::Global();
  cache_owner_ = std::make_shared<SegmentCache::Counters>();
  active_checksum_fold_ = kSegmentChecksumSeed;
}

SegmentedDiskBackend::~SegmentedDiskBackend() {
  // Clean-shutdown durability: flush buffered frames and patch any
  // template ids rewritten since their frame was streamed. Crash paths
  // skip this, which is exactly what the torn-tail recovery covers.
  if (active_fd_ >= 0) (void)Flush();
  CloseActiveFile();
}

std::string SegmentedDiskBackend::SegmentPath(uint64_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.log",
                static_cast<unsigned long long>(index));
  return config_.directory + "/" + name;
}

std::string SegmentedDiskBackend::ManifestSlotPath(uint64_t slot) const {
  return config_.directory + "/MANIFEST-" + std::to_string(slot);
}

uint64_t SegmentedDiskBackend::size() const {
  return sealed_records_ + active_count();
}

StorageStats SegmentedDiskBackend::stats() const {
  const SegmentCache::Counters cache = cache_->owner_stats(cache_owner_);
  StorageStats s;
  s.storage_sealed_segments = sealed_->size();
  s.storage_mapped_bytes = cache.resident_bytes;
  s.storage_cache_hits = cache.hits;
  s.storage_cache_misses = cache.misses;
  s.storage_cache_evictions = cache.evictions;
  s.storage_scan_record_visits = scan_visits_.load(std::memory_order_relaxed);
  if (wal_ != nullptr) {
    const WriteAheadLog::Stats wal = wal_->stats();
    s.wal_bytes = wal.bytes;
    s.wal_group_commits = wal.group_commits;
    s.wal_fsyncs = wal.fsyncs;
  }
  s.wal_replayed_records = wal_replayed_;
  return s;
}

size_t SegmentedDiskBackend::SeekOffset(const char* data,
                                        const SealedSegment& seg,
                                        uint64_t ridx) {
  const uint64_t fence = ridx / SealedSegment::kFencepostInterval;
  size_t off = static_cast<size_t>(seg.fenceposts[fence]);
  for (uint64_t r = fence * SealedSegment::kFencepostInterval; r < ridx;
       ++r) {
    uint32_t len;
    std::memcpy(&len, data + off, 4);
    off += kFrameHeaderBytes + len;
  }
  return off;
}

Status SegmentedDiskBackend::PinSegment(const SealedSegment& seg,
                                        SegmentCache::Pin* pin) const {
  return cache_->Acquire(seg.entry, pin);
}

Status SegmentedDiskBackend::Open() {
  if (opened_) return Status::OK();
  if (config_.directory.empty()) {
    return Status::InvalidArgument(
        "StorageConfig.directory required for the segmented disk backend");
  }
  std::error_code ec;
  std::filesystem::create_directories(config_.directory, ec);
  if (ec) return IOErrorFor("cannot create directory", config_.directory);
  // The layout before manifest slots and the recycled wal.log: its
  // catalog would be ignored and the store would open empty. There is
  // no migration, so refuse it.
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == "MANIFEST" ||
        (name.rfind("wal-", 0) == 0 && name.ends_with(".log"))) {
      return Status::NotSupported("old storage layout (" + name +
                                  "), no migration: " + config_.directory);
    }
  }

  std::vector<uint64_t> records_per_segment;
  std::vector<uint64_t> checksums;
  BB_RETURN_IF_ERROR(LoadManifest(&records_per_segment, &checksums));
  const uint64_t sealed_count = records_per_segment.size();

  auto set = std::make_shared<SealedSet>();
  uint64_t next_seq = 0;
  for (uint64_t i = 0; i < sealed_count; ++i) {
    std::shared_ptr<const SealedSegment> seg;
    BB_RETURN_IF_ERROR(OpenSealedSegment(i, next_seq, records_per_segment[i],
                                         checksums[i], &seg));
    next_seq += seg->records;
    sealed_first_seqs_.push_back(seg->first_seq);
    set->push_back(std::move(seg));
  }
  sealed_ = std::move(set);
  sealed_records_ = next_seq;
  active_index_ = sealed_count;
  BB_RETURN_IF_ERROR(RecoverActiveSegment());

  if (config_.durability != DurabilityMode::kNone) {
    wal_ = std::make_unique<WriteAheadLog>(config_.directory,
                                           config_.durability, ops_);
    std::vector<LogRecord> walied;
    wal_salt_ = logframe::WalSalt(sealed_records_);
    BB_RETURN_IF_ERROR(wal_->OpenAndReplay(sealed_records_, &walied));
    if (walied.size() > active_count()) {
      // The WAL is written ahead of the segment drain, so after a crash
      // it usually holds MORE than the active file: stream the excess
      // back through the normal append path (it lands in the mirror and
      // the active file) without re-logging it — the frames are already
      // in the WAL. wal_replaying_ also defers sealing: a mid-replay
      // seal would rotate the WAL out from under the frames being
      // replayed.
      wal_replaying_ = true;
      Status error = io_error_;
      bool buffering = error.ok();
      for (size_t i = active_count(); i < walied.size(); ++i) {
        AppendRecordLocked(std::move(walied[i]), &buffering, &error);
        ++wal_replayed_;
      }
      wal_replaying_ = false;
      BB_RETURN_IF_ERROR(error);
      if (active_bytes_ >= config_.segment_data_bytes) {
        BB_RETURN_IF_ERROR(SealActiveLocked());
      }
    } else if (walied.size() < active_count()) {
      // The crash caught a drained batch before its WAL append: the
      // segment file is AHEAD of the WAL. Frame i of the WAL must stay
      // record i of the active segment — re-log the missing suffix so
      // new appends land at matching positions.
      std::string catchup;
      for (size_t i = walied.size(); i < active_.size(); ++i) {
        const LogRecord& rec = active_[i];
        const uint64_t crc = RecordChecksum(rec.timestamp_us, rec.text);
        char header[kFrameHeaderBytes];
        FillFrameHeader(header, rec, crc ^ wal_salt_);
        catchup.append(header, kFrameHeaderBytes);
        catchup.append(rec.text);
      }
      BB_RETURN_IF_ERROR(wal_->Append(catchup));
    }
  }
  opened_ = true;
  return Status::OK();
}

Status SegmentedDiskBackend::LoadManifest(
    std::vector<uint64_t>* records_per_segment,
    std::vector<uint64_t>* checksums) {
  ManifestImage newest;
  bool invalid_slot = false;
  for (uint64_t slot = 0; slot < 2; ++slot) {
    std::string data;
    bool exists = false;
    BB_RETURN_IF_ERROR(ReadWholeFile(ManifestSlotPath(slot), &data, &exists));
    if (!exists) continue;
    ManifestImage image;
    if (!DecodeManifestSlot(data, &image)) {
      invalid_slot = true;
    } else if (image.generation > newest.generation) {
      newest = std::move(image);
    }
  }
  // An undecodable slot is the newer one torn mid-write (the other then
  // holds the previous manifest) or an older one — unless the seal that
  // wrote it completed, which the next active segment's file proves: it
  // is created only after the seal's manifest write. No valid slot at
  // all and no seg-000001.log is a fresh store whose first write tore.
  if (invalid_slot &&
      std::filesystem::exists(SegmentPath(newest.records.size() + 1))) {
    return Status::Corruption("bad manifest slot: " + config_.directory);
  }
  manifest_generation_ = newest.generation;
  metadata_ = std::move(newest.metadata);
  *records_per_segment = std::move(newest.records);
  *checksums = std::move(newest.checksums);
  return Status::OK();
}

Status SegmentedDiskBackend::WriteManifest() const {
  const uint64_t generation = manifest_generation_ + 1;
  std::string slot;
  ByteWriter writer(&slot);
  writer.PutU64(0);  // length, patched below
  writer.PutU64(kManifestMagic);
  writer.PutU32(kManifestVersion);
  writer.PutU64(generation);
  writer.PutU64(sealed_->size());
  for (const auto& seg : *sealed_) {
    writer.PutU64(seg->first_seq);
    writer.PutU64(seg->records);
    writer.PutU64(seg->checksum);
  }
  writer.PutString(metadata_);
  // Bytes after the length prefix, the checksum included.
  const uint64_t len = slot.size();
  std::memcpy(slot.data(), &len, 8);
  writer.PutU64(HashBytesFast(slot));

  // In place over the slot two generations back: no tmp file, no
  // rename, no truncate — nothing on this path frees disk blocks.
  const std::string path = ManifestSlotPath(generation % 2);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  const bool created = fd >= 0;
  if (!created) fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return IOErrorFor("cannot open manifest slot", path);
  const bool synced = PWriteFully(ops_, fd, slot, 0) && ops_->Fsync(fd) == 0;
  ::close(fd);
  if (!synced) return IOErrorFor("cannot write manifest slot", path);
  if (created) SyncDirectory(config_.directory);
  // Advanced only once the slot is durable: a failed write is retried
  // into the same slot, never into the one holding the last good
  // manifest.
  manifest_generation_ = generation;
  return Status::OK();
}

Status SegmentedDiskBackend::OpenSealedSegment(
    uint64_t index, uint64_t first_seq, uint64_t expect_records,
    uint64_t expect_checksum, std::shared_ptr<const SealedSegment>* out) {
  const std::string path = SegmentPath(index);
  // O_RDWR: the mapping is read-only, but AssignTemplates patches
  // template ids through this fd.
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return IOErrorFor("cannot open sealed segment", path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return IOErrorFor("cannot stat sealed segment", path);
  }
  const size_t len = static_cast<size_t>(st.st_size);
  auto seg = std::make_shared<SealedSegment>();
  seg->first_seq = first_seq;
  seg->fd = fd;
  seg->data_len = len;
  seg->entry = cache_->Register(fd, len, cache_owner_);

  // Full verification pass (under a transient pin): every frame's
  // stored checksum must match its bytes and the fold must match the
  // manifest. Sealed data is the durable contract — recovery refuses
  // to serve silently corrupted records (the caller surfaces the
  // Status instead of crashing). The same pass builds the sparse index
  // at ~zero marginal cost.
  SegmentCache::Pin pin;
  BB_RETURN_IF_ERROR(PinSegment(*seg, &pin));
  ByteReader reader(pin.data(), len);
  uint64_t fold = kSegmentChecksumSeed;
  seg->tids.reserve(expect_records);
  for (uint64_t r = 0; r < expect_records; ++r) {
    Frame frame;
    if (!ParseFrame(&reader, pin.data(), &frame)) {
      return Status::Corruption(
          "truncated or corrupt frame in sealed segment: " + path);
    }
    fold = HashCombine(fold, frame.crc);
    seg->AddRecord(frame.start, frame.ts, frame.tid);
    text_bytes_ += frame.text_len;
  }
  if (fold != expect_checksum || !reader.AtEnd()) {
    return Status::Corruption("sealed segment does not match manifest: " +
                              path);
  }
  seg->checksum = expect_checksum;
  *out = std::move(seg);
  return Status::OK();
}

Status SegmentedDiskBackend::RecoverActiveSegment() {
  const std::string path = SegmentPath(active_index_);
  active_.clear();
  write_buffer_.clear();
  active_offsets_.clear();
  active_bytes_ = 0;
  active_checksum_fold_ = kSegmentChecksumSeed;
  dirty_tids_.clear();

  std::string data;
  bool exists = false;
  BB_RETURN_IF_ERROR(ReadWholeFile(path, &data, &exists));
  // Replay the tail frame-by-frame; the first incomplete or
  // checksum-failing frame marks the torn point — everything after it
  // is untrusted and truncated away.
  ByteReader reader(data.data(), data.size());
  size_t valid_bytes = 0;
  while (!reader.AtEnd()) {
    Frame frame;
    if (!ParseFrame(&reader, data.data(), &frame)) break;
    LogRecord rec;
    rec.timestamp_us = frame.ts;
    rec.template_id = frame.tid;
    rec.text.assign(frame.text);
    active_offsets_.push_back(frame.start);
    active_checksum_fold_ = HashCombine(active_checksum_fold_, frame.crc);
    text_bytes_ += frame.text_len;
    active_.push_back(std::move(rec));
    valid_bytes = reader.position();
  }
  active_bytes_ = valid_bytes;
  if (valid_bytes < data.size()) {
    if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
      return IOErrorFor("cannot truncate torn tail", path);
    }
  }
  return OpenActiveFile();
}

Status SegmentedDiskBackend::OpenActiveFile() {
  const std::string path = SegmentPath(active_index_);
  // NOT O_APPEND: Linux pwrite() on an O_APPEND fd appends, and
  // AssignTemplates' in-place template-id patches must land at their
  // recorded offsets. Sequential appends use the fd position, seeked
  // to the (possibly recovered) end once here.
  active_fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (active_fd_ < 0) {
    return IOErrorFor("cannot open active segment", path);
  }
  if (::lseek(active_fd_, 0, SEEK_END) < 0) {
    return IOErrorFor("cannot seek active segment", path);
  }
  return Status::OK();
}

void SegmentedDiskBackend::CloseActiveFile() {
  if (active_fd_ >= 0) {
    (void)FlushWriteBuffer();  // best effort; crash recovery covers the rest
    ::close(active_fd_);
    active_fd_ = -1;
  }
}

Status SegmentedDiskBackend::FlushWriteBuffer() {
  if (!io_error_.ok()) return io_error_;
  size_t done = 0;
  while (done < write_buffer_.size()) {
    const ssize_t n = ops_->Write(active_fd_, write_buffer_.data() + done,
                                  write_buffer_.size() - done);
    if (n <= 0) {
      // The file now ends mid-frame (recovery truncates it); go sticky
      // — no further bytes are written, the buffer is dropped (its
      // records live on in the active_ mirror), and the segment never
      // seals: only durability is lost.
      std::string().swap(write_buffer_);
      io_error_ = IOErrorFor("short append", SegmentPath(active_index_));
      return io_error_;
    }
    done += static_cast<size_t>(n);
  }
  write_buffer_.clear();
  return Status::OK();
}

void SegmentedDiskBackend::AppendRecordLocked(LogRecord record,
                                              bool* buffering, Status* error) {
  const uint64_t crc = RecordChecksum(record.timestamp_us, record.text);
  // The record lands in the active_ mirror (the read path) and its
  // frame bytes in the write buffer — so the record is kept even when
  // a drain fails (sticky: the file is abandoned with a torn tail,
  // never sealed, and the segment lives on in memory; only durability
  // is lost).
  active_offsets_.push_back(active_bytes_);
  if (*buffering) {
    char header[kFrameHeaderBytes];
    FillFrameHeader(header, record, crc);
    write_buffer_.append(header, kFrameHeaderBytes);
    write_buffer_.append(record.text);
    if (wal_ != nullptr && !wal_replaying_) {
      // Same frame with the generation's salted checksum, staged for
      // one WAL write per batch. Replay skips this: the frames being
      // replayed came FROM the WAL.
      const uint64_t salted = crc ^ wal_salt_;
      std::memcpy(header + kFrameCrcOffset, &salted, 8);
      wal_scratch_.append(header, kFrameHeaderBytes);
      wal_scratch_.append(record.text);
    }
  }
  active_bytes_ += kFrameHeaderBytes + record.text.size();
  active_checksum_fold_ = HashCombine(active_checksum_fold_, crc);
  text_bytes_ += record.text.size();
  active_.push_back(std::move(record));
  if (*buffering) {
    Status io = Status::OK();
    if (write_buffer_.size() >= kWriteBufferBytes) {
      io = FlushWriteBuffer();
    }
    if (io.ok() && !wal_replaying_ &&
        active_bytes_ >= config_.segment_data_bytes) {
      io = SealActiveLocked();
    }
    if (!io.ok()) {
      if (error->ok()) *error = std::move(io);
      *buffering = false;
    }
  }
}

void SegmentedDiskBackend::FlushWalScratchLocked(Status* error) {
  if (wal_ == nullptr || wal_scratch_.empty()) return;
  if (!io_error_.ok()) {
    // Degraded: the WAL stopped with the rest of the write path; the
    // staged frames' records live on in the mirror only.
    wal_scratch_.clear();
    return;
  }
  const Status logged = wal_->Append(wal_scratch_);
  wal_scratch_.clear();
  if (!logged.ok()) {
    // Same sticky degradation as a segment write failure: with the WAL
    // gone, acknowledged ⇒ durable cannot be kept, so the backend stops
    // pretending (storage_ok flips false upstream).
    if (io_error_.ok()) io_error_ = logged;
    if (error->ok()) *error = logged;
  }
}

Status SegmentedDiskBackend::AppendBatch(std::vector<LogRecord> records) {
  // A missing fd (never opened, or a seal-path failure closed it) is
  // the same sticky fail-soft as a write error: the records must still
  // land in the mirror — dropping them would hand out wrong sequence
  // numbers.
  if (active_fd_ < 0 && io_error_.ok()) {
    io_error_ = Status::IOError("segmented disk backend has no active file");
  }
  // One Status/interface crossing per batch around the per-record core;
  // a drain or seal failure mid-batch stops touching the file but the
  // remaining records still land in the mirror.
  Status first_error = io_error_;
  bool buffering = first_error.ok();
  for (LogRecord& record : records) {
    AppendRecordLocked(std::move(record), &buffering, &first_error);
  }
  FlushWalScratchLocked(&first_error);
  return first_error;
}

Status SegmentedDiskBackend::Flush() {
  // Sticky-error check FIRST: a seal failure closes the fd with
  // io_error_ set, and Flush/Checkpoint must report that state — never
  // pretend a degraded store is durable.
  if (!io_error_.ok()) return io_error_;
  if (active_fd_ < 0) return Status::OK();
  const std::string path = SegmentPath(active_index_);
  BB_RETURN_IF_ERROR(FlushWriteBuffer());
  // Patch template ids rewritten after their frame was buffered; every
  // frame is on the file now, so the offsets are addressable.
  for (uint32_t idx : dirty_tids_) {
    const uint64_t tid = active_[idx].template_id;
    if (ops_->PWrite(active_fd_, &tid, 8,
                     active_offsets_[idx] + kFrameTidOffset) != 8) {
      return IOErrorFor("cannot patch template id", path);
    }
  }
  dirty_tids_.clear();
  if (ops_->Fsync(active_fd_) != 0) {
    return IOErrorFor("cannot sync active segment", path);
  }
  return Status::OK();
}

Status SegmentedDiskBackend::SealActiveLocked() {
  const Status sealed = SealActiveImplLocked();
  if (!sealed.ok() && io_error_.ok()) io_error_ = sealed;
  return sealed;
}

Status SegmentedDiskBackend::SealActiveImplLocked() {
  BB_RETURN_IF_ERROR(Flush());
  // Every staged WAL frame is now fsynced in the segment file itself;
  // logging it would only replay it into the wrong (next) segment.
  wal_scratch_.clear();
  CloseActiveFile();

  std::shared_ptr<const SealedSegment> seg;
  const uint64_t first_seq = sealed_records_;
  {
    const std::string path = SegmentPath(active_index_);
    const int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0) return IOErrorFor("cannot reopen sealed segment", path);
    auto built = std::make_shared<SealedSegment>();
    built->first_seq = first_seq;
    built->checksum = active_checksum_fold_;
    built->data_len = static_cast<size_t>(active_bytes_);
    built->fd = fd;
    // Registered but NOT mapped: the first query that needs this
    // segment faults it into the cache. The sparse index is built from
    // the mirror (the Flush above already patched every dirty template
    // id onto the file, so mirror and file agree).
    built->entry = cache_->Register(fd, built->data_len, cache_owner_);
    built->tids.reserve(active_.size());
    for (size_t i = 0; i < active_.size(); ++i) {
      built->AddRecord(active_offsets_[i], active_[i].timestamp_us,
                       active_[i].template_id);
    }
    seg = std::move(built);
  }

  // Publish copy-on-seal: outstanding SealedRecordViews keep the old
  // set; new snapshots see the new segment.
  auto next = std::make_shared<SealedSet>(*sealed_);
  next->push_back(seg);
  sealed_ = std::move(next);
  sealed_first_seqs_.push_back(first_seq);
  sealed_records_ += seg->records;

  // The segment is now served through the cache; release the mirror.
  std::vector<LogRecord>().swap(active_);
  std::string().swap(write_buffer_);
  active_offsets_.clear();
  active_bytes_ = 0;
  active_checksum_fold_ = kSegmentChecksumSeed;
  ++active_index_;
  BB_RETURN_IF_ERROR(WriteManifest());
  BB_RETURN_IF_ERROR(OpenActiveFile());
  if (wal_ != nullptr) {
    // Checkpoint-on-seal: the sealed segment's fsync covers every
    // logged frame, so the WAL starts a new generation in place.
    wal_salt_ = logframe::WalSalt(sealed_records_);
    return wal_->Rotate(sealed_records_);
  }
  return Status::OK();
}

Status SegmentedDiskBackend::Read(uint64_t seq, LogRecord* out) const {
  if (seq >= size()) {
    return Status::NotFound("sequence " + std::to_string(seq) +
                            " beyond end of store");
  }
  if (seq >= sealed_records_) {
    *out = active_[seq - sealed_records_];
    return Status::OK();
  }
  const auto it = std::upper_bound(sealed_first_seqs_.begin(),
                                   sealed_first_seqs_.end(), seq);
  const SealedSegment& seg =
      *(*sealed_)[static_cast<size_t>(it - sealed_first_seqs_.begin()) - 1];
  SegmentCache::Pin pin;
  BB_RETURN_IF_ERROR(PinSegment(seg, &pin));
  MaterializeFrame(
      pin.data() + SeekOffset(pin.data(), seg, seq - seg.first_seq), out);
  return Status::OK();
}

Status SegmentedDiskBackend::Scan(
    uint64_t begin, uint64_t end,
    const std::function<void(uint64_t, const LogRecord&)>& fn) const {
  end = std::min(end, size());
  ScanVisitTally visits(&scan_visits_);
  // Records materialize into one reused scratch (its string buffer is
  // recycled, so a steady-state scan allocates only on growth).
  LogRecord scratch;
  for (const auto& seg : *sealed_) {
    const uint64_t seg_end = seg->first_seq + seg->records;
    if (seg_end <= begin) continue;
    if (seg->first_seq >= end) break;
    const uint64_t lo = std::max(begin, seg->first_seq);
    const uint64_t hi = std::min(end, seg_end);
    SegmentCache::Pin pin;
    BB_RETURN_IF_ERROR(PinSegment(*seg, &pin));
    size_t off = SeekOffset(pin.data(), *seg, lo - seg->first_seq);
    for (uint64_t seq = lo; seq < hi; ++seq) {
      MaterializeFrame(pin.data() + off, &scratch);
      ++visits.count;
      fn(seq, scratch);
      off += kFrameHeaderBytes + scratch.text.size();
    }
  }
  for (uint64_t seq = std::max(begin, sealed_records_); seq < end; ++seq) {
    ++visits.count;
    fn(seq, active_[seq - sealed_records_]);
  }
  return Status::OK();
}

Status SegmentedDiskBackend::TemplateCounts(
    uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
    std::unordered_map<TemplateId, uint64_t>* counts) const {
  end = std::min(end, size());
  ScanVisitTally visits(&scan_visits_);
  for (const auto& seg : *sealed_) {
    const uint64_t seg_end = seg->first_seq + seg->records;
    if (seg_end <= begin) continue;
    if (seg->first_seq >= end) break;
    // Time pruning via the persisted index range: a sealed segment
    // whose [min, max] timestamps miss the window contributes nothing —
    // skipped without a pin, exactly like a postings miss.
    if (seg->max_timestamp_us < min_ts_us || seg->min_timestamp_us > max_ts_us)
      continue;
    const uint64_t lo = std::max(begin, seg->first_seq);
    const uint64_t hi = std::min(end, seg_end);
    const bool ts_covered =
        seg->min_timestamp_us >= min_ts_us && seg->max_timestamp_us <= max_ts_us;
    if (ts_covered) {
      if (lo == seg->first_seq && hi == seg_end) {
        // Fully covered in both dimensions: postings answer it.
        for (const auto& [tid, n] : seg->postings) (*counts)[tid] += n;
        continue;
      }
      // Only the sequence window cuts it: the id column answers it.
      for (uint64_t seq = lo; seq < hi; ++seq) {
        ++visits.count;
        ++(*counts)[seg->tids[seq - seg->first_seq]];
      }
      continue;
    }
    // The time window cuts it: only the frames hold the timestamps.
    SegmentCache::Pin pin;
    BB_RETURN_IF_ERROR(PinSegment(*seg, &pin));
    size_t off = SeekOffset(pin.data(), *seg, lo - seg->first_seq);
    for (uint64_t seq = lo; seq < hi; ++seq) {
      uint32_t len;
      uint64_t ts;
      TemplateId tid;
      std::memcpy(&len, pin.data() + off, 4);
      std::memcpy(&ts, pin.data() + off + 4, 8);
      std::memcpy(&tid, pin.data() + off + kFrameTidOffset, 8);
      ++visits.count;
      if (ts >= min_ts_us && ts <= max_ts_us) ++(*counts)[tid];
      off += kFrameHeaderBytes + len;
    }
  }
  for (uint64_t seq = std::max(begin, sealed_records_); seq < end; ++seq) {
    ++visits.count;
    const LogRecord& rec = active_[seq - sealed_records_];
    if (rec.timestamp_us >= min_ts_us && rec.timestamp_us <= max_ts_us) {
      ++(*counts)[rec.template_id];
    }
  }
  return Status::OK();
}

Status SegmentedDiskBackend::ScanTemplates(
    uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
    const std::unordered_set<TemplateId>& ids,
    const std::function<void(uint64_t, TemplateId)>& fn) const {
  end = std::min(end, size());
  ScanVisitTally visits(&scan_visits_);
  for (const auto& seg : *sealed_) {
    const uint64_t seg_end = seg->first_seq + seg->records;
    if (seg_end <= begin) continue;
    if (seg->first_seq >= end) break;
    // Time and postings checks BEFORE any pin: a segment outside the
    // window or holding none of the wanted templates is skipped without
    // being mapped, so filtered queries over a mostly-cold topic do not
    // fault the whole topic into the cache.
    if (seg->max_timestamp_us < min_ts_us || seg->min_timestamp_us > max_ts_us)
      continue;
    bool overlaps = false;
    for (TemplateId tid : ids) {
      if (seg->postings.count(tid) != 0) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) continue;
    const uint64_t lo = std::max(begin, seg->first_seq);
    const uint64_t hi = std::min(end, seg_end);
    if (seg->min_timestamp_us >= min_ts_us &&
        seg->max_timestamp_us <= max_ts_us) {
      // Every record is inside the time window: filter the id column.
      for (uint64_t seq = lo; seq < hi; ++seq) {
        ++visits.count;
        const TemplateId tid = seg->tids[seq - seg->first_seq];
        if (ids.count(tid) != 0) fn(seq, tid);
      }
      continue;
    }
    // The time window cuts it: only the frames hold the timestamps.
    SegmentCache::Pin pin;
    BB_RETURN_IF_ERROR(PinSegment(*seg, &pin));
    size_t off = SeekOffset(pin.data(), *seg, lo - seg->first_seq);
    for (uint64_t seq = lo; seq < hi; ++seq) {
      uint32_t len;
      uint64_t ts;
      TemplateId tid;
      std::memcpy(&len, pin.data() + off, 4);
      std::memcpy(&ts, pin.data() + off + 4, 8);
      std::memcpy(&tid, pin.data() + off + kFrameTidOffset, 8);
      ++visits.count;
      if (ts >= min_ts_us && ts <= max_ts_us && ids.count(tid) != 0) {
        fn(seq, tid);
      }
      off += kFrameHeaderBytes + len;
    }
  }
  for (uint64_t seq = std::max(begin, sealed_records_); seq < end; ++seq) {
    ++visits.count;
    const LogRecord& rec = active_[seq - sealed_records_];
    if (rec.timestamp_us >= min_ts_us && rec.timestamp_us <= max_ts_us &&
        ids.count(rec.template_id) != 0) {
      fn(seq, rec.template_id);
    }
  }
  return Status::OK();
}

Status SegmentedDiskBackend::ReplicationRead(uint64_t segment_index,
                                             uint64_t offset,
                                             uint64_t max_bytes,
                                             ReplicationChunk* out) const {
  out->segment_index = segment_index;
  out->offset = offset;
  out->data.clear();
  out->segment_sealed = false;
  out->segment_records = 0;
  out->segment_checksum = 0;
  out->segment_data_len = 0;
  out->source_records = size();
  out->source_segments = sealed_->size();
  uint64_t sealed_bytes = 0;
  for (const auto& seg : *sealed_) sealed_bytes += seg->data_len;
  out->source_bytes = sealed_bytes + active_bytes_;
  if (max_bytes == 0) max_bytes = 1;

  if (segment_index < sealed_->size()) {
    const SealedSegment& seg = *(*sealed_)[segment_index];
    out->segment_sealed = true;
    out->segment_records = seg.records;
    out->segment_checksum = seg.checksum;
    out->segment_data_len = seg.data_len;
    if (offset > seg.data_len) {
      return Status::Corruption("replication offset beyond sealed segment");
    }
    if (offset == seg.data_len) return Status::OK();  // advance to next
    SegmentCache::Pin pin;
    BB_RETURN_IF_ERROR(PinSegment(seg, &pin));
    // Chunks carry whole frames only: walk (and checksum-verify) frames
    // from `offset` until the next one would overflow max_bytes. A
    // parse failure at the very first frame means the follower's resume
    // offset is not a frame boundary.
    ByteReader reader(pin.data() + offset, seg.data_len - offset);
    size_t take = 0;
    while (!reader.AtEnd()) {
      Frame frame;
      if (!ParseFrame(&reader, pin.data() + offset, &frame)) {
        return take == 0 ? Status::InvalidArgument(
                               "replication offset is not a frame boundary")
                         : Status::Corruption(
                               "corrupt frame in sealed segment during "
                               "replication read");
      }
      if (take != 0 && reader.position() > max_bytes) break;
      take = reader.position();
      if (take >= max_bytes) break;
    }
    out->data.assign(pin.data() + offset, take);
    return Status::OK();
  }

  if (segment_index == active_index_) {
    if (offset > active_bytes_) {
      return Status::Corruption("replication offset beyond active tail");
    }
    if (offset == active_bytes_) return Status::OK();  // caught up
    const auto it = std::lower_bound(active_offsets_.begin(),
                                     active_offsets_.end(), offset);
    if (it == active_offsets_.end() || *it != offset) {
      return Status::InvalidArgument(
          "replication offset is not a frame boundary");
    }
    // Re-frame from the in-memory mirror: FillFrameHeader is
    // deterministic, so these are byte-identical to the frames the WAL
    // and the segment file hold — with the freshest template ids (the
    // mirror is authoritative until the next flush patches the file).
    for (size_t ridx = static_cast<size_t>(it - active_offsets_.begin());
         ridx < active_.size(); ++ridx) {
      const LogRecord& rec = active_[ridx];
      if (!out->data.empty() &&
          out->data.size() + kFrameHeaderBytes + rec.text.size() > max_bytes) {
        break;
      }
      const uint64_t crc = RecordChecksum(rec.timestamp_us, rec.text);
      char header[kFrameHeaderBytes];
      FillFrameHeader(header, rec, crc);
      out->data.append(header, kFrameHeaderBytes);
      out->data.append(rec.text);
      if (out->data.size() >= max_bytes) break;
    }
    return Status::OK();
  }

  return Status::Corruption("replication segment index beyond active tail");
}

Status SegmentedDiskBackend::ReplicationPosition(uint64_t* segment_index,
                                                 uint64_t* offset) const {
  *segment_index = active_index_;
  *offset = active_bytes_;
  return Status::OK();
}

Status SegmentedDiskBackend::VerifySealedSegment(uint64_t segment_index,
                                                 uint64_t expect_records,
                                                 uint64_t expect_checksum) const {
  if (segment_index >= sealed_->size()) {
    return Status::NotFound("segment not sealed locally");
  }
  const SealedSegment& seg = *(*sealed_)[segment_index];
  if (seg.records != expect_records || seg.checksum != expect_checksum) {
    return Status::Corruption("sealed segment diverges from the primary");
  }
  return Status::OK();
}

Status SegmentedDiskBackend::SealActive() {
  if (!io_error_.ok()) return io_error_;
  if (active_count() == 0) return Status::OK();
  return SealActiveLocked();
}

Status SegmentedDiskBackend::AssignTemplates(
    uint64_t begin_seq, const std::vector<TemplateId>& ids) {
  const uint64_t end_seq = begin_seq + ids.size();
  if (end_seq > size()) {
    return Status::NotFound("sequence beyond end of store");
  }
  // A failed pin or pwrite strands only the records it covers: they keep
  // their old ids, the rest of the range is still applied, and the
  // first error is returned. Not sticky in io_error_ — appends are
  // unaffected; the owner records it in its storage status.
  Status first_error;
  // Sealed part: walk the segments in order (the range is contiguous —
  // no per-record binary search) and compare against the in-memory id
  // column. Only a segment holding a changed id is pinned, seeking to
  // its first change; after a model merge most established assignments
  // are unchanged, so the common case maps nothing.
  for (size_t si = 0; si < sealed_->size(); ++si) {
    const SealedSegment& seg = *(*sealed_)[si];
    const uint64_t seg_end = seg.first_seq + seg.records;
    if (seg_end <= begin_seq) continue;
    if (seg.first_seq >= end_seq) break;
    const uint64_t hi = std::min(end_seq, seg_end);
    uint64_t lo = std::max(begin_seq, seg.first_seq);
    while (lo < hi && seg.tids[lo - seg.first_seq] == ids[lo - begin_seq]) {
      ++lo;
    }
    if (lo == hi) continue;
    SegmentCache::Pin pin;
    Status pinned = PinSegment(seg, &pin);
    if (!pinned.ok()) {
      if (first_error.ok()) first_error = std::move(pinned);
      continue;
    }
    size_t off = SeekOffset(pin.data(), seg, lo - seg.first_seq);
    for (uint64_t seq = lo; seq < hi; ++seq) {
      uint32_t len;
      std::memcpy(&len, pin.data() + off, 4);
      const TemplateId id = ids[seq - begin_seq];
      TemplateId& current = seg.tids[seq - seg.first_seq];
      // MAP_SHARED keeps the read-only mapping coherent with the write;
      // frame checksums exclude the template id by design.
      if (current != id) {
        if (ops_->PWrite(seg.fd, &id, 8, off + kFrameTidOffset) == 8) {
          auto pit = seg.postings.find(current);
          if (pit != seg.postings.end() && --pit->second == 0) {
            seg.postings.erase(pit);
          }
          ++seg.postings[id];
          current = id;
        } else if (first_error.ok()) {
          first_error = IOErrorFor("cannot patch template id", SegmentPath(si));
        }
      }
      off += kFrameHeaderBytes + len;
    }
  }
  for (uint64_t seq = std::max(begin_seq, sealed_records_); seq < end_seq;
       ++seq) {
    const uint32_t idx = static_cast<uint32_t>(seq - sealed_records_);
    const TemplateId id = ids[seq - begin_seq];
    if (active_[idx].template_id == id) continue;
    // The frame's buffered/file copy still holds the old id; the file
    // is patched at the next flush/seal, and the mirror is
    // authoritative for reads until then.
    active_[idx].template_id = id;
    dirty_tids_.push_back(idx);
  }
  return first_error;
}

Status SegmentedDiskBackend::Checkpoint(std::string_view metadata) {
  metadata_.assign(metadata);
  BB_RETURN_IF_ERROR(Flush());
  return WriteManifest();
}

std::shared_ptr<const SealedRecordView> SegmentedDiskBackend::SnapshotSealed()
    const {
  return std::make_shared<View>(sealed_, sealed_records_, cache_);
}

Status SegmentedDiskBackend::WaitDurable() {
  // Called with NO topic lock held (see storage_backend.h); wal_ is set
  // once at Open and the WriteAheadLog is internally synchronized.
  if (wal_ == nullptr) return Status::OK();
  return wal_->WaitDurable();
}

}  // namespace bytebrain
