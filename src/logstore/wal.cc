#include "logstore/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

#include "logstore/fault_injection.h"
#include "logstore/frame_format.h"
#include "util/serde.h"

namespace bytebrain {

namespace {

// WAL file header: magic u64 | version u32 | base_seq u64. base_seq is
// the global sequence number of the generation's first frame (== the
// owning backend's sealed_records_ when the generation started).
// Version 2: one recycled wal.log with salted frame checksums.
constexpr uint64_t kWalMagic = 0x42425741'4c4f4731ULL;  // "BBWALOG1"
constexpr uint32_t kWalVersion = 2;
constexpr size_t kWalHeaderBytes = 8 + 4 + 8;

/// Reads `path` fully into `*out`; a missing file is reported through
/// `*exists`, not as an error. A mid-file read error IS an error —
/// treating it as EOF would silently shorten the recovered prefix.
Status ReadWhole(const std::string& path, std::string* out, bool* exists) {
  out->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  *exists = f != nullptr;
  if (f == nullptr) return Status::OK();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("read error: " + path);
  return Status::OK();
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string directory, DurabilityMode mode,
                             FileOps* ops)
    : path_(std::move(directory) + "/wal.log"),
      mode_(mode),
      ops_(ops),
      committer_([this] { CommitLoop(); }) {}

WriteAheadLog::~WriteAheadLog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_appended_.notify_all();
  committer_.join();
  if (fd_ >= 0) ::close(fd_);
}

Status WriteAheadLog::OpenAndReplay(uint64_t base_seq,
                                    std::vector<LogRecord>* replayed) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string data;
  bool exists = false;
  BB_RETURN_IF_ERROR(ReadWhole(path_, &data, &exists));
  if (!exists || data.size() < kWalHeaderBytes) {
    // Missing, or creation torn mid-header: no frame can follow a
    // header whose write never completed, so start fresh.
    return ResetLocked(base_seq);
  }
  ByteReader reader(data.data(), data.size());
  uint64_t magic = 0;
  uint32_t version = 0;
  uint64_t stored_base = 0;
  (void)reader.GetU64(&magic);
  (void)reader.GetU32(&version);
  (void)reader.GetU64(&stored_base);
  if (magic != kWalMagic || version != kWalVersion || stored_base > base_seq) {
    // Not a crash artifact: a foreign file, or one claiming records the
    // manifest never sealed — replaying it would splice them into the
    // wrong position.
    return Status::Corruption("bad wal header: " + path_);
  }
  if (stored_base < base_seq) {
    // A crash between a seal's manifest write and its Rotate: every
    // frame of that generation is in the sealed (fsynced, manifested)
    // segment, so none may replay.
    return ResetLocked(base_seq);
  }

  // Frame-by-frame replay; the first torn, corrupt or earlier-generation
  // frame (its salt differs) ends the trusted prefix, and everything
  // after it is truncated away.
  const uint64_t salt = logframe::WalSalt(base_seq);
  size_t frame_bytes = 0;
  while (!reader.AtEnd()) {
    logframe::Frame frame;
    if (!logframe::ParseFrame(&reader, data.data(), &frame, salt)) break;
    LogRecord rec;
    rec.timestamp_us = frame.ts;
    rec.template_id = frame.tid;
    rec.text.assign(frame.text);
    replayed->push_back(std::move(rec));
    frame_bytes = reader.position() - kWalHeaderBytes;
  }
  const size_t valid_bytes = kWalHeaderBytes + frame_bytes;
  if (valid_bytes < data.size()) {
    if (::truncate(path_.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
      return Status::IOError("cannot truncate torn wal tail: " + path_);
    }
  }
  fd_ = ::open(path_.c_str(), O_RDWR, 0644);
  if (fd_ < 0) return Status::IOError("cannot open wal file: " + path_);
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    return Status::IOError("cannot seek wal file: " + path_);
  }
  file_bytes_ = frame_bytes;
  // The replayed prefix is on disk by definition; new appends start
  // their durability race from here.
  appended_ = frame_bytes;
  synced_ = frame_bytes;
  return Status::OK();
}

Status WriteAheadLog::ResetLocked(uint64_t base_seq) {
  file_bytes_ = 0;
  if (fd_ < 0) fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  std::string header;
  ByteWriter writer(&header);
  writer.PutU64(kWalMagic);
  writer.PutU32(kWalVersion);
  writer.PutU64(base_seq);
  // The frames that follow overwrite the previous generation's in
  // place; their salt keeps the leftovers beyond them from replaying.
  if (fd_ < 0 || !PWriteFully(ops_, fd_, header, 0) ||
      ::lseek(fd_, static_cast<off_t>(header.size()), SEEK_SET) < 0) {
    error_ = Status::IOError("cannot start wal generation: " + path_);
    cv_synced_.notify_all();
    return error_;
  }
  return Status::OK();
}

Status WriteAheadLog::WriteFullyLocked(std::string_view bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ops_->Write(fd_, bytes.data() + done, bytes.size() - done);
    if (n <= 0) {
      // The file now ends mid-frame (replay truncates it); sticky — and
      // waiters must not sleep for an fsync that will never cover them.
      error_ = Status::IOError("wal write failed: " + path_);
      cv_synced_.notify_all();
      return error_;
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteAheadLog::Append(std::string_view frames) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_.ok()) return error_;
  if (fd_ < 0) {
    error_ = Status::IOError("wal has no open file: " + path_);
    return error_;
  }
  BB_RETURN_IF_ERROR(WriteFullyLocked(frames));
  appended_ += frames.size();
  file_bytes_ += frames.size();
  cv_appended_.notify_one();
  return Status::OK();
}

Status WriteAheadLog::WaitDurable() {
  if (mode_ != DurabilityMode::kWalGroupCommit) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  if (!error_.ok()) return error_;
  const uint64_t target = appended_;
  cv_synced_.wait(lock, [&] { return synced_ >= target || !error_.ok(); });
  if (synced_ >= target) {
    ++group_commits_;
    return Status::OK();
  }
  return error_;
}

Status WriteAheadLog::Rotate(uint64_t new_base_seq) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [&] { return !syncing_; });
  // Everything appended so far is durable through the sealed segment's
  // own fsync: release every waiter, then start the next generation in
  // the same file. The monotone counters are NOT reset — a waiter
  // parked on a pre-rotation target must see synced_ pass it, never
  // restart below.
  synced_ = appended_;
  cv_synced_.notify_all();
  // Rotation is only reached from a healthy seal, which starts a fresh
  // generation, so an old sticky failure no longer applies.
  error_ = Status::OK();
  return ResetLocked(new_base_seq);
}

void WriteAheadLog::CommitLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_appended_.wait(lock, [&] {
      return stop_ || (error_.ok() && fd_ >= 0 && appended_ > synced_);
    });
    if (stop_) return;
    // One fsync covers every byte appended up to now — batches that
    // arrived while the previous fsync ran are all committed together.
    const uint64_t target = appended_;
    const int fd = fd_;
    syncing_ = true;
    lock.unlock();
    const int rc = ops_->Fsync(fd);
    lock.lock();
    syncing_ = false;
    ++fsyncs_;
    if (rc == 0) {
      if (target > synced_) synced_ = target;
    } else if (error_.ok()) {
      error_ = Status::IOError("wal fsync failed: " + path_);
    }
    cv_synced_.notify_all();
    cv_idle_.notify_all();
  }
}

WriteAheadLog::Stats WriteAheadLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {file_bytes_, group_commits_, fsyncs_};
}

}  // namespace bytebrain
