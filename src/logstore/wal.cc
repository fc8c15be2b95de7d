#include "logstore/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "logstore/fault_injection.h"
#include "logstore/frame_format.h"
#include "util/serde.h"

namespace bytebrain {

namespace {

// WAL file header: magic u64 | version u32 | base_seq u64. base_seq is
// the global sequence number of the file's first frame (== the owning
// backend's sealed_records_ when the file was created).
constexpr uint64_t kWalMagic = 0x42425741'4c4f4731ULL;  // "BBWALOG1"
constexpr uint32_t kWalVersion = 1;
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
    : directory_(std::move(directory)),
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

std::string WriteAheadLog::PathFor(uint64_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06llu.log",
                static_cast<unsigned long long>(index));
  return directory_ + "/" + name;
}

Status WriteAheadLog::OpenAndReplay(uint64_t index, uint64_t base_seq,
                                    std::vector<LogRecord>* replayed) {
  std::lock_guard<std::mutex> lock(mu_);
  file_index_ = index;
  const std::string path = PathFor(index);
  const std::string current = std::filesystem::path(path).filename().string();

  // Delete stale files from other segment generations. A crash between
  // a seal's manifest write and its Rotate() leaves the previous
  // segment's file behind — every frame in it is already in the sealed
  // (fsynced, manifest-listed) segment, so it must not replay.
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(0, 4, "wal-") == 0 &&
        name != current) {
      std::remove(entry.path().c_str());
    }
  }

  std::string data;
  bool exists = false;
  BB_RETURN_IF_ERROR(ReadWhole(path, &data, &exists));
  if (!exists || data.size() < kWalHeaderBytes) {
    // Missing, or creation torn mid-header: no frame can follow a
    // header whose write never completed, so start fresh.
    return CreateFileLocked(base_seq);
  }
  ByteReader reader(data.data(), data.size());
  uint64_t magic = 0;
  uint32_t version = 0;
  uint64_t stored_base = 0;
  (void)reader.GetU64(&magic);
  (void)reader.GetU32(&version);
  (void)reader.GetU64(&stored_base);
  if (magic != kWalMagic || version != kWalVersion ||
      stored_base != base_seq) {
    // A full header that does not match is not a crash artifact — it is
    // a file in the wrong place, and replaying it would splice foreign
    // records into the topic.
    return Status::Corruption("bad wal header: " + path);
  }

  // Frame-by-frame replay; the first torn or corrupt frame ends the
  // trusted prefix and everything after it is truncated away.
  size_t frame_bytes = 0;
  while (!reader.AtEnd()) {
    logframe::Frame frame;
    if (!logframe::ParseFrame(&reader, data.data(), &frame)) break;
    LogRecord rec;
    rec.timestamp_us = frame.ts;
    rec.template_id = frame.tid;
    rec.text.assign(frame.text);
    replayed->push_back(std::move(rec));
    frame_bytes = reader.position() - kWalHeaderBytes;
  }
  const size_t valid_bytes = kWalHeaderBytes + frame_bytes;
  if (valid_bytes < data.size()) {
    if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
      return Status::IOError("cannot truncate torn wal tail: " + path);
    }
  }
  fd_ = ::open(path.c_str(), O_RDWR, 0644);
  if (fd_ < 0) return Status::IOError("cannot open wal file: " + path);
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    return Status::IOError("cannot seek wal file: " + path);
  }
  file_bytes_ = frame_bytes;
  // The replayed prefix is on disk by definition; new appends start
  // their durability race from here.
  appended_ = frame_bytes;
  synced_ = frame_bytes;
  return Status::OK();
}

Status WriteAheadLog::CreateFileLocked(uint64_t base_seq) {
  const std::string path = PathFor(file_index_);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    error_ = Status::IOError("cannot create wal file: " + path);
    cv_synced_.notify_all();
    return error_;
  }
  std::string header;
  ByteWriter writer(&header);
  writer.PutU64(kWalMagic);
  writer.PutU32(kWalVersion);
  writer.PutU64(base_seq);
  return WriteFullyLocked(header);
}

Status WriteAheadLog::WriteFullyLocked(std::string_view bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ops_->Write(fd_, bytes.data() + done, bytes.size() - done);
    if (n <= 0) {
      // The file now ends mid-frame (replay truncates it); sticky — and
      // waiters must not sleep for an fsync that will never cover them.
      error_ = Status::IOError("wal write failed: " + PathFor(file_index_));
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
    error_ = Status::IOError("wal has no open file: " + PathFor(file_index_));
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

Status WriteAheadLog::Rotate(uint64_t new_index, uint64_t new_base_seq) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [&] { return !syncing_; });
  // Everything appended so far is durable through the sealed segment's
  // own fsync: release every waiter, then swap files. The monotone
  // counters are NOT reset — a waiter parked on a pre-rotation target
  // must see synced_ pass it, never restart below.
  synced_ = appended_;
  cv_synced_.notify_all();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  std::remove(PathFor(file_index_).c_str());
  file_index_ = new_index;
  file_bytes_ = 0;
  // Rotation is only reached from a healthy seal, which starts a fresh
  // file, so an old sticky failure no longer applies.
  error_ = Status::OK();
  return CreateFileLocked(new_base_seq);
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
      error_ = Status::IOError("wal fsync failed: " + PathFor(file_index_));
    }
    cv_synced_.notify_all();
    cv_idle_.notify_all();
  }
}

uint64_t WriteAheadLog::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_bytes_;
}

uint64_t WriteAheadLog::group_commits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_commits_;
}

uint64_t WriteAheadLog::fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsyncs_;
}

}  // namespace bytebrain
