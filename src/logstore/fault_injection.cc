#include "logstore/fault_injection.h"

#include <unistd.h>

#include <cerrno>

namespace bytebrain {

namespace {

class PassThroughFileOps : public FileOps {
 public:
  ssize_t Write(int fd, const void* buf, size_t count) override {
    return ::write(fd, buf, count);
  }
  ssize_t PWrite(int fd, const void* buf, size_t count,
                 uint64_t offset) override {
    return ::pwrite(fd, buf, count, static_cast<off_t>(offset));
  }
  int Fsync(int fd) override { return ::fsync(fd); }
};

ssize_t FailEIO() {
  errno = EIO;
  return -1;
}

}  // namespace

FileOps* RealFileOps() {
  static PassThroughFileOps* ops = new PassThroughFileOps();
  return ops;
}

bool PWriteFully(FileOps* ops, int fd, std::string_view bytes,
                 uint64_t offset) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ops->PWrite(fd, bytes.data() + done,
                                  bytes.size() - done, offset + done);
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

ssize_t FaultInjectingFileOps::Write(int fd, const void* buf, size_t count) {
  const uint64_t op = NextOp();
  if (crashed_.load(std::memory_order_relaxed)) return FailEIO();
  if (op == schedule_.crash_at_op) {
    crashed_.store(true, std::memory_order_relaxed);
    // Torn final write: half the bytes land, the process "dies". A
    // write too small to tear fails whole instead.
    if (count < 2) return FailEIO();
    return ::write(fd, buf, count / 2);
  }
  if (op == schedule_.fail_write_at) return FailEIO();
  if (op == schedule_.short_write_at && count >= 2) {
    return ::write(fd, buf, count / 2);
  }
  return ::write(fd, buf, count);
}

ssize_t FaultInjectingFileOps::PWrite(int fd, const void* buf, size_t count,
                                      uint64_t offset) {
  const uint64_t op = NextOp();
  if (crashed_.load(std::memory_order_relaxed)) return FailEIO();
  if (op == schedule_.crash_at_op) {
    crashed_.store(true, std::memory_order_relaxed);
    if (count < 2) return FailEIO();
    return ::pwrite(fd, buf, count / 2, static_cast<off_t>(offset));
  }
  if (op == schedule_.fail_pwrite_at) return FailEIO();
  if (op == schedule_.short_write_at && count >= 2) {
    return ::pwrite(fd, buf, count / 2, static_cast<off_t>(offset));
  }
  return ::pwrite(fd, buf, count, static_cast<off_t>(offset));
}

int FaultInjectingFileOps::Fsync(int fd) {
  const uint64_t op = NextOp();
  if (crashed_.load(std::memory_order_relaxed)) return (void)FailEIO(), -1;
  if (op == schedule_.crash_at_op) {
    // A crash "during" fsync: the sync never completes. Whether the
    // kernel had already pushed the bytes is exactly the ambiguity a
    // real crash leaves, so the data is left as the prior writes put it.
    crashed_.store(true, std::memory_order_relaxed);
    return (void)FailEIO(), -1;
  }
  if (op == schedule_.fail_fsync_at) return (void)FailEIO(), -1;
  return ::fsync(fd);
}

Status FaultInjectingBackend::AppendBatch(std::vector<LogRecord> records) {
  const uint64_t call =
      append_calls_.fetch_add(1, std::memory_order_relaxed) + 1;
  const Status inner = inner_->AppendBatch(std::move(records));
  if (call == schedule_.fail_append_at) {
    return Status::IOError("injected append fault");
  }
  return inner;
}

Status FaultInjectingBackend::Read(uint64_t seq, LogRecord* out) const {
  const uint64_t call = read_calls_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (call == schedule_.fail_read_at) {
    return Status::IOError("injected read fault");
  }
  return inner_->Read(seq, out);
}

Status FaultInjectingBackend::Scan(
    uint64_t begin, uint64_t end,
    const std::function<void(uint64_t, const LogRecord&)>& fn) const {
  const uint64_t call = read_calls_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (call == schedule_.fail_read_at) {
    return Status::IOError("injected read fault");
  }
  return inner_->Scan(begin, end, fn);
}

Status FaultInjectingBackend::Flush() {
  const uint64_t call =
      flush_calls_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (call == schedule_.fail_flush_at) {
    return Status::IOError("injected flush fault");
  }
  return inner_->Flush();
}

Status FaultInjectingBackend::Checkpoint(std::string_view metadata) {
  const uint64_t call =
      checkpoint_calls_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (call == schedule_.fail_checkpoint_at) {
    return Status::IOError("injected checkpoint fault");
  }
  return inner_->Checkpoint(metadata);
}

}  // namespace bytebrain
