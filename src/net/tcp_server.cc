#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace bytebrain {
namespace net {

namespace {

/// Worker epoll_wait granularity: bounds how late an idle close or a
/// throttle resume can fire. Short enough for test timeouts, long
/// enough to stay invisible in CPU profiles.
constexpr int kTickMs = 20;
constexpr size_t kReadChunk = 64 * 1024;

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

void AppendFrame(std::string* out, std::string_view payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char hdr[4];
  std::memcpy(hdr, &len, 4);
  out->append(hdr, 4);
  out->append(payload);
}

}  // namespace

TcpServer::TcpServer(api::ServiceFrontend* frontend, TcpServerConfig config)
    : frontend_(frontend), config_(std::move(config)) {
  config_.num_workers = std::max(1, config_.num_workers);
}

TcpServer::~TcpServer() { Shutdown(); }

uint64_t TcpServer::NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status TcpServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" +
                                   config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, config_.backlog) != 0) {
    const Status s = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  for (int i = 0; i < config_.num_workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->epoll_fd = ::epoll_create1(0);
    w->event_fd = ::eventfd(0, EFD_NONBLOCK);
    if (w->epoll_fd < 0 || w->event_fd < 0) {
      if (w->epoll_fd >= 0) ::close(w->epoll_fd);
      if (w->event_fd >= 0) ::close(w->event_fd);
      ::close(listen_fd_);
      listen_fd_ = -1;
      for (auto& prev : workers_) {
        ::close(prev->epoll_fd);
        ::close(prev->event_fd);
      }
      workers_.clear();
      return Errno("epoll_create1/eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w->event_fd;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->event_fd, &ev);
    workers_.push_back(std::move(w));
  }

  running_.store(true);
  started_ = true;
  for (auto& w : workers_) {
    Worker* raw = w.get();
    w->thread = std::thread([this, raw] { WorkerLoop(raw); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::Shutdown() {
  if (!started_) return;
  running_.store(false);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& w : workers_) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(w->event_fd, &one, sizeof(one));
    if (w->thread.joinable()) w->thread.join();
    ::close(w->event_fd);
    ::close(w->epoll_fd);
  }
  workers_.clear();
  started_ = false;
}

TcpServerStats TcpServer::stats() const {
  TcpServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_active = connections_active_.load();
  s.frames_dispatched = frames_dispatched_.load();
  s.bytes_read = bytes_read_.load();
  s.bytes_written = bytes_written_.load();
  s.oversized_frame_closes = oversized_frame_closes_.load();
  s.idle_closes = idle_closes_.load();
  s.watermark_pauses = watermark_pauses_.load();
  s.throttle_pauses = throttle_pauses_.load();
  return s;
}

void TcpServer::AcceptLoop() {
  while (running_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kTickMs);
    if (ready <= 0) continue;
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) break;  // EAGAIN or a transient error: back to poll
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      connections_accepted_.fetch_add(1);
      connections_active_.fetch_add(1);
      // Round-robin handoff; the worker registers the fd on its own
      // thread (epoll_fd is never touched cross-thread after Start).
      Worker* w = workers_[next_worker_++ % workers_.size()].get();
      {
        std::lock_guard<std::mutex> lock(w->mu);
        w->incoming.push_back(fd);
      }
      const uint64_t wake = 1;
      [[maybe_unused]] ssize_t n = ::write(w->event_fd, &wake, sizeof(wake));
    }
  }
}

void TcpServer::AdoptIncoming(Worker* w) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(w->mu);
    fds.swap(w->incoming);
  }
  const uint64_t now = NowUs();
  for (int fd : fds) {
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->last_activity_us = now;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      connections_active_.fetch_sub(1);
      continue;
    }
    w->conns.emplace(fd, std::move(conn));
  }
}

void TcpServer::UpdateInterest(Worker* w, Conn* c, bool want_read,
                               bool want_write) {
  if (c->want_read == want_read && c->want_write == want_write) return;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = c->fd;
  ::epoll_ctl(w->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  c->want_read = want_read;
  c->want_write = want_write;
}

void TcpServer::ReevaluateInterest(Worker* w, Conn* c) {
  const size_t backlog = c->wbuf.size() - c->wpos;
  const bool over_watermark = backlog > config_.write_high_watermark;
  if (over_watermark && !c->paused_watermark) {
    watermark_pauses_.fetch_add(1);
  }
  c->paused_watermark = over_watermark;
  const bool throttled = c->paused_until_us > NowUs();
  UpdateInterest(w, c, /*want_read=*/!over_watermark && !throttled,
                 /*want_write=*/backlog > 0);
}

bool TcpServer::FlushWrites(Conn* c) {
  while (c->wpos < c->wbuf.size()) {
    // MSG_NOSIGNAL: writing to a client that already hung up must fail
    // with EPIPE (we close the conn), not raise SIGPIPE.
    const ssize_t n = ::send(c->fd, c->wbuf.data() + c->wpos,
                             c->wbuf.size() - c->wpos, MSG_NOSIGNAL);
    if (n > 0) {
      c->wpos += static_cast<size_t>(n);
      bytes_written_.fetch_add(static_cast<uint64_t>(n));
      c->last_activity_us = NowUs();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer went away
  }
  c->wbuf.clear();
  c->wpos = 0;
  return true;
}

bool TcpServer::HandleReadable(Worker* w, Conn* c) {
  bool peer_closed = false;
  while (true) {
    const size_t old_size = c->rbuf.size();
    c->rbuf.resize(old_size + kReadChunk);
    const ssize_t n = ::read(c->fd, c->rbuf.data() + old_size, kReadChunk);
    if (n > 0) {
      c->rbuf.resize(old_size + static_cast<size_t>(n));
      bytes_read_.fetch_add(static_cast<uint64_t>(n));
      c->last_activity_us = NowUs();
      if (static_cast<size_t>(n) < kReadChunk) break;
      continue;
    }
    c->rbuf.resize(old_size);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    peer_closed = true;  // EOF or hard error
    break;
  }

  // Dispatch every complete frame already in the buffer. Frames that
  // arrived before a pause took effect are served (they were offered
  // load; admission control will answer them) — pausing only stops
  // NEW bytes from being read off the socket.
  while (c->rbuf.size() - c->rpos >= 4) {
    uint32_t len = 0;
    std::memcpy(&len, c->rbuf.data() + c->rpos, 4);
    if (len > config_.max_frame_bytes) {
      oversized_frame_closes_.fetch_add(1);
      CloseConn(w, c);
      return false;
    }
    if (c->rbuf.size() - c->rpos - 4 < len) break;  // partial frame
    const std::string_view frame(c->rbuf.data() + c->rpos + 4, len);
    api::ServiceFrontend::DispatchInfo info;
    const std::string response = frontend_->Dispatch(frame, &info);
    frames_dispatched_.fetch_add(1);
    AppendFrame(&c->wbuf, response);
    c->rpos += 4 + static_cast<size_t>(len);
    if (info.code == Status::Code::kResourceExhausted &&
        info.retry_after_us > 0) {
      // Admission said back off: stop reading this connection for the
      // hinted duration (bounded — a huge hint must not look like a
      // dead connection to the idle guard).
      const uint64_t pause =
          std::min<uint64_t>(info.retry_after_us, config_.max_read_pause_us);
      c->paused_until_us = std::max(c->paused_until_us, NowUs() + pause);
      throttle_pauses_.fetch_add(1);
    }
  }
  // Compact once consumption passes half the buffer — amortized O(1).
  if (c->rpos > 0 && c->rpos * 2 >= c->rbuf.size()) {
    c->rbuf.erase(0, c->rpos);
    c->rpos = 0;
  }

  if (!FlushWrites(c)) {
    CloseConn(w, c);
    return false;
  }
  if (peer_closed) {
    // Responses to already-received frames were flushed above (best
    // effort); a half-closed peer gets no write retries.
    CloseConn(w, c);
    return false;
  }
  ReevaluateInterest(w, c);
  return true;
}

void TcpServer::CloseConn(Worker* w, Conn* c) {
  const int fd = c->fd;
  ::epoll_ctl(w->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  w->conns.erase(fd);
  connections_active_.fetch_sub(1);
}

void TcpServer::SweepConns(Worker* w, uint64_t now_us) {
  std::vector<Conn*> to_close;
  for (auto& [fd, conn] : w->conns) {
    Conn* c = conn.get();
    if (c->paused_until_us != 0 && c->paused_until_us <= now_us) {
      c->paused_until_us = 0;
      // The pause is activity of OUR making: don't let it count toward
      // idleness the client had no way to avoid.
      c->last_activity_us = now_us;
      ReevaluateInterest(w, c);
    }
    if (config_.idle_timeout_ms > 0 &&
        now_us - c->last_activity_us > config_.idle_timeout_ms * 1000) {
      to_close.push_back(c);
    }
  }
  for (Conn* c : to_close) {
    idle_closes_.fetch_add(1);
    CloseConn(w, c);
  }
}

void TcpServer::DrainAndCloseAll(Worker* w) {
  // Graceful drain: responses already computed get `drain_timeout_ms`
  // of blocking flush effort; unread request bytes are dropped.
  const uint64_t deadline = NowUs() + config_.drain_timeout_ms * 1000;
  for (auto& [fd, conn] : w->conns) {
    Conn* c = conn.get();
    while (c->wpos < c->wbuf.size() && NowUs() < deadline) {
      pollfd pfd{c->fd, POLLOUT, 0};
      if (::poll(&pfd, 1, kTickMs) <= 0) continue;
      if (!FlushWrites(c)) break;
    }
    ::close(c->fd);
    connections_active_.fetch_sub(1);
  }
  w->conns.clear();
}

void TcpServer::WorkerLoop(Worker* w) {
  std::vector<epoll_event> events(64);
  while (running_.load()) {
    const int n =
        ::epoll_wait(w->epoll_fd, events.data(),
                     static_cast<int>(events.size()), kTickMs);
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == w->event_fd) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(w->event_fd, &drained, sizeof(drained));
        AdoptIncoming(w);
        continue;
      }
      auto it = w->conns.find(ev.data.fd);
      if (it == w->conns.end()) continue;  // closed earlier this batch
      Conn* c = it->second.get();
      if (ev.events & (EPOLLERR | EPOLLHUP)) {
        CloseConn(w, c);
        continue;
      }
      if ((ev.events & EPOLLOUT) != 0) {
        if (!FlushWrites(c)) {
          CloseConn(w, c);
          continue;
        }
        ReevaluateInterest(w, c);
      }
      if ((ev.events & EPOLLIN) != 0) {
        if (!HandleReadable(w, c)) continue;
      }
    }
    AdoptIncoming(w);  // wakeups can coalesce; don't strand a handoff
    SweepConns(w, NowUs());
  }
  DrainAndCloseAll(w);
  // epoll_fd/event_fd are closed by Shutdown() after the join: Shutdown
  // writes the eventfd to wake us, so the exiting thread must not race
  // that write with a close.
}

}  // namespace net
}  // namespace bytebrain
