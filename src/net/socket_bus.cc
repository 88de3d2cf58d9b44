#include "net/socket_bus.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "net/backoff.h"

namespace hprl::net {

using smc::Message;
using Clock = std::chrono::steady_clock;

namespace {

/// Bytes requested per nonblocking recv; a short read means the socket
/// buffer is drained (safe to stop under edge-triggered epoll).
constexpr size_t kReadChunk = 64 * 1024;

/// Parse-cursor threshold past which the reassembly buffer is compacted
/// (consumed prefix memmoved away) instead of growing without bound.
constexpr size_t kCompactBytes = 64 * 1024;

/// Bytes read per HandleReadable burst before frames are parsed and the
/// batch is delivered. Large enough to amortize the inbox lock + wake over
/// many frames during bulk transfers, small enough to bound the reassembly
/// buffer and keep a firehose peer from starving the rest of the loop.
constexpr size_t kReadBurstBytes = 4 * 1024 * 1024;

/// How long an accepted socket may stay anonymous before the loop drops it
/// (the dialer introduces itself before anything else travels the link).
constexpr auto kHelloDeadline = std::chrono::milliseconds(2000);

/// Frames batched into one writev call (two iovecs each: header, payload).
constexpr int kMaxIovFrames = 8;

uint32_t BigEndian32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

/// Kernel buffer each bus socket asks for. A nonblocking sender can only
/// push one sndbuf worth of bytes per EPOLLOUT wake, so the default ~128 KiB
/// buffer quantizes bulk transfers into wake-latency-bound slices; blocking
/// peers (the raw-TCP baseline) sidestep this because the kernel parks them
/// in-place and autotunes the buffer up. Asking for a few MiB keeps the
/// pipe full across wake gaps. Best-effort: the kernel clamps to
/// net.core.{w,r}mem_max and the bus works at whatever it gets.
constexpr int kSocketBufBytes = 4 * 1024 * 1024;

/// Every bus socket, dialed or accepted: latency off, deep buffers.
void TuneSocket(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int buf = kSocketBufBytes;
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
}

}  // namespace

SocketBus::SocketBus(SocketBusOptions opts)
    : opts_(std::move(opts)), listener_(opts_.listen_fd) {}

SocketBus::~SocketBus() { Stop(); }

std::string SocketBus::RouteOf(const std::string& to) {
  size_t colon = to.find(':');
  return colon == std::string::npos ? to : to.substr(0, colon);
}

Status SocketBus::Start() {
  running_.store(true);
  epoll_fd_ = Fd(epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) {
    return Status::IOError(StrFormat("epoll_create1: %s", strerror(errno)));
  }
  wake_fd_ = Fd(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) {
    return Status::IOError(StrFormat("eventfd: %s", strerror(errno)));
  }
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_.get();
  if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) != 0) {
    return Status::IOError(StrFormat("epoll_ctl(wake): %s", strerror(errno)));
  }

  if (opts_.listen) {
    if (!listener_.valid()) {
      auto listener = TcpListen(opts_.listen_port);
      if (!listener.ok()) return listener.status();
      listener_ = std::move(listener).value();
    }
    auto port = LocalPort(listener_);
    if (!port.ok()) return port.status();
    bound_port_.store(*port);
    HPRL_RETURN_IF_ERROR(SetNonBlocking(listener_.get()));
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;  // level-triggered: AcceptReady drains anyway
    ev.data.fd = listener_.get();
    if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listener_.get(), &ev) != 0) {
      return Status::IOError(
          StrFormat("epoll_ctl(listener): %s", strerror(errno)));
    }
  }

  loop_thread_ = std::thread([this] { EventLoop(); });

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opts_.connect_timeout_ms);
  for (const PeerAddress& addr : opts_.dial) {
    // Peers may still be starting up: keep knocking with exponentially
    // backed-off, jittered waits until the deadline or the attempt cap —
    // whichever bites first maps to Unavailable.
    for (int attempt = 0;; ++attempt) {
      auto conn = Dial(addr, 1000, /*is_reconnect=*/false);
      if (conn.ok()) {
        Register(std::move(conn).value(), /*from_loop=*/false);
        break;
      }
      const std::string target = addr.name + " at " + addr.host + ":" +
                                 std::to_string(addr.port);
      if (attempt + 1 >= opts_.dial_max_attempts) {
        Stop();
        return Status::Unavailable(
            "gave up dialing " + target + " after " +
            std::to_string(attempt + 1) + " attempts: " +
            conn.status().message());
      }
      if (Clock::now() >= deadline) {
        Stop();
        return Status::Unavailable("could not reach " + target + ": " +
                                   conn.status().message());
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(DialBackoffMs(addr.name, attempt)));
    }
  }

  if (!opts_.accept_from.empty()) {
    std::unique_lock<std::mutex> lock(conns_mu_);
    bool all = conns_cv_.wait_until(lock, deadline, [this] {
      for (const std::string& name : opts_.accept_from) {
        auto it = conns_.find(name);
        if (it == conns_.end() || !it->second->alive.load()) return false;
      }
      return true;
    });
    if (!all) {
      std::string missing;
      for (const std::string& name : opts_.accept_from) {
        if (conns_.find(name) == conns_.end()) {
          missing += missing.empty() ? name : ", " + name;
        }
      }
      lock.unlock();
      Stop();
      return Status::Unavailable("peers never dialed in: " + missing);
    }
  }
  return Status::OK();
}

void SocketBus::Stop() {
  running_.store(false);
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  listener_.Close();

  // The loop is gone: by_fd_ (its private map, including anonymous pre-hello
  // sockets) is safe to touch from here.
  std::vector<std::shared_ptr<Conn>> to_close;
  std::set<Conn*> seen;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [name, conn] : conns_) {
      if (seen.insert(conn.get()).second) to_close.push_back(conn);
    }
    for (auto& conn : retired_conns_) {
      if (seen.insert(conn.get()).second) to_close.push_back(conn);
    }
    conns_.clear();
    retired_conns_.clear();
  }
  for (auto& [fd, conn] : by_fd_) {
    if (seen.insert(conn.get()).second) to_close.push_back(conn);
  }
  by_fd_.clear();
  {
    std::lock_guard<std::mutex> lock(cmd_mu_);
    cmds_.clear();
  }
  for (auto& conn : to_close) {
    conn->alive.store(false);
    if (conn->fd.valid()) ::shutdown(conn->fd.get(), SHUT_RDWR);
    conn->fd.Close();
    conn->rbuf.reset();
  }
  epoll_fd_.Close();
  wake_fd_.Close();
  inbox_cv_.notify_all();
}

int SocketBus::DialBackoffMs(const std::string& peer, int attempt) const {
  BackoffPolicy policy;
  policy.base_ms = opts_.dial_backoff_ms;
  policy.max_ms = opts_.dial_backoff_max_ms;
  policy.seed = opts_.dial_jitter_seed;
  return BackoffWaitMs(policy, opts_.local_name, peer, attempt);
}

bool SocketBus::PeerAlive(const std::string& name) const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  auto it = conns_.find(name);
  return it != conns_.end() && it->second->alive.load();
}

Result<std::shared_ptr<SocketBus::Conn>> SocketBus::Dial(
    const PeerAddress& addr, int timeout_ms, bool is_reconnect) {
  auto fd = TcpConnect(addr.host, addr.port, timeout_ms);
  if (!fd.ok()) return fd.status();
  TuneSocket(fd->get());
  auto conn = std::make_shared<Conn>();
  conn->name = addr.name;
  conn->fd = std::move(fd).value();
  conn->dialed = true;
  conn->addr = addr;
  // Hello frame: tells the acceptor who is on this socket. Unstamped
  // (seq 0) so it never perturbs protocol sequence numbers. Written while
  // the socket is still blocking; the loop only ever sees it nonblocking.
  Message hello;
  hello.from = opts_.local_name;
  hello.to = addr.name;
  hello.tag = kHelloTag;
  size_t wire = 0;
  Status sent = WriteFrame(conn->fd.get(), hello, &wire);
  if (!sent.ok()) return sent;
  HPRL_RETURN_IF_ERROR(SetNonBlocking(conn->fd.get()));
  conn->rbuf = pool_.Acquire();
  bytes_sent_.fetch_add(static_cast<int64_t>(wire));
  frames_sent_.fetch_add(1);
  (is_reconnect ? reconnects_ : connects_).fetch_add(1);
  return conn;
}

void SocketBus::Register(std::shared_ptr<Conn> conn, bool from_loop) {
  std::shared_ptr<Conn> old;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(conn->name);
    if (it != conns_.end()) old = it->second;
    conns_[conn->name] = conn;
  }
  if (old != nullptr) {
    old->alive.store(false);
    // shutdown() (not close) unsticks anything mid-write on the old socket;
    // the fd itself stays open until Stop() so a Send still holding the old
    // connection can fail cleanly instead of racing a descriptor reuse.
    if (old->fd.valid()) ::shutdown(old->fd.get(), SHUT_RDWR);
  }
  if (from_loop) {
    if (old != nullptr) RetireConn(old);
  } else {
    EnqueueCmd({LoopCmd::kAddConn, conn});
    if (old != nullptr) EnqueueCmd({LoopCmd::kRetire, old});
    WakeLoop();
  }
  conns_cv_.notify_all();
}

std::shared_ptr<SocketBus::Conn> SocketBus::Lookup(const std::string& name) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  auto it = conns_.find(name);
  return it == conns_.end() ? nullptr : it->second;
}

// ------------------------------------------------------------- event loop

void SocketBus::EnqueueCmd(LoopCmd cmd) {
  std::lock_guard<std::mutex> lock(cmd_mu_);
  cmds_.push_back(std::move(cmd));
}

void SocketBus::WakeLoop() {
  if (!wake_fd_.valid()) return;
  uint64_t one = 1;
  // A full eventfd counter still wakes the loop; the result is ignorable.
  ssize_t rc = ::write(wake_fd_.get(), &one, sizeof(one));
  (void)rc;
}

void SocketBus::UpdateInterest(const std::shared_ptr<Conn>& conn, bool add) {
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP |
              (conn->want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd.get();
  epoll_ctl(epoll_fd_.get(), add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD,
            conn->fd.get(), &ev);
}

void SocketBus::ProcessCmds() {
  std::vector<LoopCmd> cmds;
  {
    std::lock_guard<std::mutex> lock(cmd_mu_);
    cmds.swap(cmds_);
  }
  for (LoopCmd& cmd : cmds) {
    switch (cmd.kind) {
      case LoopCmd::kAddConn: {
        if (!cmd.conn->fd.valid()) break;
        by_fd_[cmd.conn->fd.get()] = cmd.conn;
        UpdateInterest(cmd.conn, /*add=*/true);
        // Bytes (or kernel-buffer space) that appeared before registration
        // produce no edge; poke both directions once.
        HandleReadable(cmd.conn);
        if (cmd.conn->alive.load()) HandleWritable(cmd.conn);
        break;
      }
      case LoopCmd::kArmWrite: {
        if (!cmd.conn->alive.load()) break;
        auto it = by_fd_.find(cmd.conn->fd.get());
        if (it == by_fd_.end() || it->second != cmd.conn) break;
        HandleWritable(cmd.conn);
        break;
      }
      case LoopCmd::kRetire:
        RetireConn(cmd.conn);
        break;
    }
  }
}

void SocketBus::RetireConn(const std::shared_ptr<Conn>& conn) {
  auto it = by_fd_.find(conn->fd.get());
  if (it != by_fd_.end() && it->second == conn) {
    epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd.get(), nullptr);
    by_fd_.erase(it);
  }
  conn->rbuf.reset();  // return the pooled block now; the fd waits for Stop
  std::lock_guard<std::mutex> lock(conns_mu_);
  retired_conns_.push_back(conn);
}

void SocketBus::DropConn(const std::shared_ptr<Conn>& conn) {
  conn->alive.store(false);
  auto it = by_fd_.find(conn->fd.get());
  if (it != by_fd_.end() && it->second == conn) {
    epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd.get(), nullptr);
    by_fd_.erase(it);
  }
  conn->rbuf.reset();
  if (conn->name.empty()) {
    // A stranger (or a dialer that died before its hello): loop-owned, never
    // visible to Send, safe to close immediately.
    --pending_hellos_;
    conn->fd.Close();
  }
  inbox_cv_.notify_all();
  conns_cv_.notify_all();
}

void SocketBus::EventLoop() {
  std::vector<struct epoll_event> events(64);
  while (running_.load()) {
    int n = epoll_wait(epoll_fd_.get(), events.data(),
                       static_cast<int>(events.size()), /*timeout=*/200);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: Stop() is tearing the bus down
    }
    for (int i = 0; i < n && running_.load(); ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_fd_.get()) {
        uint64_t drain = 0;
        ssize_t rc = ::read(wake_fd_.get(), &drain, sizeof(drain));
        (void)rc;
        continue;
      }
      if (listener_.valid() && fd == listener_.get()) {
        AcceptReady();
        continue;
      }
      auto it = by_fd_.find(fd);
      if (it == by_fd_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        HandleReadable(conn);
      }
      if (!conn->alive.load()) continue;
      if (ev & EPOLLOUT) HandleWritable(conn);
    }
    ProcessCmds();
    if (pending_hellos_ > 0) SweepPendingHellos();
  }
}

void SocketBus::AcceptReady() {
  for (;;) {
    int fd = accept4(listener_.get(), nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or the listener is closing
    }
    TuneSocket(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = Fd(fd);
    conn->accepted_at = Clock::now();
    conn->rbuf = pool_.Acquire();
    by_fd_[fd] = conn;
    ++pending_hellos_;
    UpdateInterest(conn, /*add=*/true);
    HandleReadable(conn);  // the hello may already be in the socket buffer
  }
}

void SocketBus::SweepPendingHellos() {
  const auto now = Clock::now();
  std::vector<std::shared_ptr<Conn>> expired;
  for (auto& [fd, conn] : by_fd_) {
    if (conn->name.empty() && now - conn->accepted_at > kHelloDeadline) {
      expired.push_back(conn);
    }
  }
  for (auto& conn : expired) DropConn(conn);  // drop strangers silently
}

void SocketBus::HandleReadable(const std::shared_ptr<Conn>& conn) {
  if (!conn->alive.load()) return;
  if (conn->rbuf == nullptr) conn->rbuf = pool_.Acquire();
  std::vector<uint8_t>& buf = *conn->rbuf;
  for (;;) {
    // Accumulate one bounded burst before parsing, so a bulk transfer is
    // parsed (and its messages delivered to the inbox) in large batches
    // instead of paying a lock + condvar wake per frame.
    bool eof = false;
    bool drained = false;
    size_t burst = 0;
    while (burst < kReadBurstBytes) {
      const size_t old = buf.size();
      buf.resize(old + kReadChunk);
      ssize_t rc = recv(conn->fd.get(), buf.data() + old, kReadChunk, 0);
      if (rc < 0) {
        buf.resize(old);
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          drained = true;
          break;
        }
        DropConn(conn);
        return;
      }
      if (rc == 0) {  // EOF: the peer is gone
        buf.resize(old);
        eof = true;
        break;
      }
      buf.resize(old + static_cast<size_t>(rc));
      burst += static_cast<size_t>(rc);
      // A short read emptied the socket buffer: safe to stop under EPOLLET.
      if (static_cast<size_t>(rc) < kReadChunk) {
        drained = true;
        break;
      }
    }
    if (!ParseFrames(conn)) return;  // desynchronized and dropped
    if (eof) {
      DropConn(conn);
      return;
    }
    if (drained) return;
    // Burst cap hit with the socket still readable: loop and read more (no
    // new edge is owed for bytes that are already buffered).
  }
}

bool SocketBus::ParseFrames(const std::shared_ptr<Conn>& conn) {
  std::vector<uint8_t>& buf = *conn->rbuf;
  size_t pos = conn->rpos;
  bool ok = true;
  std::vector<Message> batch;
  while (buf.size() - pos >= 4) {
    const uint32_t len = BigEndian32(buf.data() + pos);
    if (len == 0 || len > kMaxFrameBytes) {
      // The stream is desynchronized or hostile; the connection cannot be
      // trusted past this point.
      ok = false;
      break;
    }
    if (buf.size() - pos - 4 < len) break;  // incomplete frame: wait
    auto view = DecodeFrameView(buf.data() + pos + 4, len);
    pos += 4 + static_cast<size_t>(len);
    if (!view.ok()) {
      ok = false;
      break;
    }
    if (conn->name.empty()) {
      // The dialer introduces itself before anything else travels the link.
      if (view->tag != kHelloTag || view->from.empty()) {
        ok = false;  // stranger: drop silently
        break;
      }
      conn->name.assign(view->from);
      --pending_hellos_;
      bool replaced = Lookup(conn->name) != nullptr;
      (replaced ? reconnects_ : connects_).fetch_add(1);
      Register(conn, /*from_loop=*/true);
    } else {
      CountRecv(4 + static_cast<size_t>(len));
      batch.push_back(view->ToMessage());
    }
  }
  conn->rpos = pos;
  if (!batch.empty()) {
    // One lock + one wake for the whole burst. Messages parsed before a
    // desync are intact and still delivered (matching the old per-frame
    // path, which had already handed them over).
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      for (Message& m : batch) inboxes_[m.to].push_back(std::move(m));
    }
    inbox_cv_.notify_all();
  }
  if (!ok) {
    DropConn(conn);
    return false;
  }
  if (pos == buf.size()) {
    buf.clear();
    conn->rpos = 0;
  } else if (pos >= kCompactBytes) {
    // A partial frame straddles the buffer end: slide it to the front so the
    // consumed prefix never grows without bound.
    buf.erase(buf.begin(), buf.begin() + static_cast<long>(pos));
    conn->rpos = 0;
  }
  return true;
}

int SocketBus::FlushLocked(Conn& conn) {
  while (!conn.outq.empty()) {
    struct iovec iov[kMaxIovFrames * 2];
    int cnt = 0;
    size_t skip = conn.out_off;
    // Each frame contributes up to TWO iovecs (header + payload), so the
    // bound must leave room for both before the frame is admitted.
    for (auto it = conn.outq.begin();
         it != conn.outq.end() && cnt + 2 <= kMaxIovFrames * 2; ++it) {
      for (const std::vector<uint8_t>* part : {&it->header, &it->payload}) {
        if (skip >= part->size()) {
          skip -= part->size();
          continue;
        }
        iov[cnt].iov_base =
            const_cast<uint8_t*>(part->data()) + skip;
        iov[cnt].iov_len = part->size() - skip;
        skip = 0;
        ++cnt;
      }
    }
    if (cnt == 0) {  // nothing unsent (empty frames): drop them
      conn.outq.clear();
      conn.out_off = 0;
      break;
    }
    struct msghdr mh;
    memset(&mh, 0, sizeof(mh));
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<size_t>(cnt);
    ssize_t rc = ::sendmsg(conn.fd.get(), &mh, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      return -1;
    }
    size_t rem = conn.out_off + static_cast<size_t>(rc);
    while (!conn.outq.empty()) {
      const size_t frame_size =
          conn.outq.front().header.size() + conn.outq.front().payload.size();
      if (rem < frame_size) break;
      rem -= frame_size;
      conn.outq.pop_front();
    }
    conn.out_off = rem;
  }
  return 1;
}

void SocketBus::HandleWritable(const std::shared_ptr<Conn>& conn) {
  int rc;
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    rc = FlushLocked(*conn);
    if (rc < 0) {
      dropped = conn->outq.size();
      conn->outq.clear();
      conn->out_off = 0;
    }
  }
  if (rc < 0) {
    send_errors_.fetch_add(static_cast<int64_t>(dropped));
    DropConn(conn);
    return;
  }
  const bool want = (rc == 0);
  if (want != conn->want_write) {
    conn->want_write = want;
    UpdateInterest(conn, /*add=*/false);
  }
}

// ----------------------------------------------------------- bus interface

void SocketBus::CountRecv(size_t wire_bytes) {
  bytes_received_.fetch_add(static_cast<int64_t>(wire_bytes));
  frames_received_.fetch_add(1);
  if (net_received_counter_ != nullptr) {
    net_received_counter_->Increment(static_cast<int64_t>(wire_bytes));
  }
}

void SocketBus::Deliver(Message msg) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inboxes_[msg.to].push_back(std::move(msg));
  }
  inbox_cv_.notify_all();
}

void SocketBus::Send(Message msg) {
  Stamp(&msg);
  const std::string route = RouteOf(msg.to);
  if (route == opts_.local_name) {
    // Local loopback (a party messaging its own sub-inbox): no wire, so
    // charge the payload like the in-process transport would.
    Account(msg.from, msg.to, static_cast<int64_t>(msg.payload.size()));
    Deliver(std::move(msg));
    return;
  }
  std::shared_ptr<Conn> conn = Lookup(route);
  if (conn != nullptr && !conn->alive.load() && conn->dialed) {
    // One redial attempt per send: enough to ride out a peer restart
    // without turning a dead party into a spin loop.
    auto redial = Dial(conn->addr, 1000, /*is_reconnect=*/true);
    if (redial.ok()) {
      Register(std::move(redial).value(), /*from_loop=*/false);
      conn = Lookup(route);
    }
  }
  if (conn == nullptr || !conn->alive.load()) {
    send_errors_.fetch_add(1);
    return;  // receiver's timeout / liveness check surfaces the loss
  }
  const size_t wire = FrameSize(msg);
  // Charge the link before the write so accounting matches the wire even if
  // the kernel accepts only part of the frame before the peer vanishes.
  Account(msg.from, msg.to, static_cast<int64_t>(wire));
  OutFrame frame;
  frame.header = EncodeFrameHeader(msg);
  if (frame.header.empty()) {
    send_errors_.fetch_add(1);
    return;  // unframeable message (name over 255 bytes)
  }
  frame.payload = std::move(msg.payload);
  int rc;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->outq.push_back(std::move(frame));
    rc = FlushLocked(*conn);
    if (rc < 0) {
      conn->outq.clear();
      conn->out_off = 0;
    }
  }
  if (rc < 0) {
    conn->alive.store(false);
    send_errors_.fetch_add(1);
    inbox_cv_.notify_all();
    return;
  }
  bytes_sent_.fetch_add(static_cast<int64_t>(wire));
  frames_sent_.fetch_add(1);
  if (net_sent_counter_ != nullptr) {
    net_sent_counter_->Increment(static_cast<int64_t>(wire));
  }
  if (rc == 0) {
    // Kernel buffer full: the loop drains the remainder on EPOLLOUT.
    EnqueueCmd({LoopCmd::kArmWrite, conn});
    WakeLoop();
  }
}

Result<Message> SocketBus::Receive(const std::string& to) {
  return ReceiveTimeout(to, opts_.receive_timeout_ms);
}

void SocketBus::SetWaitHook(std::function<void()> hook, int interval_ms) {
  wait_hook_ = std::move(hook);
  wait_hook_interval_ms_ = std::max(1, interval_ms);
}

Result<Message> SocketBus::ReceiveTimeout(const std::string& to,
                                          int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const auto hook_interval = std::chrono::milliseconds(wait_hook_interval_ms_);
  // Traffic for other inboxes wakes the wait too, so the hook keeps its
  // own due time instead of restarting the interval on every wakeup.
  auto hook_due = Clock::now() + hook_interval;
  std::unique_lock<std::mutex> lock(inbox_mu_);
  for (;;) {
    auto it = inboxes_.find(to);
    if (it != inboxes_.end() && !it->second.empty()) {
      Message msg = std::move(it->second.front());
      it->second.pop_front();
      return msg;
    }
    const bool hook = wait_hook_ && !in_wait_hook_;
    const auto wake = hook ? std::min(deadline, hook_due) : deadline;
    if (inbox_cv_.wait_until(lock, wake) == std::cv_status::no_timeout) {
      continue;
    }
    if (Clock::now() >= deadline) {
      return Status::NotFound(StrFormat(
          "no message pending for %s (timed out after %dms)", to.c_str(),
          timeout_ms));
    }
    lock.unlock();
    in_wait_hook_ = true;
    wait_hook_();
    in_wait_hook_ = false;
    lock.lock();
    hook_due = Clock::now() + hook_interval;
  }
}

Result<Message> SocketBus::Expect(const std::string& to,
                                  const std::string& tag) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opts_.receive_timeout_ms);
  for (;;) {
    int remaining_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count());
    if (remaining_ms <= 0) remaining_ms = 1;
    auto msg = ReceiveTimeout(to, remaining_ms);
    if (!msg.ok()) return msg.status();
    if (msg->seq != 0) {
      uint64_t& last = seen_seq_[{msg->from, msg->to}];
      if (msg->seq <= last) {
        // A duplicate or an in-flight leftover from an aborted attempt: the
        // network equivalent of a message PurgeAll would have discarded.
        stale_dropped_.fetch_add(1);
        continue;
      }
      last = msg->seq;
    }
    if (msg->tag == kFlushTag) {
      // A barrier marker racing with a still-running exchange: stash it for
      // the Flush call that will want it, never hand it to the protocol.
      size_t off = 0;
      auto id = ConsumeU64(msg->payload, &off);
      early_markers_[msg->from] = id.ok() ? *id : 0;
      continue;
    }
    if (msg->tag != tag) {
      return Status::Internal("protocol desync on link " + msg->from + "->" +
                              to + ": expected '" + tag + "' but got '" +
                              msg->tag + "' (seq " +
                              std::to_string(msg->seq) + ")");
    }
    if (msg->checksum != 0 &&
        msg->checksum != smc::PayloadChecksum(msg->payload)) {
      return Status::IOError("corrupted payload on link " + msg->from + "->" +
                             to + ": checksum mismatch on '" + tag +
                             "' (seq " + std::to_string(msg->seq) + ")");
    }
    return msg;
  }
}

void SocketBus::PurgeAll() {
  std::lock_guard<std::mutex> lock(inbox_mu_);
  inboxes_.clear();
}

Status SocketBus::Flush(const std::vector<std::string>& peers,
                        uint64_t barrier_id) {
  std::set<std::string> pending(peers.begin(), peers.end());
  pending.erase(opts_.local_name);
  for (const std::string& peer : pending) {
    if (!PeerAlive(peer)) {
      return Status::Unavailable("flush barrier: link to " + peer +
                                 " is down");
    }
    Message marker;
    marker.from = opts_.local_name;
    marker.to = peer;
    marker.tag = kFlushTag;
    AppendU64(barrier_id, &marker.payload);
    Send(std::move(marker));
  }
  // Markers an Expect already swallowed count toward this barrier.
  for (auto it = early_markers_.begin(); it != early_markers_.end();) {
    if (it->second == barrier_id && pending.erase(it->first) > 0) {
      it = early_markers_.erase(it);
    } else {
      ++it;
    }
  }
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opts_.flush_timeout_ms);
  while (!pending.empty()) {
    int remaining_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count());
    if (remaining_ms <= 0) {
      std::string missing;
      for (const std::string& name : pending) {
        missing += missing.empty() ? name : ", " + name;
      }
      return Status::NotFound("flush barrier timed out waiting for " +
                              missing);
    }
    auto msg = ReceiveTimeout(opts_.local_name, remaining_ms);
    if (!msg.ok()) continue;  // loop re-checks the deadline
    if (msg->tag == kFlushTag) {
      size_t off = 0;
      auto id = ConsumeU64(msg->payload, &off);
      if (id.ok() && *id == barrier_id) pending.erase(msg->from);
      // Markers of another barrier are stale; fall through to discard.
    } else {
      // Ordinary traffic that was in flight when the barrier began: exactly
      // what the barrier exists to discard.
      stale_dropped_.fetch_add(1);
    }
  }
  // Per-link FIFO means every pre-barrier message has been delivered by the
  // time the marker arrives — so anything still queued in one of our
  // sub-inboxes (e.g. ":res") belongs to the aborted attempt. The ctl and hb
  // sub-inboxes are exempt: the coordinator link is not part of the barrier,
  // and a flush must never swallow a membership probe (a drained heartbeat
  // would read as a missed probe and could tip a healthy replica into
  // suspect during a perfectly normal retry purge).
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    const std::string prefix = opts_.local_name + ":";
    for (auto& [name, queue] : inboxes_) {
      if (name.rfind(prefix, 0) == 0 && name != prefix + "ctl" &&
          name != prefix + "hb" && !queue.empty()) {
        stale_dropped_.fetch_add(static_cast<int64_t>(queue.size()));
        queue.clear();
      }
    }
  }
  return Status::OK();
}

void SocketBus::AttachMetrics(obs::MetricsRegistry* registry) {
  MessageBus::AttachMetrics(registry);
  pool_.AttachMetrics(registry);
  net_sent_counter_ =
      registry ? registry->counter("net.bytes_sent") : nullptr;
  net_received_counter_ =
      registry ? registry->counter("net.bytes_received") : nullptr;
}

SocketBus::NetStats SocketBus::net_stats() const {
  NetStats s;
  s.bytes_sent = bytes_sent_.load();
  s.bytes_received = bytes_received_.load();
  s.frames_sent = frames_sent_.load();
  s.frames_received = frames_received_.load();
  s.connects = connects_.load();
  s.reconnects = reconnects_.load();
  s.stale_dropped = stale_dropped_.load();
  s.send_errors = send_errors_.load();
  return s;
}

}  // namespace hprl::net
