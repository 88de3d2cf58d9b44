#ifndef HPRL_NET_SOCKET_BUS_H_
#define HPRL_NET_SOCKET_BUS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/buffer_pool.h"
#include "net/frame.h"
#include "net/socket.h"
#include "smc/channel.h"

namespace hprl::net {

/// One named remote endpoint of the mesh.
struct PeerAddress {
  std::string name;  ///< party name ("alice", "bob", "qp", "coord")
  std::string host;
  uint16_t port = 0;
};

struct SocketBusOptions {
  /// This process's party name; messages addressed to it (or to
  /// "<name>:<channel>" sub-inboxes) are delivered locally.
  std::string local_name;

  /// Open a listening socket (daemons listen; the coordinator only dials).
  bool listen = false;
  uint16_t listen_port = 0;  ///< 0 = kernel-assigned; see listen_port()
  /// An already-listening socket to use instead of binding listen_port
  /// (-1 = bind). The bus owns it from construction. A caller that
  /// reserves ports for a whole mesh hands each listener over this way, so
  /// no other socket can take a published port before its daemon starts.
  int listen_fd = -1;

  /// Peers this process dials at Start() (retried until the connect
  /// deadline, so parties may come up in any order).
  std::vector<PeerAddress> dial;

  /// Peer names expected to dial in; Start() blocks until they all have.
  std::vector<std::string> accept_from;

  int connect_timeout_ms = 10000;  ///< total deadline for dialing + accepting
  int receive_timeout_ms = 4000;   ///< Receive/Expect block bound
  int flush_timeout_ms = 4000;     ///< Flush barrier deadline

  /// Dial retry policy (net/backoff.h): a refused connect is retried with
  /// exponential backoff from dial_backoff_ms doubling up to
  /// dial_backoff_max_ms, each wait stretched by a jitter fraction derived
  /// (not drawn — pinned seeds reproduce the exact dial schedule) from
  /// (dial_jitter_seed, local name, peer name, attempt), so a fleet
  /// restarting in lockstep does not knock in lockstep. After
  /// dial_max_attempts failed knocks on one peer, Start() gives up with
  /// Unavailable even if the connect deadline has time left.
  int dial_backoff_ms = 25;
  int dial_backoff_max_ms = 800;
  int dial_max_attempts = 64;
  uint64_t dial_jitter_seed = 1;
};

/// MessageBus over real TCP: the networked transport of the three-party
/// protocol. Each process runs one SocketBus; the buses form a full mesh
/// (every party one hop from every other), with each link carrying
/// length-prefixed frames (net/frame.h) that round-trip the Message struct
/// byte-exactly — so checksum and sequence validation at the receiver work
/// identically to the in-process transport.
///
/// Transport internals (wire bytes and MessageBus semantics unchanged):
/// instead of one blocking reader thread per connection, each bus runs a
/// single epoll event loop. Connections are nonblocking and edge-triggered;
/// inbound bytes land in a per-connection pooled reassembly buffer
/// (net/buffer_pool.h) and frames are decoded in place via FrameView — the
/// only copy a frame undergoes between the kernel and its inbox is the one
/// that materializes the owning Message. Outbound frames are scatter-gather
/// written (writev) as {header, payload} iovecs, so a payload is never
/// concatenated into a frame buffer; what the kernel does not accept
/// immediately is queued and drained by the loop on EPOLLOUT.
///
/// Differences from the in-process bus, all deliberate:
///  - Receive/Expect BLOCK until a message arrives or receive_timeout_ms
///    expires, then return NotFound — the same status an in-process drop
///    produces, so the PR 3 retry machinery heals a slow or lossy network
///    without knowing it is one.
///  - A lost connection surfaces as Unavailable (from sends' error counter
///    and receives that observe the closed link), which the supervision
///    layer treats as a dead party: quarantine, never retry.
///  - Expect silently discards stale-sequence messages (duplicates from an
///    aborted retry attempt still in flight) instead of failing: real
///    networks reorder and redeliver, and the checksum/seq metadata exists
///    exactly so the receiver can drop what the in-process PurgeAll would
///    have purged. Dropped messages are counted in net.stale_dropped.
///  - Byte accounting (links()/total_bytes()) charges the framed wire size,
///    not the bare payload: on a socket the header toll is real, and the
///    run report's measured-vs-accounted check holds the two within 5%.
///
/// Threading: Send/Receive/Expect/PurgeAll/Flush must be called from one
/// owner thread (the party's service loop). The event-loop thread only
/// appends to the locked inboxes and bumps atomic counters.
class SocketBus : public smc::MessageBus {
 public:
  explicit SocketBus(SocketBusOptions opts);
  ~SocketBus() override;

  SocketBus(const SocketBus&) = delete;
  SocketBus& operator=(const SocketBus&) = delete;

  /// Opens the listener, dials every peer in opts.dial (retrying until the
  /// connect deadline) and waits for every name in opts.accept_from to dial
  /// in. Unavailable when the mesh cannot be established in time.
  Status Start();

  /// Closes every connection and joins the event loop. Idempotent; called by
  /// the destructor.
  void Stop();

  /// The port the listener is actually bound to (resolves ephemeral 0).
  /// Atomic: callers may poll it while Start() runs on another thread.
  uint16_t listen_port() const { return bound_port_.load(); }

  /// True while `name`'s link is established and healthy.
  bool PeerAlive(const std::string& name) const;

  // MessageBus interface ----------------------------------------------------
  void Send(smc::Message msg) override;
  Result<smc::Message> Receive(const std::string& to) override;
  Result<smc::Message> Expect(const std::string& to,
                              const std::string& tag) override;
  void PurgeAll() override;
  void AttachMetrics(obs::MetricsRegistry* registry) override;

  /// Receive with an explicit deadline (the coordinator waits longer for a
  /// pair acknowledgement than for an idle poll).
  Result<smc::Message> ReceiveTimeout(const std::string& to, int timeout_ms);

  /// Runs `hook` on the owner thread every `interval_ms` that a receive
  /// (Receive, Expect, Flush) spends blocked with nothing to deliver. The
  /// party daemons answer heartbeat probes from it, so a daemon waiting out
  /// a protocol receive timeout still reads as alive. The hook may Send and
  /// make zero-timeout receives; it is never re-entered. Set before Start.
  void SetWaitHook(std::function<void()> hook, int interval_ms);

  /// Link-flush barrier used between retry attempts: sends a flush marker
  /// (carrying `barrier_id`) to each named peer, then discards every inbound
  /// message until markers with the same id arrive from all of them. Because
  /// each TCP link is ordered, once a peer's marker is seen everything that
  /// peer sent before its own purge has been received and discarded — the
  /// distributed equivalent of the in-process PurgeAll-between-attempts.
  /// A marker a concurrent Expect consumed before this call began still
  /// counts (Expect stashes it), so parties may enter the barrier in any
  /// order. NotFound on deadline; Unavailable when a named peer's link is
  /// down.
  Status Flush(const std::vector<std::string>& peers, uint64_t barrier_id);

  /// Socket-level traffic counters (frame bytes as written/read on fds).
  struct NetStats {
    int64_t bytes_sent = 0;
    int64_t bytes_received = 0;
    int64_t frames_sent = 0;
    int64_t frames_received = 0;
    int64_t connects = 0;    ///< links established (dialed + accepted)
    int64_t reconnects = 0;  ///< links re-established after a loss
    int64_t stale_dropped = 0;
    int64_t send_errors = 0;  ///< frames dropped on a dead link
  };
  NetStats net_stats() const;

  /// The read-side buffer pool (exposed for tests and metrics assertions).
  const BufferPool& buffer_pool() const { return pool_; }

 private:
  /// One frame staged for (or partially accepted by) a nonblocking send:
  /// header and payload stay separate vectors end to end — writev stitches
  /// them on the wire, never in memory.
  struct OutFrame {
    std::vector<uint8_t> header;
    std::vector<uint8_t> payload;
  };

  struct Conn {
    std::string name;  ///< empty while an accepted socket awaits its hello
    Fd fd;
    std::atomic<bool> alive{true};
    bool dialed = false;
    PeerAddress addr;  // redial target when dialed

    // Read reassembly state — event-loop thread only. rbuf holds unparsed
    // wire bytes; rpos is the parse cursor into it.
    BufferPool::Block rbuf;
    size_t rpos = 0;
    std::chrono::steady_clock::time_point accepted_at;  // hello deadline

    // Write state — write_mu guards outq/out_off between the owner thread's
    // direct writev attempt and the loop's EPOLLOUT drain.
    std::mutex write_mu;
    std::deque<OutFrame> outq;
    size_t out_off = 0;      ///< bytes of outq.front() already on the wire
    bool want_write = false; ///< EPOLLOUT armed — loop thread only
  };

  /// Cross-thread requests into the event loop, applied at the next wakeup
  /// (only the loop thread touches epoll interest lists and by_fd_).
  struct LoopCmd {
    enum Kind { kAddConn, kArmWrite, kRetire } kind;
    std::shared_ptr<Conn> conn;
  };

  /// Marker tag that never collides with protocol tags.
  static constexpr char kFlushTag[] = "hprl.flush";
  static constexpr char kHelloTag[] = "hprl.hello";

  void EventLoop();
  void AcceptReady();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Drains conn->outq with writev until empty or EAGAIN (loop thread).
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  /// Scatter-gather drain of outq; requires conn.write_mu held. Returns 1
  /// when the queue emptied, 0 on EAGAIN (kernel buffer full), -1 when the
  /// peer is gone.
  int FlushLocked(Conn& conn);
  /// Stops watching a replaced connection; its fd stays open until Stop()
  /// (a concurrent Send may still hold a reference). Loop thread only.
  void RetireConn(const std::shared_ptr<Conn>& conn);
  /// Decodes every complete frame in conn's reassembly buffer. False when
  /// the stream desynchronized and the connection was dropped.
  bool ParseFrames(const std::shared_ptr<Conn>& conn);
  /// Loop-side death: stop watching the fd, mark dead, wake receivers.
  void DropConn(const std::shared_ptr<Conn>& conn);
  void ProcessCmds();
  void SweepPendingHellos();
  void EnqueueCmd(LoopCmd cmd);
  void WakeLoop();
  /// Adds `fd` to the epoll set (loop thread). EPOLLOUT per want_write.
  void UpdateInterest(const std::shared_ptr<Conn>& conn, bool add);

  void Deliver(smc::Message msg);
  /// Registers (or replaces) `name`'s connection with the loop.
  void Register(std::shared_ptr<Conn> conn, bool from_loop);
  std::shared_ptr<Conn> Lookup(const std::string& name);
  /// Dials `addr`, performs the hello handshake, leaves the socket
  /// nonblocking. Counts a (re)connect.
  Result<std::shared_ptr<Conn>> Dial(const PeerAddress& addr, int timeout_ms,
                                     bool is_reconnect);
  /// Destination party of an addressed name ("alice:ctl" -> "alice").
  static std::string RouteOf(const std::string& to);
  /// Backed-off, jittered wait before dial attempt `attempt` + 1 to `peer`
  /// (delegates to net/backoff.h).
  int DialBackoffMs(const std::string& peer, int attempt) const;
  void CountRecv(size_t wire_bytes);

  SocketBusOptions opts_;
  Fd listener_;
  Fd epoll_fd_;
  Fd wake_fd_;  ///< eventfd the other threads poke to interrupt epoll_wait
  std::atomic<uint16_t> bound_port_{0};
  std::thread loop_thread_;
  std::atomic<bool> running_{false};

  BufferPool pool_;

  std::mutex cmd_mu_;
  std::vector<LoopCmd> cmds_;

  /// Loop-thread-only: every fd the loop watches, including accepted
  /// connections still anonymous (pre-hello).
  std::map<int, std::shared_ptr<Conn>> by_fd_;
  int pending_hellos_ = 0;  ///< anonymous conns awaiting hello (loop only)

  mutable std::mutex conns_mu_;
  std::condition_variable conns_cv_;
  std::map<std::string, std::shared_ptr<Conn>> conns_;
  std::vector<std::shared_ptr<Conn>> retired_conns_;  // fds closed at Stop()

  mutable std::mutex inbox_mu_;
  std::condition_variable inbox_cv_;
  std::map<std::string, std::deque<smc::Message>> inboxes_;

  /// Last delivered seq per (from, to): Expect's staleness filter.
  std::map<std::pair<std::string, std::string>, uint64_t> seen_seq_;

  std::function<void()> wait_hook_;  ///< owner thread only (SetWaitHook)
  int wait_hook_interval_ms_ = 0;
  bool in_wait_hook_ = false;

  /// Flush markers a concurrent Expect consumed before Flush began:
  /// sender -> barrier id of its latest marker. Owner-thread only.
  std::map<std::string, uint64_t> early_markers_;

  std::atomic<int64_t> bytes_sent_{0};
  std::atomic<int64_t> bytes_received_{0};
  std::atomic<int64_t> frames_sent_{0};
  std::atomic<int64_t> frames_received_{0};
  std::atomic<int64_t> connects_{0};
  std::atomic<int64_t> reconnects_{0};
  std::atomic<int64_t> stale_dropped_{0};
  std::atomic<int64_t> send_errors_{0};
  obs::Counter* net_sent_counter_ = nullptr;      // not owned
  obs::Counter* net_received_counter_ = nullptr;  // not owned
};

}  // namespace hprl::net

#endif  // HPRL_NET_SOCKET_BUS_H_
