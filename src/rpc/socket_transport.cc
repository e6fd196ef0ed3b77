#include "rpc/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

namespace kera::rpc {
namespace {

// epoll_event.data.u64 tags. Server loops: wake, listener, then conn ids.
// Client loop: wake, then NodeId + kClientConnTagBase.
constexpr uint64_t kWakeTag = 0;
constexpr uint64_t kListenTag = 1;
constexpr uint64_t kServerConnIdBase = 2;
constexpr uint64_t kClientConnTagBase = 1;

// Vectored-send width per flush. Linux IOV_MAX is 1024; 64 keeps the
// iovec array on the stack while still coalescing dozens of frames (or
// all the scatter-gather pieces of a large parts frame) per syscall.
constexpr int kMaxIov = 64;

// Size of each connection's fixed read buffer.
constexpr size_t kReadBufferBytes = 64 * 1024;
// Wire framing: u32 length then u64 request id.
constexpr size_t kHeaderBytes = 12;
constexpr size_t kRequestIdBytes = 8;

Status Errno(const char* what) {
  return Status(StatusCode::kInternal,
                std::string(what) + ": " + std::strerror(errno));
}

void SetNoDelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void AddToEpoll(int epoll_fd, int fd, uint32_t events, uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  (void)epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
}

void ModEpoll(int epoll_fd, int fd, uint32_t events, uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  (void)epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
}

void DrainEventFd(int fd) {
  uint64_t count;
  while (read(fd, &count, sizeof(count)) > 0) {
  }
}

void SignalEventFd(int fd) {
  uint64_t one = 1;
  ssize_t n;
  do {
    n = write(fd, &one, sizeof(one));
  } while (n < 0 && errno == EINTR);
}

}  // namespace

/// Reassembles the frames of one connection's byte stream. Bytes land in
/// a fixed buffer of kReadBufferBytes; a frame too large for it is read
/// into pieces of kReadBufferBytes, added one at a time as its bytes
/// arrive, and copied once into a vector of exactly its payload size when
/// complete. A length field alone thus commits no memory: a connection
/// holds the fixed buffer plus the pieces of the one large frame it is
/// receiving, one piece more than its bytes received so far, whatever it
/// received before. Pieces are heap blocks that malloc reuses from frame
/// to frame, and the copy fills the vector without zero-filling it first.
class SocketNetwork::FrameReader {
 public:
  /// Reads until the socket would block and passes each complete frame
  /// to `on_frame(request_id, payload)`. Returns false when the
  /// connection must close: the peer closed it, a read failed, or a
  /// length field is out of range (corrupt framing).
  template <typename OnFrame>
  bool Read(int fd, size_t max_frame_bytes, Stats& stats, OnFrame&& on_frame) {
    while (true) {
      const bool into_large = large_len_ != 0;
      if (into_large && piece_filled_ == kReadBufferBytes) AddPiece();
      std::byte* dst = into_large ? pieces_.back().get() + piece_filled_
                                  : buf_.get() + len_;
      const size_t room =
          into_large ? std::min(kReadBufferBytes - piece_filled_,
                                large_len_ - large_filled_)
                     : kReadBufferBytes - len_;
      ssize_t n = read(fd, dst, room);
      if (n == 0) return false;  // peer closed
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      stats.bytes_received += uint64_t(n);
      if (into_large) {
        piece_filled_ += size_t(n);
        large_filled_ += size_t(n);
        if (large_filled_ == large_len_) {
          ++stats.large_frames_read;
          on_frame(large_id_, TakeLarge());
        }
      } else {
        len_ += size_t(n);
        if (!Parse(max_frame_bytes, on_frame)) return false;
      }
    }
  }

 private:
  /// Hands on the complete frames in the fixed buffer and moves a partial
  /// one to its front, or into the first piece when it cannot fit.
  /// Afterwards the fixed buffer always has room to read into.
  template <typename OnFrame>
  bool Parse(size_t max_frame_bytes, OnFrame& on_frame) {
    while (len_ - pos_ >= 4) {
      uint32_t len;
      std::memcpy(&len, buf_.get() + pos_, 4);
      if (len < kRequestIdBytes || len > max_frame_bytes) return false;
      const size_t wire = 4 + size_t(len);
      const size_t have = len_ - pos_;
      if (wire > kReadBufferBytes) {
        if (have < kHeaderBytes) break;
        // Everything buffered from here on belongs to this frame (it is
        // shorter than the frame), so the fixed buffer empties into the
        // first piece.
        std::memcpy(&large_id_, buf_.get() + pos_ + 4, kRequestIdBytes);
        large_len_ = len - kRequestIdBytes;
        AddPiece();
        large_filled_ = piece_filled_ = have - kHeaderBytes;
        std::memcpy(pieces_.back().get(), buf_.get() + pos_ + kHeaderBytes,
                    large_filled_);
        pos_ = len_ = 0;
        return true;
      }
      if (have < wire) break;
      uint64_t id;
      std::memcpy(&id, buf_.get() + pos_ + 4, kRequestIdBytes);
      const std::byte* payload = buf_.get() + pos_ + kHeaderBytes;
      on_frame(id, std::vector<std::byte>(payload,
                                          payload + len - kRequestIdBytes));
      pos_ += wire;
    }
    if (pos_ == len_) {
      pos_ = len_ = 0;
    } else if (pos_ > 0) {
      std::memmove(buf_.get(), buf_.get() + pos_, len_ - pos_);
      len_ -= pos_;
      pos_ = 0;
    }
    return true;
  }

  void AddPiece() {
    pieces_.push_back(
        std::make_unique_for_overwrite<std::byte[]>(kReadBufferBytes));
    piece_filled_ = 0;
  }

  /// The complete large frame's payload, copied out of its pieces.
  std::vector<std::byte> TakeLarge() {
    std::vector<std::byte> payload;
    payload.reserve(large_len_);
    for (const auto& piece : pieces_) {
      const size_t n = std::min(kReadBufferBytes, large_len_ - payload.size());
      payload.insert(payload.end(), piece.get(), piece.get() + n);
    }
    pieces_.clear();
    large_len_ = large_filled_ = 0;
    return payload;
  }

  std::unique_ptr<std::byte[]> buf_ =
      std::make_unique_for_overwrite<std::byte[]>(kReadBufferBytes);
  size_t pos_ = 0;  // first unparsed byte
  size_t len_ = 0;  // bytes read into buf_
  /// The large frame being received: its payload size (0 when none is),
  /// the bytes of it received, and the pieces holding them, the last one
  /// filled to `piece_filled_`.
  size_t large_len_ = 0;
  size_t large_filled_ = 0;
  uint64_t large_id_ = 0;
  std::vector<std::unique_ptr<std::byte[]>> pieces_;
  size_t piece_filled_ = 0;
};

// ---------------------------------------------------------------- state

struct SocketNetwork::ServerConn {
  uint64_t id = 0;
  int fd = -1;
  FrameReader reader;
  std::deque<OutFrame> wq;
  bool want_write = false;
};

/// One per-core reactor of a registered node: an epoll IO thread that
/// owns a slice of the node's accepted connections, plus a worker pool
/// draining the requests routed to this shard.
struct SocketNetwork::ServerShard {
  int index = 0;
  int epoll_fd = -1;
  int wake_fd = -1;
  /// Wake coalescing: set by WakeShard before signalling the eventfd (at
  /// most one signal per flag set); cleared by the IO thread strictly
  /// AFTER draining the eventfd — same ordering as the client wake path,
  /// for the same lost-wakeup reason.
  std::atomic<bool> wake_pending{false};

  struct Work {
    uint64_t conn_id = 0;
    int conn_shard = 0;  // shard owning the connection (response routing)
    uint64_t request_id = 0;
    std::vector<std::byte> request;
  };
  BlockingQueue<Work> queue;

  // Staged by other threads for this shard's IO thread: finished worker
  // responses, and connections the acceptor (shard 0) assigned here.
  std::mutex resp_mu;
  std::vector<std::pair<uint64_t, OutFrame>> responses;
  std::vector<std::unique_ptr<ServerConn>> adopted;

  // Owned exclusively by this shard's IO thread.
  std::unordered_map<uint64_t, std::unique_ptr<ServerConn>> conns;

  std::thread io;
  std::vector<std::thread> workers;

  void Join() {
    if (io.joinable()) io.join();
    for (auto& w : workers) {
      if (w.joinable()) w.join();
    }
  }

  ~ServerShard() {
    Join();
    if (wake_fd >= 0) close(wake_fd);
    if (epoll_fd >= 0) close(epoll_fd);
  }
};

struct SocketNetwork::ServerNode {
  NodeId id = 0;
  std::atomic<RpcHandler*> handler{nullptr};
  uint16_t port = 0;
  size_t max_frame_bytes = 0;
  int listen_fd = -1;  // registered with shard 0's epoll
  std::atomic<bool> stop{false};
  /// Registration shape, kept so Restore revives the node as it was.
  NodeOptions opts;
  std::vector<std::unique_ptr<ServerShard>> shards;
  // Owned by the accepting (shard-0) IO thread: round-robin placement
  // cursor and the node-wide connection id counter (ids are unique across
  // shards so responses can never route to a reused id).
  uint64_t next_accept = 0;
  uint64_t next_conn_id = kServerConnIdBase;

  ~ServerNode() {
    // Join every shard before freeing any: a worker stages its response
    // on the shard that owns the connection, which may be another one.
    for (auto& shard : shards) shard->Join();
    shards.clear();
    if (listen_fd >= 0) close(listen_fd);
  }
};

struct SocketNetwork::ClientConn {
  NodeId dest = 0;
  int fd = -1;
  std::deque<OutFrame> wq;
  std::unordered_map<uint64_t, std::promise<Result<std::vector<std::byte>>>>
      pending;
  FrameReader reader;
  bool want_write = false;
};

// ----------------------------------------------------------- lifecycle

SocketNetwork::SocketNetwork() : SocketNetwork(Options{}) {}

SocketNetwork::SocketNetwork(Options options) : options_(std::move(options)) {
  client_epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  client_wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  AddToEpoll(client_epoll_fd_, client_wake_fd_, EPOLLIN, kWakeTag);
  client_thread_ = std::thread([this] { ClientIoLoop(); });
}

SocketNetwork::~SocketNetwork() { Shutdown(); }

void SocketNetwork::Shutdown() {
  std::map<NodeId, std::unique_ptr<ServerNode>> nodes;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    if (shutdown_) return;
    shutdown_ = true;
    nodes.swap(nodes_);
  }
  for (auto& [_, n] : nodes) {
    SignalServerStop(n.get());
    for (auto& shard : n->shards) shard->queue.Shutdown();
  }
  nodes.clear();  // joins IO + workers per node

  client_stop_.store(true, std::memory_order_release);
  SignalEventFd(client_wake_fd_);
  if (client_thread_.joinable()) client_thread_.join();
  {
    std::lock_guard<std::mutex> lock(client_mu_);
    for (auto& [_, conn] : conns_) {
      for (auto& [id, promise] : conn->pending) {
        promise.set_value(
            Status(StatusCode::kUnavailable, "network shut down"));
      }
      if (conn->fd >= 0) close(conn->fd);
    }
    conns_.clear();
  }
  if (client_wake_fd_ >= 0) close(client_wake_fd_);
  if (client_epoll_fd_ >= 0) close(client_epoll_fd_);
  client_wake_fd_ = client_epoll_fd_ = -1;
}

// ---------------------------------------------------------- server side

Result<uint16_t> SocketNetwork::Register(NodeId node, RpcHandler* handler,
                                         uint16_t port) {
  NodeOptions opts;
  opts.port = port;
  return Register(node, handler, std::move(opts));
}

Result<uint16_t> SocketNetwork::Register(NodeId node, RpcHandler* handler,
                                         NodeOptions node_options) {
  auto n = std::make_unique<ServerNode>();
  n->id = node;
  n->handler.store(handler, std::memory_order_release);
  n->max_frame_bytes = options_.max_frame_bytes;
  n->opts = std::move(node_options);
  const int nshards = std::max(1, n->opts.shards);
  n->opts.shards = nshards;

  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  n->listen_fd = fd;
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(n->opts.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status(StatusCode::kInvalidArgument,
                  "bad listen host: " + options_.host);
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (listen(fd, 128) != 0) return Errno("listen");
  socklen_t addr_len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    return Errno("getsockname");
  }
  n->port = ntohs(addr.sin_port);

  for (int s = 0; s < nshards; ++s) {
    auto shard = std::make_unique<ServerShard>();
    shard->index = s;
    shard->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    shard->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (shard->epoll_fd < 0 || shard->wake_fd < 0) {
      return Errno("epoll/eventfd");
    }
    AddToEpoll(shard->epoll_fd, shard->wake_fd, EPOLLIN, kWakeTag);
    n->shards.push_back(std::move(shard));
  }
  // The listener lives on shard 0's reactor; accepted connections are
  // dealt round-robin to all shards.
  AddToEpoll(n->shards[0]->epoll_fd, n->listen_fd, EPOLLIN, kListenTag);

  const int workers_per_shard =
      nshards == 1 ? Options::workers_per_node
                   : std::max(2, Options::workers_per_node / nshards);

  uint16_t bound = n->port;
  ServerNode* raw = n.get();
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    if (shutdown_) {
      return Status(StatusCode::kUnavailable, "network shut down");
    }
    if (nodes_.count(node) != 0) {
      return Status(StatusCode::kAlreadyExists, "node already registered");
    }
    // Threads spawn under nodes_mu_ so a racing Shutdown either refuses
    // this registration or sees the node (and joins it).
    for (auto& shard : raw->shards) {
      ServerShard* sh = shard.get();
      sh->io = std::thread([this, raw, sh] { ServerIoLoop(raw, sh); });
      sh->workers.reserve(size_t(workers_per_shard));
      for (int i = 0; i < workers_per_shard; ++i) {
        sh->workers.emplace_back(
            [this, raw, sh] { ServerWorkerLoop(raw, sh); });
      }
    }
    nodes_[node] = std::move(n);
  }
  {
    std::lock_guard<std::mutex> lock(client_mu_);
    peers_[node] = PeerAddr{options_.host, bound};
  }
  return bound;
}

void SocketNetwork::Crash(NodeId node) {
  std::unique_ptr<ServerNode> n;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    auto it = nodes_.find(node);
    if (it == nodes_.end()) return;
    n = std::move(it->second);
    nodes_.erase(it);
    NodeOptions shape = n->opts;
    shape.port = n->port;
    crashed_[node] = std::move(shape);
  }
  SignalServerStop(n.get());
  for (auto& shard : n->shards) shard->queue.Shutdown();
  // The IO threads never run handlers, so they exit promptly, closing the
  // listener and every accepted connection — clients see the connection
  // die and fail their in-flight requests, like a real machine crash.
  // Every shard's eventfd was signalled above, so no shard loop can stay
  // parked in epoll_wait. Workers skip what is still queued and finish
  // the handler they are in; their responses are dropped. Destroying the
  // node joins them all, so no thread is left inside the handler.
  n.reset();
}

Result<uint16_t> SocketNetwork::Restore(NodeId node, RpcHandler* handler) {
  NodeOptions opts;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    if (shutdown_) {
      return Status(StatusCode::kUnavailable, "network shut down");
    }
    auto it = nodes_.find(node);
    if (it != nodes_.end()) {
      // Not crashed: just swap the handler.
      it->second->handler.store(handler, std::memory_order_release);
      return it->second->port;
    }
    // Revive the node with the shape it had before the crash: the same
    // port (so remote peers' routes stay valid), shard count and router.
    auto c = crashed_.find(node);
    if (c != crashed_.end()) opts = c->second;
  }
  uint16_t preferred = opts.port;
  auto bound = Register(node, handler, opts);
  if (!bound.ok() && preferred != 0) {
    opts.port = 0;  // port taken meanwhile
    bound = Register(node, handler, std::move(opts));
  }
  return bound;
}

Result<uint16_t> SocketNetwork::Port(NodeId node) const {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return Status(StatusCode::kNotFound, "node not registered");
  }
  return it->second->port;
}

void SocketNetwork::SetPeer(NodeId node, const std::string& host,
                            uint16_t port) {
  std::lock_guard<std::mutex> lock(client_mu_);
  peers_[node] = PeerAddr{host, port};
}

void SocketNetwork::WakeShard(ServerShard* shard) {
  if (!shard->wake_pending.exchange(true, std::memory_order_acq_rel)) {
    SignalEventFd(shard->wake_fd);
  }
}

void SocketNetwork::SignalServerStop(ServerNode* node) {
  node->stop.store(true, std::memory_order_release);
  // Signal every shard's eventfd directly (not via WakeShard): the stop
  // must land even when a shard's wake_pending flag is already set.
  for (auto& shard : node->shards) SignalEventFd(shard->wake_fd);
}

void SocketNetwork::ServerWorkerLoop(ServerNode* node, ServerShard* shard) {
  while (auto work = shard->queue.Pop()) {
    if (node->stop.load(std::memory_order_acquire)) continue;
    RpcHandler* handler = node->handler.load(std::memory_order_acquire);
    std::vector<std::byte> response = handler->HandleRpc(work->request);

    OutFrame frame;
    uint32_t len = uint32_t(kRequestIdBytes + response.size());
    std::memcpy(frame.header.data(), &len, 4);
    std::memcpy(frame.header.data() + 4, &work->request_id, 8);
    frame.owned = std::move(response);
    frame.total = kHeaderBytes + frame.owned.size();
    // The response goes back through the reactor owning the connection it
    // arrived on — possibly not this worker's shard when a router sent
    // the frame here.
    ServerShard* home = node->shards[size_t(work->conn_shard)].get();
    {
      std::lock_guard<std::mutex> lock(home->resp_mu);
      if (node->stop.load(std::memory_order_acquire)) continue;
      home->responses.emplace_back(work->conn_id, std::move(frame));
    }
    WakeShard(home);
  }
}

SocketNetwork::FlushStatus SocketNetwork::FlushFrameQueue(
    int fd, std::deque<OutFrame>& wq) {
  while (!wq.empty()) {
    iovec iov[kMaxIov];
    int niov = 0;
    for (const OutFrame& f : wq) {
      size_t skip = f.written;
      auto offer = [&](std::span<const std::byte> piece) {
        if (piece.empty() || niov == kMaxIov) return;
        if (skip >= piece.size()) {
          skip -= piece.size();
          return;
        }
        iov[niov].iov_base =
            const_cast<std::byte*>(piece.data() + skip);
        iov[niov].iov_len = piece.size() - skip;
        ++niov;
        skip = 0;
      };
      offer(f.header);
      offer(f.owned);
      for (const auto& p : f.pieces) offer(p);
      if (niov == kMaxIov) break;
    }

    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = size_t(niov);
    ssize_t sent = sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return FlushStatus::kPartial;
      return FlushStatus::kError;
    }
    ++stats_.sendmsg_calls;
    stats_.bytes_sent += uint64_t(sent);
    size_t rem = size_t(sent);
    while (rem > 0 && !wq.empty()) {
      OutFrame& f = wq.front();
      size_t left = f.total - f.written;
      if (rem >= left) {
        rem -= left;
        ++stats_.frames_sent;
        wq.pop_front();
      } else {
        f.written += rem;
        rem = 0;
      }
    }
  }
  return FlushStatus::kDrained;
}

void SocketNetwork::ServerFlushConn(ServerShard* shard, ServerConn* conn) {
  FlushStatus fs = FlushFrameQueue(conn->fd, conn->wq);
  if (fs == FlushStatus::kError) {
    // Peer is gone; drop the connection (the client side fails its
    // pending requests when it observes the close).
    (void)epoll_ctl(shard->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    close(conn->fd);
    shard->conns.erase(conn->id);
    return;
  }
  bool need_write = fs == FlushStatus::kPartial;
  if (need_write != conn->want_write) {
    conn->want_write = need_write;
    ModEpoll(shard->epoll_fd, conn->fd,
             need_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN, conn->id);
  }
}

bool SocketNetwork::ServerReadConn(ServerNode* node, ServerShard* shard,
                                   ServerConn* conn) {
  // Each complete request frame goes to the workers as it is decoded.
  // With a router and shards > 1 it is dispatched to the worker pool of
  // the shard that owns its data — decided here, at decode time, before
  // any queue — so a shared-nothing handler sees a streamlet's frames on
  // one shard regardless of which connection carried them.
  const int nshards = int(node->shards.size());
  auto dispatch = [&](uint64_t request_id, std::vector<std::byte> request) {
    ServerShard::Work work;
    work.conn_id = conn->id;
    work.conn_shard = shard->index;
    work.request_id = request_id;
    work.request = std::move(request);
    int target = shard->index;
    if (nshards > 1 && node->opts.router) {
      int routed = node->opts.router(
          std::span<const std::byte>(work.request), nshards);
      if (routed >= 0 && routed < nshards) target = routed;
    }
    node->shards[size_t(target)]->queue.Push(std::move(work));
  };
  if (conn->reader.Read(conn->fd, node->max_frame_bytes, stats_, dispatch)) {
    return true;
  }
  (void)epoll_ctl(shard->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  shard->conns.erase(conn->id);
  return false;
}

void SocketNetwork::CloseServerConns(ServerShard* shard) {
  for (auto& [_, conn] : shard->conns) close(conn->fd);
  shard->conns.clear();
  {
    std::lock_guard<std::mutex> lock(shard->resp_mu);
    for (auto& conn : shard->adopted) close(conn->fd);
    shard->adopted.clear();
  }
}

void SocketNetwork::ServerIoLoop(ServerNode* node, ServerShard* shard) {
  epoll_event events[64];
  while (true) {
    int nev = epoll_wait(shard->epoll_fd, events, 64, -1);
    if (nev < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (node->stop.load(std::memory_order_acquire)) break;
    bool stopped = false;
    for (int i = 0; i < nev; ++i) {
      uint64_t tag = events[i].data.u64;
      uint32_t ev = events[i].events;
      if (tag == kWakeTag) {
        std::function<void()> before, after;
        if (server_hooks_armed_.load(std::memory_order_acquire)) {
          std::lock_guard<std::mutex> lock(server_hook_mu_);
          before = server_hook_before_drain_;
          after = server_hook_after_drain_;
        }
        if (before) before();
        // Drain strictly BEFORE clearing the pending flag — the same
        // ordering as the client wake path, for the same reason: the
        // eventfd read consumes every accumulated token, so clearing
        // first would let a concurrent WakeShard's token be eaten while
        // the flag stays set, and the next worker would skip its signal
        // with its response staged but unrouted (lost wakeup).
        DrainEventFd(shard->wake_fd);
        if (after) after();
        shard->wake_pending.store(false, std::memory_order_release);
        // Re-check stop: Crash/Shutdown signal the eventfd directly, and
        // the drain above may have just consumed that token alongside
        // worker wake tokens. stop is stored before the signal, so if we
        // ate the token we must see the flag here; a strand here would
        // leave this shard's loop (and a Crash joining it) stuck in
        // epoll_wait forever.
        if (node->stop.load(std::memory_order_acquire)) {
          stopped = true;
          break;
        }
      } else if (tag == kListenTag) {
        while (true) {
          int fd = accept4(node->listen_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd < 0) break;
          SetNoDelay(fd);
          auto conn = std::make_unique<ServerConn>();
          conn->fd = fd;
          // Deal connections round-robin across the shards; remote ones
          // are handed to their reactor through its staging list.
          ServerShard* target =
              node->shards[node->next_accept++ % node->shards.size()].get();
          conn->id = node->next_conn_id++;
          if (target == shard) {
            AddToEpoll(shard->epoll_fd, fd, EPOLLIN, conn->id);
            shard->conns[conn->id] = std::move(conn);
          } else {
            {
              std::lock_guard<std::mutex> lock(target->resp_mu);
              target->adopted.push_back(std::move(conn));
            }
            WakeShard(target);
          }
        }
      } else {
        auto it = shard->conns.find(tag);
        if (it == shard->conns.end()) continue;  // destroyed this batch
        ServerConn* conn = it->second.get();
        if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
          (void)epoll_ctl(shard->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
          close(conn->fd);
          shard->conns.erase(it);
          continue;
        }
        if ((ev & EPOLLIN) != 0 && !ServerReadConn(node, shard, conn)) {
          continue;
        }
        if ((ev & EPOLLOUT) != 0) ServerFlushConn(shard, conn);
      }
    }
    if (stopped) break;
    // Adopt connections the acceptor assigned here, route staged worker
    // responses to their connections, then flush everything that has
    // queued frames in one vectored send each.
    std::vector<std::unique_ptr<ServerConn>> adopted;
    std::vector<std::pair<uint64_t, OutFrame>> batch;
    {
      std::lock_guard<std::mutex> lock(shard->resp_mu);
      adopted.swap(shard->adopted);
      batch.swap(shard->responses);
    }
    for (auto& conn : adopted) {
      AddToEpoll(shard->epoll_fd, conn->fd, EPOLLIN, conn->id);
      uint64_t id = conn->id;
      shard->conns[id] = std::move(conn);
    }
    for (auto& [conn_id, frame] : batch) {
      auto it = shard->conns.find(conn_id);
      if (it == shard->conns.end()) continue;  // conn died; drop response
      it->second->wq.push_back(std::move(frame));
    }
    for (auto it = shard->conns.begin(); it != shard->conns.end();) {
      ServerConn* conn = (it++)->second.get();  // flush may erase
      if (!conn->wq.empty() && !conn->want_write) {
        ServerFlushConn(shard, conn);
      }
    }
  }
  CloseServerConns(shard);
  if (shard->index == 0 && node->listen_fd >= 0) {
    close(node->listen_fd);
    node->listen_fd = -1;
  }
}

// ---------------------------------------------------------- client side

SocketNetwork::ClientConn* SocketNetwork::GetOrConnectLocked(NodeId to,
                                                             Status& error) {
  auto it = conns_.find(to);
  if (it != conns_.end()) return it->second.get();

  auto peer = peers_.find(to);
  if (peer == peers_.end()) {
    error = Status(StatusCode::kUnavailable, "no route to node");
    return nullptr;
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = Errno("socket");
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer->second.port);
  if (inet_pton(AF_INET, peer->second.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    error = Status(StatusCode::kInvalidArgument,
                   "bad peer host: " + peer->second.host);
    return nullptr;
  }
  // Blocking connect: instantaneous on loopback/LAN, and a dead peer
  // answers with ECONNREFUSED immediately — the kUnavailable the fault
  // tests expect.
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    close(fd);
    error = Status(StatusCode::kUnavailable,
                   std::string("connect: ") + std::strerror(errno));
    return nullptr;
  }
  SetNoDelay(fd);
  int flags = fcntl(fd, F_GETFL, 0);
  (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  auto conn = std::make_unique<ClientConn>();
  conn->dest = to;
  conn->fd = fd;
  ClientConn* raw = conn.get();
  AddToEpoll(client_epoll_fd_, fd, EPOLLIN, uint64_t(to) + kClientConnTagBase);
  conns_[to] = std::move(conn);
  ++stats_.connections_opened;
  return raw;
}

std::future<Result<std::vector<std::byte>>> SocketNetwork::EnqueueLocked(
    ClientConn* conn, OutFrame frame, uint64_t request_id) {
  std::promise<Result<std::vector<std::byte>>> promise;
  auto future = promise.get_future();
  conn->pending.emplace(request_id, std::move(promise));
  conn->wq.push_back(std::move(frame));
  return future;
}

void SocketNetwork::WakeClient() {
  if (!client_wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    SignalEventFd(client_wake_fd_);
  }
}

void SocketNetwork::SetClientWakeHooksForTest(
    std::function<void()> before_drain, std::function<void()> after_drain) {
  std::lock_guard<std::mutex> lock(client_mu_);
  wake_hook_before_drain_ = std::move(before_drain);
  wake_hook_after_drain_ = std::move(after_drain);
}

void SocketNetwork::SignalClientStopForTest() {
  client_stop_.store(true, std::memory_order_release);
  SignalEventFd(client_wake_fd_);
}

void SocketNetwork::SetServerWakeHooksForTest(
    std::function<void()> before_drain, std::function<void()> after_drain) {
  std::lock_guard<std::mutex> lock(server_hook_mu_);
  server_hook_before_drain_ = std::move(before_drain);
  server_hook_after_drain_ = std::move(after_drain);
  server_hooks_armed_.store(
      server_hook_before_drain_ != nullptr ||
          server_hook_after_drain_ != nullptr,
      std::memory_order_release);
}

void SocketNetwork::InjectServerWakeForTest(NodeId node, int shard) {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  auto& shards = it->second->shards;
  if (shard < 0 || size_t(shard) >= shards.size()) return;
  WakeShard(shards[size_t(shard)].get());
}

void SocketNetwork::SignalServerStopForTest(NodeId node) {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  SignalServerStop(it->second.get());
}

void SocketNetwork::DestroyClientConnLocked(NodeId dest, const Status& why) {
  auto it = conns_.find(dest);
  if (it == conns_.end()) return;
  ClientConn* conn = it->second.get();
  for (auto& [id, promise] : conn->pending) {
    promise.set_value(why);
  }
  (void)epoll_ctl(client_epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  conns_.erase(it);
}

void SocketNetwork::FlushClientConnLocked(ClientConn* conn) {
  FlushStatus fs = FlushFrameQueue(conn->fd, conn->wq);
  if (fs == FlushStatus::kError) {
    DestroyClientConnLocked(
        conn->dest, Status(StatusCode::kUnavailable, "connection lost"));
    return;
  }
  bool need_write = fs == FlushStatus::kPartial;
  if (need_write != conn->want_write) {
    conn->want_write = need_write;
    ModEpoll(client_epoll_fd_, conn->fd,
             need_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN,
             uint64_t(conn->dest) + kClientConnTagBase);
  }
}

bool SocketNetwork::ReadClientConnLocked(ClientConn* conn) {
  // Demultiplex response frames to their pending calls by request id.
  auto deliver = [&](uint64_t id, std::vector<std::byte> response) {
    auto pending = conn->pending.find(id);
    if (pending == conn->pending.end()) return;
    pending->second.set_value(std::move(response));
    conn->pending.erase(pending);
  };
  if (conn->reader.Read(conn->fd, options_.max_frame_bytes, stats_, deliver)) {
    return true;
  }
  DestroyClientConnLocked(conn->dest,
                          Status(StatusCode::kUnavailable, "connection lost"));
  return false;
}

void SocketNetwork::ClientIoLoop() {
  epoll_event events[64];
  while (true) {
    int nev = epoll_wait(client_epoll_fd_, events, 64, -1);
    if (nev < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::lock_guard<std::mutex> lock(client_mu_);
    if (client_stop_.load(std::memory_order_acquire)) return;
    for (int i = 0; i < nev; ++i) {
      uint64_t tag = events[i].data.u64;
      uint32_t ev = events[i].events;
      if (tag == kWakeTag) {
        if (wake_hook_before_drain_) wake_hook_before_drain_();
        // Drain strictly BEFORE clearing the pending flag. The eventfd
        // read consumes every accumulated token, so clearing first would
        // let a concurrent WakeClient's token be eaten while the flag
        // stays set — and the next caller would skip its signal with its
        // frame unflushed (lost wakeup). With this order, any enqueue is
        // serialized by client_mu_ either before this pass (its frame is
        // flushed below) or after the clear (its WakeClient signals).
        DrainEventFd(client_wake_fd_);
        // The after-drain hook runs INSIDE the drain-to-clear window so a
        // test can inject a WakeClient at the exact point where the old
        // ordering (clear first, then drain) would eat its token and
        // strand the pending flag. With the correct order the injection
        // is a no-op: the flag is still set, so WakeClient skips its
        // signal, and the clear below leaves a clean slate.
        if (wake_hook_after_drain_) wake_hook_after_drain_();
        client_wake_pending_.store(false, std::memory_order_release);
        // Re-check stop: Shutdown signals the eventfd directly, and the
        // drain above may have just consumed that token. client_stop_ is
        // stored before the signal, so if we ate the token we must see
        // the flag here; if we didn't, the token survives and wakes the
        // next epoll_wait, where the top-of-pass check catches it.
        if (client_stop_.load(std::memory_order_acquire)) return;
        continue;
      }
      NodeId dest = NodeId(tag - kClientConnTagBase);
      auto it = conns_.find(dest);
      if (it == conns_.end()) continue;  // destroyed earlier in this batch
      ClientConn* conn = it->second.get();
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        DestroyClientConnLocked(
            dest, Status(StatusCode::kUnavailable, "connection lost"));
        continue;
      }
      if ((ev & EPOLLIN) != 0 && !ReadClientConnLocked(conn)) continue;
      if ((ev & EPOLLOUT) != 0) FlushClientConnLocked(conn);
    }
    // Flush every connection with newly queued frames: frames enqueued
    // since the last pass coalesce into one vectored send here.
    for (auto it = conns_.begin(); it != conns_.end();) {
      ClientConn* conn = (it++)->second.get();  // flush may erase
      if (!conn->wq.empty() && !conn->want_write) {
        FlushClientConnLocked(conn);
      }
    }
  }
}

// ------------------------------------------------------------ call paths

std::future<Result<std::vector<std::byte>>> SocketNetwork::CallAsync(
    NodeId to, std::span<const std::byte> request) {
  ++stats_.calls;
  stats_.tx_copied_bytes += request.size();
  OutFrame frame;
  frame.owned.assign(request.begin(), request.end());
  frame.total = kHeaderBytes + frame.owned.size();
  std::future<Result<std::vector<std::byte>>> future;
  {
    std::lock_guard<std::mutex> lock(client_mu_);
    if (client_stop_.load(std::memory_order_acquire)) {
      std::promise<Result<std::vector<std::byte>>> promise;
      promise.set_value(Status(StatusCode::kUnavailable, "network shut down"));
      return promise.get_future();
    }
    Status error = OkStatus();
    ClientConn* conn = GetOrConnectLocked(to, error);
    if (conn == nullptr) {
      std::promise<Result<std::vector<std::byte>>> promise;
      promise.set_value(error);
      return promise.get_future();
    }
    uint64_t id = next_request_id_++;
    uint32_t len = uint32_t(kRequestIdBytes + frame.owned.size());
    std::memcpy(frame.header.data(), &len, 4);
    std::memcpy(frame.header.data() + 4, &id, 8);
    future = EnqueueLocked(conn, std::move(frame), id);
  }
  WakeClient();
  return future;
}

std::future<Result<std::vector<std::byte>>> SocketNetwork::CallAsyncParts(
    NodeId to, const BytesRefParts& parts) {
  ++stats_.parts_calls;
  // Zero-copy send path: the pieces go from caller memory (segment
  // buffers, sealed chunks, the encoder's inline runs) straight into the
  // vectored send — nothing is materialized, so parts_copied_bytes and
  // tx_copied_bytes stay untouched.
  OutFrame frame;
  frame.pieces.assign(parts.pieces.begin(), parts.pieces.end());
  size_t payload = parts.total_size();
  frame.total = kHeaderBytes + payload;
  std::future<Result<std::vector<std::byte>>> future;
  {
    std::lock_guard<std::mutex> lock(client_mu_);
    if (client_stop_.load(std::memory_order_acquire)) {
      std::promise<Result<std::vector<std::byte>>> promise;
      promise.set_value(Status(StatusCode::kUnavailable, "network shut down"));
      return promise.get_future();
    }
    Status error = OkStatus();
    ClientConn* conn = GetOrConnectLocked(to, error);
    if (conn == nullptr) {
      std::promise<Result<std::vector<std::byte>>> promise;
      promise.set_value(error);
      return promise.get_future();
    }
    uint64_t id = next_request_id_++;
    uint32_t len = uint32_t(kRequestIdBytes + payload);
    std::memcpy(frame.header.data(), &len, 4);
    std::memcpy(frame.header.data() + 4, &id, 8);
    future = EnqueueLocked(conn, std::move(frame), id);
  }
  WakeClient();
  return future;
}

Result<std::vector<std::byte>> SocketNetwork::Call(
    NodeId to, std::span<const std::byte> request) {
  return CallAsync(to, request).get();
}

}  // namespace kera::rpc
