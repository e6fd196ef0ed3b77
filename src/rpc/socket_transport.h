// SocketNetwork: a real TCP transport implementing the Network interface.
// It is MiniCluster's default transport and the one the examples run on,
// and it lets brokers, backups and clients run as separate processes.
//
// Wire protocol (both directions, little-endian like the RPC format):
//
//   u32 n        frame length (bytes following this field)
//   u64 id       request id, echoed verbatim in the response frame
//   n-8 bytes    payload: a request frame (u16 opcode + body) client->server,
//                the raw HandleRpc response bytes server->client
//
// Request ids multiplex many in-flight RPCs over ONE persistent connection
// per (SocketNetwork instance, destination node) — no connection-per-call.
// Responses may return in any order; the client demultiplexes by id.
//
// Per registered node: one listening socket plus N per-core *shards*,
// each a full reactor — an epoll event-loop thread that only moves bytes
// (accept/read/write, never runs handlers) and a worker pool draining
// decoded requests — the RAMCloud-style dispatch/worker split,
// multiplied across cores. Accepted
// connections are spread round-robin over the shards; a registered
// FrameRouter additionally routes each decoded request frame to the
// worker pool of the shard that owns the frame's data (by streamlet id),
// so a shared-nothing handler sees every frame for a streamlet on one
// shard no matter which connection it arrived on. With shards == 1 (the
// default) the topology collapses to the original single-reactor node.
// One more epoll thread serves the client side of this instance (all
// outbound connections). All sockets are TCP_NODELAY; queued frames are
// flushed with one vectored send (writev-style sendmsg) per flush, so
// many small frames and the scatter-gather pieces of a parts frame
// coalesce into one syscall without being materialized into a contiguous
// buffer.
// On the receive side each connection reads into one fixed 64 KiB
// buffer; a larger frame is read into 64 KiB pieces added as its bytes
// arrive, then copied once into a vector of exactly its size, which
// becomes the request or response.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/queue.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "rpc/transport.h"

namespace kera::rpc {

/// Routes a decoded request frame (u16 opcode + body) to one of `shards`
/// server shards. Runs on a shard IO thread per frame, so it must be
/// cheap and only peek at fixed offsets (see rpc::RouteFrameToShard).
/// Out-of-range results fall back to the receiving connection's shard.
using FrameRouter = std::function<int(std::span<const std::byte>, int)>;

class SocketNetwork final : public Network {
 public:
  struct Options {
    /// Handler worker threads per registered node (split across its
    /// shards when a node registers with shards > 1); e2ebench reports it.
    static constexpr int workers_per_node = 4;
    /// Address registered listeners bind (and advertise to in-process
    /// clients).
    std::string host = "127.0.0.1";
    /// Frames larger than this are treated as corruption and kill the
    /// connection.
    size_t max_frame_bytes = size_t(1) << 30;
  };

  /// Per-node registration knobs (the shared-nothing runtime shape).
  struct NodeOptions {
    /// Preferred listening port (0 picks an ephemeral port).
    uint16_t port = 0;
    /// Server reactors for this node: each shard runs its own epoll IO
    /// thread and worker pool. 1 = the original single-reactor node. The
    /// shards split Options::workers_per_node, with a floor of 2 per shard
    /// so one parked long-poll handler cannot starve a shard's produces.
    int shards = 1;
    /// Routes request frames to shards at decode time (empty = every
    /// frame is handled by the shard whose connection it arrived on).
    FrameRouter router;
  };

  SocketNetwork();
  explicit SocketNetwork(Options options);
  ~SocketNetwork() override;

  SocketNetwork(const SocketNetwork&) = delete;
  SocketNetwork& operator=(const SocketNetwork&) = delete;

  /// Binds a listener for `node` (port 0 picks an ephemeral port), spawns
  /// its event loop + workers, and routes in-process calls to it. Returns
  /// the bound port (to hand to SetPeer in another process).
  [[nodiscard]] Result<uint16_t> Register(NodeId node, RpcHandler* handler,
                                          uint16_t port = 0);

  /// Like the above but with the full per-node shape: shard count, worker
  /// split and frame router.
  [[nodiscard]] Result<uint16_t> Register(NodeId node, RpcHandler* handler,
                                          NodeOptions node_options);

  /// Fault injection: closes the node's listener and every accepted
  /// connection. Queued and in-flight requests against it fail with
  /// kUnavailable on the caller side (the connection died), like a real
  /// machine crash. Returns once the node's threads are joined: queued
  /// requests are dropped and a handler already running finishes first,
  /// so the caller may then free the handler. A handler that waits on an
  /// outside event must be released first (MiniCluster::CrashNode stops
  /// broker long-polls before crashing the node).
  void Crash(NodeId node);

  /// Serves a crashed (or never-registered) node again, rebinding the
  /// port it had when possible so remote peers reconnect unchanged. The
  /// crashed registration's NodeOptions (shard count, router) are reused.
  [[nodiscard]] Result<uint16_t> Restore(NodeId node, RpcHandler* handler);

  /// Routes calls for `node` to another process at host:port. Local
  /// registrations take precedence.
  void SetPeer(NodeId node, const std::string& host, uint16_t port);

  /// Listening port of a locally registered node.
  [[nodiscard]] Result<uint16_t> Port(NodeId node) const;

  Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) override;
  std::future<Result<std::vector<std::byte>>> CallAsync(
      NodeId to, std::span<const std::byte> request) override;
  std::future<Result<std::vector<std::byte>>> CallAsyncParts(
      NodeId to, const BytesRefParts& parts) override;

  /// Stops serving, fails every pending call, and joins all threads.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  struct Stats {
    Counter calls;        // CallAsync (span) requests issued
    Counter parts_calls;  // CallAsyncParts requests issued
    Counter bytes_sent;
    Counter bytes_received;
    Counter connections_opened;  // outbound connects
    /// Vectored flushes and frames fully written, across both sides of
    /// this instance (requests it sends plus responses its registered
    /// nodes send).
    Counter sendmsg_calls;
    Counter frames_sent;
    /// Payload bytes memcpy'd into transport-owned buffers on the send
    /// path. CallAsync copies its span once (same contract as the other
    /// transports); CallAsyncParts never adds here — its pieces go from
    /// caller memory straight into the vectored send. The transport-level
    /// mirror of PR 2's bytes-per-record accounting.
    Counter tx_copied_bytes;
    Counter parts_copied_bytes;  // parts-path share of the above: 0
    /// Received frames too large for a connection's fixed 64 KiB read
    /// buffer: each was read into 64 KiB pieces added as its bytes
    /// arrived, then copied into a vector of exactly its payload size.
    /// Counted once complete.
    Counter large_frames_read;
  };
  [[nodiscard]] Stats GetStats() const { return stats_; }

  // ----- deterministic test hooks (eventfd wake-race regressions) -----

  /// Installs callbacks the client IO thread runs around the kWakeTag
  /// handling: `before_drain` right before the eventfd drain,
  /// `after_drain` between the drain and the pending-flag clear (the
  /// critical window of the lost-wakeup race). Both run on the IO thread
  /// with client_mu_ held, so they must not call the public API — use the
  /// two helpers below, which touch only the wake atomics and the
  /// eventfd. Pass {} to uninstall.
  void SetClientWakeHooksForTest(std::function<void()> before_drain,
                                 std::function<void()> after_drain);

  /// Exactly what WakeClient does, without needing a frame to enqueue:
  /// sets the wake-pending flag and signals the eventfd at most once.
  /// Safe from the hooks above.
  void InjectClientWakeForTest() { WakeClient(); }

  /// Exactly what Shutdown's client-side stop does — stores client_stop_
  /// and signals the eventfd — without tearing anything else down. Safe
  /// from the hooks above.
  void SignalClientStopForTest();

  /// Server-shard mirrors of the client hooks: the callbacks run on EVERY
  /// server shard IO thread around its kWakeTag handling (before the
  /// eventfd drain / between the drain and the wake-pending clear). They
  /// must only use the two helpers below. Pass {} to uninstall.
  void SetServerWakeHooksForTest(std::function<void()> before_drain,
                                 std::function<void()> after_drain);

  /// Exactly what a worker's response wake does for `node`'s shard
  /// `shard`: sets the shard's wake-pending flag and signals its eventfd
  /// at most once. Safe from the server hooks.
  void InjectServerWakeForTest(NodeId node, int shard);

  /// Exactly what Crash's stop does for `node` — stores the node's stop
  /// flag and signals every shard's eventfd — without joining or tearing
  /// anything down (a later Crash/Shutdown still reaps the node). Safe
  /// from the server hooks.
  void SignalServerStopForTest(NodeId node);

 private:
  // One frame queued for writing: a 12-byte header followed by either an
  // owned contiguous payload or referenced scatter-gather pieces.
  struct OutFrame {
    std::array<std::byte, 12> header;  // u32 len, u64 request id
    std::vector<std::byte> owned;      // span path / server responses
    std::vector<std::span<const std::byte>> pieces;  // parts path
    size_t written = 0;  // wire bytes of this frame already sent
    size_t total = 0;    // header + payload
  };

  class FrameReader;
  struct ServerConn;
  struct ServerShard;
  struct ServerNode;
  struct ClientConn;

  enum class FlushStatus { kDrained, kPartial, kError };
  /// One flush: coalesces up to kMaxIov pieces from the queued frames
  /// into a single vectored send, repeating until the queue drains or
  /// the socket would block.
  FlushStatus FlushFrameQueue(int fd, std::deque<OutFrame>& wq);

  void ServerIoLoop(ServerNode* node, ServerShard* shard);
  void ServerWorkerLoop(ServerNode* node, ServerShard* shard);
  void ServerFlushConn(ServerShard* shard, ServerConn* conn);
  // Returns false when the connection died and was destroyed.
  bool ServerReadConn(ServerNode* node, ServerShard* shard, ServerConn* conn);
  /// Coalesced shard wake (worker responses, adopted connections): the
  /// eventfd is signalled at most once per pending flag set; the IO loop
  /// drains strictly before clearing the flag (the PR 3 ordering).
  static void WakeShard(ServerShard* shard);
  static void CloseServerConns(ServerShard* shard);
  /// Signals stop to every shard of `node` (Crash/Shutdown first half).
  static void SignalServerStop(ServerNode* node);

  void ClientIoLoop();
  // All Client* helpers run under client_mu_.
  ClientConn* GetOrConnectLocked(NodeId to, Status& error);
  void FlushClientConnLocked(ClientConn* conn);
  bool ReadClientConnLocked(ClientConn* conn);
  void DestroyClientConnLocked(NodeId dest, const Status& why);
  std::future<Result<std::vector<std::byte>>> EnqueueLocked(
      ClientConn* conn, OutFrame frame, uint64_t request_id);
  void WakeClient();

  const Options options_;

  // ----- server side -----
  mutable std::mutex nodes_mu_;
  std::map<NodeId, std::unique_ptr<ServerNode>> nodes_;
  // Shape of each crashed node (options with its bound port), so Restore
  // revives it as it was.
  std::map<NodeId, NodeOptions> crashed_;
  bool shutdown_ = false;

  // ----- client side -----
  // Guards conns_, peers_, pending maps and write queues. The client IO
  // thread holds it while moving bytes; callers hold it to enqueue.
  mutable std::mutex client_mu_;
  std::map<NodeId, std::unique_ptr<ClientConn>> conns_;
  struct PeerAddr {
    std::string host;
    uint16_t port = 0;
  };
  std::map<NodeId, PeerAddr> peers_;
  uint64_t next_request_id_ = 1;
  uint64_t next_conn_id_ = 1;
  int client_epoll_fd_ = -1;
  int client_wake_fd_ = -1;
  std::thread client_thread_;
  std::atomic<bool> client_wake_pending_{false};
  std::atomic<bool> client_stop_{false};
  // Test hooks around the kWakeTag drain (run on the IO thread under
  // client_mu_); empty in production.
  std::function<void()> wake_hook_before_drain_;
  std::function<void()> wake_hook_after_drain_;

  // Server-shard wake hooks (run on every shard IO thread). The armed
  // flag keeps the production wake path free of the hook mutex.
  std::atomic<bool> server_hooks_armed_{false};
  mutable std::mutex server_hook_mu_;
  std::function<void()> server_hook_before_drain_;
  std::function<void()> server_hook_after_drain_;

  mutable Stats stats_;
};

}  // namespace kera::rpc
