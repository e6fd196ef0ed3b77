// Transport layer: how RPC frames move between nodes.
//
// Two implementations of Network:
//  - DirectNetwork (below): synchronous in-process dispatch; the handler
//    runs inline on the caller thread. Deterministic, used by unit tests,
//    the DES harness and the chaos harness.
//  - SocketNetwork (rpc/socket_transport.h): real TCP with a
//    RAMCloud-style dispatch IO thread and worker pool per node. The
//    MiniCluster default and the path a deployment runs.
// Fault injection wraps either one (chaos::ChaosNetwork).
#pragma once

#include <future>
#include <map>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "rpc/serialize.h"

namespace kera::rpc {

/// A node-resident service that handles raw RPC frames.
class RpcHandler {
 public:
  virtual ~RpcHandler() = default;
  /// Handles one framed request (opcode + body) and returns the framed
  /// response body. Must be thread-safe: SocketNetwork runs it on a
  /// worker pool.
  [[nodiscard]] virtual std::vector<std::byte> HandleRpc(
      std::span<const std::byte> request) = 0;
};

class Network {
 public:
  virtual ~Network() = default;

  /// Synchronous call; kUnavailable if the node is not registered (or has
  /// been "crashed" by a fault-injection test).
  [[nodiscard]] virtual Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) = 0;

  /// Asynchronous call (parallel replication to multiple backups).
  /// Implementations consume `request` before returning; the caller's
  /// buffer need not outlive the call.
  [[nodiscard]] virtual std::future<Result<std::vector<std::byte>>> CallAsync(
      NodeId to, std::span<const std::byte> request) = 0;

  /// Vectored asynchronous call: the request frame is the concatenation of
  /// `parts.pieces`, referencing caller-owned memory (segment buffers,
  /// sealed chunk frames, a live Writer). Unlike CallAsync, the referenced
  /// memory must stay alive and unchanged until the returned future is
  /// ready. The default materializes the frame once and forwards to
  /// CallAsync; transports with scatter-gather sends (SocketNetwork's
  /// writev path) override it and never copy the payload.
  [[nodiscard]] virtual std::future<Result<std::vector<std::byte>>>
  CallAsyncParts(NodeId to, const BytesRefParts& parts);

  /// Payload bytes copied by the base-class CallAsyncParts fallback above
  /// (the PR 2 "frame materialization" copy). Transports that send parts
  /// frames with writev never add to it — tests pin the produce/replicate
  /// parts path to zero materialization copies with this counter.
  [[nodiscard]] uint64_t materialized_parts_bytes() const {
    return materialized_parts_bytes_;
  }

 protected:
  Counter materialized_parts_bytes_;
};

/// Synchronous direct-dispatch network. Registration is not thread-safe;
/// do it before issuing calls. Crash(node) makes subsequent calls fail
/// with kUnavailable (fault injection).
class DirectNetwork final : public Network {
 public:
  void Register(NodeId node, RpcHandler* handler);
  void Crash(NodeId node);
  void Restore(NodeId node, RpcHandler* handler);

  Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) override;
  std::future<Result<std::vector<std::byte>>> CallAsync(
      NodeId to, std::span<const std::byte> request) override;

  struct Stats {
    Counter calls;
    Counter bytes_sent;
    Counter bytes_received;
  };
  [[nodiscard]] Stats GetStats() const { return stats_; }

 private:
  std::map<NodeId, RpcHandler*> handlers_;
  // Counters, not plain fields: handlers may be invoked from concurrent
  // callers (the DES harness and tests drive one DirectNetwork from
  // several threads).
  Stats stats_;
};

}  // namespace kera::rpc
