#include "rpc/transport.h"

#include <cstring>

namespace kera::rpc {

// --------------------------------------------------------------- Network

std::future<Result<std::vector<std::byte>>> Network::CallAsyncParts(
    NodeId to, const BytesRefParts& parts) {
  // Copying fallback: materialize the frame once and forward. CallAsync
  // consumes the request before returning, so the local buffer's lifetime
  // is sufficient.
  std::vector<std::byte> frame(parts.total_size());
  size_t off = 0;
  for (const auto& p : parts.pieces) {
    if (p.empty()) continue;
    std::memcpy(frame.data() + off, p.data(), p.size());
    off += p.size();
  }
  materialized_parts_bytes_ += frame.size();
  return CallAsync(to, frame);
}

// ---------------------------------------------------------- DirectNetwork

void DirectNetwork::Register(NodeId node, RpcHandler* handler) {
  handlers_[node] = handler;
}

void DirectNetwork::Crash(NodeId node) { handlers_.erase(node); }

void DirectNetwork::Restore(NodeId node, RpcHandler* handler) {
  handlers_[node] = handler;
}

Result<std::vector<std::byte>> DirectNetwork::Call(
    NodeId to, std::span<const std::byte> request) {
  auto it = handlers_.find(to);
  if (it == handlers_.end()) {
    return Status(StatusCode::kUnavailable, "node down");
  }
  ++stats_.calls;
  stats_.bytes_sent += request.size();
  std::vector<std::byte> response = it->second->HandleRpc(request);
  stats_.bytes_received += response.size();
  return response;
}

std::future<Result<std::vector<std::byte>>> DirectNetwork::CallAsync(
    NodeId to, std::span<const std::byte> request) {
  std::promise<Result<std::vector<std::byte>>> promise;
  promise.set_value(Call(to, request));
  return promise.get_future();
}

}  // namespace kera::rpc
