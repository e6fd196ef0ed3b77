// Spans recorded from outside the library for the traced run: around the
// client's rpc::Network (one span per RPC, call to collection), around each
// server's rpc::RpcHandler (one span per handled frame), and around the
// generator's Send and the readers' Poll calls. Spans stay in memory and are
// summarized (and optionally written out) when a round ends.
//
// Parent links come from keys both sides decode from the request frame
// with the library's public decoders: a produce frame's first chunk
// (producer, streamlet, sequence), a consume frame's first entry, and a
// replicate frame's (primary, vlog, virtual segment, offset). A backup's
// replicate span attaches to the produce span on its primary broker that
// encloses it in time.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "rpc/transport.h"

namespace e2ebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t { kClientRpc, kServerRpc, kSend, kPoll };

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t key = 0;        // correlation key decoded from the frame (0: none)
  kera::NodeId node = 0;   // destination (client) or serving service (server)
  kera::NodeId peer = 0;   // replicate frames: the primary broker
  uint16_t opcode = 0;     // rpc::Opcode; 0 for Send/Poll
  SpanKind kind = SpanKind::kClientRpc;
  bool waits = false;      // consume frame that allows a broker long-poll
};

class SpanLog {
 public:
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  [[nodiscard]] std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opcode and correlation fields of a request frame (u16 opcode + body).
struct FrameKey {
  uint16_t opcode = 0;
  uint64_t key = 0;
  kera::NodeId peer = 0;
  bool waits = false;
};
[[nodiscard]] FrameKey DecodeFrameKey(std::span<const std::byte> frame);

/// Client-side decorator: one span per call, ending when the caller
/// collects the response.
class TracingNetwork final : public kera::rpc::Network {
 public:
  TracingNetwork(kera::rpc::Network& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  kera::Result<std::vector<std::byte>> Call(
      kera::NodeId to, std::span<const std::byte> request) override;
  std::future<kera::Result<std::vector<std::byte>>> CallAsync(
      kera::NodeId to, std::span<const std::byte> request) override;
  std::future<kera::Result<std::vector<std::byte>>> CallAsyncParts(
      kera::NodeId to, const kera::rpc::BytesRefParts& parts) override;

 private:
  std::future<kera::Result<std::vector<std::byte>>> Watch(
      std::future<kera::Result<std::vector<std::byte>>> inner,
      kera::NodeId to, const FrameKey& key);

  kera::rpc::Network& inner_;
  SpanLog& log_;
};

/// Server-side decorator registered in front of a broker, backup or the
/// coordinator: one span per handled frame.
class TracingHandler final : public kera::rpc::RpcHandler {
 public:
  TracingHandler(kera::rpc::RpcHandler& inner, kera::NodeId node,
                 SpanLog& log)
      : inner_(inner), node_(node), log_(log) {}

  std::vector<std::byte> HandleRpc(
      std::span<const std::byte> request) override;

 private:
  kera::rpc::RpcHandler& inner_;
  const kera::NodeId node_;
  SpanLog& log_;
};

/// Per-layer timings derived from one round's spans. Only spans that start
/// inside [from_ns, to_ns] (the timed phase) count; coordinator frames are
/// counted only up to `write_end_ns`, since the benchmark itself seals the
/// stream and connects its readers after the write phase.
struct SpanSummary {
  // Client calls, from the call to the caller collecting the response.
  std::vector<double> produce_collect_us;
  std::vector<double> consume_collect_us;  // consume calls without wait
  std::vector<double> broker_produce_self_us;
  std::vector<double> broker_consume_self_us;  // frames without wait
  std::vector<double> backup_replicate_self_us;
  uint64_t coordinator_rpcs = 0;  // during the write phase
  int64_t send_sampled_ns = 0;
  int64_t poll_ns = 0;
};
[[nodiscard]] SpanSummary Summarize(const std::vector<Span>& spans,
                                    int64_t from_ns, int64_t write_end_ns,
                                    int64_t to_ns);

/// Writes spans as tab-separated lines (id, kind, node, peer, opcode,
/// start_ns, end_ns, parent id or -1), at most `max_spans` of them.
/// Returns false if the file cannot be written.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path,
                size_t max_spans);

}  // namespace e2ebench
