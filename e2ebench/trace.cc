#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "records.h"
#include "rpc/messages.h"
#include "wire/chunk.h"

namespace e2ebench {

using kera::rpc::Opcode;

namespace {

uint64_t ChunkKey(std::span<const std::byte> chunk) {
  auto view = kera::ChunkView::Parse(chunk);
  if (!view.ok()) return 0;
  return Mix64((uint64_t(view->producer_id()) << 32) | view->streamlet_id()) ^
         Mix64(view->chunk_seq());
}

/// A scatter-gather frame copied into one buffer.
std::vector<std::byte> Flatten(const kera::rpc::BytesRefParts& parts) {
  std::vector<std::byte> out;
  out.reserve(parts.total_size());
  for (const auto& piece : parts.pieces) {
    out.insert(out.end(), piece.begin(), piece.end());
  }
  return out;
}

}  // namespace

FrameKey DecodeFrameKey(std::span<const std::byte> frame) {
  FrameKey out;
  Opcode op{};
  std::span<const std::byte> body;
  if (!kera::rpc::ParseFrame(frame, op, body).ok()) return out;
  out.opcode = uint16_t(op);
  kera::rpc::Reader r(body);
  switch (op) {
    case Opcode::kProduce: {
      auto req = kera::rpc::ProduceRequest::Decode(r);
      if (req.ok() && !req->chunks.empty()) out.key = ChunkKey(req->chunks[0]);
      break;
    }
    case Opcode::kConsume: {
      auto req = kera::rpc::ConsumeRequest::Decode(r);
      if (req.ok() && !req->entries.empty()) {
        const auto& e = req->entries[0];
        out.key = Mix64((uint64_t(e.streamlet) << 32) | e.group) ^
                  Mix64(e.start_chunk) ^ Mix64(req->max_wait_us);
        out.waits = req->max_wait_us > 0;
      }
      break;
    }
    case Opcode::kReplicate: {
      auto req = kera::rpc::ReplicateRequest::Decode(r);
      if (req.ok()) {
        out.key = Mix64((uint64_t(req->primary) << 32) | req->vlog) ^
                  Mix64(req->vseg) ^ Mix64(req->start_offset);
        out.peer = req->primary;
      }
      break;
    }
    default:
      break;
  }
  return out;
}

kera::Result<std::vector<std::byte>> TracingNetwork::Call(
    kera::NodeId to, std::span<const std::byte> request) {
  const FrameKey key = DecodeFrameKey(request);
  Span span{NowNs(), 0, key.key, to, 0, key.opcode, SpanKind::kClientRpc,
            key.waits};
  auto result = inner_.Call(to, request);
  span.end_ns = NowNs();
  log_.Add(span);
  return result;
}

std::future<kera::Result<std::vector<std::byte>>> TracingNetwork::CallAsync(
    kera::NodeId to, std::span<const std::byte> request) {
  const FrameKey key = DecodeFrameKey(request);
  return Watch(inner_.CallAsync(to, request), to, key);
}

std::future<kera::Result<std::vector<std::byte>>>
TracingNetwork::CallAsyncParts(kera::NodeId to,
                               const kera::rpc::BytesRefParts& parts) {
  const FrameKey key = DecodeFrameKey(Flatten(parts));
  return Watch(inner_.CallAsyncParts(to, parts), to, key);
}

std::future<kera::Result<std::vector<std::byte>>> TracingNetwork::Watch(
    std::future<kera::Result<std::vector<std::byte>>> inner, kera::NodeId to,
    const FrameKey& key) {
  // Deferred: the span ends on the caller's thread when it collects the
  // response, so tracing adds no thread hand-off to the RPC path, and the
  // span measures call-to-collection, not the round trip alone (a producer
  // collects its per-broker responses in order). A deferred future also
  // answers wait_for with `deferred` at once, so the consumer's fetch loop,
  // which waits in short slices to notice Close(), blocks in get() instead
  // and cannot abandon a parked long-poll; readers here close only after
  // the sealed stream is drained.
  Span span{NowNs(), 0, key.key, to, 0, key.opcode, SpanKind::kClientRpc,
            key.waits};
  return std::async(std::launch::deferred,
                    [log = &log_, span, inner = std::move(inner)]() mutable {
                      auto result = inner.get();
                      span.end_ns = NowNs();
                      log->Add(span);
                      return result;
                    });
}

std::vector<std::byte> TracingHandler::HandleRpc(
    std::span<const std::byte> request) {
  const FrameKey key = DecodeFrameKey(request);
  Span span{NowNs(), 0, key.key, node_, key.peer, key.opcode,
            SpanKind::kServerRpc, key.waits};
  auto response = inner_.HandleRpc(request);
  span.end_ns = NowNs();
  log_.Add(span);
  return response;
}

namespace {

bool Is(const Span& s, SpanKind kind, Opcode op) {
  return s.kind == kind && s.opcode == uint16_t(op);
}

bool Encloses(const Span& outer, const Span& inner) {
  return outer.start_ns <= inner.start_ns && outer.end_ns >= inner.end_ns;
}

/// Parent span index for every span, or -1.
std::vector<int64_t> LinkParents(const std::vector<Span>& spans) {
  std::vector<int64_t> parent(spans.size(), -1);
  // Client RPC spans by (opcode, key), for server frames to find the call
  // that carried them.
  std::unordered_map<uint64_t, std::vector<size_t>> client_by_key;
  // Server produce spans per broker, sorted by start, for replicate spans.
  std::unordered_map<kera::NodeId, std::vector<size_t>> produce_by_node;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.kind == SpanKind::kClientRpc && s.key != 0) {
      client_by_key[s.key ^ Mix64(s.opcode)].push_back(i);
    }
    if (Is(s, SpanKind::kServerRpc, Opcode::kProduce)) {
      produce_by_node[s.node].push_back(i);
    }
  }
  for (auto& [node, idx] : produce_by_node) {
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return spans[a].start_ns < spans[b].start_ns;
    });
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.kind != SpanKind::kServerRpc) continue;
    if (Is(s, SpanKind::kServerRpc, Opcode::kReplicate)) {
      // The latest-starting produce span on the primary that encloses it.
      auto it = produce_by_node.find(s.peer);
      if (it == produce_by_node.end()) continue;
      const auto& idx = it->second;
      auto pos = std::upper_bound(
          idx.begin(), idx.end(), s.start_ns,
          [&](int64_t t, size_t j) { return t < spans[j].start_ns; });
      for (int back = 0; pos != idx.begin() && back < 64; ++back) {
        --pos;
        if (spans[*pos].end_ns >= s.end_ns) {
          parent[i] = int64_t(*pos);
          break;
        }
      }
      continue;
    }
    if (s.key == 0) continue;
    auto it = client_by_key.find(s.key ^ Mix64(s.opcode));
    if (it == client_by_key.end()) continue;
    for (size_t j : it->second) {
      if (Encloses(spans[j], s) &&
          (parent[i] < 0 || spans[j].start_ns > spans[parent[i]].start_ns)) {
        parent[i] = int64_t(j);
      }
    }
  }
  return parent;
}

double Us(const Span& s) { return double(s.end_ns - s.start_ns) / 1e3; }

/// Length of the union of `children` clipped to [from, to].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>>& children,
                  int64_t from, int64_t to) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0, cursor = from;
  for (auto [a, b] : children) {
    a = std::max(a, cursor);
    b = std::min(b, to);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

}  // namespace

SpanSummary Summarize(const std::vector<Span>& spans, int64_t from_ns,
                      int64_t write_end_ns, int64_t to_ns) {
  SpanSummary out;
  const std::vector<int64_t> parent = LinkParents(spans);
  std::unordered_map<size_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  auto timed = [&](const Span& s) {
    return s.start_ns >= from_ns && s.start_ns <= to_ns;
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!timed(s)) continue;
    if (Is(s, SpanKind::kServerRpc, Opcode::kReplicate)) {
      out.backup_replicate_self_us.push_back(Us(s));
      if (parent[i] >= 0) {
        children[size_t(parent[i])].emplace_back(s.start_ns, s.end_ns);
      }
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!timed(s)) continue;
    switch (s.kind) {
      case SpanKind::kClientRpc:
        if (s.opcode == uint16_t(Opcode::kProduce)) {
          out.produce_collect_us.push_back(Us(s));
        } else if (s.opcode == uint16_t(Opcode::kConsume) && !s.waits) {
          out.consume_collect_us.push_back(Us(s));
        }
        break;
      case SpanKind::kServerRpc:
        if (s.node == kera::kCoordinatorNode) {
          if (s.start_ns <= write_end_ns) ++out.coordinator_rpcs;
        } else if (s.opcode == uint16_t(Opcode::kProduce)) {
          auto it = children.find(i);
          int64_t nested = it == children.end()
                               ? 0
                               : CoveredNs(it->second, s.start_ns, s.end_ns);
          out.broker_produce_self_us.push_back(
              double(s.end_ns - s.start_ns - nested) / 1e3);
        } else if (s.opcode == uint16_t(Opcode::kConsume) && !s.waits) {
          out.broker_consume_self_us.push_back(Us(s));
        }
        break;
      case SpanKind::kSend:
        out.send_sampled_ns += s.end_ns - s.start_ns;
        break;
      case SpanKind::kPoll:
        out.poll_ns += s.end_ns - s.start_ns;
        break;
    }
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path,
                size_t max_spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> parent = LinkParents(spans);
  static const char* const kKinds[] = {"client_rpc", "server_rpc", "send",
                                       "poll"};
  std::fprintf(f, "id\tkind\tnode\tpeer\topcode\tstart_ns\tend_ns\tparent\n");
  const size_t n = std::min(spans.size(), max_spans);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%s\t%u\t%u\t%u\t%lld\t%lld\t%lld\n", i,
                 kKinds[size_t(s.kind)], unsigned(s.node), unsigned(s.peer),
                 unsigned(s.opcode), (long long)s.start_ns,
                 (long long)s.end_ns,
                 (long long)(parent[i] < int64_t(n) ? parent[i] : -1));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
