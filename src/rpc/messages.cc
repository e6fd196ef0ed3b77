#include "rpc/messages.h"

#include <cstring>

#include "wire/chunk.h"
#include "wire/layout.h"

namespace kera::rpc {

std::vector<std::byte> Frame(Opcode op, const Writer& body) {
  std::vector<std::byte> frame;
  frame.reserve(2 + body.size());
  frame.resize(2);
  const uint16_t raw = uint16_t(op);
  std::memcpy(frame.data(), &raw, 2);
  body.AppendTo(frame);
  return frame;
}

BytesRefParts FrameAsParts(Opcode op, const Writer& body,
                           std::array<std::byte, 2>& opcode_storage) {
  uint16_t raw = uint16_t(op);
  std::memcpy(opcode_storage.data(), &raw, 2);
  BytesRefParts parts;
  parts.pieces.push_back(opcode_storage);
  body.CollectPieces(parts);
  return parts;
}

Status ParseFrame(std::span<const std::byte> frame, Opcode& op,
                  std::span<const std::byte>& body) {
  if (frame.size() < 2) {
    return Status(StatusCode::kCorruption, "rpc: short frame");
  }
  uint16_t raw;
  Reader r(frame);
  KERA_RETURN_IF_ERROR(r.U16(raw));
  op = Opcode(raw);
  body = frame.subspan(2);
  return OkStatus();
}

namespace {
/// Frame offset of the u32 count of message M's I-th field, a list after
/// the u16 opcode and M's fixed-size fields before it.
template <typename M, size_t I>
constexpr size_t ListCountAt() {
  static_assert(kIsVector<FieldType<M, I>>);
  return sizeof(Opcode) + FieldOffset<M, I>();
}
}  // namespace

int RouteFrameToShard(std::span<const std::byte> frame, int shards) {
  if (shards <= 1 || frame.size() < 2) return 0;
  const std::byte* p = frame.data();
  // Routes by the u32 at frame offset `at` when the list counted by the
  // u32 at `count_at` is non-empty.
  auto route = [&](size_t count_at, size_t at) {
    if (frame.size() < at + 4 || wire::LoadU32(p + count_at) == 0) return 0;
    return int(wire::LoadU32(p + at) % uint32_t(shards));
  };
  switch (Opcode(wire::LoadU16(p))) {
    case Opcode::kProduce: {
      // The first chunk's streamlet id, at a fixed offset inside its header
      // after the chunk count and the chunk's length prefix.
      constexpr size_t kCount = ListCountAt<ProduceRequest, 3>();
      return route(kCount, kCount + 4 + 4 + chunk_offsets::kStreamletId);
    }
    case Opcode::kConsume: {
      // The first entry's streamlet. A request spanning shards is still
      // handled correctly, just counted as cross-shard by the broker.
      constexpr size_t kCount = ListCountAt<ConsumeRequest, 2>();
      return route(kCount, kCount + 4);
    }
    case Opcode::kReplicate: {
      // A virtual log is pinned to one shard on the primary, so routing
      // its replicate stream by vlog id keeps per-vseg processing
      // shard-affine on the backup too.
      constexpr size_t kVlog =
          sizeof(Opcode) + FieldOffset<ReplicateRequest, 1>();
      if (frame.size() < kVlog + 4) return 0;
      return int(wire::LoadU32(p + kVlog) % uint32_t(shards));
    }
    case Opcode::kCommitOffsets: {
      // The first entry's streamlet (the commit chunk appends through that
      // streamlet's produce path); multi-streamlet commits are handled
      // correctly either way — the broker locks per-entry shard state.
      constexpr size_t kCount = ListCountAt<CommitOffsetsRequest, 4>();
      return route(kCount, kCount + 4);
    }
    case Opcode::kFetchOffsets: {
      constexpr size_t kCount = ListCountAt<FetchOffsetsRequest, 2>();
      return route(kCount, kCount + 4);
    }
    default:
      // Admin/recovery traffic is rare and coordinator-driven: shard 0.
      return 0;
  }
}

// Every message's codec, derived from its field list (rpc/serialize.h).
// The definitions stay out of line: inlined into callers, GCC 12 reports
// false -Wstringop-overflow errors on them.
#define KERA_DERIVED_ENCODE(M) \
  void M::Encode(Writer& w) const { EncodeValue(w, *this); }
#define KERA_DERIVED_DECODE(M) \
  Result<M> M::Decode(Reader& r) { return DecodeMessage<M>(r); }
#define KERA_DERIVED_CODEC(M) \
  KERA_DERIVED_ENCODE(M)      \
  KERA_DERIVED_DECODE(M)

KERA_DERIVED_CODEC(ProduceRequest)
KERA_DERIVED_CODEC(ProduceResponse)
KERA_DERIVED_CODEC(ConsumeRequest)
KERA_DERIVED_CODEC(ConsumeResponse)
KERA_DERIVED_CODEC(CreateStreamRequest)
KERA_DERIVED_CODEC(CreateStreamResponse)
KERA_DERIVED_CODEC(GetStreamInfoRequest)
KERA_DERIVED_CODEC(GetStreamInfoResponse)
KERA_DERIVED_CODEC(SealStreamRequest)
KERA_DERIVED_CODEC(SealStreamResponse)
KERA_DERIVED_DECODE(ReplicateRequest)
KERA_DERIVED_CODEC(ReplicateResponse)
KERA_DERIVED_CODEC(ListRecoverySegmentsRequest)
KERA_DERIVED_CODEC(ListRecoverySegmentsResponse)
KERA_DERIVED_CODEC(ReadRecoverySegmentBatchRequest)
KERA_DERIVED_CODEC(ReadRecoverySegmentBatchResponse)
KERA_DERIVED_CODEC(EvacuateBackupSegmentsRequest)
KERA_DERIVED_CODEC(EvacuateBackupSegmentsResponse)
KERA_DERIVED_CODEC(AllocateProducerRequest)
KERA_DERIVED_CODEC(AllocateProducerResponse)
KERA_DERIVED_CODEC(CommitOffsetsRequest)
KERA_DERIVED_CODEC(CommitOffsetsResponse)
KERA_DERIVED_CODEC(FetchOffsetsRequest)
KERA_DERIVED_CODEC(FetchOffsetsResponse)

// The one hand-written wire exception: ReplicateRequest's encoder.

void ReplicateRequest::Encode(Writer& w) const {
  if (payload_parts.empty()) return EncodeValue(w, *this);
  // One length prefix over the concatenated parts: the bytes of the
  // `payload` form, with the parts referenced from segment memory.
  w.U32(primary);
  w.U32(vlog);
  w.U64(vseg);
  w.U64(start_offset);
  w.U32(chunk_count);
  w.U32(checksum_after);
  w.Bool(seals);
  w.BytesRefParts(payload_parts);
}

}  // namespace kera::rpc
