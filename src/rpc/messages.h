// RPC message definitions for client<->broker, broker<->backup and
// coordinator traffic. Every message declares its wire layout once, as
// Fields() (the derived codec in rpc/serialize.h), and has Encode(Writer&)
// and a static Decode(Reader&) built from it; chunk payloads are carried as
// zero-copy spans into the request buffer. Every request names its opcode
// (kOpcode) and its reply type (Response), which rpc/call.h's typed Call
// and Dispatch use.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "rpc/serialize.h"

namespace kera::rpc {

enum class Opcode : uint16_t {
  kProduce = 1,
  kConsume = 2,
  kCreateStream = 3,
  kGetStreamInfo = 4,
  kReplicate = 5,
  kListRecoverySegments = 6,
  kReadRecoverySegment = 7,  // retired (a one-item batch read); never reuse
  kSealStream = 8,
  kEvacuateBackupSegments = 9,
  kReadRecoverySegmentBatch = 10,
  kAllocateProducer = 11,
  kCommitOffsets = 12,
  kFetchOffsets = 13,
};

/// Builds a full request frame: u16 opcode then the encoded body.
[[nodiscard]] std::vector<std::byte> Frame(Opcode op, const Writer& body);

/// Builds the frame of a typed request, under its own opcode.
template <typename Req>
[[nodiscard]] std::vector<std::byte> Frame(const Req& req) {
  Writer body;
  req.Encode(body);
  return Frame(Req::kOpcode, body);
}

/// Splits a request frame into opcode + body span.
[[nodiscard]] Status ParseFrame(std::span<const std::byte> frame, Opcode& op,
                                std::span<const std::byte>& body);

/// Exposes a request frame (u16 opcode + encoded body) as scatter-gather
/// parts without materializing it — the vectored-send analog of Frame().
/// `opcode_storage` receives the encoded opcode; it, `body`, and every
/// buffer `body` references by BytesRef must outlive the parts' use (for
/// Network::CallAsyncParts: until the returned future is ready).
[[nodiscard]] BytesRefParts FrameAsParts(
    Opcode op, const Writer& body, std::array<std::byte, 2>& opcode_storage);

/// Streamlet-affine shard routing for the shared-nothing broker runtime:
/// peeks the routing key out of a raw request frame (u16 opcode + body)
/// WITHOUT decoding it, so the transport's IO loop can pick the target
/// shard's queue at frame-decode time, before any shared handoff.
///
///   kProduce    -> first chunk's streamlet id % shards
///   kConsume    -> first entry's streamlet id % shards
///   kReplicate  -> vlog id % shards (a vlog is owned by one shard)
///   everything else (admin, recovery reads) -> shard 0
///
/// Must agree with Broker's shard map (streamlet % shards) or every frame
/// pays a cross-shard hop; correctness never depends on it — the broker
/// locks per-shard state by the key actually touched. Truncated or
/// malformed frames route to shard 0 and fail in the decoder there.
[[nodiscard]] int RouteFrameToShard(std::span<const std::byte> frame,
                                    int shards);

// Reply types, named by their requests' `Response` before they are defined.
struct ProduceResponse;
struct ConsumeResponse;
struct CreateStreamResponse;
struct GetStreamInfoResponse;
struct SealStreamResponse;
struct ReplicateResponse;
struct ListRecoverySegmentsResponse;
struct ReadRecoverySegmentBatchResponse;
struct EvacuateBackupSegmentsResponse;
struct AllocateProducerResponse;
struct CommitOffsetsResponse;
struct FetchOffsetsResponse;

// ---------------------------------------------------------------- produce

struct ProduceRequest {
  ProducerId producer = 0;
  StreamId stream = 0;
  /// Recovery replay: chunks carry their original [group, segment, index]
  /// attributes and must be re-ingested into their respective groups so
  /// the partition structure is reconstructed consistently (§IV.B).
  bool recovery = false;
  /// Full chunk frames (chunk header + payload; 56 bytes classic, 64 with
  /// the exactly-once epoch tail) — the broker appends these bytes to
  /// group segments without re-encoding.
  std::vector<std::span<const std::byte>> chunks;

  static constexpr Opcode kOpcode = Opcode::kProduce;
  using Response = ProduceResponse;
  static auto Fields(auto& m) {
    return std::tie(m.producer, m.stream, m.recovery, m.chunks);
  }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<ProduceRequest> Decode(Reader& r);
};

/// The broker appends a request's chunks in order and stops at the first
/// one it refuses, so on a non-OK status `appended + duplicates` is that
/// chunk's index in the request: the chunks before it were appended or
/// dropped as duplicates, but are not durable yet, and the chunks after
/// it were not looked at. An index equal to the chunk count means every
/// chunk was appended and making them durable failed.
struct ProduceResponse {
  StatusCode status = StatusCode::kOk;
  uint32_t appended = 0;    // chunks newly appended (durable on kOk only)
  uint32_t duplicates = 0;  // chunks dropped by exactly-once dedup

  static auto Fields(auto& m) {
    return std::tie(m.status, m.appended, m.duplicates);
  }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<ProduceResponse> Decode(Reader& r);
};

// ---------------------------------------------------------------- consume

struct ConsumeEntryRequest {
  StreamletId streamlet = 0;
  GroupId group = 0;
  uint64_t start_chunk = 0;  // first group_chunk_index wanted
  uint32_t max_chunks = 1;

  static auto Fields(auto& m) {
    return std::tie(m.streamlet, m.group, m.start_chunk, m.max_chunks);
  }
};

struct ConsumeRequest {
  StreamId stream = 0;
  uint32_t max_bytes = 1u << 20;
  std::vector<ConsumeEntryRequest> entries;
  /// Long-poll: the broker parks the request until at least
  /// max(min_bytes, 1) bytes of chunk data are available for the requested
  /// entries, the stream reaches a terminal state for all of them, or the
  /// wait elapses. 0 preserves the original immediate-return behavior.
  /// Both fields ride at the end of the frame so old-format requests
  /// (which simply omit them) decode with the 0 defaults.
  uint64_t max_wait_us = 0;
  uint32_t min_bytes = 0;

  static constexpr Opcode kOpcode = Opcode::kConsume;
  using Response = ConsumeResponse;
  static auto Fields(auto& m) {
    return std::tie(m.stream, m.max_bytes, m.entries, m.max_wait_us,
                    m.min_bytes);
  }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<ConsumeRequest> Decode(Reader& r);
};

struct ConsumeEntryResponse {
  StreamletId streamlet = 0;
  GroupId group = 0;
  uint64_t next_chunk = 0;   // cursor after the returned chunks
  bool group_exists = false; // group not created yet -> retry later
  bool group_closed = false; // true + drained => advance to next group id
  bool stream_sealed = false;  // bounded stream: no group will ever follow
  uint32_t groups_created = 0;  // streamlet's group count so far (groups
                                // are independently consumable units)
  std::vector<std::span<const std::byte>> chunks;  // full chunk frames

  static auto Fields(auto& m) {
    return std::tie(m.streamlet, m.group, m.next_chunk, m.group_exists,
                    m.group_closed, m.stream_sealed, m.groups_created,
                    m.chunks);
  }
};

struct ConsumeResponse {
  StatusCode status = StatusCode::kOk;
  std::vector<ConsumeEntryResponse> entries;
  /// Keep-alives for the zero-copy `chunks` spans: segment read pins and
  /// cold-cache entries stay valid for the life of the response object.
  /// Not serialized — a decoded response owns its bytes already.
  std::vector<std::shared_ptr<const void>> holds;

  static auto Fields(auto& m) { return std::tie(m.status, m.entries); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<ConsumeResponse> Decode(Reader& r);
};

// ----------------------------------------------------------- coordinator

/// How virtual logs are associated with a stream's partitions (§V):
enum class VlogPolicy : uint8_t {
  /// All streams on a broker share the broker's pool of N virtual logs
  /// (streamlet hashes into the pool). Figures 8, 10, 12-16.
  kSharedPerBroker = 0,
  /// One virtual log per (streamlet, active-group slot): mimics Kafka's
  /// one-log-per-partition when Q == 1; Figures 9, 11, 17-21.
  kPerSubPartition = 1,
};

struct StreamOptions {
  uint32_t num_streamlets = 1;
  uint32_t active_groups_per_streamlet = 1;  // Q
  uint32_t replication_factor = 1;
  VlogPolicy vlog_policy = VlogPolicy::kSharedPerBroker;

  static auto Fields(auto& m) {
    return std::tie(m.num_streamlets, m.active_groups_per_streamlet,
                    m.replication_factor, m.vlog_policy);
  }
};

struct CreateStreamRequest {
  std::string name;
  StreamOptions options;

  static constexpr Opcode kOpcode = Opcode::kCreateStream;
  using Response = CreateStreamResponse;
  static auto Fields(auto& m) { return std::tie(m.name, m.options); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<CreateStreamRequest> Decode(Reader& r);
};

struct StreamInfo {
  StreamId stream = 0;
  StreamOptions options;
  /// Bounded stream ("object", §IV.A): sealed streams accept no appends.
  bool sealed = false;
  /// Broker (leader) for each streamlet, indexed by StreamletId.
  std::vector<NodeId> streamlet_brokers;

  static auto Fields(auto& m) {
    return std::tie(m.stream, m.options, m.sealed, m.streamlet_brokers);
  }
};

struct CreateStreamResponse {
  StatusCode status = StatusCode::kOk;
  StreamInfo info;

  static auto Fields(auto& m) { return std::tie(m.status, m.info); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<CreateStreamResponse> Decode(Reader& r);
};

struct GetStreamInfoRequest {
  std::string name;

  static constexpr Opcode kOpcode = Opcode::kGetStreamInfo;
  using Response = GetStreamInfoResponse;
  static auto Fields(auto& m) { return std::tie(m.name); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<GetStreamInfoRequest> Decode(Reader& r);
};

struct GetStreamInfoResponse {
  StatusCode status = StatusCode::kOk;
  StreamInfo info;

  static auto Fields(auto& m) { return std::tie(m.status, m.info); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<GetStreamInfoResponse> Decode(Reader& r);
};

/// Seals a stream, turning it into a bounded object: producers are
/// rejected afterwards and consumers observe end-of-stream once drained.
struct SealStreamRequest {
  std::string name;

  static constexpr Opcode kOpcode = Opcode::kSealStream;
  using Response = SealStreamResponse;
  static auto Fields(auto& m) { return std::tie(m.name); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<SealStreamRequest> Decode(Reader& r);
};

struct SealStreamResponse {
  StatusCode status = StatusCode::kOk;

  static auto Fields(auto& m) { return std::tie(m.status); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<SealStreamResponse> Decode(Reader& r);
};

// ------------------------------------------------------------- replicate

struct ReplicateRequest {
  NodeId primary = 0;  // broker that owns the virtual log
  VlogId vlog = 0;
  VirtualSegmentId vseg = 0;
  uint64_t start_offset = 0;  // byte offset within the replicated segment
  uint32_t chunk_count = 0;
  uint32_t checksum_after = 0;  // virtual segment header checksum after batch
  bool seals = false;           // virtual segment is complete after batch
  std::span<const std::byte> payload;  // concatenated chunk frames
  /// Encode-side alternative to `payload`: when non-empty, the payload is
  /// the concatenation of these parts, referenced straight from segment
  /// memory (one length prefix on the wire — decoders still see a single
  /// `payload` span).
  std::vector<std::span<const std::byte>> payload_parts;

  static constexpr Opcode kOpcode = Opcode::kReplicate;
  using Response = ReplicateResponse;
  static auto Fields(auto& m) {
    return std::tie(m.primary, m.vlog, m.vseg, m.start_offset, m.chunk_count,
                    m.checksum_after, m.seals, m.payload);
  }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<ReplicateRequest> Decode(Reader& r);
};

struct ReplicateResponse {
  StatusCode status = StatusCode::kOk;

  static auto Fields(auto& m) { return std::tie(m.status); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<ReplicateResponse> Decode(Reader& r);
};

// --------------------------------------------------------------- recovery

struct RecoverySegmentDescriptor {
  NodeId primary = 0;
  VlogId vlog = 0;
  VirtualSegmentId vseg = 0;
  uint32_t chunk_count = 0;
  bool sealed = false;

  static auto Fields(auto& m) {
    return std::tie(m.primary, m.vlog, m.vseg, m.chunk_count, m.sealed);
  }
};

struct ListRecoverySegmentsRequest {
  NodeId crashed = 0;

  static constexpr Opcode kOpcode = Opcode::kListRecoverySegments;
  using Response = ListRecoverySegmentsResponse;
  static auto Fields(auto& m) { return std::tie(m.crashed); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<ListRecoverySegmentsRequest> Decode(Reader& r);
};

struct ListRecoverySegmentsResponse {
  StatusCode status = StatusCode::kOk;
  std::vector<RecoverySegmentDescriptor> segments;

  static auto Fields(auto& m) { return std::tie(m.status, m.segments); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<ListRecoverySegmentsResponse> Decode(Reader& r);
};

/// Coordinator -> backup: read several of a crashed primary's virtual
/// segments in ONE round trip (parallel recovery pulls whole batches per
/// source backup instead of one RPC per segment — the round-trip count
/// drops by the batch factor).
struct ReadRecoverySegmentBatchRequest {
  NodeId crashed = 0;
  struct Item {
    VlogId vlog = 0;
    VirtualSegmentId vseg = 0;

    static auto Fields(auto& m) { return std::tie(m.vlog, m.vseg); }
  };
  std::vector<Item> items;

  static constexpr Opcode kOpcode = Opcode::kReadRecoverySegmentBatch;
  using Response = ReadRecoverySegmentBatchResponse;
  static auto Fields(auto& m) { return std::tie(m.crashed, m.items); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<ReadRecoverySegmentBatchRequest> Decode(
      Reader& r);
};

struct ReadRecoverySegmentBatchResponse {
  StatusCode status = StatusCode::kOk;  // framing-level status
  struct Item {
    StatusCode status = StatusCode::kOk;  // per-segment read status
    VlogId vlog = 0;
    VirtualSegmentId vseg = 0;
    uint32_t chunk_count = 0;
    std::span<const std::byte> payload;  // concatenated chunk frames

    static auto Fields(auto& m) {
      return std::tie(m.status, m.vlog, m.vseg, m.chunk_count, m.payload);
    }
  };
  std::vector<Item> items;  // same order as the request

  static auto Fields(auto& m) { return std::tie(m.status, m.items); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<ReadRecoverySegmentBatchResponse> Decode(
      Reader& r);
};

/// Coordinator -> backup, after recovery replay re-produced the crashed
/// primary's data at its new leaders: drop every copy held for `primary`
/// (their log records become GC-collectable garbage).
struct EvacuateBackupSegmentsRequest {
  NodeId primary = 0;

  static constexpr Opcode kOpcode = Opcode::kEvacuateBackupSegments;
  using Response = EvacuateBackupSegmentsResponse;
  static auto Fields(auto& m) { return std::tie(m.primary); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<EvacuateBackupSegmentsRequest> Decode(Reader& r);
};

struct EvacuateBackupSegmentsResponse {
  StatusCode status = StatusCode::kOk;
  uint32_t dropped = 0;  // copies evacuated

  static auto Fields(auto& m) { return std::tie(m.status, m.dropped); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<EvacuateBackupSegmentsResponse> Decode(Reader& r);
};

// ------------------------------------------------------------ exactly-once

/// Client -> coordinator: allocate (or re-allocate) an idempotent-producer
/// session. Re-allocating an existing producer id bumps its epoch, fencing
/// any zombie still stamping chunks with the previous epoch.
struct AllocateProducerRequest {
  ProducerId producer = 0;

  static constexpr Opcode kOpcode = Opcode::kAllocateProducer;
  using Response = AllocateProducerResponse;
  static auto Fields(auto& m) { return std::tie(m.producer); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<AllocateProducerRequest> Decode(Reader& r);
};

struct AllocateProducerResponse {
  StatusCode status = StatusCode::kOk;
  ProducerId producer = 0;
  uint32_t epoch = 0;  // >= 1 on success

  static auto Fields(auto& m) {
    return std::tie(m.status, m.producer, m.epoch);
  }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<AllocateProducerResponse> Decode(Reader& r);
};

/// Client -> broker: durably commit a consumer's cursor positions. The
/// broker persists each entry as a flagged system chunk appended through
/// the ordinary produce path of the entry's streamlet (so commits
/// replicate, spill and recover exactly like data). `commit_seq` must be
/// monotonically increasing per consumer: retries of a lost ack carry the
/// same value and dedup server-side.
struct CommitOffsetsRequest {
  StreamId stream = 0;
  uint32_t consumer = 0;
  uint64_t commit_seq = 0;
  /// Consumer session epoch from AllocateProducer (under the consumer's
  /// system producer id). A restarted consumer's commit_seq restarts at 1;
  /// the epoch bump keeps those commits from classifying as duplicates of
  /// the previous session's. 0 = no epoch (single-session consumers).
  uint32_t epoch = 0;
  struct Entry {
    StreamletId streamlet = 0;
    GroupId group = 0;       // cursor: next group to read...
    uint64_t next_chunk = 0; // ...and next chunk index within it

    static auto Fields(auto& m) {
      return std::tie(m.streamlet, m.group, m.next_chunk);
    }
  };
  std::vector<Entry> entries;

  static constexpr Opcode kOpcode = Opcode::kCommitOffsets;
  using Response = CommitOffsetsResponse;
  static auto Fields(auto& m) {
    return std::tie(m.stream, m.consumer, m.commit_seq, m.epoch, m.entries);
  }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<CommitOffsetsRequest> Decode(Reader& r);
};

struct CommitOffsetsResponse {
  StatusCode status = StatusCode::kOk;
  uint32_t committed = 0;  // entries now durable (appended or deduped)

  static auto Fields(auto& m) { return std::tie(m.status, m.committed); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<CommitOffsetsResponse> Decode(Reader& r);
};

/// Client -> broker: read back the last durably committed cursor for each
/// requested streamlet of a consumer (restart resume point).
struct FetchOffsetsRequest {
  StreamId stream = 0;
  uint32_t consumer = 0;
  std::vector<StreamletId> streamlets;

  static constexpr Opcode kOpcode = Opcode::kFetchOffsets;
  using Response = FetchOffsetsResponse;
  static auto Fields(auto& m) {
    return std::tie(m.stream, m.consumer, m.streamlets);
  }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<FetchOffsetsRequest> Decode(Reader& r);
};

struct FetchOffsetsResponse {
  StatusCode status = StatusCode::kOk;
  struct Entry {
    StreamletId streamlet = 0;
    bool found = false;  // false: no commit recorded for this streamlet
    GroupId group = 0;
    uint64_t next_chunk = 0;

    static auto Fields(auto& m) {
      return std::tie(m.streamlet, m.found, m.group, m.next_chunk);
    }
  };
  std::vector<Entry> entries;  // same order as the request

  static auto Fields(auto& m) { return std::tie(m.status, m.entries); }

  void Encode(Writer& w) const;
  [[nodiscard]] static Result<FetchOffsetsResponse> Decode(Reader& r);
};

}  // namespace kera::rpc
