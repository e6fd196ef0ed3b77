// One populated instance of every RPC message type, encoded, for the
// table-driven wire tests: golden bytes (wire_golden_test), truncations and
// random bodies (wire_fuzz_test). Every field holds a distinct value, so a
// reordered, dropped or resized field changes the bytes.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "rpc/messages.h"

namespace kera::testing {

struct MessageSample {
  std::string name;
  std::vector<std::byte> body;  // the message's encoded bytes
  /// Decodes `bytes` as this sample's type and re-encodes the result.
  std::function<Result<std::vector<std::byte>>(std::span<const std::byte>)>
      round_trip;
};

template <typename M>
MessageSample Sample(std::string name, const M& msg) {
  rpc::Writer w;
  msg.Encode(w);
  return {std::move(name), std::move(w).Take(),
          [](std::span<const std::byte> bytes)
              -> Result<std::vector<std::byte>> {
            rpc::Reader r(bytes);
            auto decoded = M::Decode(r);
            if (!decoded.ok()) return decoded.status();
            rpc::Writer out;
            decoded->Encode(out);
            return std::move(out).Take();
          }};
}

/// Payload bytes the samples' spans point at.
inline std::span<const std::byte> SampleBytes(size_t offset, size_t n) {
  static const std::vector<std::byte> bytes = [] {
    std::vector<std::byte> b(64);
    for (size_t i = 0; i < b.size(); ++i) b[i] = std::byte(0xA0 + i);
    return b;
  }();
  return std::span<const std::byte>(bytes).subspan(offset, n);
}

inline rpc::StreamInfo SampleStreamInfo() {
  rpc::StreamInfo info;
  info.stream = 0x0102030405060708ull;
  info.options = {.num_streamlets = 3,
                  .active_groups_per_streamlet = 2,
                  .replication_factor = 3,
                  .vlog_policy = rpc::VlogPolicy::kPerSubPartition};
  info.sealed = true;
  info.streamlet_brokers = {7, 8, 9};
  return info;
}

/// Every message type once; ReplicateRequest twice (its payload and its
/// payload_parts encoding, which must produce the same bytes).
inline std::vector<MessageSample> AllMessageSamples() {
  std::vector<MessageSample> out;

  rpc::ProduceRequest produce;
  produce.producer = 0x11;
  produce.stream = 0x2233;
  produce.recovery = true;
  produce.chunks = {SampleBytes(0, 3), SampleBytes(3, 2)};
  out.push_back(Sample("ProduceRequest", produce));
  out.push_back(Sample("ProduceResponse",
                       rpc::ProduceResponse{.status = StatusCode::kDuplicate,
                                            .appended = 5,
                                            .duplicates = 6}));

  rpc::ConsumeRequest consume;
  consume.stream = 0x44;
  consume.max_bytes = 0x5566;
  consume.entries = {{.streamlet = 1, .group = 2, .start_chunk = 3,
                      .max_chunks = 4},
                     {.streamlet = 5, .group = 6, .start_chunk = 7,
                      .max_chunks = 8}};
  consume.max_wait_us = 0x778899;
  consume.min_bytes = 0xAB;
  out.push_back(Sample("ConsumeRequest", consume));

  rpc::ConsumeResponse consumed;
  consumed.status = StatusCode::kNotLeader;
  rpc::ConsumeEntryResponse entry;
  entry.streamlet = 0x21;
  entry.group = 0x22;
  entry.next_chunk = 0x23;
  entry.group_exists = true;
  entry.group_closed = false;
  entry.stream_sealed = true;
  entry.groups_created = 0x24;
  entry.chunks = {SampleBytes(5, 2), SampleBytes(7, 1)};
  consumed.entries.push_back(entry);
  entry.streamlet = 0x31;
  entry.group_exists = false;
  entry.group_closed = true;
  entry.chunks.clear();
  consumed.entries.push_back(entry);
  out.push_back(Sample("ConsumeResponse", consumed));

  out.push_back(Sample(
      "CreateStreamRequest",
      rpc::CreateStreamRequest{.name = "orders",
                               .options = SampleStreamInfo().options}));
  out.push_back(Sample("CreateStreamResponse",
                       rpc::CreateStreamResponse{
                           .status = StatusCode::kAlreadyExists,
                           .info = SampleStreamInfo()}));
  out.push_back(
      Sample("GetStreamInfoRequest", rpc::GetStreamInfoRequest{.name = "q"}));
  out.push_back(Sample("GetStreamInfoResponse",
                       rpc::GetStreamInfoResponse{.status = StatusCode::kOk,
                                                  .info = SampleStreamInfo()}));
  out.push_back(
      Sample("SealStreamRequest", rpc::SealStreamRequest{.name = "obj"}));
  out.push_back(
      Sample("SealStreamResponse",
             rpc::SealStreamResponse{.status = StatusCode::kNotFound}));

  rpc::ReplicateRequest replicate;
  replicate.primary = 0x41;
  replicate.vlog = 0x42;
  replicate.vseg = 0x43;
  replicate.start_offset = 0x44;
  replicate.chunk_count = 0x45;
  replicate.checksum_after = 0x46;
  replicate.seals = true;
  replicate.payload = SampleBytes(8, 6);
  out.push_back(Sample("ReplicateRequest", replicate));
  replicate.payload = {};
  replicate.payload_parts = {SampleBytes(8, 2), SampleBytes(10, 4)};
  out.push_back(Sample("ReplicateRequest.payload_parts", replicate));
  out.push_back(
      Sample("ReplicateResponse",
             rpc::ReplicateResponse{.status = StatusCode::kOutOfRange}));

  out.push_back(Sample("ListRecoverySegmentsRequest",
                       rpc::ListRecoverySegmentsRequest{.crashed = 0x51}));
  rpc::ListRecoverySegmentsResponse listed;
  listed.status = StatusCode::kOk;
  listed.segments = {{.primary = 0x52, .vlog = 0x53, .vseg = 0x54,
                      .chunk_count = 0x55, .sealed = true},
                     {.primary = 0x56, .vlog = 0x57, .vseg = 0x58,
                      .chunk_count = 0x59, .sealed = false}};
  out.push_back(Sample("ListRecoverySegmentsResponse", listed));

  rpc::ReadRecoverySegmentBatchRequest batch;
  batch.crashed = 0x61;
  batch.items = {{.vlog = 0x62, .vseg = 0x63}, {.vlog = 0x64, .vseg = 0x65}};
  out.push_back(Sample("ReadRecoverySegmentBatchRequest", batch));
  rpc::ReadRecoverySegmentBatchResponse read;
  read.status = StatusCode::kOk;
  read.items = {{.status = StatusCode::kOk, .vlog = 0x66, .vseg = 0x67,
                 .chunk_count = 0x68, .payload = SampleBytes(14, 3)},
                {.status = StatusCode::kNotFound, .vlog = 0x69,
                 .vseg = 0x6A, .chunk_count = 0, .payload = {}}};
  out.push_back(Sample("ReadRecoverySegmentBatchResponse", read));

  out.push_back(Sample("EvacuateBackupSegmentsRequest",
                       rpc::EvacuateBackupSegmentsRequest{.primary = 0x71}));
  out.push_back(Sample("EvacuateBackupSegmentsResponse",
                       rpc::EvacuateBackupSegmentsResponse{
                           .status = StatusCode::kUnavailable,
                           .dropped = 0x72}));

  out.push_back(Sample("AllocateProducerRequest",
                       rpc::AllocateProducerRequest{.producer = 0x81}));
  out.push_back(Sample("AllocateProducerResponse",
                       rpc::AllocateProducerResponse{
                           .status = StatusCode::kOk,
                           .producer = 0x82,
                           .epoch = 0x83}));

  rpc::CommitOffsetsRequest commit;
  commit.stream = 0x91;
  commit.consumer = 0x92;
  commit.commit_seq = 0x93;
  commit.epoch = 0x94;
  commit.entries = {{.streamlet = 0x95, .group = 0x96, .next_chunk = 0x97},
                    {.streamlet = 0x98, .group = 0x99, .next_chunk = 0x9A}};
  out.push_back(Sample("CommitOffsetsRequest", commit));
  out.push_back(Sample("CommitOffsetsResponse",
                       rpc::CommitOffsetsResponse{.status = StatusCode::kFenced,
                                                  .committed = 0x9B}));

  out.push_back(Sample("FetchOffsetsRequest",
                       rpc::FetchOffsetsRequest{.stream = 0xA1,
                                                .consumer = 0xA2,
                                                .streamlets = {0xA3, 0xA4}}));
  rpc::FetchOffsetsResponse fetched;
  fetched.status = StatusCode::kOk;
  fetched.entries = {{.streamlet = 0xA5, .found = true, .group = 0xA6,
                      .next_chunk = 0xA7},
                     {.streamlet = 0xA8, .found = false, .group = 0,
                      .next_chunk = 0}};
  out.push_back(Sample("FetchOffsetsResponse", fetched));
  return out;
}

}  // namespace kera::testing
