// Shared client-side configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace kera {

struct ProducerConfig {
  ProducerId producer_id = 0;
  std::string stream;
  /// Fixed chunk size (paper: e.g. 1 KB - 64 KB).
  size_t chunk_size = 16 << 10;
  /// linger.ms analogue: max time a non-empty chunk waits before being
  /// pushed (microseconds).
  uint64_t linger_us = 1000;
  /// Pooled chunk builders (the client's chunk cache; paper: up to 1000).
  size_t chunk_pool_size = 256;
  /// Retries per chunk: a chunk whose request fails with a transport
  /// error or a retryable status counts one failed attempt and is sent
  /// again by a later round, to its streamlet's current leader; it fails
  /// for good once its failed attempts exceed this. A status no retry can
  /// change (kFenced, kSegmentClosed, or kInvalidArgument for the chunk
  /// the broker rejected) ends it at once. Dedup makes retries safe.
  int request_retries = 3;
  /// End-to-end exactly-once: Connect() performs an AllocateProducer
  /// handshake with the coordinator and stamps the returned session epoch
  /// into every chunk header (the 64-byte extended format). After a
  /// re-allocation of the same producer id, brokers fence the old
  /// instance's chunks with kFenced — a zombie can never duplicate data
  /// behind its successor's back. Off by default: chunks keep the classic
  /// 56-byte epoch-less header, byte for byte.
  bool exactly_once = false;
};

struct ConsumerConfig {
  std::string stream;
  /// Streamlets this consumer owns; empty = all.
  std::vector<StreamletId> streamlets;
  /// Group-level sharing (the paper's vertical scalability: "an unlimited
  /// number of groups that can be processed in parallel by multiple
  /// consumers"): this consumer processes only the groups with
  /// group_id % share_count == share_index on its streamlets. Every
  /// member must use the same share_count. 1/0 = own every group.
  uint32_t share_count = 1;
  uint32_t share_index = 0;
  uint32_t max_chunks_per_entry = 4;
  uint32_t max_bytes_per_request = 4u << 20;
  /// Consume RPCs kept in flight per broker (>= 1). One fetch worker per
  /// broker stripes the broker's active groups over up to this many
  /// concurrent requests, so fetch overlaps decode/Poll and brokers never
  /// serialize on each other.
  uint32_t fetch_pipeline_depth = 4;
  /// Byte budget of the prefetch window, per broker: once this many
  /// fetched-but-unpolled bytes are buffered for a broker, its fetch
  /// pauses and resumes when Poll drains below the budget. In-flight
  /// requests may overshoot by up to fetch_pipeline_depth *
  /// max_bytes_per_request.
  size_t fetch_buffer_bytes = 8u << 20;
  /// Long-poll: idle fetches ask the broker to park the request until
  /// data is durable (or this wait elapses) instead of returning empty.
  /// 0 restores immediate-return polling with a short sleep between
  /// empty responses.
  uint64_t fetch_max_wait_us = 50'000;
  /// Stable consumer identity for durable offset commits; combined with
  /// the top bit into a system producer id (0x80000000 | consumer_id)
  /// under which commit chunks are sequenced and deduplicated.
  uint32_t consumer_id = 0;
  /// End-to-end exactly-once: Connect() allocates a session epoch from
  /// the coordinator (so a restarted consumer's commits fence its
  /// predecessor's) and resumes every assigned streamlet from its last
  /// durably committed cursor instead of the beginning; Commit() durably
  /// persists the position of everything Poll has handed out. Requires
  /// share_count == 1 and a stream with one active group per streamlet
  /// (the committed cursor is a single per-streamlet position).
  bool exactly_once = false;
};

}  // namespace kera
