// Log-structured key-value view over a keyed stream — the integration
// path the paper's conclusion sketches ("easily integrate key-value
// stores based on log-structured storage"). Keyed records hash to a
// streamlet, so all writes for one key are totally ordered; a reader that
// folds the stream into a map gets last-writer-wins KV semantics.
//
//   $ ./example_keyed_kv_view
#include <cstdio>
#include <map>
#include <string>


#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "wire/chunk.h"

using namespace kera;

namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

}  // namespace

int main() {
  MiniClusterConfig cluster_config;
  cluster_config.nodes = 3;
  MiniCluster cluster(cluster_config);

  rpc::StreamOptions options;
  options.num_streamlets = 4;
  options.replication_factor = 2;
  if (!cluster.coordinator().CreateStream("kv-log", options).ok()) return 1;

  // Writer: upsert 200 keys several times each; the last write wins.
  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = "kv-log";
  pc.chunk_size = 2048;
  Producer producer(pc, cluster.network());
  if (!producer.Connect().ok()) return 1;
  std::map<std::string, std::string> expected;
  for (int version = 1; version <= 5; ++version) {
    for (int k = 0; k < 200; ++k) {
      std::string key = "user:" + std::to_string(k);
      std::string value = "profile-v" + std::to_string(version) + "-of-" +
                          std::to_string(k);
      if (!producer.SendKeyed(AsBytes(key), AsBytes(value)).ok()) return 1;
      expected[key] = value;
    }
  }
  if (!producer.Close().ok()) return 1;
  if (!cluster.coordinator().SealStream("kv-log").ok()) return 1;
  std::printf("wrote 5 versions of 200 keys (1000 upserts), sealed\n");

  // Reader: fold the bounded stream into a map. Records within a
  // streamlet arrive in append order, and one key always lands on one
  // streamlet, so last-read == last-written per key. Keys live in the
  // record entry itself (multi-key-value format), so we pull raw chunks
  // via the consume RPC and use RecordView::key() directly.
  std::map<std::string, std::string> kv;
  uint64_t upserts = 0;
  auto info = cluster.coordinator().GetStreamInfo("kv-log");
  if (!info.ok()) return 1;
  for (StreamletId sl = 0; sl < 4; ++sl) {
    NodeId leader = info->streamlet_brokers[sl];
    GroupId group = 0;
    uint64_t cursor = 0;
    int idle = 0;
    while (idle < 5) {
      rpc::ConsumeRequest req;
      req.stream = info->stream;
      req.entries = {{.streamlet = sl, .group = group,
                      .start_chunk = cursor, .max_chunks = 64}};
      rpc::Writer body;
      req.Encode(body);
      auto raw = cluster.network().Call(
          leader, rpc::Frame(rpc::Opcode::kConsume, body));
      if (!raw.ok()) break;
      rpc::Reader r(*raw);
      auto resp = rpc::ConsumeResponse::Decode(r);
      if (!resp.ok()) break;
      const auto& e = resp->entries[0];
      for (const auto& cb : e.chunks) {
        auto view = ChunkView::Parse(cb);
        if (!view.ok()) continue;
        for (auto it = view->records(); !it.Done(); it.Next()) {
          const RecordView& rec = it.record();
          if (rec.key_count() == 0) continue;
          std::string key(reinterpret_cast<const char*>(rec.key(0).data()),
                          rec.key(0).size());
          std::string value(
              reinterpret_cast<const char*>(rec.value().data()),
              rec.value().size());
          kv[key] = value;  // later records overwrite: last write wins
          ++upserts;
        }
      }
      cursor = e.next_chunk;
      if (e.group_closed) {
        ++group;
        cursor = 0;
        idle = 0;
      } else if (e.chunks.empty()) {
        if (e.stream_sealed && !e.group_exists) break;
        ++idle;
      }
    }
  }

  // Verify the materialized view.
  size_t correct = 0;
  for (const auto& [key, value] : expected) {
    auto it = kv.find(key);
    if (it != kv.end() && it->second == value) ++correct;
  }
  std::printf("replayed %llu upserts into a KV view: %zu keys, "
              "%zu/%zu match the last written value\n",
              (unsigned long long)upserts, kv.size(), correct,
              expected.size());
  return correct == expected.size() ? 0 : 1;
}
