#include "chaos/invariant_checker.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <tuple>
#include <utility>

#include "broker/tiered_store.h"
#include "common/crc32c.h"
#include "wire/chunk.h"

namespace kera::chaos {

namespace {

std::string Describe(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

std::string InvariantChecker::CheckVirtualLogs(MiniCluster& cluster,
                                               uint64_t* checks) {
  for (NodeId node : cluster.BrokerNodes()) {
    for (VirtualLog* vlog : cluster.broker(node).VirtualLogs()) {
      auto segments = vlog->Segments();
      for (size_t si = 0; si < segments.size(); ++si) {
        const VirtualSegment* seg = segments[si];
        ++*checks;
        if (si + 1 < segments.size() && !seg->closed()) {
          return Describe("node %u vlog %u vseg %u: non-newest segment open",
                          unsigned(node), unsigned(vlog->id()),
                          unsigned(seg->id()));
        }
        if (seg->durable_ref_count() > seg->ref_count() ||
            seg->durable_header() > seg->header()) {
          return Describe(
              "node %u vlog %u vseg %u: durable prefix beyond the end",
              unsigned(node), unsigned(vlog->id()), unsigned(seg->id()));
        }
        uint64_t bytes = 0;
        uint64_t durable_bytes = 0;
        auto refs = seg->refs();
        for (size_t i = 0; i < refs.size(); ++i) {
          bytes += refs[i].loc.length;
          if (i < seg->durable_ref_count()) {
            durable_bytes += refs[i].loc.length;
            // Durability must have propagated into the chunk's group: the
            // consumer-visibility gate derives from the group counter.
            if (refs[i].group != nullptr &&
                refs[i].group->durable_chunk_count() <=
                    refs[i].loc.group_chunk_index) {
              return Describe(
                  "node %u vlog %u vseg %u ref %zu: durable in the vseg but "
                  "not in group %u",
                  unsigned(node), unsigned(vlog->id()), unsigned(seg->id()),
                  i, unsigned(refs[i].loc.group));
            }
          }
        }
        if (bytes != seg->header() || durable_bytes != seg->durable_header()) {
          return Describe(
              "node %u vlog %u vseg %u: virtual offsets inconsistent with "
              "referenced chunk lengths",
              unsigned(node), unsigned(vlog->id()), unsigned(seg->id()));
        }
        if (seg->ChecksumUpTo(seg->ref_count()) != seg->running_checksum()) {
          return Describe(
              "node %u vlog %u vseg %u: checksum chain does not recompute",
              unsigned(node), unsigned(vlog->id()), unsigned(seg->id()));
        }
      }
    }
  }
  return "";
}

std::string InvariantChecker::CheckAckedDurable(MiniCluster& cluster,
                                                const std::string& stream_name,
                                                const AckedMap& acked,
                                                uint64_t* checks) {
  auto info = cluster.coordinator().GetStreamInfo(stream_name);
  if (!info.ok()) {
    return Describe("stream '%s' unknown to the coordinator",
                    stream_name.c_str());
  }
  // (streamlet, producer, seq) found in the current leaders' durable
  // prefixes. Uniqueness is checked as the scan inserts.
  std::set<std::tuple<StreamletId, ProducerId, ChunkSeq>> durable;
  for (StreamletId sl = 0; sl < StreamletId(info->streamlet_brokers.size());
       ++sl) {
    NodeId leader = info->streamlet_brokers[sl];
    Stream* stream = cluster.broker(leader).GetStream(info->stream);
    Streamlet* streamlet =
        stream == nullptr ? nullptr : stream->GetStreamlet(sl);
    if (streamlet == nullptr) continue;  // nothing durable here (checked
                                         // against acked below)
    for (GroupId gid : streamlet->GroupIds()) {
      Group* group = streamlet->GetGroup(gid);
      if (group == nullptr || group->trimmed()) continue;
      uint64_t durable_count = group->durable_chunk_count();
      for (uint64_t i = 0; i < durable_count; ++i) {
        ++*checks;
        ChunkLocator loc = group->GetChunk(i);
        // Tiered brokers may have evicted this segment's DRAM copy; pin it
        // for the parse, or re-read it from the broker's spill tier (which
        // also re-verifies the spill log's CRC framing).
        std::shared_ptr<const TieredStore::ColdSegment> cold;
        const bool pinned = loc.segment->TryPinRead();
        if (!pinned) {
          TieredStore* tiered = cluster.broker(leader).tiered();
          if (tiered == nullptr) {
            return Describe(
                "leader %u streamlet %u group %u chunk %" PRIu64
                ": segment evicted without a tiered store",
                unsigned(leader), unsigned(sl), unsigned(gid), i);
          }
          auto cs = tiered->ReadCold(info->stream, sl, gid, loc.segment_id);
          if (!cs.ok()) {
            return Describe(
                "leader %u streamlet %u group %u chunk %" PRIu64
                ": cold read of evicted durable chunk failed: %s",
                unsigned(leader), unsigned(sl), unsigned(gid), i,
                cs.status().ToString().c_str());
          }
          cold = std::move(*cs);
        }
        struct Unpin {
          Segment* seg;
          ~Unpin() {
            if (seg != nullptr) seg->UnpinRead();
          }
        } unpin{pinned ? loc.segment : nullptr};
        auto bytes = pinned ? loc.segment->Bytes(loc.offset, loc.length)
                            : cold->bytes(loc.offset, loc.length);
        auto chunk = ChunkView::Parse(bytes);
        if (!chunk.ok()) {
          return Describe(
              "leader %u streamlet %u group %u chunk %" PRIu64
              ": durable chunk does not parse",
              unsigned(leader), unsigned(sl), unsigned(gid), i);
        }
        if (!chunk->VerifyChecksum()) {
          return Describe(
              "leader %u streamlet %u group %u chunk %" PRIu64
              ": payload checksum mismatch",
              unsigned(leader), unsigned(sl), unsigned(gid), i);
        }
        auto key = std::make_tuple(StreamletId(sl), chunk->producer_id(),
                                   chunk->chunk_seq());
        if (!durable.insert(key).second) {
          return Describe(
              "leader %u streamlet %u: (producer %u, seq %" PRIu64
              ") stored durably more than once",
              unsigned(leader), unsigned(sl), unsigned(chunk->producer_id()),
              chunk->chunk_seq());
        }
      }
    }
  }
  for (const auto& [key, seqs] : acked) {
    for (ChunkSeq seq : seqs) {
      ++*checks;
      if (durable.count({key.first, key.second, seq}) == 0) {
        return Describe(
            "ACKED DATA LOST: streamlet %u producer %u seq %" PRIu64
            " not in any current leader's durable prefix",
            unsigned(key.first), unsigned(key.second), seq);
      }
    }
  }
  return "";
}

std::string InvariantChecker::CheckDuplicateBound(
    const std::map<std::pair<StreamletId, ProducerId>, uint64_t>& hits,
    const std::map<std::pair<StreamletId, ProducerId>, uint64_t>& resends,
    uint64_t slack, uint64_t* checks) {
  ++*checks;
  for (const auto& [key, n] : hits) {
    auto it = resends.find(key);
    uint64_t budget = (it == resends.end() ? 0 : it->second) + slack;
    if (n > budget) {
      return Describe(
          "dedup hits for (streamlet %u, producer %u) (%" PRIu64
          ") exceed that key's duplication budget (%" PRIu64 ")",
          unsigned(key.first), unsigned(key.second), n, budget);
    }
  }
  return "";
}

std::string InvariantChecker::CheckChecksumCounters(MiniCluster& cluster,
                                                    uint64_t* checks) {
  for (NodeId node : cluster.BrokerNodes()) {
    ++*checks;
    if (cluster.broker(node).GetStats().checksum_failures != 0) {
      return Describe("broker %u counted checksum failures", unsigned(node));
    }
    if (cluster.backup(node).GetStats().checksum_failures != 0) {
      return Describe("backup %u counted checksum failures", unsigned(node));
    }
  }
  return "";
}

std::string InvariantChecker::CheckBackupDurableCopies(MiniCluster& cluster,
                                                       NodeId node,
                                                       uint64_t* checks) {
  Backup& backup = cluster.backup(node);
  for (const Backup::DebugCopy& d : backup.DebugCopies()) {
    rpc::ReadRecoverySegmentBatchRequest req;
    req.crashed = d.primary;
    req.items = {{d.vlog, d.vseg}};
    std::vector<std::vector<std::byte>> storage;
    const auto resp = backup.HandleReadBatch(req, storage).items.at(0);
    ++*checks;
    if (resp.status != StatusCode::kOk) {
      return Describe("backup %u copy p%u/v%u/s%" PRIu64
                      ": recovered copy does not re-read (status %u)",
                      unsigned(node), unsigned(d.primary), unsigned(d.vlog),
                      uint64_t(d.vseg), unsigned(resp.status));
    }
    if (resp.payload.size() != d.size) {
      return Describe("backup %u copy p%u/v%u/s%" PRIu64
                      ": read %zu bytes, descriptor says %" PRIu64,
                      unsigned(node), unsigned(d.primary), unsigned(d.vlog),
                      uint64_t(d.vseg), resp.payload.size(), d.size);
    }
    uint32_t chunks = 0;
    uint32_t crc = 0;
    std::span<const std::byte> rest = resp.payload;
    while (!rest.empty()) {
      ++*checks;
      auto cv = ChunkView::Parse(rest);
      if (!cv.ok() || !cv->VerifyChecksum()) {
        return Describe("backup %u copy p%u/v%u/s%" PRIu64
                        ": recovered chunk %u corrupt",
                        unsigned(node), unsigned(d.primary), unsigned(d.vlog),
                        uint64_t(d.vseg), chunks);
      }
      uint32_t chunk_crc = cv->payload_checksum();
      crc = Crc32c(&chunk_crc, sizeof(chunk_crc), crc);
      rest = rest.subspan(cv->total_size());
      ++chunks;
    }
    ++*checks;
    if (chunks != d.chunk_count || crc != d.running_checksum) {
      return Describe("backup %u copy p%u/v%u/s%" PRIu64
                      ": rebuilt copy mismatch (chunks %u vs %u, crc %08x "
                      "vs %08x)",
                      unsigned(node), unsigned(d.primary), unsigned(d.vlog),
                      uint64_t(d.vseg), chunks, d.chunk_count, crc,
                      d.running_checksum);
    }
  }
  return "";
}

}  // namespace kera::chaos
