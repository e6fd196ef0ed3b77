// End-to-end benchmark of a 4-node KerA cluster over the socket transport.
//
//   e2e_bench --workload ingest_r3|tail_r3|backlog_r1 --seed N --seconds S
//             [--trace 0|1] [--tiny] [--spans-dir DIR]
//
// One process drives one workload. The run is a sequence of rounds, each on
// a fresh cluster: bring-up and warm-up (timed as setup), a write phase
// (closed or open loop), a stream seal, and one or more catch-up reads from
// offset 0. Rounds repeat until the timed phases add up to --seconds; each
// end-to-end metric is the median over rounds, so a burst of hypervisor
// steal during one round moves the result less than it would move one long
// round. Between rounds the host's speed is probed, and each round's times
// and rates are scaled to a reference host speed. Every reader checks every
// record (see records.h).
//
// With --trace 1, rounds alternate untraced and traced; the traced rounds
// wrap the client network, every server handler, Send and Poll, and yield
// the per-layer metrics plus the tracing overhead on each end-to-end metric.
//
// Prints one JSON run record, then the result object as the last line.
// NOTES.md beside this file defines every workload and metric.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "common/host_info.h"
#include "host.h"
#include "records.h"
#include "rpc/messages.h"
#include "rpc/socket_transport.h"
#include "trace.h"
#include "wire/chunk.h"
#include "wire/record.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {
namespace {

using namespace kera;

constexpr uint32_t kNodes = 4;
constexpr char kStream[] = "bench";
constexpr double kMiB = 1024.0 * 1024.0;
/// Traced rounds time one Send in this many.
constexpr uint64_t kSendSampleEvery = 17;
/// Spans written per traced run (the first traced round's, in order).
constexpr size_t kMaxSpansWritten = 200000;

struct Shape {
  std::string name;
  uint32_t streamlets = 0;
  uint32_t replication = 0;
  size_t record_bytes = 0;
  bool open_loop = false;
  double rate = 0;         // open loop: records per second
  uint64_t records = 0;    // closed loop: records per round
  int drains = 1;          // catch-up reads per round
  /// The power of the host slowdown that the workload's time metrics
  /// follow (see HostFactor).
  double host_exponent = 1;
};

Shape ShapeFor(const std::string& workload, bool tiny) {
  Shape s;
  s.name = workload;
  if (workload == "ingest_r3") {
    // 32 streamlets per broker share each broker's 4 vlogs.
    s.streamlets = 128;
    s.replication = 3;
    s.record_bytes = 100;
    s.records = tiny ? 20000 : 200000;
    // 100 B records never fill a chunk, so chunks close on timing: on a
    // slower host the producer packs fewer records into each, and every
    // MiB costs more produce and replicate RPCs as well as slower ones.
    s.host_exponent = 1.5;
  } else if (workload == "tail_r3") {
    s.streamlets = 16;
    s.replication = 3;
    s.record_bytes = 1024;
    s.open_loop = true;
    s.rate = tiny ? 2000 : 5000;
    s.drains = 3;
  } else if (workload == "backlog_r1") {
    s.streamlets = 16;
    s.replication = 1;
    s.record_bytes = 1024;
    s.records = tiny ? 2048 : 98304;  // 96 MiB of payload
    s.drains = 3;
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return s;
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    throw std::runtime_error(std::string(what) + ": " + s.ToString());
  }
}

/// The cluster under test: a MiniCluster whose services listen on one
/// SocketNetwork, and a second SocketNetwork for the clients, routed to the
/// services' ports as a client in another process would be. Services are
/// registered through MiniClusterConfig::external_register in both traced
/// and untraced rounds, so both build the cluster the same way; traced
/// rounds register a TracingHandler in front of each service.
class Cluster {
 public:
  explicit Cluster(SpanLog* log) {
    MiniClusterConfig cfg;
    cfg.nodes = kNodes;
    cfg.transport = MiniClusterTransport::kSocket;
    cfg.external_network = &server_net_;
    cfg.external_register = [this, log](NodeId id, rpc::RpcHandler* h) {
      Register(id, h, log);
    };
    cfg.external_crash = [this](NodeId id) { server_net_.Crash(id); };
    cfg.external_restore = [this](NodeId id, rpc::RpcHandler* h) {
      (void)server_net_.Restore(id, h);
    };
    mini_ = std::make_unique<MiniCluster>(std::move(cfg));
    if (!register_error_.empty()) throw std::runtime_error(register_error_);
    auto route = [&](NodeId id) {
      auto port = server_net_.Port(id);
      Check(port.status(), "service port");
      client_net_.SetPeer(id, "127.0.0.1", *port);
    };
    route(kCoordinatorNode);
    for (NodeId n = 1; n <= kNodes; ++n) route(n);
    if (log != nullptr) {
      traced_client_ = std::make_unique<TracingNetwork>(client_net_, *log);
    }
  }

  ~Cluster() {
    // Wake parked long-polls and stop replication before the transport
    // stops; stop the transport before the services it calls are freed.
    for (NodeId n = 1; n <= kNodes; ++n) {
      mini_->broker(n).StopConsumeWaits();
      mini_->broker(n).StopReplicator();
    }
    client_net_.Shutdown();
    server_net_.Shutdown();
    mini_.reset();
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  rpc::Network& client() {
    return traced_client_ ? static_cast<rpc::Network&>(*traced_client_)
                          : client_net_;
  }
  MiniCluster& mini() { return *mini_; }
  rpc::SocketNetwork& client_net() { return client_net_; }
  rpc::SocketNetwork& server_net() { return server_net_; }

 private:
  void Register(NodeId id, rpc::RpcHandler* handler, SpanLog* log) {
    // Mirrors MiniCluster's own socket registration: brokers and backups
    // get one server shard per broker shard and the streamlet router.
    if (auto* broker = dynamic_cast<Broker*>(handler)) {
      shards_ = broker->shards();
    }
    rpc::SocketNetwork::NodeOptions opts;
    if (shards_ > 1 && id != kCoordinatorNode) {
      opts.shards = int(shards_);
      opts.router = rpc::RouteFrameToShard;
    }
    if (log != nullptr) {
      handlers_.push_back(std::make_unique<TracingHandler>(*handler, id, *log));
      handler = handlers_.back().get();
    }
    auto port = server_net_.Register(id, handler, std::move(opts));
    if (!port.ok() && register_error_.empty()) {
      register_error_ = "register service " + std::to_string(id) + ": " +
                        port.status().ToString();
    }
  }

  // Declaration order is teardown order in reverse: the handlers and the
  // services outlive both transports' threads (see ~Cluster).
  std::vector<std::unique_ptr<TracingHandler>> handlers_;
  rpc::SocketNetwork server_net_;
  rpc::SocketNetwork client_net_;
  std::unique_ptr<MiniCluster> mini_;
  std::unique_ptr<TracingNetwork> traced_client_;
  uint32_t shards_ = 1;
  std::string register_error_;
};

template <typename Req, typename Resp>
Status AdminCall(rpc::Network& net, rpc::Opcode op, const Req& req) {
  rpc::Writer body;
  req.Encode(body);
  auto raw = net.Call(kCoordinatorNode, rpc::Frame(op, body));
  if (!raw.ok()) return raw.status();
  rpc::Reader r(*raw);
  auto resp = Resp::Decode(r);
  if (!resp.ok()) return resp.status();
  if (resp->status != StatusCode::kOk) {
    return Status(resp->status, "coordinator refused the request");
  }
  return OkStatus();
}

/// What one reader saw, from Connect to end of stream.
struct ReadResult {
  uint64_t bytes = 0;
  uint64_t expected = 0;
  uint64_t failed = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Consumer::Stats stats;
};

/// Polls `consumer` until the sealed stream is drained, checking every
/// record. A record's delivery time is when Poll returned it minus the
/// later of its due time and the reader's start; records without a due
/// time are sampled only when `sample_undated` (closed-loop writes).
ReadResult ReadAll(Consumer& consumer, const RecordCodec& codec,
                   uint64_t expected, int64_t start_ns, bool sample_undated,
                   std::vector<double>* delivery_ms, SpanLog* log) {
  ReadResult out;
  out.start_ns = start_ns;
  out.expected = expected;
  Ledger ledger(expected);
  for (;;) {
    const int64_t poll_start = NowNs();
    auto records = consumer.PollBlocking(1024);
    const int64_t now = NowNs();
    if (log != nullptr) {
      log->Add(Span{poll_start, now, 0, 0, 0, 0, SpanKind::kPoll, false});
    }
    if (records.empty()) break;  // sealed and drained
    for (const ConsumedRecord& rec : records) {
      out.bytes += rec.value.size();
      uint64_t due = 0;
      if (!ledger.Observe(rec.value, codec, &due) || delivery_ms == nullptr ||
          (due == 0 && !sample_undated)) {
        continue;
      }
      delivery_ms->push_back(
          double(now - std::max(int64_t(due), start_ns)) / 1e6);
    }
  }
  out.end_ns = NowNs();
  consumer.Close();
  out.failed = ledger.failed();
  out.stats = consumer.GetStats();
  return out;
}

/// Closes a reader running on another thread if the round fails early, so
/// its PollBlocking returns and the thread can be joined.
class ReaderThread {
 public:
  ReaderThread() = default;
  ReaderThread(const ReaderThread&) = delete;
  ReaderThread& operator=(const ReaderThread&) = delete;
  ~ReaderThread() {
    if (thread_.joinable()) {
      consumer_->Close();
      thread_.join();
    }
  }
  template <typename Fn>
  void Start(Consumer* consumer, Fn&& fn) {
    consumer_ = consumer;
    thread_ = std::thread(std::forward<Fn>(fn));
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  Consumer* consumer_ = nullptr;
  std::thread thread_;
};

struct Round {
  bool traced = false;
  bool open_loop = false;
  double setup_s = 0;
  double timed_s = 0;
  double ingest_MBps = 0;
  double catchup_MBps = 0;
  double cpu_ms_per_MB = 0;
  double rss_per_user_byte = 0;
  double steal_share = 0;
  HostSpeed host;  // mean of the probes before and after the round
  double host_factor = 1;  // HostFactor(host, shape)
  std::vector<double> delivery_ms;
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Per-layer inputs.
  double stored_bytes = 0;
  double moved_MiB = 0;
  double written_MiB = 0;
  int64_t generator_ns = 0;
  int64_t reader_ns = 0;
  uint64_t threads = 0;
  Producer::Stats producer;
  std::vector<Consumer::Stats> readers;
  Broker::Stats broker;
  Backup::Stats backup;
  uint64_t vlog_batches = 0;
  uint64_t vlog_bytes_replicated = 0;
  uint64_t vlog_chunks = 0;
  uint64_t vlog_max_inflight = 0;
  uint64_t net_frames = 0;
  uint64_t net_sendmsg = 0;
  uint64_t net_tx_copied = 0;
  SpanSummary spans;
  // Resolved cluster knobs.
  uint32_t shards = 0;
  uint32_t replication_window = 0;
  uint32_t replication_workers = 0;
  uint32_t recovery_parallelism = 0;
};

Round RunRound(const Shape& shape, uint64_t seed, double open_loop_s,
               bool traced, const std::string& spans_path,
               const IdleSpinners& spinners) {
  // Process CPU without the spinners' share.
  auto cpu_seconds = [&] {
    return ProcessCpuSeconds() - spinners.CpuSeconds();
  };
  Round out;
  out.traced = traced;
  out.open_loop = shape.open_loop;
  SpanLog log;
  SpanLog* tlog = traced ? &log : nullptr;

  const CpuJiffies jiffies0 = ReadCpuJiffies();
  const int64_t t0 = NowNs();
  Cluster cluster(tlog);
  rpc::Network& net = cluster.client();
  rpc::CreateStreamRequest create;
  create.name = kStream;
  create.options.num_streamlets = shape.streamlets;
  create.options.replication_factor = shape.replication;
  Check(AdminCall<rpc::CreateStreamRequest, rpc::CreateStreamResponse>(
            net, rpc::Opcode::kCreateStream, create),
        "create stream");

  const RecordCodec codec(seed, shape.record_bytes);
  const uint64_t warm = shape.streamlets;
  const uint64_t timed_records =
      shape.open_loop ? uint64_t(shape.rate * open_loop_s) : shape.records;
  const uint64_t total = warm + timed_records;
  std::vector<std::byte> buf(shape.record_bytes);

  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = kStream;
  Producer producer(pc, net);
  Check(producer.Connect(), "producer connect");
  // Warm-up: one record per streamlet opens every connection and
  // allocates the first segments and virtual segments.
  for (uint64_t seq = 0; seq < warm; ++seq) {
    codec.Encode(seq, 0, buf);
    Check(producer.Send(buf), "warm-up send");
  }
  Check(producer.Flush(), "warm-up flush");

  ConsumerConfig cc;
  cc.stream = kStream;
  std::unique_ptr<Consumer> tail;
  if (shape.open_loop) {
    tail = std::make_unique<Consumer>(cc, net);
    Check(tail->Connect(), "tail consumer connect");
  }

  const int64_t t_timed = NowNs();
  out.setup_s = double(t_timed - t0) / 1e9;
  const double cpu0 = cpu_seconds();

  ReadResult tail_result;
  ReaderThread tail_thread;
  if (tail) {
    tail_thread.Start(tail.get(), [&] {
      tail_result = ReadAll(*tail, codec, total, t_timed, false,
                            &out.delivery_ms, tlog);
    });
  }

  uint64_t send_failures = 0;
  for (uint64_t i = 0; i < timed_records; ++i) {
    const uint64_t seq = warm + i;
    int64_t due = 0;
    if (shape.open_loop) {
      due = t_timed + int64_t(double(i) * 1e9 / shape.rate);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
    }
    codec.Encode(seq, uint64_t(due), buf);
    const int64_t send_start =
        (shape.open_loop || (traced && i % kSendSampleEvery == 0)) ? NowNs()
                                                                   : 0;
    if (!producer.Send(buf).ok()) {
      send_failures = timed_records - i;
      break;
    }
    if (shape.open_loop) out.late_ms.push_back(double(send_start - due) / 1e6);
    if (i == timed_records / 2) {
      out.threads = ThreadCount() - spinners.active();
    }
    if (traced && i % kSendSampleEvery == 0) {
      log.Add(Span{send_start, NowNs(), 0, 0, 0, 0, SpanKind::kSend, false});
    }
  }
  if (!producer.Close().ok()) ++send_failures;
  const int64_t t_written = NowNs();
  Check(AdminCall<rpc::SealStreamRequest, rpc::SealStreamResponse>(
            net, rpc::Opcode::kSealStream, rpc::SealStreamRequest{kStream}),
        "seal stream");
  tail_thread.Join();

  std::vector<ReadResult> reads;
  if (tail) reads.push_back(tail_result);
  std::vector<double> catchups;
  for (int d = 0; d < shape.drains; ++d) {
    const bool first_reader = !shape.open_loop && d == 0;
    Consumer drain(cc, net);
    const int64_t start = NowNs();
    Check(drain.Connect(), "drain consumer connect");
    reads.push_back(ReadAll(drain, codec, total, start, first_reader,
                            first_reader ? &out.delivery_ms : nullptr, tlog));
    const ReadResult& r = reads.back();
    catchups.push_back(double(r.bytes) / kMiB /
                       (double(r.end_ns - r.start_ns) / 1e9));
  }
  const int64_t t_end = NowNs();
  const double cpu1 = cpu_seconds();
  out.steal_share = StealShare(jiffies0, ReadCpuJiffies());

  // End-to-end figures.
  const double written_bytes = double(timed_records * shape.record_bytes);
  double read_bytes = 0;
  out.attempted = total;
  out.failed = send_failures;
  for (const ReadResult& r : reads) {
    read_bytes += double(r.bytes);
    out.attempted += r.expected;
    out.failed += r.failed;
    out.readers.push_back(r.stats);
    out.reader_ns += r.end_ns - r.start_ns;
  }
  out.timed_s = double(t_end - t_timed) / 1e9;
  out.generator_ns = t_written - t_timed;
  out.ingest_MBps =
      written_bytes / kMiB / (double(out.generator_ns) / 1e9);
  std::sort(catchups.begin(), catchups.end());
  out.catchup_MBps = catchups[catchups.size() / 2];
  out.written_MiB = written_bytes / kMiB;
  out.moved_MiB = (written_bytes + read_bytes) / kMiB;
  out.cpu_ms_per_MB = (cpu1 - cpu0) * 1e3 / out.moved_MiB;
  out.stored_bytes = double(total * shape.record_bytes);
  out.rss_per_user_byte = double(PeakRssBytes()) / out.stored_bytes;

  // Brokers must hold exactly the chunks the producer sent.
  out.producer = producer.GetStats();
  MiniCluster& mini = cluster.mini();
  out.broker = mini.TotalBrokerStats();
  out.backup = mini.TotalBackupStats();
  const uint64_t expected_bytes =
      out.producer.records_sent *
          RecordWireSize(std::span<const size_t>(), shape.record_bytes) +
      out.producer.chunks_sent * kChunkHeaderSize;
  ++out.attempted;
  if (out.broker.chunks_appended != out.producer.chunks_sent ||
      out.broker.chunks_duplicate != 0 ||
      out.broker.bytes_appended != expected_bytes ||
      out.producer.records_sent != total) {
    ++out.failed;
  }

  // Per-layer counters.
  for (NodeId n = 1; n <= kNodes; ++n) {
    for (VirtualLog* vlog : mini.broker(n).VirtualLogs()) {
      const VirtualLog::Stats vs = vlog->GetStats();
      out.vlog_batches += vs.batches_issued;
      out.vlog_bytes_replicated += vs.bytes_replicated;
      out.vlog_chunks += vs.chunks_appended;
      out.vlog_max_inflight = std::max(out.vlog_max_inflight,
                                       vs.max_inflight_batches);
    }
  }
  for (rpc::SocketNetwork* n : {&cluster.client_net(), &cluster.server_net()}) {
    const rpc::SocketNetwork::Stats ns = n->GetStats();
    out.net_frames += ns.frames_sent;
    out.net_sendmsg += ns.sendmsg_calls;
    out.net_tx_copied += ns.tx_copied_bytes;
  }
  const BrokerConfig& bc = mini.broker(1).config();
  out.shards = mini.broker_shards();
  out.replication_window = bc.replication_window;
  out.replication_workers = bc.replication_workers;
  out.recovery_parallelism = mini.recovery_parallelism();

  if (traced) {
    std::vector<Span> spans = log.Take();
    out.spans = Summarize(spans, t_timed, t_written, t_end);
    if (!spans_path.empty() && !WriteSpans(spans, spans_path,
                                           kMaxSpansWritten)) {
      std::fprintf(stderr, "could not write %s\n", spans_path.c_str());
    }
  }
  return out;
}

// ------------------------------------------------------------- reporting

/// Probe readings of the reference host the end-to-end time metrics are
/// scaled to: typical readings of a 4-vCPU KVM guest of an Intel Xeon
/// (family 6, model 143), whose speed drifts up to 2x over minutes with no
/// steal.
constexpr HostSpeed kReferenceHost{10.0, 15.0};

/// How much slower than the reference the host ran around a round: the
/// geometric mean of the compute and round-trip slowdowns, raised to the
/// workload's exponent. Rates are multiplied by it and times divided, so
/// the figures read as on the reference host (NOTES.md shows the fit).
double HostFactor(const HostSpeed& h, const Shape& shape) {
  if (h.cpu_ms <= 0 || h.rtt_us <= 0) return 1;
  const double slowdown = std::sqrt(h.cpu_ms / kReferenceHost.cpu_ms *
                                    h.rtt_us / kReferenceHost.rtt_us);
  return std::pow(slowdown, shape.host_exponent);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(p * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

template <typename Fn>
double MedianOf(const std::vector<const Round*>& rounds, Fn&& fn) {
  std::vector<double> v;
  for (const Round* r : rounds) v.push_back(fn(*r));
  return Median(std::move(v));
}

template <typename Fn>
double SumOf(const std::vector<const Round*>& rounds, Fn&& fn) {
  double s = 0;
  for (const Round* r : rounds) s += double(fn(*r));
  return s;
}

template <typename Fn>
std::vector<double> Pool(const std::vector<const Round*>& rounds, Fn&& fn) {
  std::vector<double> out;
  for (const Round* r : rounds) {
    const std::vector<double>& v = fn(*r);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Rounds taken under heavy hypervisor steal are set aside: end-to-end
/// metrics are medians over the rounds whose steal share is at most
/// kStealLimit, or over the calmest quarter (at least three rounds) when
/// fewer qualify. Steal moves every wall-clock figure several-fold (see
/// NOTES.md).
constexpr double kStealLimit = 0.01;

std::vector<const Round*> Calm(std::vector<const Round*> rounds) {
  std::stable_sort(rounds.begin(), rounds.end(),
                   [](const Round* a, const Round* b) {
                     return a->steal_share < b->steal_share;
                   });
  size_t keep = 0;
  while (keep < rounds.size() && rounds[keep]->steal_share <= kStealLimit) {
    ++keep;
  }
  keep = std::max(keep, std::max<size_t>(3, (rounds.size() + 3) / 4));
  rounds.resize(std::min(rounds.size(), keep));
  return rounds;
}

/// The end-to-end metrics over `all`'s calm rounds. Each round's times and
/// rates are scaled by its host factor unless `as_measured`. The open
/// loop's ingest rate is the offered rate, and its p99 delivery follows
/// rare stalls rather than the host's speed, so neither is scaled.
std::vector<Metric> EndToEnd(const std::vector<const Round*>& all,
                             bool as_measured = false) {
  const std::vector<const Round*> rounds = Calm(all);
  auto factor = [as_measured](const Round& r) {
    return as_measured ? 1.0 : r.host_factor;
  };
  return {
      {"setup_s",
       MedianOf(rounds, [&](const Round& r) { return r.setup_s / factor(r); }),
       "s"},
      {"ingest_MBps", MedianOf(rounds, [&](const Round& r) {
         return r.ingest_MBps * (r.open_loop ? 1.0 : factor(r));
       }),
       "MiB/s"},
      {"catchup_MBps", MedianOf(rounds, [&](const Round& r) {
         return r.catchup_MBps * factor(r);
       }),
       "MiB/s"},
      {"delivery_p50_ms", MedianOf(rounds, [&](const Round& r) {
         return Percentile(r.delivery_ms, 0.50) / factor(r);
       }),
       "ms"},
      {"delivery_p99_ms", MedianOf(rounds, [&](const Round& r) {
         return Percentile(r.delivery_ms, 0.99) /
                (r.open_loop ? 1.0 : factor(r));
       }),
       "ms"},
      {"cpu_ms_per_MB", MedianOf(rounds, [&](const Round& r) {
         return r.cpu_ms_per_MB / factor(r);
       }),
       "ms/MiB"},
      // The allocator keeps a round's freed memory for the next, so only
      // the first round's peak RSS is free of earlier rounds.
      {"rss_per_user_byte", all.front()->rss_per_user_byte, "B/B"},
  };
}

std::vector<Metric> PerLayer(const std::vector<const Round*>& traced,
                             const std::vector<const Round*>& untraced) {
  auto sum = [&](auto fn) { return SumOf(traced, fn); };
  auto pool = [&](auto fn) { return Pool(traced, fn); };
  const double moved = sum([](const Round& r) { return r.moved_MiB; });
  const double written = sum([](const Round& r) { return r.written_MiB; });
  uint64_t consume_rpcs = 0, consume_chunks = 0, consume_empty = 0;
  for (const Round* r : traced) {
    for (const Consumer::Stats& c : r->readers) {
      consume_rpcs += c.requests_sent;
      consume_chunks += c.chunks_received;
      consume_empty += c.empty_responses;
    }
  }
  double skew = 0;
  for (const Round* r : traced) {
    const auto& frames = r->broker.shard_frames;
    double total = 0, peak = 0;
    for (uint64_t f : frames) {
      total += double(f);
      peak = std::max(peak, double(f));
    }
    skew = std::max(skew, Ratio(peak * double(frames.size()), total));
  }
  auto pooled = [&](auto member) {
    return pool([member](const Round& r) -> const std::vector<double>& {
      return r.spans.*member;
    });
  };
  const auto produce_collect = pooled(&SpanSummary::produce_collect_us);
  const auto consume_collect = pooled(&SpanSummary::consume_collect_us);
  const auto produce_self = pooled(&SpanSummary::broker_produce_self_us);
  const auto consume_self = pooled(&SpanSummary::broker_consume_self_us);
  const auto replicate_self = pooled(&SpanSummary::backup_replicate_self_us);
  const auto late = pool([](const Round& r) -> const std::vector<double>& {
    return r.late_ms;
  });

  std::vector<Metric> out = {
      {"client.send_blocked_share",
       Ratio(sum([](const Round& r) { return r.spans.send_sampled_ns; }) *
                 double(kSendSampleEvery),
             sum([](const Round& r) { return r.generator_ns; })),
       "share"},
      {"client.records_per_chunk",
       Ratio(sum([](const Round& r) { return r.producer.records_sent; }),
             sum([](const Round& r) { return r.producer.chunks_sent; })),
       "count"},
      {"client.chunks_per_produce_rpc",
       Ratio(sum([](const Round& r) { return r.producer.chunks_acked; }),
             sum([](const Round& r) { return r.producer.requests_sent; })),
       "count"},
      {"client.consume_rpcs_per_chunk",
       Ratio(double(consume_rpcs), double(consume_chunks)), "count"},
      {"client.empty_fetch_share",
       Ratio(double(consume_empty), double(consume_rpcs)), "share"},
      {"client.poll_wait_share",
       Ratio(sum([](const Round& r) { return r.spans.poll_ns; }),
             sum([](const Round& r) { return r.reader_ns; })),
       "share"},
      {"rpc.frames_per_MB",
       Ratio(sum([](const Round& r) { return r.net_frames; }), moved),
       "1/MiB"},
      {"rpc.sendmsg_per_frame",
       Ratio(sum([](const Round& r) { return r.net_sendmsg; }),
             sum([](const Round& r) { return r.net_frames; })),
       "count"},
      {"rpc.tx_copied_bytes_per_MB",
       Ratio(sum([](const Round& r) { return r.net_tx_copied; }), moved),
       "B/MiB"},
      {"rpc.produce.collect_us.p50", Percentile(produce_collect, 0.50), "us"},
      {"rpc.produce.collect_us.p99", Percentile(produce_collect, 0.99), "us"},
      {"rpc.consume.collect_us.p50", Percentile(consume_collect, 0.50), "us"},
      {"rpc.consume.collect_us.p99", Percentile(consume_collect, 0.99), "us"},
      {"broker.produce.self_us.p50", Percentile(produce_self, 0.50), "us"},
      {"broker.produce.self_us.p99", Percentile(produce_self, 0.99), "us"},
      {"broker.consume.self_us.p50", Percentile(consume_self, 0.50), "us"},
      {"broker.consume.self_us.p99", Percentile(consume_self, 0.99), "us"},
      {"broker.long_poll_share",
       Ratio(sum([](const Round& r) { return r.broker.consume_long_polls; }),
             sum([](const Round& r) { return r.broker.consume_rpcs; })),
       "share"},
      {"broker.chunks_per_consume_rpc",
       Ratio(sum([](const Round& r) { return r.broker.chunks_served; }),
             sum([](const Round& r) { return r.broker.consume_rpcs; })),
       "count"},
      {"broker.cross_shard_ops_per_MB",
       Ratio(sum([](const Round& r) { return r.broker.cross_shard_ops; }),
             moved),
       "1/MiB"},
      {"broker.shard_frame_skew", skew, "ratio"},
      {"vlog.KB_per_batch",
       Ratio(sum([](const Round& r) { return r.vlog_bytes_replicated; }),
             sum([](const Round& r) { return r.vlog_batches; })) /
           1024.0,
       "KiB"},
      {"vlog.batches_per_chunk",
       Ratio(sum([](const Round& r) { return r.vlog_batches; }),
             sum([](const Round& r) { return r.vlog_chunks; })),
       "count"},
      {"vlog.max_inflight_batches",
       MedianOf(traced,
                [](const Round& r) { return double(r.vlog_max_inflight); }),
       "count"},
      {"backup.replicate.self_us.p50", Percentile(replicate_self, 0.50),
       "us"},
      {"backup.replicate.self_us.p99", Percentile(replicate_self, 0.99),
       "us"},
      {"backup.rpcs_per_MB",
       Ratio(sum([](const Round& r) { return r.backup.replicate_rpcs; }),
             written),
       "1/MiB"},
      {"storage.resident_per_user_byte",
       MedianOf(traced,
                [](const Round& r) {
                  return Ratio(double(r.broker.memory_bytes_resident),
                               r.stored_bytes);
                }),
       "B/B"},
      {"coordinator.rpcs_timed",
       sum([](const Round& r) { return r.spans.coordinator_rpcs; }),
       "count"},
      {"gen.late_p99_ms", Percentile(late, 0.99), "ms"},
      {"host.steal_share",
       MedianOf(traced, [](const Round& r) { return r.steal_share; }),
       "share"},
      {"host.threads",
       MedianOf(traced, [](const Round& r) { return double(r.threads); }),
       "count"},
      {"host.factor",
       MedianOf(traced, [](const Round& r) { return r.host_factor; }),
       "ratio"},
  };
  // Tracing overhead: traced minus untraced, as a share of untraced.
  const std::vector<Metric> with = EndToEnd(traced);
  const std::vector<Metric> without = EndToEnd(untraced);
  for (size_t i = 0; i < with.size(); ++i) {
    out.push_back({"trace.overhead." + with[i].name,
                   Ratio(with[i].value - without[i].value, without[i].value),
                   "share"});
  }
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  // required
  bool trace = false;
  bool tiny = false;
  std::string spans_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--spans-dir") {
      a.spans_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0) {
    throw std::invalid_argument("--seconds is required and must be > 0");
  }
  return a;
}

/// Exit code of a run that stopped making progress.
constexpr int kStalledExit = 3;

/// Ends the process with kStalledExit when no round has finished for
/// `limit_s`. Rounds take a few seconds at most. In the stalls seen, every
/// cluster thread was idle in epoll or a condition wait except two blocked
/// with no timeout on futures, i.e. responses that never came, so the run
/// would hang. run.py starts a stalled run again while its time allows
/// (see NOTES.md).
class StallWatchdog {
 public:
  explicit StallWatchdog(double limit_s)
      : limit_ns_(int64_t(limit_s * 1e9)), thread_([this] { Watch(); }) {}
  ~StallWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  void Progress() { last_ns_.store(NowNs()); }

 private:
  void Watch() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::seconds(1),
                         [&] { return stop_; })) {
      if (NowNs() - last_ns_.load() > limit_ns_) {
        std::fprintf(stderr, "e2e_bench: no round finished in %.0f s\n",
                     double(limit_ns_) / 1e9);
        std::fflush(stderr);
        std::_Exit(kStalledExit);
      }
    }
  }

  const int64_t limit_ns_;
  std::atomic<int64_t> last_ns_{NowNs()};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  // Declared last: the thread uses the members above.
  std::thread thread_;
};

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Shape shape = ShapeFor(args.workload, args.tiny);
  // Resolve the library's environment-dependent defaults to their built-in
  // values so every run measures the same cluster.
  unsetenv("KERA_BROKER_SHARDS");
  unsetenv("KERA_RECOVERY_PARALLELISM");

  const double open_loop_s = args.tiny ? 0.5 : 1.0;
  const size_t min_rounds = args.trace ? 4 : 3;
  const double wall_cap_s = 140;
  const IdleSpinners spinners;
  StallWatchdog watchdog(20);
  const int64_t start = NowNs();
  std::vector<Round> rounds;
  double measured = 0;
  HostSpeed before = ProbeHostSpeed();
  for (uint64_t i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    const bool paired = !args.trace || i % 2 == 0;
    if (paired && rounds.size() >= min_rounds &&
        (measured >= args.seconds || args.tiny)) {
      break;
    }
    if (paired && double(NowNs() - start) / 1e9 > wall_cap_s) break;
    std::string spans_path;
    if (traced && i == 1 && !args.spans_dir.empty()) {
      spans_path = args.spans_dir + "/" + shape.name + "-seed" +
                   std::to_string(args.seed) + ".spans.tsv";
    }
    rounds.push_back(RunRound(shape, Mix64(args.seed ^ (i + 1)), open_loop_s,
                              traced, spans_path, spinners));
    const HostSpeed after = ProbeHostSpeed();
    Round& r = rounds.back();
    r.host = {(before.cpu_ms + after.cpu_ms) / 2,
              (before.rtt_us + after.rtt_us) / 2};
    r.host_factor = HostFactor(r.host, shape);
    before = after;
    measured += rounds.back().timed_s;
    watchdog.Progress();
  }

  std::vector<const Round*> traced, untraced;
  uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    (r.traced ? traced : untraced).push_back(&r);
    attempted += r.attempted;
    failed += r.failed;
  }
  const std::vector<Metric> metrics =
      args.trace ? PerLayer(traced, untraced) : EndToEnd(untraced);

  // Run record: host, build, resolved knobs, steal and per-round figures.
  const Round& first = rounds.front();
  std::string rec = "{\"run_record\": {";
  rec += "\"workload\": " + JsonString(shape.name);
  rec += ", \"seed\": " + std::to_string(args.seed);
  rec += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  rec += ", \"nproc\": " + std::to_string(HostNproc());
  rec += ", \"cpu_model\": " + JsonString(HostCpuModel());
  rec += ", \"build_type\": " + JsonString(E2EBENCH_BUILD_TYPE);
  rec += ", \"nodes\": " + std::to_string(kNodes);
  rec += ", \"streamlets\": " + std::to_string(shape.streamlets);
  rec += ", \"replication_factor\": " + std::to_string(shape.replication);
  rec += ", \"record_bytes\": " + std::to_string(shape.record_bytes);
  rec += ", \"broker_shards\": " + std::to_string(first.shards);
  rec += ", \"replication_window\": " +
         std::to_string(first.replication_window);
  rec += ", \"replication_workers\": " +
         std::to_string(first.replication_workers);
  rec += ", \"workers_per_node\": " +
         std::to_string(rpc::SocketNetwork::Options{}.workers_per_node);
  rec += ", \"recovery_parallelism\": " +
         std::to_string(first.recovery_parallelism);
  rec += ", \"idle_spinners\": " + std::to_string(spinners.active());
  rec += ", \"rounds\": " + std::to_string(rounds.size());
  // The untraced rounds the end-to-end medians use, and their samples.
  const std::vector<const Round*> used = Calm(untraced);
  size_t samples = 0;
  for (const Round* r : used) samples += r->delivery_ms.size();
  rec += ", \"rounds_used\": " + std::to_string(used.size());
  rec += ", \"delivery_samples\": " + std::to_string(samples);
  // The end-to-end medians before host scaling, and per round every figure
  // as measured with the host probe and factor that scale it.
  rec += ", \"host_exponent\": " + JsonNumber(shape.host_exponent);
  std::string measured_e2e = "{";
  for (const Metric& m : EndToEnd(untraced, true)) {
    if (measured_e2e.size() > 1) measured_e2e += ", ";
    measured_e2e += JsonString(m.name) + ": " + JsonNumber(m.value);
  }
  rec += ", \"as_measured\": " + measured_e2e + "}";
  std::string per_round = "[";
  for (const Round& r : rounds) {
    if (per_round.size() > 1) per_round += ", ";
    per_round += "{\"traced\": " + std::string(r.traced ? "1" : "0") +
                 ", \"steal_share\": " + JsonNumber(r.steal_share) +
                 ", \"threads\": " + std::to_string(r.threads) +
                 ", \"timed_s\": " + JsonNumber(r.timed_s) +
                 ", \"host_cpu_ms\": " + JsonNumber(r.host.cpu_ms) +
                 ", \"host_rtt_us\": " + JsonNumber(r.host.rtt_us) +
                 ", \"host_factor\": " + JsonNumber(r.host_factor);
    const std::vector<Metric> e2e = EndToEnd({&r}, true);
    for (const Metric& m : e2e) {
      per_round += ", " + JsonString(m.name) + ": " + JsonNumber(m.value);
    }
    // Explains the host exponent of ingest_r3 (see NOTES.md).
    per_round += ", \"records_per_chunk\": " +
                 JsonNumber(Ratio(double(r.producer.records_sent),
                                  double(r.producer.chunks_sent)));
    per_round += ", \"failed\": " + std::to_string(r.failed) + "}";
  }
  rec += ", \"per_round\": " + per_round + "]}}";
  std::printf("%s\n", rec.c_str());

  std::string result = "{\"correct\": ";
  result += failed == 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted);
  result += ", \"failed\": " + std::to_string(failed);
  result += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) result += ", ";
    result += JsonString(metrics[i].name) + ": {\"value\": " +
              JsonNumber(metrics[i].value) +
              ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
