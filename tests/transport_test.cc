// Transport fault-semantics suite, run against both Network
// implementations (Direct, Socket) through a typed harness, plus
// socket-specific tests: zero-copy accounting on the parts path, request
// multiplexing over one connection, cross-instance routing via SetPeer,
// and a full produce/consume round trip over real TCP.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "rpc/messages.h"
#include "rpc/socket_transport.h"
#include "rpc/transport.h"

namespace kera::rpc {
namespace {

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string AsString(const std::vector<std::byte>& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// Echoes the request back; optionally sleeps first (to keep requests
/// in flight while the test crashes the node).
class EchoHandler : public RpcHandler {
 public:
  std::vector<std::byte> HandleRpc(
      std::span<const std::byte> request) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    return {request.begin(), request.end()};
  }
  std::atomic<int> calls{0};
  int delay_ms = 0;
};

// ----- typed harnesses: a uniform facade over the two transports -----

class DirectHarness {
 public:
  void Register(NodeId node, RpcHandler* h) { net_.Register(node, h); }
  void Crash(NodeId node) { net_.Crash(node); }
  void Restore(NodeId node, RpcHandler* h) { net_.Restore(node, h); }
  Network& network() { return net_; }

 private:
  DirectNetwork net_;
};

class SocketHarness {
 public:
  void Register(NodeId node, RpcHandler* h) {
    auto port = net_.Register(node, h);
    EXPECT_TRUE(port.ok()) << port.status().ToString();
  }
  void Crash(NodeId node) { net_.Crash(node); }
  void Restore(NodeId node, RpcHandler* h) {
    auto port = net_.Restore(node, h);
    EXPECT_TRUE(port.ok()) << port.status().ToString();
  }
  Network& network() { return net_; }

 private:
  SocketNetwork net_;
};

template <typename Harness>
class TransportTest : public ::testing::Test {
 protected:
  Harness harness_;
};

using Transports = ::testing::Types<DirectHarness, SocketHarness>;

class TransportNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if (std::is_same_v<T, DirectHarness>) return "Direct";
    return "Socket";
  }
};

TYPED_TEST_SUITE(TransportTest, Transports, TransportNames);

TYPED_TEST(TransportTest, EchoRoundTrip) {
  EchoHandler echo;
  this->harness_.Register(1, &echo);
  auto r = this->harness_.network().Call(1, AsBytes("ping"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(AsString(*r), "ping");
  EXPECT_EQ(echo.calls.load(), 1);
}

TYPED_TEST(TransportTest, UnknownNodeUnavailable) {
  auto r = this->harness_.network().Call(42, AsBytes("ping"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TYPED_TEST(TransportTest, MultiNodeIsolation) {
  EchoHandler a;
  EchoHandler b;
  this->harness_.Register(1, &a);
  this->harness_.Register(2, &b);
  ASSERT_TRUE(this->harness_.network().Call(1, AsBytes("x")).ok());
  ASSERT_TRUE(this->harness_.network().Call(2, AsBytes("y")).ok());
  auto r = this->harness_.network().Call(2, AsBytes("z"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(AsString(*r), "z");
  EXPECT_EQ(a.calls.load(), 1);
  EXPECT_EQ(b.calls.load(), 2);
}

TYPED_TEST(TransportTest, ManyInFlightAsync) {
  EchoHandler echo;
  this->harness_.Register(1, &echo);
  constexpr int kInFlight = 32;
  std::vector<std::future<Result<std::vector<std::byte>>>> futures;
  futures.reserve(kInFlight);
  for (int i = 0; i < kInFlight; ++i) {
    std::string payload = "req-" + std::to_string(i);
    futures.push_back(
        this->harness_.network().CallAsync(1, AsBytes(payload)));
  }
  for (int i = 0; i < kInFlight; ++i) {
    auto r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(AsString(*r), "req-" + std::to_string(i));
  }
  EXPECT_EQ(echo.calls.load(), kInFlight);
}

TYPED_TEST(TransportTest, PartsCallMatchesSpan) {
  EchoHandler echo;
  this->harness_.Register(1, &echo);
  // Scatter-gather request: three pieces with independent storage.
  const std::string a = "scatter-";
  const std::string b = "gather-";
  const std::string c = "pieces";
  BytesRefParts parts;
  parts.pieces = {AsBytes(a), AsBytes(b), AsBytes(c)};
  auto f = this->harness_.network().CallAsyncParts(1, parts);
  auto r = f.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(AsString(*r), a + b + c);
}

TYPED_TEST(TransportTest, CrashFailsNewCalls) {
  EchoHandler echo;
  this->harness_.Register(1, &echo);
  ASSERT_TRUE(this->harness_.network().Call(1, AsBytes("up")).ok());
  this->harness_.Crash(1);
  // The socket transport tears the connection down asynchronously; a call
  // issued before the client notices may still fail only on response. All
  // transports must converge to kUnavailable within the deadline.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  Result<std::vector<std::byte>> r = this->harness_.network().Call(
      1, AsBytes("down"));
  while (r.ok() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    r = this->harness_.network().Call(1, AsBytes("down"));
  }
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TYPED_TEST(TransportTest, CrashMidFlightCompletesEveryFuture) {
  EchoHandler slow;
  slow.delay_ms = 20;
  this->harness_.Register(1, &slow);
  std::vector<std::future<Result<std::vector<std::byte>>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(this->harness_.network().CallAsync(1, AsBytes("x")));
  }
  this->harness_.Crash(1);
  // Every future must become ready: either it completed before the crash
  // or it fails with kUnavailable — none may hang or be abandoned.
  int failed = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    auto r = f.get();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      ++failed;
    } else {
      EXPECT_EQ(AsString(*r), "x");
    }
  }
  // The stale futures stayed valid; at least the calls issued after the
  // handler pool saturated cannot all have completed... but timing makes
  // that non-deterministic, so only the completeness above is asserted.
  (void)failed;
}

TYPED_TEST(TransportTest, RestoreAfterCrashServesAgain) {
  EchoHandler first;
  this->harness_.Register(1, &first);
  ASSERT_TRUE(this->harness_.network().Call(1, AsBytes("one")).ok());
  this->harness_.Crash(1);

  EchoHandler second;
  this->harness_.Restore(1, &second);
  // The socket client may need a moment to drop the dead connection and
  // reconnect to the rebound listener; retry until the deadline.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Result<std::vector<std::byte>> r =
      this->harness_.network().Call(1, AsBytes("two"));
  while (!r.ok() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    r = this->harness_.network().Call(1, AsBytes("two"));
  }
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(AsString(*r), "two");
  EXPECT_GE(second.calls.load(), 1);
}

// ----- zero-copy accounting -----

TEST(TransportCopyTest, SocketPartsPathCopiesNothing) {
  SocketNetwork net;
  EchoHandler echo;
  ASSERT_TRUE(net.Register(1, &echo).ok());

  // Span path: one copy into the transport-owned frame (same contract as
  // the other transports).
  ASSERT_TRUE(net.Call(1, AsBytes("copied")).ok());
  auto s1 = net.GetStats();
  EXPECT_EQ(s1.calls, 1u);
  EXPECT_EQ(s1.tx_copied_bytes, 6u);
  EXPECT_EQ(s1.parts_copied_bytes, 0u);

  // Parts path: pieces go from caller memory straight to the vectored
  // send — zero payload bytes copied into transport buffers, and the
  // base-class materializing fallback is never taken.
  const std::string big(4096, 'z');
  BytesRefParts parts;
  parts.pieces = {AsBytes("hdr|"), AsBytes(big)};
  auto r = net.CallAsyncParts(1, parts).get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 4u + big.size());
  auto s2 = net.GetStats();
  EXPECT_EQ(s2.parts_calls, 1u);
  EXPECT_EQ(s2.tx_copied_bytes, s1.tx_copied_bytes);  // unchanged
  EXPECT_EQ(s2.parts_copied_bytes, 0u);
  EXPECT_EQ(net.materialized_parts_bytes(), 0u);
}

TEST(TransportCopyTest, BaseFallbackMaterializesOnce) {
  // Transports without a native parts path (Direct here) materialize the
  // frame exactly once and account for it.
  DirectNetwork net;
  EchoHandler echo;
  net.Register(1, &echo);
  BytesRefParts parts;
  parts.pieces = {AsBytes("abc"), AsBytes("defg")};
  auto r = net.CallAsyncParts(1, parts).get();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(AsString(*r), "abcdefg");
  EXPECT_EQ(net.materialized_parts_bytes(), 7u);
}

// ----- multiplexing -----

TEST(TransportMuxTest, ManyCallsShareOneConnection) {
  SocketNetwork net;
  EchoHandler echo;
  ASSERT_TRUE(net.Register(1, &echo).ok());
  constexpr int kRounds = 8;
  constexpr int kWindow = 16;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<Result<std::vector<std::byte>>>> futures;
    for (int i = 0; i < kWindow; ++i) {
      std::string payload =
          "r" + std::to_string(round) + "-" + std::to_string(i);
      futures.push_back(net.CallAsync(1, AsBytes(payload)));
    }
    for (int i = 0; i < kWindow; ++i) {
      auto r = futures[i].get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(AsString(*r),
                "r" + std::to_string(round) + "-" + std::to_string(i));
    }
  }
  // A resolved future proves the response bytes arrived, but the server
  // IO thread bumps frames_sent after the sendmsg that carried them — so
  // the counter can trail the futures briefly. It is monotonic; poll.
  const uint64_t want_frames = 2u * kRounds * kWindow;
  auto stats = net.GetStats();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stats.frames_sent < want_frames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = net.GetStats();
  }
  EXPECT_EQ(stats.connections_opened, 1u);  // no connection-per-call
  // Requests plus their responses (client and server share the instance).
  EXPECT_EQ(stats.frames_sent, want_frames);
  // Queued frames coalesce into vectored sends: strictly fewer syscalls
  // than frames on at least some flushes is not guaranteed by timing, but
  // the flush count can never exceed one per frame.
  EXPECT_LE(stats.sendmsg_calls, stats.frames_sent);
  EXPECT_EQ(echo.calls.load(), kRounds * kWindow);
}

// ----- cross-instance routing (two "processes" in one test) -----

TEST(TransportPeerTest, SetPeerRoutesAcrossInstances) {
  SocketNetwork server_net;
  EchoHandler echo;
  auto port = server_net.Register(7, &echo);
  ASSERT_TRUE(port.ok());

  SocketNetwork client_net;
  client_net.SetPeer(7, "127.0.0.1", *port);
  auto r = client_net.Call(7, AsBytes("hello across"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(AsString(*r), "hello across");
  EXPECT_EQ(echo.calls.load(), 1);
}

// ----- client wake machinery: deterministic eventfd race regressions -----
//
// The client IO loop coalesces wakeups through one eventfd guarded by a
// wake-pending flag. Two orderings inside the kWakeTag pass are
// load-bearing, and both once raced under stress: the eventfd must be
// drained BEFORE the pending flag is cleared, and the stop flag must be
// re-checked AFTER the drain (a stop token can be consumed by a drain it
// raced into). These tests drive the exact interleavings through the
// injected wake hooks instead of hammering threads and hoping.

TEST(SocketWakeRaceTest, WakeInDrainWindowDoesNotStrandPendingFlag) {
  SocketNetwork net;
  EchoHandler echo;
  auto port = net.Register(1, &echo);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  // Warm the connection so later calls exercise only the wake machinery.
  auto warm = net.Call(1, AsBytes("warm"));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // Inject a concurrent WakeClient at the exact point between the eventfd
  // drain and the pending-flag clear — the critical window. With the
  // correct order the flag is still set there, so the injected wake
  // elides its signal and the clear below leaves a clean slate. With the
  // broken order (clear first) the injected token is eaten by the drain
  // while the flag sticks at true: every later WakeClient elides its
  // signal, no pass ever flushes the queue again, and the call below
  // hangs.
  std::atomic<bool> injected{false};
  net.SetClientWakeHooksForTest({}, [&net, &injected] {
    if (!injected.exchange(true)) net.InjectClientWakeForTest();
  });

  auto f2 = net.CallAsync(1, AsBytes("two"));
  ASSERT_EQ(std::future_status::ready, f2.wait_for(std::chrono::seconds(10)));
  for (int i = 0; i < 5000 && !injected.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(injected.load()) << "wake pass never ran the injected hook";
  net.SetClientWakeHooksForTest({}, {});

  auto f3 = net.CallAsync(1, AsBytes("three"));
  ASSERT_EQ(std::future_status::ready, f3.wait_for(std::chrono::seconds(10)))
      << "wake-pending flag stranded: a wake injected inside the "
         "drain-to-clear window was lost and later signals were elided";
  auto r3 = f3.get();
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(AsString(*r3), "three");
}

TEST(SocketWakeRaceTest, StopTokenAbsorbedByDrainStillStopsLoop) {
  auto net = std::make_unique<SocketNetwork>();

  // Fire the client-side stop (exactly what Shutdown does: store the flag,
  // signal the eventfd) from just before a drain, so the drain consumes
  // the stop token along with the wake token that triggered the pass. The
  // post-clear stop re-check must still notice the flag and exit the
  // loop; without it the thread re-parks in epoll_wait with the stop
  // token already eaten.
  std::atomic<int> fires{0};
  SocketNetwork* raw = net.get();
  net->SetClientWakeHooksForTest(
      [raw, &fires] {
        if (fires.fetch_add(1) == 0) raw->SignalClientStopForTest();
      },
      {});
  net->InjectClientWakeForTest();
  for (int i = 0; i < 5000 && fires.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fires.load(), 1) << "wake pass never ran the injected hook";

  // The stop is sticky once absorbed: a fresh wake token must not get the
  // loop to process events again (the exited thread never drains it).
  net->InjectClientWakeForTest();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(fires.load(), 1)
      << "client IO loop kept processing wake passes after an absorbed "
         "stop token";

  // And teardown must complete promptly — the join inside Shutdown hangs
  // forever if the loop is still parked waiting for a token that was
  // already consumed.
  auto gone = std::async(std::launch::async, [&net] { net.reset(); });
  ASSERT_EQ(std::future_status::ready, gone.wait_for(std::chrono::seconds(10)))
      << "Shutdown did not complete after an absorbed stop token";
}

// ----- server shard wake machinery: the same races, per-shard -----
//
// Every server shard runs the identical eventfd coalescing protocol as
// the client loop (drain before clearing wake_pending, re-check stop
// after the drain), so the PR-3 client races exist per shard too. These
// drive them through the server-side hooks on a 2-shard node, with a
// router that sends every request to shard 1 while the connection lives
// on shard 0 — so each call also crosses the response-staging wake path
// between shards.

TEST(SocketWakeRaceTest, ServerShardWakeInDrainWindowDoesNotStrandFlag) {
  SocketNetwork net;
  EchoHandler echo;
  SocketNetwork::NodeOptions opts;
  opts.shards = 2;
  // All requests to shard 1; the (single, shared) client connection is
  // accepted by shard 0, so every response is staged cross-shard and
  // delivered through shard 0's wake path.
  opts.router = [](std::span<const std::byte>, int) { return 1; };
  auto port = net.Register(1, &echo, std::move(opts));
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  auto warm = net.Call(1, AsBytes("warm"));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // Inject concurrent wakes into BOTH shards at the point between a
  // shard's eventfd drain and its pending-flag clear. For the shard
  // mid-pass this lands in the critical window: with the correct order
  // the flag is still set, the injected wake elides its signal, and the
  // clear leaves a clean slate. With the broken order (clear first) the
  // token is eaten while the flag sticks at true, every later response
  // wake on that shard is elided, and the call below never completes.
  std::atomic<bool> injected{false};
  net.SetServerWakeHooksForTest({}, [&net, &injected] {
    if (!injected.exchange(true)) {
      net.InjectServerWakeForTest(1, 0);
      net.InjectServerWakeForTest(1, 1);
    }
  });

  auto f2 = net.CallAsync(1, AsBytes("two"));
  ASSERT_EQ(std::future_status::ready, f2.wait_for(std::chrono::seconds(10)));
  for (int i = 0; i < 5000 && !injected.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(injected.load()) << "server wake pass never ran the hook";
  net.SetServerWakeHooksForTest({}, {});

  auto f3 = net.CallAsync(1, AsBytes("three"));
  ASSERT_EQ(std::future_status::ready, f3.wait_for(std::chrono::seconds(10)))
      << "server shard wake-pending flag stranded: a wake injected inside "
         "the drain-to-clear window was lost and later response wakes "
         "were elided";
  auto r3 = f3.get();
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(AsString(*r3), "three");
}

TEST(SocketWakeRaceTest, ServerShardStopAbsorbedByDrainStillStopsLoops) {
  auto net = std::make_unique<SocketNetwork>();
  EchoHandler echo;
  SocketNetwork::NodeOptions opts;
  opts.shards = 2;
  auto port = net->Register(1, &echo, std::move(opts));
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  // Fire the node's stop (what Crash/Shutdown do: store the flag, signal
  // EVERY shard's eventfd) from just before a shard-0 drain, so shard 0
  // absorbs its stop token together with the wake token that triggered
  // the pass. The post-drain stop re-check must still notice the flag on
  // that shard; without it the loop re-parks in epoll_wait with its token
  // already eaten, and the node can never be torn down.
  std::atomic<int> fires{0};
  SocketNetwork* raw = net.get();
  net->SetServerWakeHooksForTest(
      [raw, &fires] {
        if (fires.fetch_add(1) == 0) raw->SignalServerStopForTest(1);
      },
      {});
  net->InjectServerWakeForTest(1, 0);
  for (int i = 0; i < 5000 && fires.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fires.load(), 1) << "server wake pass never ran the hook";

  // Teardown joins every shard IO loop; it hangs forever if any shard is
  // still parked waiting for a token that was already consumed.
  auto gone = std::async(std::launch::async, [&net] { net.reset(); });
  ASSERT_EQ(std::future_status::ready, gone.wait_for(std::chrono::seconds(10)))
      << "Shutdown did not join all shard IO loops after an absorbed "
         "stop token";
}

// Crash on a multi-shard node: all shard loops (including ones with no
// traffic, parked deep in epoll_wait, and workers blocked mid-handler)
// must be signalled and joined promptly, in-flight calls must complete,
// and Restore must bring the node back with the SAME shard topology.
TEST(SocketShardTest, CrashJoinsAllShardLoopsAndRestoreKeepsTopology) {
  SocketNetwork net;
  EchoHandler echo;
  echo.delay_ms = 30;  // keep handlers in flight across the crash
  SocketNetwork::NodeOptions opts;
  opts.shards = 3;
  opts.router = [](std::span<const std::byte> frame, int shards) {
    return frame.empty() ? 0 : int(frame[0]) % shards;
  };
  auto port = net.Register(1, &echo, std::move(opts));
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  std::vector<std::future<Result<std::vector<std::byte>>>> inflight;
  for (int i = 0; i < 9; ++i) {
    std::string payload(1, char('a' + i));
    inflight.push_back(net.CallAsync(1, AsBytes(payload)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  net.Crash(1);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5))
      << "Crash blocked on a stranded shard IO loop";
  for (auto& f : inflight) {
    ASSERT_EQ(std::future_status::ready, f.wait_for(std::chrono::seconds(10)))
        << "in-flight call leaked across a multi-shard Crash";
    (void)f.get();  // completed response or error; both are fine
  }

  echo.delay_ms = 0;
  auto rport = net.Restore(1, &echo);
  ASSERT_TRUE(rport.ok()) << rport.status().ToString();
  auto r = net.Call(1, AsBytes("back"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(AsString(*r), "back");
}

// ----- end-to-end over TCP -----

TEST(SocketClusterTest, ProduceConsumeRoundTrip) {
  MiniClusterConfig cfg;
  cfg.nodes = 2;
  cfg.transport = MiniClusterTransport::kSocket;
  cfg.segment_size = 64 << 10;
  cfg.virtual_segment_capacity = 64 << 10;
  cfg.broker_memory_bytes = 64 << 20;
  MiniCluster cluster(cfg);

  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  opts.replication_factor = 2;
  auto info = cluster.coordinator().CreateStream("s", opts);
  ASSERT_TRUE(info.ok());

  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = "s";
  pc.chunk_size = 1024;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kRecords = 1000;
  for (int i = 0; i < kRecords; ++i) {
    std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(producer.Send(AsBytes(v)).ok());
  }
  ASSERT_TRUE(producer.Close().ok());

  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::multiset<std::string> received;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received.size() < kRecords &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(256)) {
      received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                       rec.value.size());
    }
  }
  consumer.Close();
  ASSERT_EQ(received.size(), size_t(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(received.count("v" + std::to_string(i)), 1u) << i;
  }
}

}  // namespace
}  // namespace kera::rpc
