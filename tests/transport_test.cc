// Transport fault-semantics suite, run against both Network
// implementations (Direct, Socket) through a typed harness, plus
// socket-specific tests: zero-copy accounting on the parts path, request
// multiplexing over one connection, cross-instance routing via SetPeer,
// the receive path's frame reassembly (large frames, split headers,
// corrupt lengths), and a full produce/consume round trip over real TCP.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
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

// ----- receive path: fixed read buffer, large frames in their own -----

constexpr size_t kReadBuffer = 64 << 10;  // SocketNetwork's fixed buffer
constexpr size_t kFrameHeader = 12;       // u32 length + u64 request id

/// Deterministic bytes for a frame of `size` bytes, distinct per frame.
std::vector<std::byte> Pattern(size_t size, size_t salt) {
  std::vector<std::byte> out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = std::byte((i * 131 + salt * 7 + (i >> 9)) & 0xff);
  }
  return out;
}

std::vector<std::byte> FrameBytes(uint32_t len, uint64_t id,
                                  std::span<const std::byte> payload) {
  std::vector<std::byte> out(kFrameHeader);
  std::memcpy(out.data(), &len, 4);
  std::memcpy(out.data() + 4, &id, 8);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// A plain blocking TCP client socket, for feeding a node raw bytes.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() { close(fd_); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }
  bool Write(std::span<const std::byte> bytes) {
    size_t done = 0;
    while (done < bytes.size()) {
      ssize_t n = send(fd_, bytes.data() + done, bytes.size() - done,
                       MSG_NOSIGNAL);
      if (n <= 0) return false;
      done += size_t(n);
    }
    return true;
  }
  /// Reads exactly `n` bytes; false on EOF, error or a 5 s silence.
  bool ReadExact(std::byte* out, size_t n) {
    size_t done = 0;
    while (done < n) {
      pollfd p{fd_, POLLIN, 0};
      if (poll(&p, 1, 5000) <= 0) return false;
      ssize_t got = read(fd_, out + done, n - done);
      if (got <= 0) return false;
      done += size_t(got);
    }
    return true;
  }
  /// True when the peer closes the connection within 5 s.
  bool ClosedByPeer() {
    std::byte b;
    pollfd p{fd_, POLLIN, 0};
    if (poll(&p, 1, 5000) <= 0) return false;
    return read(fd_, &b, 1) <= 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

// Frames just below, at and above the fixed read buffer, and far above
// it, pipelined with small frames on one connection in both directions
// (the echo's responses are as large as its requests).
TEST(SocketReceiveTest, FramesAroundTheReadBufferArriveIntactBothWays) {
  SocketNetwork net;
  EchoHandler echo;
  ASSERT_TRUE(net.Register(1, &echo).ok());
  const std::vector<size_t> sizes = {
      17,
      kReadBuffer - 1,
      3,
      kReadBuffer,
      kReadBuffer + 1,
      100,
      kReadBuffer - kFrameHeader - 1,  // wire frames of 64 KiB - 1, ...
      kReadBuffer - kFrameHeader,      // ... exactly 64 KiB ...
      kReadBuffer - kFrameHeader + 1,  // ... and 64 KiB + 1
      1,
      size_t(4) << 20,
      64,
  };
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<std::byte>> requests;
    std::vector<std::future<Result<std::vector<std::byte>>>> futures;
    for (size_t i = 0; i < sizes.size(); ++i) {
      requests.push_back(Pattern(sizes[i], i + 100 * size_t(round)));
      futures.push_back(net.CallAsync(1, requests.back()));
    }
    for (size_t i = 0; i < sizes.size(); ++i) {
      auto r = futures[i].get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(*r == requests[i]) << "frame of " << sizes[i] << " bytes";
    }
  }
  size_t large = 0;
  for (size_t size : sizes) large += kFrameHeader + size > kReadBuffer;
  auto stats = net.GetStats();
  EXPECT_EQ(stats.connections_opened, 1u);
  // Each large request and its echoed response took the own-buffer path.
  EXPECT_EQ(stats.large_frames_read, 2 * 3 * large);
}

// A frame whose header and payload trickle in, a few bytes at a time,
// is reassembled whatever the split.
TEST(SocketReceiveTest, FrameSplitAcrossManyReadsIsReassembled) {
  SocketNetwork net;
  EchoHandler echo;
  auto port = net.Register(1, &echo);
  ASSERT_TRUE(port.ok());
  RawConn conn(*port);
  ASSERT_TRUE(conn.connected());
  for (size_t size : {size_t(40), kReadBuffer + 4000}) {
    SCOPED_TRACE(size);
    const auto payload = Pattern(size, size);
    const uint64_t id = 77 + size;
    const auto frame = FrameBytes(uint32_t(8 + size), id, payload);
    size_t pos = 0;
    for (size_t step : {size_t(2), size_t(3), size_t(5), size_t(4)}) {
      ASSERT_TRUE(conn.Write({frame.data() + pos, step}));
      pos += step;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    while (pos < frame.size()) {
      size_t step = std::min<size_t>(9000, frame.size() - pos);
      ASSERT_TRUE(conn.Write({frame.data() + pos, step}));
      pos += step;
    }
    std::vector<std::byte> reply(kFrameHeader + size);
    ASSERT_TRUE(conn.ReadExact(reply.data(), reply.size()));
    uint32_t len;
    uint64_t reply_id;
    std::memcpy(&len, reply.data(), 4);
    std::memcpy(&reply_id, reply.data() + 4, 8);
    EXPECT_EQ(len, uint32_t(8 + size));
    EXPECT_EQ(reply_id, id);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           reply.begin() + kFrameHeader));
  }
}

// A length field below the request id or above max_frame_bytes is corrupt
// framing: the node closes the connection instead of waiting or
// allocating.
TEST(SocketReceiveTest, CorruptLengthClosesTheConnection) {
  SocketNetwork::Options opts;
  opts.max_frame_bytes = 1 << 20;
  SocketNetwork net(opts);
  EchoHandler echo;
  auto port = net.Register(1, &echo);
  ASSERT_TRUE(port.ok());
  for (uint32_t len : {uint32_t(3), uint32_t((1 << 20) + 1)}) {
    SCOPED_TRACE(len);
    RawConn conn(*port);
    ASSERT_TRUE(conn.connected());
    ASSERT_TRUE(conn.Write(FrameBytes(len, 1, {})));
    EXPECT_TRUE(conn.ClosedByPeer());
  }
  EXPECT_EQ(echo.calls.load(), 0);
  // The node still serves well-formed traffic.
  auto r = net.Call(1, AsBytes("still up"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(AsString(*r), "still up");
}

/// Resident set size of this process, from /proc/self/statm.
uint64_t ResidentBytes() {
  unsigned long long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%llu %llu", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return uint64_t(resident) * uint64_t(sysconf(_SC_PAGESIZE));
}

// A length field within max_frame_bytes is no reason to allocate the
// frame: a header claiming nearly the maximum, with no payload behind it,
// costs the node no frame-sized buffer, and when the peer gives up the
// node is still up and has counted no large frame.
TEST(SocketReceiveTest, HeaderAloneCommitsNoFrameBuffer) {
  SocketNetwork::Options opts;
  opts.max_frame_bytes = size_t(256) << 20;
  SocketNetwork net(opts);
  EchoHandler echo;
  auto port = net.Register(1, &echo);
  ASSERT_TRUE(port.ok());
  const uint64_t resident_before = ResidentBytes();
  {
    RawConn conn(*port);
    ASSERT_TRUE(conn.connected());
    ASSERT_TRUE(
        conn.Write(FrameBytes(uint32_t(opts.max_frame_bytes - 1), 1, {})));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (net.GetStats().bytes_received < kFrameHeader &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(net.GetStats().bytes_received, kFrameHeader);
    // The count is taken before the header is parsed: watch for a while.
    // Zero-filling a buffer of the claimed size would add 256 MiB.
    uint64_t resident_peak = 0;
    for (int i = 0; i < 60; ++i) {
      resident_peak = std::max(resident_peak, ResidentBytes());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_LT(resident_peak, resident_before + (uint64_t(64) << 20));
  }  // the peer closes with the frame's payload missing
  auto r = net.Call(1, AsBytes("still up"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(AsString(*r), "still up");
  EXPECT_EQ(echo.calls.load(), 1);
  EXPECT_EQ(net.GetStats().large_frames_read, 0u);
}

// The client side applies the same check to responses: a corrupt length
// fails the call instead of leaving it pending.
TEST(SocketReceiveTest, CorruptResponseLengthFailsTheCall) {
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
  std::thread fake_server([&] {
    int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::byte header[kFrameHeader];
    size_t got = 0;
    while (got < sizeof(header)) {
      ssize_t n = read(fd, header + got, sizeof(header) - got);
      if (n <= 0) break;
      got += size_t(n);
    }
    // Answer with a length smaller than the request id it must carry.
    uint32_t bad_len = 2;
    std::memcpy(header, &bad_len, 4);
    (void)send(fd, header, sizeof(header), MSG_NOSIGNAL);
    std::byte b;
    while (read(fd, &b, 1) > 0) {
    }
    close(fd);
  });
  SocketNetwork net;
  net.SetPeer(5, "127.0.0.1", ntohs(addr.sin_port));
  auto r = net.Call(5, AsBytes("ping"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  net.Shutdown();
  fake_server.join();
  close(listener);
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
