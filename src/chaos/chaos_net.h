// ChaosNetwork: the fault-injection decorator, wrapping any rpc::Network.
// Per-edge fault policies (per destination service: request/response
// drops, request duplication, bounded delays), hard partitions, a virtual
// clock advanced by the injected delays, and held duplicate frames that
// can be re-delivered late and shuffled — the deterministic stand-in for
// reordered retransmissions.
//
// Calls forward to the inner network's CallAsync, so fan-out over a real
// transport (SocketNetwork) stays parallel. A dropped response is applied
// when the caller collects the result, after the handler has run.
// Services register, crash and restore on the inner network directly.
//
// Determinism contract: all fault coins come from one seeded Xoshiro256
// drawn in call-issue order under a single lock. Over a DirectNetwork,
// whose calls resolve inline, a single-threaded harness therefore replays
// byte-identically from the seed. Delays never sleep; they only advance
// the virtual clock (and notify the optional clock hook), so wall-clock
// time never leaks into a schedule.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/rng.h"
#include "rpc/transport.h"

namespace kera::chaos {

class ChaosNetwork final : public rpc::Network {
 public:
  /// Fault policy for one edge (every call addressed to one destination
  /// service; broker and backup services of a node are distinct edges).
  struct EdgePolicy {
    double drop_request = 0.0;      // lost before the handler runs
    double drop_response = 0.0;     // handler ran; caller sees kUnavailable
    double duplicate_request = 0.0; // delivered twice + held for late replay
    uint64_t max_delay_us = 0;      // virtual-clock delay drawn in [0, max]
  };

  /// `inner` must outlive the decorator.
  ChaosNetwork(rpc::Network& inner, uint64_t seed);

  /// Installs the fault policy for calls addressed to `to` (replaces any
  /// previous policy for that edge).
  void SetEdgePolicy(NodeId to, const EdgePolicy& policy);

  /// Hard partition: every call addressed to `to` fails with kUnavailable
  /// without reaching the handler.
  void SetPartitioned(NodeId to, bool partitioned);

  /// Clears every edge policy and partition. Held duplicate frames are
  /// kept — release or discard them explicitly.
  void ClearFaults();

  /// Re-delivers the held duplicate frames in a shuffled order (responses
  /// are discarded — the original caller is long gone, exactly like a late
  /// retransmission). Returns the number of frames delivered.
  size_t ReleaseHeld();

  /// Drops the held duplicate frames without delivering them (used before
  /// crash/recovery boundaries, where a late replay would model a packet
  /// surviving across an epoch it could not have survived).
  size_t DiscardHeld();

  /// Virtual time advanced by injected delays, microseconds.
  [[nodiscard]] uint64_t virtual_now_us() const;

  /// Called (outside the lock) after every virtual-clock advance with the
  /// new virtual time; the harness uses it to timestamp trace annotations.
  void set_clock_hook(std::function<void(uint64_t)> hook);

  Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) override;
  std::future<Result<std::vector<std::byte>>> CallAsync(
      NodeId to, std::span<const std::byte> request) override;
  std::future<Result<std::vector<std::byte>>> CallAsyncParts(
      NodeId to, const rpc::BytesRefParts& parts) override;

  struct Stats {
    uint64_t calls = 0;
    uint64_t dropped_requests = 0;
    uint64_t dropped_responses = 0;
    uint64_t duplicated_requests = 0;
    uint64_t replayed_frames = 0;    // held duplicates delivered late
    uint64_t discarded_frames = 0;   // held duplicates dropped
    uint64_t partitioned_calls = 0;
    uint64_t delays_injected = 0;
    uint64_t delay_us_injected = 0;
  };
  [[nodiscard]] Stats GetStats() const;

 private:
  struct HeldFrame {
    NodeId to = 0;
    std::vector<std::byte> frame;
  };

  /// Coin flips + clock advance for one call, under mu_; returns false if
  /// the request is dropped or partitioned (error already prepared).
  bool AdmitCall(NodeId to, bool& duplicate, bool& drop_response,
                 Status& error);
  void AdvanceClockLocked(uint64_t delta_us, uint64_t& now_out);

  rpc::Network& inner_;
  mutable std::mutex mu_;
  Xoshiro256 rng_;
  std::map<NodeId, EdgePolicy> policies_;
  std::set<NodeId> partitioned_;
  std::deque<HeldFrame> held_;
  uint64_t virtual_now_us_ = 0;
  std::function<void(uint64_t)> clock_hook_;
  Stats stats_;
};

}  // namespace kera::chaos
