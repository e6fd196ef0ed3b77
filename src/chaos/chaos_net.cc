#include "chaos/chaos_net.h"

#include <algorithm>
#include <future>
#include <utility>

namespace kera::chaos {

ChaosNetwork::ChaosNetwork(rpc::Network& inner, uint64_t seed)
    : inner_(inner), rng_(seed) {}

void ChaosNetwork::SetEdgePolicy(NodeId to, const EdgePolicy& policy) {
  std::lock_guard<std::mutex> lock(mu_);
  policies_[to] = policy;
}

void ChaosNetwork::SetPartitioned(NodeId to, bool partitioned) {
  std::lock_guard<std::mutex> lock(mu_);
  if (partitioned) {
    partitioned_.insert(to);
  } else {
    partitioned_.erase(to);
  }
}

void ChaosNetwork::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  policies_.clear();
  partitioned_.clear();
}

void ChaosNetwork::set_clock_hook(std::function<void(uint64_t)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_hook_ = std::move(hook);
}

uint64_t ChaosNetwork::virtual_now_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_us_;
}

void ChaosNetwork::AdvanceClockLocked(uint64_t delta_us, uint64_t& now_out) {
  virtual_now_us_ += delta_us;
  ++stats_.delays_injected;
  stats_.delay_us_injected += delta_us;
  now_out = virtual_now_us_;
}

bool ChaosNetwork::AdmitCall(NodeId to, bool& duplicate, bool& drop_response,
                             Status& error) {
  duplicate = false;
  drop_response = false;
  uint64_t clock_now = 0;
  bool clock_advanced = false;
  std::function<void(uint64_t)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.calls;
    if (partitioned_.count(to) != 0) {
      ++stats_.partitioned_calls;
      error = Status(StatusCode::kUnavailable, "chaos: partitioned");
      return false;
    }
    auto it = policies_.find(to);
    if (it != policies_.end()) {
      const EdgePolicy& p = it->second;
      if (p.max_delay_us > 0) {
        AdvanceClockLocked(rng_.NextBounded(p.max_delay_us + 1), clock_now);
        clock_advanced = true;
        hook = clock_hook_;
      }
      if (p.drop_request > 0.0 && rng_.NextDouble() < p.drop_request) {
        ++stats_.dropped_requests;
        error = Status(StatusCode::kUnavailable, "chaos: request dropped");
        return false;
      }
      duplicate = p.duplicate_request > 0.0 &&
                  rng_.NextDouble() < p.duplicate_request;
      drop_response = p.drop_response > 0.0 &&
                      rng_.NextDouble() < p.drop_response;
      if (drop_response) ++stats_.dropped_responses;
    }
  }
  if (clock_advanced && hook) hook(clock_now);
  return true;
}

Result<std::vector<std::byte>> ChaosNetwork::Call(
    NodeId to, std::span<const std::byte> request) {
  return CallAsync(to, request).get();
}

std::future<Result<std::vector<std::byte>>> ChaosNetwork::CallAsync(
    NodeId to, std::span<const std::byte> request) {
  bool duplicate = false;
  bool drop_response = false;
  Status error = OkStatus();
  if (!AdmitCall(to, duplicate, drop_response, error)) {
    std::promise<Result<std::vector<std::byte>>> promise;
    promise.set_value(std::move(error));
    return promise.get_future();
  }
  auto result = inner_.CallAsync(to, request);
  if (duplicate) {
    // A retransmission: the handler sees the frame again right away (its
    // response goes nowhere), and one more copy is held for late, shuffled
    // re-delivery at the next ReleaseHeld(). It is held after the original
    // is issued: over DirectNetwork, frames held by the handler's nested
    // calls stay ahead of it.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.duplicated_requests;
      held_.push_back({to, std::vector<std::byte>(request.begin(),
                                                  request.end())});
    }
    (void)inner_.CallAsync(to, request);
  }
  if (!drop_response) return result;
  // The inner call is already in flight; the loss shows when the caller
  // collects the result, once the handler has run.
  return std::async(
      std::launch::deferred,
      [f = std::move(result)]() mutable -> Result<std::vector<std::byte>> {
        (void)f.get();
        return Status(StatusCode::kUnavailable, "chaos: response dropped");
      });
}

std::future<Result<std::vector<std::byte>>> ChaosNetwork::CallAsyncParts(
    NodeId to, const rpc::BytesRefParts& parts) {
  // Materialize (the chaos harness is not a zero-copy benchmark) so held
  // duplicates own their bytes independently of segment memory lifetime.
  std::vector<std::byte> frame;
  size_t total = 0;
  for (const auto& piece : parts.pieces) total += piece.size();
  frame.reserve(total);
  for (const auto& piece : parts.pieces) {
    frame.insert(frame.end(), piece.begin(), piece.end());
  }
  return CallAsync(to, frame);
}

size_t ChaosNetwork::ReleaseHeld() {
  std::vector<HeldFrame> frames;
  {
    std::lock_guard<std::mutex> lock(mu_);
    frames.assign(std::make_move_iterator(held_.begin()),
                  std::make_move_iterator(held_.end()));
    held_.clear();
    // Fisher-Yates with the fault RNG: late retransmissions arrive in an
    // order unrelated to the original sends.
    for (size_t i = frames.size(); i > 1; --i) {
      std::swap(frames[i - 1], frames[rng_.NextBounded(i)]);
    }
    stats_.replayed_frames += frames.size();
  }
  for (const HeldFrame& f : frames) {
    (void)inner_.Call(f.to, f.frame);  // response discarded, like any late
                                       // retransmission's
  }
  return frames.size();
}

size_t ChaosNetwork::DiscardHeld() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = held_.size();
  held_.clear();
  stats_.discarded_frames += n;
  return n;
}

ChaosNetwork::Stats ChaosNetwork::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace kera::chaos
