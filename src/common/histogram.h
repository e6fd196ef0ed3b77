// Log-bucketed histogram for latency and size distributions. Lock-free
// single-writer; merge across writers for reporting.
#pragma once

#include <array>
#include <cstdint>

namespace kera {

/// Histogram over non-negative integer samples (e.g., microseconds, bytes).
/// Buckets are exponential with 4 sub-buckets per power of two, covering
/// [0, 2^40). Recording is O(1) with no allocation.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;
  static constexpr int kMaxPow = 40;
  static constexpr int kNumBuckets = kMaxPow * kSubBuckets + 1;

  void Record(uint64_t value) {
    ++counts_[BucketFor(value)];
    sum_ += value;
    if (value > max_) max_ = value;
    if (count_ == 0 || value < min_) min_ = value;
    ++count_;
  }

  void Merge(const Histogram& other);

  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] uint64_t sum() const { return sum_; }
  [[nodiscard]] uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] uint64_t max() const { return max_; }
  [[nodiscard]] double Mean() const {
    return count_ == 0 ? 0.0 : double(sum_) / double(count_);
  }

  /// Returns the upper bound of the bucket containing the q-quantile
  /// (q in [0,1]). Approximate within bucket resolution (~25%).
  [[nodiscard]] uint64_t Quantile(double q) const;

 private:
  static int BucketFor(uint64_t value);
  static uint64_t BucketUpperBound(int bucket);

  std::array<uint64_t, kNumBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace kera
