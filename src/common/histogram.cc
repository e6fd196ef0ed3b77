#include "common/histogram.h"

#include <bit>

namespace kera {

int Histogram::BucketFor(uint64_t value) {
  if (value < kSubBuckets) return int(value);
  int pow = 63 - std::countl_zero(value);
  // Sub-bucket index within this power-of-two range.
  int sub = int((value >> (pow - 2)) & 3);
  int bucket = (pow - 1) * kSubBuckets + sub;
  if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  return bucket;
}

uint64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket < kSubBuckets) return uint64_t(bucket);
  int pow = bucket / kSubBuckets + 1;
  int sub = bucket % kSubBuckets;
  return (uint64_t(1) << pow) + (uint64_t(sub + 1) << (pow - 2)) - 1;
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

uint64_t Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  uint64_t target = uint64_t(q * double(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += counts_[i];
    if (seen >= target) return BucketUpperBound(i);
  }
  return max_;
}

}  // namespace kera
