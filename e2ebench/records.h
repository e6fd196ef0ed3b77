// Seeded benchmark records and the exactly-once ledger that checks them.
//
// Every record the generator sends is
//
//   u64 seq | u64 due_ns | u32 tag | body
//
// where `due_ns` is the time the record was due to be sent (0 for closed
// loops and warm-up records), `tag` is a checksum derived from the seed, the
// sequence number and the due time, and `body` is a slice of a seeded random
// pattern chosen by the sequence number. A reader recomputes all three from
// the seed alone, so a dropped, duplicated or corrupted record is caught
// without keeping a copy of what was sent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace e2ebench {

inline uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class RecordCodec {
 public:
  static constexpr size_t kHeaderBytes = 8 + 8 + 4;

  RecordCodec(uint64_t seed, size_t record_bytes)
      : seed_(seed), record_bytes_(record_bytes) {
    pattern_.resize(kPatternBytes + record_bytes);
    uint64_t state = Mix64(seed);
    for (size_t i = 0; i < pattern_.size(); i += 8) {
      state = Mix64(state);
      for (size_t b = 0; b < 8 && i + b < pattern_.size(); ++b) {
        pattern_[i + b] = std::byte(state >> (8 * b));
      }
    }
  }

  [[nodiscard]] size_t record_bytes() const { return record_bytes_; }

  /// Writes record `seq` into `out` (exactly record_bytes() long).
  void Encode(uint64_t seq, uint64_t due_ns, std::span<std::byte> out) const {
    const uint32_t tag = Tag(seq, due_ns);
    std::memcpy(out.data(), &seq, 8);
    std::memcpy(out.data() + 8, &due_ns, 8);
    std::memcpy(out.data() + 16, &tag, 4);
    std::memcpy(out.data() + kHeaderBytes, Body(seq), BodyBytes());
  }

  /// Checks a polled record; on success returns its sequence number and
  /// due time.
  [[nodiscard]] bool Decode(std::span<const std::byte> rec, uint64_t* seq,
                            uint64_t* due_ns) const {
    if (rec.size() != record_bytes_) return false;
    uint32_t tag = 0;
    std::memcpy(seq, rec.data(), 8);
    std::memcpy(due_ns, rec.data() + 8, 8);
    std::memcpy(&tag, rec.data() + 16, 4);
    return tag == Tag(*seq, *due_ns) &&
           std::memcmp(rec.data() + kHeaderBytes, Body(*seq), BodyBytes()) ==
               0;
  }

 private:
  static constexpr size_t kPatternBytes = 64 << 10;

  [[nodiscard]] uint32_t Tag(uint64_t seq, uint64_t due_ns) const {
    return uint32_t(Mix64(seed_ ^ Mix64(seq) ^ Mix64(due_ns + 0x5bd1e995)));
  }
  [[nodiscard]] const std::byte* Body(uint64_t seq) const {
    return pattern_.data() + Mix64(seed_ + seq) % kPatternBytes;
  }
  [[nodiscard]] size_t BodyBytes() const {
    return record_bytes_ - kHeaderBytes;
  }

  uint64_t seed_;
  size_t record_bytes_;
  std::vector<std::byte> pattern_;
};

/// Counts what one reader saw of records [0, expected): each must arrive
/// exactly once with intact bytes.
class Ledger {
 public:
  explicit Ledger(uint64_t expected) : seen_(expected, 0) {}

  /// Records one polled value. Returns true (with its due time) the first
  /// time an intact record arrives; corrupted, out-of-range and repeated
  /// records are counted and return false.
  bool Observe(std::span<const std::byte> value, const RecordCodec& codec,
               uint64_t* due_ns) {
    uint64_t seq = 0;
    if (!codec.Decode(value, &seq, due_ns) || seq >= seen_.size()) {
      ++corrupted_;
      return false;
    }
    if (seen_[seq] != 0) {
      ++duplicated_;
      return false;
    }
    seen_[seq] = 1;
    ++delivered_;
    return true;
  }

  [[nodiscard]] uint64_t expected() const { return seen_.size(); }
  [[nodiscard]] uint64_t delivered() const { return delivered_; }
  [[nodiscard]] uint64_t missing() const { return seen_.size() - delivered_; }
  [[nodiscard]] uint64_t duplicated() const { return duplicated_; }
  [[nodiscard]] uint64_t corrupted() const { return corrupted_; }
  [[nodiscard]] uint64_t failed() const {
    return missing() + duplicated_ + corrupted_;
  }

 private:
  std::vector<uint8_t> seen_;
  uint64_t delivered_ = 0;
  uint64_t duplicated_ = 0;
  uint64_t corrupted_ = 0;
};

}  // namespace e2ebench
