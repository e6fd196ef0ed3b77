// Shows that the benchmark's record check counts a dropped, a duplicated
// and a corrupted record each as one failure, and a clean delivery as none.
// Exits non-zero on the first expectation that does not hold.
#include <cstdio>
#include <vector>

#include "records.h"

namespace {

using e2ebench::Ledger;
using e2ebench::RecordCodec;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Delivers records [0, n) to a fresh ledger, letting `tamper` drop,
/// repeat or alter them on the way.
template <typename Tamper>
Ledger Deliver(const RecordCodec& codec, uint64_t n, Tamper&& tamper) {
  Ledger ledger(n);
  std::vector<std::byte> rec(codec.record_bytes());
  for (uint64_t seq = 0; seq < n; ++seq) {
    codec.Encode(seq, seq * 1000, rec);
    uint64_t due = 0;
    const int copies = tamper(seq, rec);
    for (int c = 0; c < copies; ++c) ledger.Observe(rec, codec, &due);
  }
  return ledger;
}

}  // namespace

int main() {
  for (size_t bytes : {size_t(100), size_t(1024)}) {
    const RecordCodec codec(/*seed=*/42, bytes);
    constexpr uint64_t kRecords = 1000;

    Ledger clean = Deliver(codec, kRecords, [](uint64_t, auto&) { return 1; });
    Expect(clean.failed() == 0 && clean.delivered() == kRecords,
           "clean delivery has no failures");

    Ledger dropped = Deliver(codec, kRecords, [](uint64_t seq, auto&) {
      return seq == 17 ? 0 : 1;
    });
    Expect(dropped.missing() == 1 && dropped.failed() == 1,
           "a dropped record is one failure");

    Ledger duplicated = Deliver(codec, kRecords, [](uint64_t seq, auto&) {
      return seq == 17 ? 2 : 1;
    });
    Expect(duplicated.duplicated() == 1 && duplicated.failed() == 1,
           "a duplicated record is one failure");

    // A flipped payload bit fails the check; the record then never arrives
    // intact either, so it is counted as corrupted and as missing.
    Ledger corrupted = Deliver(codec, kRecords, [&](uint64_t seq, auto& rec) {
      if (seq == 17) rec[bytes - 1] ^= std::byte{0x01};
      return 1;
    });
    Expect(corrupted.corrupted() == 1 && corrupted.missing() == 1 &&
               corrupted.failed() == 2,
           "a corrupted record is counted as failed");

    // A record of another seed is corrupt even when its bytes are intact.
    const RecordCodec other(/*seed=*/43, bytes);
    Ledger foreign(1);
    std::vector<std::byte> rec(bytes);
    other.Encode(0, 0, rec);
    uint64_t due = 0;
    Expect(!foreign.Observe(rec, codec, &due) && foreign.corrupted() == 1,
           "a record from another seed is rejected");
  }
  if (failures == 0) std::printf("record_check_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
