// Growable byte buffer whose large capacity is an anonymous mapping of its
// own. A mapping costs memory only for the pages written into it, returns
// all of them to the kernel when released, and grows by mremap, which
// moves pages instead of copying bytes. malloc gives none of this: it maps
// large blocks only above a threshold that rises each time such a block is
// freed, and serves the rest from a heap that keeps freed blocks resident.
// A buffer may thus reserve room it never fills and hold only what it
// wrote, whatever malloc's history. Capacities below kMapBytes stay on the
// heap, where a mapping per buffer would cost a page and a kernel mapping
// each. An append into fresh pages of a mapping populates them with one
// madvise(MADV_POPULATE_WRITE) first, which costs about half of taking a
// page fault per page (Linux 5.14+; older kernels take the faults).
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <utility>

namespace kera {

class MappedBuffer {
 public:
  /// Smallest mapped capacity (glibc's initial mmap threshold, fixed).
  static constexpr size_t kMapBytes = size_t(128) << 10;

  MappedBuffer() = default;
  MappedBuffer(MappedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)),
        populated_(std::exchange(other.populated_, 0)) {}
  MappedBuffer& operator=(MappedBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
      populated_ = std::exchange(other.populated_, 0);
    }
    return *this;
  }
  MappedBuffer(const MappedBuffer&) = delete;
  MappedBuffer& operator=(const MappedBuffer&) = delete;
  ~MappedBuffer() { Release(); }

  [[nodiscard]] std::byte* data() { return data_; }
  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] size_t capacity() const { return capacity_; }

  /// Makes the capacity at least `n` bytes (a mapped capacity rounds up
  /// to whole pages). Keeps the bytes; never shrinks.
  void Reserve(size_t n) {
    if (n <= capacity_) return;
    if (n < kMapBytes) {
      void* p = std::realloc(data_, n);
      if (p == nullptr) throw std::bad_alloc();
      data_ = static_cast<std::byte*>(p);
      capacity_ = n;
      return;
    }
    const size_t page = PageSize();
    const size_t bytes = (n + page - 1) / page * page;
    void* p;
    if (capacity_ >= kMapBytes) {
      p = mremap(data_, capacity_, bytes, MREMAP_MAYMOVE);
    } else {
      p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p != MAP_FAILED) {
        if (size_ > 0) std::memcpy(p, data_, size_);
        std::free(data_);
        populated_ = size_;
      }
    }
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<std::byte*>(p);
    capacity_ = bytes;
  }

  /// Appends `bytes`, at least doubling the capacity when they do not fit.
  void Append(std::span<const std::byte> bytes) {
    if (bytes.empty()) return;
    const size_t end = size_ + bytes.size();
    if (end > capacity_) Reserve(std::max(end, 2 * capacity_));
    if (capacity_ >= kMapBytes && end > populated_) {
      // Pages below populated_ are resident; populate the rest this
      // append reaches (the mapping ends on a page boundary).
      const size_t page = PageSize();
      const size_t from = populated_ / page * page;
      const size_t to = std::min(capacity_, (end + page - 1) / page * page);
      (void)madvise(data_ + from, to - from, MADV_POPULATE_WRITE);
      populated_ = to;
    }
    std::memcpy(data_ + size_, bytes.data(), bytes.size());
    size_ += bytes.size();
  }

  /// Sets the size to `n`, keeping the first min(n, size()) bytes; bytes
  /// past the old size are unspecified until written.
  void Resize(size_t n) {
    Reserve(n);
    size_ = n;
  }

  /// Frees the storage: size and capacity become 0.
  void Release() {
    if (capacity_ >= kMapBytes) {
      munmap(data_, capacity_);
    } else {
      std::free(data_);
    }
    data_ = nullptr;
    size_ = capacity_ = populated_ = 0;
  }

 private:
  static size_t PageSize() {
    static const size_t page = size_t(sysconf(_SC_PAGESIZE));
    return page;
  }

  std::byte* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
  size_t populated_ = 0;  // mapped bytes known resident (a prefix)
};

}  // namespace kera
