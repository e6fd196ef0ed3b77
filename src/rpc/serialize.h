// Bounds-checked flat binary serialization for RPC messages. The client
// and broker share this format (paper: shared binary data format so data
// is appended/traversed without extra copies — chunk payloads are carried
// as opaque byte runs and never re-encoded).
//
// The Writer is scatter-gather: bulk payloads (sealed chunk frames, segment
// memory) are appended *by reference* with BytesRef/BytesRefParts and only
// spliced into the output when the message is materialized (Take / AppendTo
// / Frame), so encoding a produce or replicate request never re-copies the
// chunk bodies into the Writer. The materialized bytes are identical to
// what Bytes() would have produced — referencing is a transport-side
// optimization, not a wire format change.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace kera::rpc {

/// A message carried as scatter-gather pieces referencing caller-owned
/// memory, in wire order. Used by the vectored transport send path
/// (Network::CallAsyncParts) to hand frames to the socket layer without
/// materializing them into one contiguous buffer. Every referenced run
/// must stay alive and unchanged until the call's future is ready.
struct BytesRefParts {
  std::vector<std::span<const std::byte>> pieces;

  [[nodiscard]] size_t total_size() const {
    size_t n = 0;
    for (const auto& p : pieces) n += p.size();
    return n;
  }
};

class Writer {
 public:
  Writer() = default;
  explicit Writer(size_t reserve) { buf_.reserve(reserve); }

  void U8(uint8_t v) { buf_.push_back(std::byte(v)); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void Bool(bool v) { U8(v ? 1 : 0); }

  /// Length-prefixed byte run, copied into the Writer.
  void Bytes(std::span<const std::byte> data) {
    U32(uint32_t(data.size()));
    Raw(data.data(), data.size());
  }
  void Str(std::string_view s) {
    Bytes({reinterpret_cast<const std::byte*>(s.data()), s.size()});
  }

  /// Length-prefixed byte run appended by reference: the bytes are spliced
  /// in at materialization. The referenced memory must stay alive and
  /// unchanged until then.
  void BytesRef(std::span<const std::byte> data) {
    U32(uint32_t(data.size()));
    RawRef(data);
  }

  /// One length prefix covering the concatenation of `parts`, each appended
  /// by reference (e.g. a replication batch gathered from segment memory).
  void BytesRefParts(std::span<const std::span<const std::byte>> parts) {
    size_t total = 0;
    for (const auto& p : parts) total += p.size();
    U32(uint32_t(total));
    for (const auto& p : parts) RawRef(p);
  }

  /// Raw bytes without a length prefix (caller encodes the length).
  void Raw(const void* data, size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Raw bytes appended by reference (no length prefix). Runs smaller than
  /// the tracking overhead are copied inline.
  void RawRef(std::span<const std::byte> data) {
    if (data.size() < kRefCutoff) {
      Raw(data.data(), data.size());
      return;
    }
    ext_.push_back({buf_.size(), data});
    ext_size_ += data.size();
  }

  /// Total encoded size, including referenced bytes.
  [[nodiscard]] size_t size() const { return buf_.size() + ext_size_; }

  /// True when everything was copied inline (no external references).
  [[nodiscard]] bool contiguous() const { return ext_.empty(); }

  /// Contiguous view of the encoded bytes. Only valid on a contiguous
  /// Writer — use Take()/AppendTo() when payloads were appended by
  /// reference.
  [[nodiscard]] std::span<const std::byte> View() const {
    assert(contiguous() && "Writer::View on scatter-gather content");
    return buf_;
  }

  /// Materializes into `out` (appending), splicing referenced runs between
  /// the inline pieces.
  void AppendTo(std::vector<std::byte>& out) const {
    out.reserve(out.size() + size());
    size_t prev = 0;
    for (const auto& e : ext_) {
      out.insert(out.end(), buf_.begin() + long(prev),
                 buf_.begin() + long(e.after));
      out.insert(out.end(), e.data.begin(), e.data.end());
      prev = e.after;
    }
    out.insert(out.end(), buf_.begin() + long(prev), buf_.end());
  }

  /// Iovec-style traversal: invokes fn(span) for each contiguous piece in
  /// encoding order (inline runs interleaved with referenced runs).
  template <typename Fn>
  void ForEachPiece(Fn&& fn) const {
    size_t prev = 0;
    for (const auto& e : ext_) {
      if (e.after > prev) {
        fn(std::span<const std::byte>(buf_.data() + prev, e.after - prev));
      }
      fn(e.data);
      prev = e.after;
    }
    if (buf_.size() > prev) {
      fn(std::span<const std::byte>(buf_.data() + prev, buf_.size() - prev));
    }
  }

  /// Appends this Writer's pieces (inline runs interleaved with referenced
  /// runs, in wire order) to `out` without materializing anything. The
  /// pieces alias this Writer's buffer and the referenced memory; both
  /// must outlive the use of `out`.
  void CollectPieces(struct BytesRefParts& out) const;

  /// Materialized encoded bytes. Free of copies when contiguous.
  [[nodiscard]] std::vector<std::byte> Take() && {
    if (contiguous()) return std::move(buf_);
    std::vector<std::byte> out;
    AppendTo(out);
    return out;
  }

 private:
  /// Below this size, copying beats recording a reference (a piece costs a
  /// 24-byte entry plus an extra insert at materialization).
  static constexpr size_t kRefCutoff = 64;

  struct ExtPiece {
    size_t after;  // buf_ offset this piece follows
    std::span<const std::byte> data;
  };

  std::vector<std::byte> buf_;
  std::vector<ExtPiece> ext_;
  size_t ext_size_ = 0;
};

inline void Writer::CollectPieces(struct BytesRefParts& out) const {
  out.pieces.reserve(out.pieces.size() + ext_.size() * 2 + 1);
  ForEachPiece(
      [&](std::span<const std::byte> piece) { out.pieces.push_back(piece); });
}

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] Status U8(uint8_t& v);
  [[nodiscard]] Status U16(uint16_t& v);
  [[nodiscard]] Status U32(uint32_t& v);
  [[nodiscard]] Status U64(uint64_t& v);
  [[nodiscard]] Status Bool(bool& v);
  /// Zero-copy: the returned span aliases the request buffer.
  [[nodiscard]] Status Bytes(std::span<const std::byte>& out);
  [[nodiscard]] Status Str(std::string& out);

  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool AtEnd() const { return remaining() == 0; }

  /// Consumes the next `n` bytes as a view; false, consuming nothing, if
  /// fewer remain. The derived codec below reads through this.
  [[nodiscard]] bool Next(size_t n, std::span<const std::byte>& out) {
    if (n > remaining()) return false;
    out = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::span<const std::byte> data_;
  size_t pos_ = 0;
};

// ----------------------------------------------------------- derived codec
//
// A message declares its wire layout once, as a list of its fields in wire
// order:
//
//   static auto Fields(auto& m) { return std::tie(m.status, m.appended); }
//
// and EncodeValue/DecodeValue derive both directions from it. Integers and
// enums go little-endian at their width, bool as one byte, a std::string or
// std::span<const std::byte> as a u32 length and the bytes (a span is
// written by reference and decoded as a view into the buffer), a
// std::vector as a u32 count and its elements, and a struct with its own
// Fields() inline. A decoder ignores bytes after the last field.

template <typename T>
concept Message = requires(T& m) { T::Fields(m); };

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Integers, enums and bool: encoded at their width, whatever their value.
template <typename T>
inline constexpr bool kFixedSize =
    std::is_arithmetic_v<T> || std::is_enum_v<T>;

template <Message T>
using FieldTuple = decltype(T::Fields(std::declval<T&>()));

/// The type of message T's I-th field.
template <Message T, size_t I>
using FieldType = std::remove_cvref_t<std::tuple_element_t<I, FieldTuple<T>>>;

/// Calls fn.template operator()<F>() for each field type F of T and
/// returns the results combined with `+`.
template <Message T, typename Fn>
constexpr auto SumOverFields(Fn fn) {
  return [&]<size_t... I>(std::index_sequence<I...>) {
    return (fn.template operator()<FieldType<T, I>>() + ... + 0);
  }(std::make_index_sequence<std::tuple_size_v<FieldTuple<T>>>());
}

/// Fewest bytes a T takes on the wire. A decoded element count is
/// plausible only if the rest of the buffer could hold that many.
template <typename T>
constexpr size_t MinWireSize() {
  if constexpr (Message<T>) {
    return SumOverFields<T>([]<typename F>() { return MinWireSize<F>(); });
  } else if constexpr (kFixedSize<T>) {
    return sizeof(T);
  } else {
    return 4;  // the u32 length or count prefix
  }
}

/// Byte offset of message T's I-th field in its encoding, when the fields
/// before it are all fixed-size (frame routing peeks at the field there).
template <Message T, size_t I>
constexpr size_t FieldOffset() {
  return [&]<size_t... J>(std::index_sequence<J...>) {
    static_assert((kFixedSize<FieldType<T, J>> && ...),
                  "a variable-size field precedes the field");
    return (sizeof(FieldType<T, J>) + ... + size_t{0});
  }(std::make_index_sequence<I>());
}

/// True if a decoded T holds views into the buffer it was decoded from.
template <typename T>
constexpr bool ViewsBuffer() {
  if constexpr (Message<T>) {
    return SumOverFields<T>([]<typename F>() { return ViewsBuffer<F>(); }) > 0;
  } else if constexpr (kIsVector<T>) {
    return ViewsBuffer<typename T::value_type>();
  } else {
    return std::is_same_v<T, std::span<const std::byte>>;
  }
}

template <typename T>
void EncodeValue(Writer& w, const T& v) {
  if constexpr (Message<T>) {
    std::apply([&w](const auto&... f) { (EncodeValue(w, f), ...); },
               T::Fields(v));
  } else if constexpr (kIsVector<T>) {
    w.U32(uint32_t(v.size()));
    for (const auto& e : v) EncodeValue(w, e);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.Str(v);
  } else if constexpr (std::is_same_v<T, std::span<const std::byte>>) {
    w.BytesRef(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    w.Bool(v);
  } else {
    static_assert(kFixedSize<T>);
    w.Raw(&v, sizeof(T));
  }
}

/// Reads one T; false once the bytes run out or a count is implausible.
/// Returns at the first failed field: no Status is built per field.
template <typename T>
[[nodiscard]] bool DecodeValue(Reader& r, T& v) {
  if constexpr (Message<T>) {
    return std::apply([&r](auto&... f) { return (DecodeValue(r, f) && ...); },
                      T::Fields(v));
  } else if constexpr (kIsVector<T>) {
    uint32_t n = 0;
    if (!DecodeValue(r, n) ||
        size_t(n) * MinWireSize<typename T::value_type>() > r.remaining()) {
      return false;
    }
    v.resize(n);
    for (auto& e : v) {
      if (!DecodeValue(r, e)) return false;
    }
    return true;
  } else if constexpr (std::is_same_v<T, std::string> ||
                       std::is_same_v<T, std::span<const std::byte>>) {
    uint32_t n = 0;
    std::span<const std::byte> bytes;
    if (!DecodeValue(r, n) || !r.Next(n, bytes)) return false;
    if constexpr (std::is_same_v<T, std::string>) {
      v.assign(reinterpret_cast<const char*>(bytes.data()), n);
    } else {
      v = bytes;
    }
    return true;
  } else {
    static_assert(kFixedSize<T>);
    std::span<const std::byte> bytes;
    if (!r.Next(sizeof(T), bytes)) return false;
    if constexpr (std::is_same_v<T, bool>) {
      v = bytes[0] != std::byte{0};
    } else {
      std::memcpy(&v, bytes.data(), sizeof(T));
    }
    return true;
  }
}

[[nodiscard]] Status MalformedMessage();

template <Message M>
[[nodiscard]] Result<M> DecodeMessage(Reader& r) {
  M m;
  if (!DecodeValue(r, m)) return MalformedMessage();
  return m;
}

}  // namespace kera::rpc
