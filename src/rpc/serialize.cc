#include "rpc/serialize.h"

namespace kera::rpc {
namespace {
/// Reader's Status-returning reads, over the derived codec's.
template <typename T>
Status Read(Reader& r, T& v) {
  if (DecodeValue(r, v)) return OkStatus();
  return Status(StatusCode::kCorruption, "rpc: truncated message");
}
}  // namespace

Status Reader::U8(uint8_t& v) { return Read(*this, v); }
Status Reader::U16(uint16_t& v) { return Read(*this, v); }
Status Reader::U32(uint32_t& v) { return Read(*this, v); }
Status Reader::U64(uint64_t& v) { return Read(*this, v); }
Status Reader::Bool(bool& v) { return Read(*this, v); }
Status Reader::Bytes(std::span<const std::byte>& out) {
  return Read(*this, out);
}
Status Reader::Str(std::string& out) { return Read(*this, out); }

Status MalformedMessage() {
  return Status(StatusCode::kCorruption, "rpc: malformed message");
}

}  // namespace kera::rpc
