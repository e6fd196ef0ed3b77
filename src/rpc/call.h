// Typed RPCs over the raw frame transport: a client sends a request with
// Call, a service answers its requests with Dispatch. Both take the opcode
// and the reply type from the request type (Req::kOpcode, Req::Response),
// so no caller or service names an opcode.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rpc/messages.h"
#include "rpc/transport.h"

namespace kera::rpc {

/// Sends `req` to `node` and returns its decoded reply. A transport error,
/// an undecodable reply and a reply whose status is not OK are all
/// returned as the error; callers that must tell them apart decode the
/// reply themselves. The reply's buffer is gone on return, so a Response
/// holding spans into it cannot be called for (use Frame + CallAsync).
template <typename Req>
[[nodiscard]] Result<typename Req::Response> Call(Network& network,
                                                  NodeId node,
                                                  const Req& req) {
  using Resp = typename Req::Response;
  static_assert(!ViewsBuffer<Resp>(),
                "the response would view a freed buffer");
  auto raw = network.Call(node, Frame(req));
  if (!raw.ok()) return raw.status();
  Reader r(*raw);
  auto resp = Resp::Decode(r);
  if (!resp.ok()) return resp.status();
  if (resp->status != StatusCode::kOk) {
    return Status(resp->status, "rpc " +
                                    std::to_string(uint16_t(Req::kOpcode)) +
                                    " refused");
  }
  return resp;
}

/// A service's handler for one request type: Response(const Req&).
template <typename Req, typename Handler>
struct Served {
  static constexpr Opcode kOpcode = Req::kOpcode;
  Handler handler;

  /// Decodes `body`, runs the handler and encodes its reply. An
  /// undecodable body gets a default reply carrying the decode status. The
  /// reply is materialized while the handler's response is alive: its
  /// spans may point into memory the response pins (a broker's consume
  /// holds) or the handler's caller owns.
  std::vector<std::byte> operator()(std::span<const std::byte> body) {
    Reader r(body);
    auto req = Req::Decode(r);
    typename Req::Response resp;
    if (req.ok()) {
      resp = handler(*req);
    } else {
      resp.status = req.status().code();
    }
    Writer out;
    resp.Encode(out);
    return std::move(out).Take();
  }
};

template <typename Req, typename Handler>
[[nodiscard]] Served<Req, Handler> Serve(Handler handler) {
  return {std::move(handler)};
}

/// Answers one request frame with the handler served for its opcode. A
/// frame too short for an opcode gets its parse status as a one-byte
/// reply; an opcode no handler serves gets kInvalidArgument.
template <typename... Services>
[[nodiscard]] std::vector<std::byte> Dispatch(
    std::span<const std::byte> request, Services... services) {
  Opcode op{};
  std::span<const std::byte> body;
  if (Status s = ParseFrame(request, op, body); !s.ok()) {
    return {std::byte(s.code())};
  }
  std::vector<std::byte> reply;
  const bool served = ((op == Services::kOpcode &&
                        (reply = services(body), true)) ||
                       ...);
  if (!served) reply = {std::byte(StatusCode::kInvalidArgument)};
  return reply;
}

}  // namespace kera::rpc
