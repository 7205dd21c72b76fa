// Versioned wire messages for the solve service (docs/serve_protocol.md —
// the normative spec; this header implements it).
//
// A Message is a request id plus one typed body; encode() produces the
// exact byte layout of the spec and decode() inverts it, throwing a
// WireError carrying the protocol error code (BAD_VERSION / BAD_MESSAGE /
// BAD_REQUEST) that the server should send back. Encoding is canonical:
// decode(encode(m)) re-encodes to the same bytes, which the round-trip
// tests pin per message type.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/problem.hpp"
#include "core/solve.hpp"
#include "model/energy_model.hpp"
#include "model/platform.hpp"
#include "util/error.hpp"

namespace reclaim::net {

/// Version 5 drops the retired barrier warm-seed counter from STATS_REPLY.
/// Version 4 added the joint speed/sleep counters
/// (joint_solves/joint_improved), version 3 the per-family kernel
/// counters (kernel_single/chain/fork/tree/sp), version 2 the
/// kernel_solves fast-path counter; everything else is unchanged from
/// version 1.
inline constexpr std::uint8_t kWireVersion = 5;

/// Message type byte (docs/serve_protocol.md, "Message types").
enum class MessageType : std::uint8_t {
  kSolve = 0x01,
  kResult = 0x02,
  kError = 0x03,
  kStats = 0x04,
  kStatsReply = 0x05,
  kPing = 0x06,
  kPong = 0x07,
};

/// Protocol error code carried by ERROR replies.
enum class ErrorCode : std::uint8_t {
  kBadFrame = 1,    ///< frame-layer violation; connection closes
  kBadVersion = 2,  ///< unknown protocol version byte
  kBadMessage = 3,  ///< unknown type / malformed body / trailing bytes / NaN
  kBadRequest = 4,  ///< well-formed SOLVE with invalid content
  kInternal = 5,    ///< exception while solving
};

[[nodiscard]] std::string_view to_string(ErrorCode code);

/// A protocol violation found while encoding or decoding, tagged with the
/// ErrorCode the peer should be told.
class WireError : public Error {
 public:
  WireError(ErrorCode code, const std::string& what) : Error(what), code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// SOLVE: everything the server needs to rebuild and solve an instance.
/// The graph and mapping ride as the io:: text formats (the same files
/// reclaim_cli reads), so any producer of those files can be a client.
struct SolveRequest {
  double deadline = 0.0;
  model::EnergyModel model = model::ContinuousModel{};
  core::LeakageMode leakage = core::LeakageMode::kReduction;
  /// Processor count for server-side list scheduling; superseded by
  /// `platform` when non-empty (the platform's size is the count).
  std::uint32_t processors = 1;
  /// Heterogeneous platform, one spec per processor; empty means uniform
  /// processors running P(s) = p_static + s^alpha with `sleep` attached.
  std::vector<model::ProcessorSpec> platform;
  double alpha = 3.0;
  double p_static = 0.0;
  model::SleepSpec sleep;
  std::string graph_text;
  /// io:: mapping text; empty = server list-schedules onto `processors`.
  std::string mapping_text;
};

/// RESULT: the solution, verbatim (infeasible is a result, not an error).
struct SolveResult {
  core::Solution solution;
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

struct StatsRequest {};

/// STATS_REPLY: a live sample of the server/engine/cache counters
/// (docs/serve_protocol.md lists each field's meaning).
struct StatsReply {
  std::uint64_t uptime_ms = 0;
  std::uint64_t clients_connected = 0;
  std::uint64_t clients_active = 0;
  std::uint64_t requests = 0;
  std::uint64_t results = 0;
  std::uint64_t errors = 0;
  std::uint64_t instances = 0;
  std::uint64_t fresh_solves = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t shape_hits = 0;
  std::uint64_t memo_entries = 0;
  std::uint64_t memo_bytes = 0;
  std::uint64_t memo_evictions = 0;
  std::uint64_t memo_oldest_age_ms = 0;
  std::uint64_t raced_solves = 0;
  std::uint64_t crawl_solves = 0;
  std::uint64_t kernel_solves = 0;
  /// Per-family split of kernel_solves (which stays the total).
  std::uint64_t kernel_single = 0;
  std::uint64_t kernel_chain = 0;
  std::uint64_t kernel_fork = 0;
  std::uint64_t kernel_tree = 0;
  std::uint64_t kernel_sp = 0;
  /// Joint speed/sleep routing (--joint-sleep): instances that ran the
  /// joint refiner, and the subset that strictly beat the race anchor.
  std::uint64_t joint_solves = 0;
  std::uint64_t joint_improved = 0;

  struct Client {
    std::uint64_t id = 0;
    std::uint64_t requests = 0;
    std::uint64_t results = 0;
    std::uint64_t errors = 0;
  };
  std::vector<Client> clients;

  /// Shared-cache effectiveness: memo hits per solve requested.
  [[nodiscard]] double hit_rate() const noexcept {
    return instances == 0 ? 0.0
                          : static_cast<double>(memo_hits) /
                                static_cast<double>(instances);
  }
};

struct Ping {};
struct Pong {};

struct Message {
  std::uint64_t id = 0;
  std::variant<SolveRequest, SolveResult, ErrorReply, StatsRequest, StatsReply,
               Ping, Pong>
      body;
};

[[nodiscard]] MessageType type_of(const Message& message);

/// Serializes header + body per the spec. Throws WireError{kBadMessage}
/// on unencodable content (NaN fields).
[[nodiscard]] std::string encode(const Message& message);

/// Parses one payload. Throws WireError with kBadVersion (wrong version
/// byte) or kBadMessage (unknown type, malformed/truncated body, trailing
/// bytes, NaN) — the id is still recoverable from the exception-free
/// header probe below whenever the payload had 10 bytes.
[[nodiscard]] Message decode(std::string_view payload);

/// Best-effort request id of a payload (0 when the header is too short):
/// lets the server attribute an ERROR reply to the request that caused a
/// decode failure.
[[nodiscard]] std::uint64_t peek_request_id(std::string_view payload) noexcept;

}  // namespace reclaim::net
