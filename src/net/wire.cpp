#include "net/wire.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "sched/schedule.hpp"

namespace reclaim::net {

namespace {

// ------------------------------------------------------------- encoding

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

void put_u64(std::string& out, std::uint64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

void put_f64(std::string& out, double v) {
  // NaN cannot round-trip through equality and is forbidden on the wire
  // (docs/serve_protocol.md, "Primitive encodings"); infinities are legal
  // (uncapped speeds, infeasible energies).
  if (std::isnan(v)) {
    throw WireError(ErrorCode::kBadMessage, "NaN is not encodable on the wire");
  }
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_str(std::string& out, std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw WireError(ErrorCode::kBadMessage, "string field too long to encode");
  }
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// ------------------------------------------------------------- decoding

/// Bounds-checked cursor over one payload; every under/overrun is a
/// BAD_MESSAGE per the spec ("a field extending past the end of the
/// payload").
class Reader {
 public:
  explicit Reader(std::string_view payload) : data_(payload) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }

  std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, take(sizeof v).data(), sizeof v);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, take(sizeof v).data(), sizeof v);
    return v;
  }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isnan(v)) {
      throw WireError(ErrorCode::kBadMessage, "NaN field on the wire");
    }
    return v;
  }

  std::string str() {
    const std::uint32_t length = u32();
    return std::string(take(length));
  }

  /// MUST be called after the last field: trailing bytes are an error.
  void expect_end() const {
    if (cursor_ < data_.size()) {
      throw WireError(ErrorCode::kBadMessage,
                      "message body has " +
                          std::to_string(data_.size() - cursor_) +
                          " trailing bytes");
    }
  }

 private:
  std::string_view take(std::size_t count) {
    if (data_.size() - cursor_ < count) {
      throw WireError(ErrorCode::kBadMessage,
                      "message body truncated (wanted " + std::to_string(count) +
                          " more bytes, have " +
                          std::to_string(data_.size() - cursor_) + ")");
    }
    const std::string_view view = data_.substr(cursor_, count);
    cursor_ += count;
    return view;
  }

  std::string_view data_;
  std::size_t cursor_ = 0;
};

// ---------------------------------------------------------- body codecs

enum : std::uint8_t {
  kModelContinuous = 1,
  kModelDiscrete = 2,
  kModelVdd = 3,
  kModelIncremental = 4,
};

void put_model(std::string& out, const model::EnergyModel& m) {
  std::visit(
      [&out](const auto& concrete) {
        using M = std::decay_t<decltype(concrete)>;
        if constexpr (std::is_same_v<M, model::ContinuousModel>) {
          put_u8(out, kModelContinuous);
          put_f64(out, concrete.s_max);
        } else if constexpr (std::is_same_v<M, model::DiscreteModel>) {
          put_u8(out, kModelDiscrete);
          put_u32(out, static_cast<std::uint32_t>(concrete.modes.size()));
          for (double s : concrete.modes.speeds()) put_f64(out, s);
        } else if constexpr (std::is_same_v<M, model::VddHoppingModel>) {
          put_u8(out, kModelVdd);
          put_u32(out, static_cast<std::uint32_t>(concrete.modes.size()));
          for (double s : concrete.modes.speeds()) put_f64(out, s);
        } else {
          static_assert(std::is_same_v<M, model::IncrementalModel>);
          put_u8(out, kModelIncremental);
          put_f64(out, concrete.s_min);
          put_f64(out, concrete.s_max);
          put_f64(out, concrete.delta);
        }
      },
      m);
}

model::EnergyModel read_model(Reader& in) {
  const std::uint8_t kind = in.u8();
  switch (kind) {
    case kModelContinuous:
      return model::ContinuousModel{in.f64()};
    case kModelDiscrete:
    case kModelVdd: {
      const std::uint32_t count = in.u32();
      if (count == 0) {
        throw WireError(ErrorCode::kBadMessage, "mode-based model with 0 modes");
      }
      std::vector<double> speeds;
      speeds.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) speeds.push_back(in.f64());
      // ModeSet validates positivity/finiteness; a well-formed frame with
      // out-of-range values is a semantic (BAD_REQUEST) problem.
      try {
        model::ModeSet modes(std::move(speeds));
        if (kind == kModelDiscrete) return model::DiscreteModel{std::move(modes)};
        return model::VddHoppingModel{std::move(modes)};
      } catch (const Error& e) {
        throw WireError(ErrorCode::kBadRequest,
                        std::string("invalid mode set: ") + e.what());
      }
    }
    case kModelIncremental: {
      const double s_min = in.f64();
      const double s_max = in.f64();
      const double delta = in.f64();
      try {
        return model::IncrementalModel(s_min, s_max, delta);
      } catch (const Error& e) {
        throw WireError(ErrorCode::kBadRequest,
                        std::string("invalid incremental model: ") + e.what());
      }
    }
    default:
      throw WireError(ErrorCode::kBadMessage,
                      "unknown model kind " + std::to_string(kind));
  }
}

void put_solve(std::string& out, const SolveRequest& req) {
  put_f64(out, req.deadline);
  put_model(out, req.model);
  put_u8(out, req.leakage == core::LeakageMode::kExact ? 1 : 0);
  put_u32(out, req.processors);
  put_u32(out, static_cast<std::uint32_t>(req.platform.size()));
  if (req.platform.empty()) {
    put_f64(out, req.alpha);
    put_f64(out, req.p_static);
    put_f64(out, req.sleep.p_idle);
    put_f64(out, req.sleep.p_sleep);
    put_f64(out, req.sleep.e_wake);
  } else {
    for (const model::ProcessorSpec& spec : req.platform) {
      put_f64(out, spec.power.alpha());
      put_f64(out, spec.power.p_static());
      put_f64(out, spec.s_max);
      put_f64(out, spec.power.sleep().p_idle);
      put_f64(out, spec.power.sleep().p_sleep);
      put_f64(out, spec.power.sleep().e_wake);
    }
  }
  put_str(out, req.graph_text);
  put_str(out, req.mapping_text);
}

SolveRequest read_solve(Reader& in) {
  SolveRequest req;
  req.deadline = in.f64();
  req.model = read_model(in);
  const std::uint8_t leakage = in.u8();
  if (leakage > 1) {
    throw WireError(ErrorCode::kBadMessage,
                    "unknown leakage mode " + std::to_string(leakage));
  }
  req.leakage =
      leakage == 1 ? core::LeakageMode::kExact : core::LeakageMode::kReduction;
  req.processors = in.u32();
  const std::uint32_t platform_size = in.u32();
  if (platform_size == 0) {
    req.alpha = in.f64();
    req.p_static = in.f64();
    const double p_idle = in.f64();
    const double p_sleep = in.f64();
    const double e_wake = in.f64();
    req.sleep = model::SleepSpec{p_idle, p_sleep, e_wake};
  } else {
    req.platform.reserve(platform_size);
    for (std::uint32_t p = 0; p < platform_size; ++p) {
      model::ProcessorSpec spec;
      const double alpha = in.f64();
      const double p_static = in.f64();
      spec.s_max = in.f64();
      const double p_idle = in.f64();
      const double p_sleep = in.f64();
      const double e_wake = in.f64();
      try {
        spec.power = model::make_power_model(
            alpha, p_static, model::make_sleep_spec(p_idle, p_sleep, e_wake));
      } catch (const Error& e) {
        throw WireError(ErrorCode::kBadRequest,
                        std::string("invalid processor spec: ") + e.what());
      }
      req.platform.push_back(std::move(spec));
    }
  }
  req.graph_text = in.str();
  req.mapping_text = in.str();
  return req;
}

void put_result(std::string& out, const SolveResult& result) {
  const core::Solution& s = result.solution;
  put_u8(out, s.feasible ? 1 : 0);
  put_f64(out, s.energy);
  put_str(out, s.method);
  put_u64(out, s.iterations);
  put_u32(out, static_cast<std::uint32_t>(s.speeds.size()));
  for (double v : s.speeds) put_f64(out, v);
  put_u32(out, static_cast<std::uint32_t>(s.profiles.size()));
  for (const sched::SpeedProfile& profile : s.profiles) {
    put_u32(out, static_cast<std::uint32_t>(profile.segments.size()));
    for (const auto& segment : profile.segments) {
      put_f64(out, segment.speed);
      put_f64(out, segment.duration);
    }
  }
}

SolveResult read_result(Reader& in) {
  SolveResult result;
  core::Solution& s = result.solution;
  const std::uint8_t feasible = in.u8();
  if (feasible > 1) {
    throw WireError(ErrorCode::kBadMessage,
                    "feasible flag must be 0 or 1, got " + std::to_string(feasible));
  }
  s.feasible = feasible == 1;
  s.energy = in.f64();
  s.method = in.str();
  s.iterations = in.u64();
  const std::uint32_t speeds = in.u32();
  s.speeds.reserve(speeds);
  for (std::uint32_t i = 0; i < speeds; ++i) s.speeds.push_back(in.f64());
  const std::uint32_t profiles = in.u32();
  s.profiles.reserve(profiles);
  for (std::uint32_t p = 0; p < profiles; ++p) {
    sched::SpeedProfile profile;
    const std::uint32_t segments = in.u32();
    profile.segments.reserve(segments);
    for (std::uint32_t g = 0; g < segments; ++g) {
      sched::SpeedProfile::Segment segment;
      segment.speed = in.f64();
      segment.duration = in.f64();
      profile.segments.push_back(segment);
    }
    s.profiles.push_back(std::move(profile));
  }
  return result;
}

void put_error(std::string& out, const ErrorReply& error) {
  put_u8(out, static_cast<std::uint8_t>(error.code));
  put_str(out, error.message);
}

ErrorReply read_error(Reader& in) {
  ErrorReply error;
  const std::uint8_t code = in.u8();
  if (code < 1 || code > 5) {
    throw WireError(ErrorCode::kBadMessage,
                    "unknown error code " + std::to_string(code));
  }
  error.code = static_cast<ErrorCode>(code);
  error.message = in.str();
  return error;
}

void put_stats_reply(std::string& out, const StatsReply& stats) {
  put_u64(out, stats.uptime_ms);
  put_u64(out, stats.clients_connected);
  put_u64(out, stats.clients_active);
  put_u64(out, stats.requests);
  put_u64(out, stats.results);
  put_u64(out, stats.errors);
  put_u64(out, stats.instances);
  put_u64(out, stats.fresh_solves);
  put_u64(out, stats.memo_hits);
  put_u64(out, stats.shape_hits);
  put_u64(out, stats.memo_entries);
  put_u64(out, stats.memo_bytes);
  put_u64(out, stats.memo_evictions);
  put_u64(out, stats.memo_oldest_age_ms);
  put_u64(out, stats.raced_solves);
  put_u64(out, stats.crawl_solves);
  put_u64(out, stats.kernel_solves);
  put_u64(out, stats.kernel_single);
  put_u64(out, stats.kernel_chain);
  put_u64(out, stats.kernel_fork);
  put_u64(out, stats.kernel_tree);
  put_u64(out, stats.kernel_sp);
  put_u64(out, stats.joint_solves);
  put_u64(out, stats.joint_improved);
  put_u32(out, static_cast<std::uint32_t>(stats.clients.size()));
  for (const StatsReply::Client& client : stats.clients) {
    put_u64(out, client.id);
    put_u64(out, client.requests);
    put_u64(out, client.results);
    put_u64(out, client.errors);
  }
}

StatsReply read_stats_reply(Reader& in) {
  StatsReply stats;
  stats.uptime_ms = in.u64();
  stats.clients_connected = in.u64();
  stats.clients_active = in.u64();
  stats.requests = in.u64();
  stats.results = in.u64();
  stats.errors = in.u64();
  stats.instances = in.u64();
  stats.fresh_solves = in.u64();
  stats.memo_hits = in.u64();
  stats.shape_hits = in.u64();
  stats.memo_entries = in.u64();
  stats.memo_bytes = in.u64();
  stats.memo_evictions = in.u64();
  stats.memo_oldest_age_ms = in.u64();
  stats.raced_solves = in.u64();
  stats.crawl_solves = in.u64();
  stats.kernel_solves = in.u64();
  stats.kernel_single = in.u64();
  stats.kernel_chain = in.u64();
  stats.kernel_fork = in.u64();
  stats.kernel_tree = in.u64();
  stats.kernel_sp = in.u64();
  stats.joint_solves = in.u64();
  stats.joint_improved = in.u64();
  const std::uint32_t clients = in.u32();
  stats.clients.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    StatsReply::Client client;
    client.id = in.u64();
    client.requests = in.u64();
    client.results = in.u64();
    client.errors = in.u64();
    stats.clients.push_back(client);
  }
  return stats;
}

}  // namespace

std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadFrame:
      return "BAD_FRAME";
    case ErrorCode::kBadVersion:
      return "BAD_VERSION";
    case ErrorCode::kBadMessage:
      return "BAD_MESSAGE";
    case ErrorCode::kBadRequest:
      return "BAD_REQUEST";
    case ErrorCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

MessageType type_of(const Message& message) {
  return std::visit(
      [](const auto& body) {
        using B = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<B, SolveRequest>) return MessageType::kSolve;
        if constexpr (std::is_same_v<B, SolveResult>) return MessageType::kResult;
        if constexpr (std::is_same_v<B, ErrorReply>) return MessageType::kError;
        if constexpr (std::is_same_v<B, StatsRequest>) return MessageType::kStats;
        if constexpr (std::is_same_v<B, StatsReply>)
          return MessageType::kStatsReply;
        if constexpr (std::is_same_v<B, Ping>) return MessageType::kPing;
        if constexpr (std::is_same_v<B, Pong>) return MessageType::kPong;
      },
      message.body);
}

std::string encode(const Message& message) {
  std::string out;
  out.reserve(64);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(type_of(message)));
  put_u64(out, message.id);
  std::visit(
      [&out](const auto& body) {
        using B = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<B, SolveRequest>) {
          put_solve(out, body);
        } else if constexpr (std::is_same_v<B, SolveResult>) {
          put_result(out, body);
        } else if constexpr (std::is_same_v<B, ErrorReply>) {
          put_error(out, body);
        } else if constexpr (std::is_same_v<B, StatsReply>) {
          put_stats_reply(out, body);
        }
        // StatsRequest / Ping / Pong have empty bodies.
      },
      message.body);
  return out;
}

Message decode(std::string_view payload) {
  Reader in(payload);
  const std::uint8_t version = in.u8();
  const std::uint8_t type = in.u8();
  const std::uint64_t id = in.u64();
  if (version != kWireVersion) {
    throw WireError(ErrorCode::kBadVersion,
                    "unsupported protocol version " + std::to_string(version) +
                        " (this server speaks " + std::to_string(kWireVersion) +
                        ")");
  }
  Message message;
  message.id = id;
  switch (static_cast<MessageType>(type)) {
    case MessageType::kSolve:
      message.body = read_solve(in);
      break;
    case MessageType::kResult:
      message.body = read_result(in);
      break;
    case MessageType::kError:
      message.body = read_error(in);
      break;
    case MessageType::kStats:
      message.body = StatsRequest{};
      break;
    case MessageType::kStatsReply:
      message.body = read_stats_reply(in);
      break;
    case MessageType::kPing:
      message.body = Ping{};
      break;
    case MessageType::kPong:
      message.body = Pong{};
      break;
    default:
      throw WireError(ErrorCode::kBadMessage,
                      "unknown message type " + std::to_string(type));
  }
  in.expect_end();
  return message;
}

std::uint64_t peek_request_id(std::string_view payload) noexcept {
  if (payload.size() < 10) return 0;
  std::uint64_t id;
  std::memcpy(&id, payload.data() + 2, sizeof id);
  return id;
}

}  // namespace reclaim::net
