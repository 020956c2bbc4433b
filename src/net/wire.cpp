#include "net/wire.hpp"

#include <cstring>

namespace mpx::net {

namespace {

// Handshake payloads are small and trusted only after validation; caps keep
// a hostile length word from driving allocation.
constexpr std::uint32_t kMaxStringLen = 1u << 16;
constexpr std::uint32_t kMaxVars = 1u << 20;

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

void putString(std::vector<std::uint8_t>& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked reader over a handshake payload.
struct Reader {
  const std::vector<std::uint8_t>& in;
  std::size_t off = 0;

  template <typename T>
  bool read(T& v) {
    if (in.size() - off < sizeof(T)) return false;
    std::memcpy(&v, in.data() + off, sizeof(T));
    off += sizeof(T);
    return true;
  }

  bool readString(std::string& s) {
    std::uint32_t n = 0;
    if (!read(n) || n > kMaxStringLen || in.size() - off < n) return false;
    s.assign(reinterpret_cast<const char*>(in.data()) + off, n);
    off += n;
    return true;
  }
};

}  // namespace

Handshake makeHandshake(std::uint32_t threads,
                        std::vector<std::string> specs,
                        std::vector<std::string> tracked,
                        const trace::VarTable& vars) {
  Handshake h;
  h.threads = threads;
  h.specs = std::move(specs);
  h.tracked = std::move(tracked);
  h.vars = vars;
  return h;
}

Handshake makeHandshake(std::uint32_t threads, std::string spec,
                        std::vector<std::string> tracked,
                        const trace::VarTable& vars) {
  std::vector<std::string> specs;
  if (!spec.empty()) specs.push_back(std::move(spec));
  return makeHandshake(threads, std::move(specs), std::move(tracked), vars);
}

void appendFrame(std::vector<std::uint8_t>& out, FrameType type,
                 const std::uint8_t* payload, std::size_t len) {
  put<std::uint32_t>(out, kFrameMagic);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(type));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(len));
  out.insert(out.end(), payload, payload + len);
}

std::vector<std::uint8_t> encodeHandshake(const Handshake& h) {
  std::vector<std::uint8_t> out;
  put<std::uint16_t>(out, h.version);
  put<std::uint32_t>(out, h.threads);
  if (h.version <= kLegacyProtocolVersion) {
    // v1 layout: a single spec string (first spec, or empty) where v2
    // carries the list — emitted only for wire-compat tests and old peers.
    putString(out, h.primarySpec());
  } else {
    put<std::uint32_t>(out, static_cast<std::uint32_t>(h.specs.size()));
    for (const std::string& spec : h.specs) putString(out, spec);
  }
  if (h.version >= kTraceContextProtocolVersion) {
    // v3: stream identity and the emitter's send clock (decode is
    // version-gated, so v1/v2 peers never see these fields).
    put<std::uint64_t>(out, h.streamId);
    put<std::uint64_t>(out, h.handshakeSendNs);
  }
  if (h.version >= kMultiTenantProtocolVersion) {
    // v5: session routing key — version-gated like the v3 fields so the
    // trailing-bytes check still catches malformed older handshakes.
    putString(out, h.tenant);
    put<std::uint64_t>(out, h.traceId);
  }
  put<std::uint32_t>(out, static_cast<std::uint32_t>(h.tracked.size()));
  for (const std::string& name : h.tracked) putString(out, name);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(h.vars.size()));
  for (VarId v = 0; v < h.vars.size(); ++v) {
    putString(out, h.vars.name(v));
    put<std::int64_t>(out, h.vars.initial(v));
    put<std::uint8_t>(out, static_cast<std::uint8_t>(h.vars.role(v)));
  }
  return out;
}

bool decodeHandshake(const std::vector<std::uint8_t>& payload, Handshake& out,
                     const char** error) {
  const auto fail = [&](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  Reader r{payload};
  Handshake h;
  if (!r.read(h.version)) return fail("handshake truncated");
  if (h.version == 0 || h.version > kProtocolVersion) {
    return fail("unsupported protocol version");
  }
  if (!r.read(h.threads)) return fail("handshake truncated");
  if (h.version <= kLegacyProtocolVersion) {
    // v1 peers send exactly one spec string; empty means "no property".
    std::string spec;
    if (!r.readString(spec)) return fail("handshake spec malformed");
    if (!spec.empty()) h.specs.push_back(std::move(spec));
  } else {
    std::uint32_t nSpecs = 0;
    if (!r.read(nSpecs) || nSpecs > kMaxVars) {
      return fail("handshake spec-count malformed");
    }
    h.specs.reserve(nSpecs);
    for (std::uint32_t i = 0; i < nSpecs; ++i) {
      std::string spec;
      if (!r.readString(spec)) return fail("handshake spec malformed");
      h.specs.push_back(std::move(spec));
    }
  }
  if (h.version >= kTraceContextProtocolVersion) {
    if (!r.read(h.streamId) || !r.read(h.handshakeSendNs)) {
      return fail("handshake trace context malformed");
    }
  }
  if (h.version >= kMultiTenantProtocolVersion) {
    if (!r.readString(h.tenant) || !r.read(h.traceId)) {
      return fail("handshake tenant routing malformed");
    }
  }
  std::uint32_t nTracked = 0;
  if (!r.read(nTracked) || nTracked > kMaxVars) {
    return fail("handshake tracked-count malformed");
  }
  h.tracked.reserve(nTracked);
  for (std::uint32_t i = 0; i < nTracked; ++i) {
    std::string name;
    if (!r.readString(name)) return fail("handshake tracked name malformed");
    h.tracked.push_back(std::move(name));
  }
  std::uint32_t nVars = 0;
  if (!r.read(nVars) || nVars > kMaxVars) {
    return fail("handshake var-count malformed");
  }
  for (std::uint32_t i = 0; i < nVars; ++i) {
    std::string name;
    std::int64_t initial = 0;
    std::uint8_t role = 0;
    if (!r.readString(name) || !r.read(initial) || !r.read(role)) {
      return fail("handshake var entry malformed");
    }
    if (role > static_cast<std::uint8_t>(trace::VarRole::kCondition)) {
      return fail("handshake var role malformed");
    }
    try {
      h.vars.intern(name, initial, static_cast<trace::VarRole>(role));
    } catch (const std::exception&) {
      return fail("handshake var table inconsistent");
    }
  }
  if (r.off != payload.size()) return fail("handshake has trailing bytes");
  out = std::move(h);
  return true;
}

namespace {

bool decodeMessages(const std::uint8_t* data, std::size_t len,
                    std::vector<trace::Message>& out, const char** error) {
  std::size_t off = 0;
  while (off < len) {
    trace::DecodeResult r =
        trace::BinaryCodec::tryDecode(data + off, len - off);
    if (r.status != trace::DecodeStatus::kOk) {
      if (error != nullptr) {
        *error = r.status == trace::DecodeStatus::kCorrupt
                     ? r.error
                     : "partial message inside events frame";
      }
      return false;
    }
    out.push_back(std::move(r.message));
    off += r.consumed;
  }
  return true;
}

}  // namespace

bool decodeEventsPayload(const std::vector<std::uint8_t>& payload,
                         std::vector<trace::Message>& out,
                         const char** error) {
  return decodeMessages(payload.data(), payload.size(), out, error);
}

bool decodeEventsTsPayload(const std::vector<std::uint8_t>& payload,
                           std::uint64_t& sendNs,
                           std::vector<trace::Message>& out,
                           const char** error) {
  if (payload.size() < kEventsTsPrefixSize) {
    if (error != nullptr) *error = "events-ts frame shorter than timestamp";
    return false;
  }
  std::memcpy(&sendNs, payload.data(), sizeof(sendNs));
  return decodeMessages(payload.data() + kEventsTsPrefixSize,
                        payload.size() - kEventsTsPrefixSize, out, error);
}

bool decodeEventsSparsePayload(const std::vector<std::uint8_t>& payload,
                               std::uint64_t& sendNs,
                               std::vector<trace::Message>& out,
                               const char** error) {
  if (payload.size() < kEventsTsPrefixSize) {
    if (error != nullptr) *error = "events-sparse frame shorter than timestamp";
    return false;
  }
  std::memcpy(&sendNs, payload.data(), sizeof(sendNs));
  const std::uint8_t* data = payload.data() + kEventsTsPrefixSize;
  const std::size_t len = payload.size() - kEventsTsPrefixSize;
  trace::SparseClockCodec::FrameState st;  // frame-local by construction
  std::size_t off = 0;
  while (off < len) {
    trace::DecodeResult r =
        trace::SparseClockCodec::tryDecode(data + off, len - off, st);
    if (r.status != trace::DecodeStatus::kOk) {
      if (error != nullptr) {
        *error = r.status == trace::DecodeStatus::kCorrupt
                     ? r.error
                     : "partial message inside events frame";
      }
      return false;
    }
    out.push_back(std::move(r.message));
    off += r.consumed;
  }
  return true;
}

void FrameReader::feed(const std::uint8_t* data, std::size_t len) {
  if (corrupt_) return;
  // Reclaim the consumed prefix before growing (long streams stay O(frame)).
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

FrameReader::Status FrameReader::next(Frame& out) {
  if (corrupt_) return Status::kCorrupt;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderSize) return Status::kNeedMore;
  std::uint32_t magic = 0;
  std::uint8_t type = 0;
  std::uint32_t len = 0;
  std::memcpy(&magic, buf_.data() + pos_, 4);
  std::memcpy(&type, buf_.data() + pos_ + 4, 1);
  std::memcpy(&len, buf_.data() + pos_ + 5, 4);
  if (magic != kFrameMagic) {
    corrupt_ = true;
    error_ = "bad frame magic";
    return Status::kCorrupt;
  }
  if (type < static_cast<std::uint8_t>(FrameType::kHandshake) ||
      type > static_cast<std::uint8_t>(FrameType::kEventsSparse)) {
    corrupt_ = true;
    error_ = "unknown frame type";
    return Status::kCorrupt;
  }
  if (len > maxPayload_) {
    corrupt_ = true;
    error_ = "frame payload exceeds limit";
    return Status::kCorrupt;
  }
  if (avail < kFrameHeaderSize + len) return Status::kNeedMore;
  out.type = static_cast<FrameType>(type);
  out.payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(
                                        pos_ + kFrameHeaderSize),
                     buf_.begin() + static_cast<std::ptrdiff_t>(
                                        pos_ + kFrameHeaderSize + len));
  pos_ += kFrameHeaderSize + len;
  return Status::kFrame;
}

}  // namespace mpx::net
