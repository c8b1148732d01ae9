// Frame encoders/decoders for the socket front end (protocol.hpp).
//
// Decoding is cursor-based over a complete frame: every read checks the
// remaining byte count first and throws ProtocolError on truncation, so a
// malicious or corrupted frame can never read past its own body — and the
// decoded vectors' counts are validated against the bytes actually present
// BEFORE any allocation sized from them (an attacker-chosen count that does
// not match the frame fails fast instead of driving a giant reserve).
#include "src/net/protocol.hpp"

namespace scanprim::net {

namespace {

// --- little-endian primitives ------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

template <class T>
void put_le(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) &
                                    0xff));
  }
}

void put_str(std::string& out, const std::string& s) {
  if (s.size() > 0xffff) throw ProtocolError("string too long to encode");
  put_le<std::uint16_t>(out, static_cast<std::uint16_t>(s.size()));
  out.append(s);
}

void put_vec(std::string& out, const std::vector<Value>& v) {
  if (v.size() > 0xffffffffu) throw ProtocolError("vector too long to encode");
  put_le<std::uint32_t>(out, static_cast<std::uint32_t>(v.size()));
  if (v.empty()) return;  // v.data() may be null: no memcpy from it
  const std::size_t at = out.size();
  out.resize(at + v.size() * sizeof(Value));
  std::memcpy(out.data() + at, v.data(), v.size() * sizeof(Value));
}

void put_bytes(std::string& out, const std::vector<std::uint8_t>& v) {
  out.append(reinterpret_cast<const char*>(v.data()), v.size());
}

/// Cursor over one complete frame body.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  std::size_t remaining() const { return buf_.size() - at_; }

  std::uint8_t u8() { return take(1)[0]; }

  template <class T>
  T le() {
    const std::uint8_t* p = take(sizeof(T));
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return static_cast<T>(v);
  }

  std::string str() {
    const std::size_t n = le<std::uint16_t>();
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }

  std::vector<Value> vec() {
    const std::size_t n = le<std::uint32_t>();
    // Validate the count against the bytes present before allocating.
    const std::uint8_t* p = take(n * sizeof(Value));
    std::vector<Value> v(n);
    if (n > 0) std::memcpy(v.data(), p, n * sizeof(Value));
    return v;
  }

  std::vector<std::uint8_t> bytes(std::size_t n) {
    const std::uint8_t* p = take(n);
    return std::vector<std::uint8_t>(p, p + n);
  }

  void expect_drained() const {
    if (at_ != buf_.size()) throw ProtocolError("trailing bytes in frame");
  }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (remaining() < n) throw ProtocolError("truncated frame");
    const std::uint8_t* p = buf_.data() + at_;
    at_ += n;
    return p;
  }

  std::span<const std::uint8_t> buf_;
  std::size_t at_ = 0;
};

/// Retro-fills the body-length prefix reserved at `len_at`.
void seal(std::string& out, std::size_t len_at) {
  const std::size_t body = out.size() - (len_at + 4);
  if (body > 0xffffffffu) throw ProtocolError("frame too long to encode");
  const auto v = static_cast<std::uint32_t>(body);
  for (std::size_t i = 0; i < 4; ++i) {
    out[len_at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

}  // namespace

std::size_t Request::payload_bytes() const {
  std::size_t bytes = data.size() * sizeof(Value) + byte_flags.size() +
                      stages.size() * (sizeof(std::int64_t) + 1);
  for (const auto& [name, v] : registers) bytes += v.size() * sizeof(Value);
  return bytes;
}

void encode_request(std::string& out, const Request& r) {
  const std::size_t len_at = out.size();
  put_le<std::uint32_t>(out, 0);  // sealed below
  put_le<std::uint32_t>(out, kMagic);
  put_le<std::uint16_t>(out, kVersion);
  put_u8(out, static_cast<std::uint8_t>(r.op));
  put_u8(out, r.flags);
  put_le<std::uint64_t>(out, r.request_id);
  put_le<std::uint32_t>(out, r.tenant);
  put_u8(out, static_cast<std::uint8_t>(r.priority));
  put_u8(out, 0);
  put_u8(out, 0);
  put_u8(out, 0);
  put_le<std::uint64_t>(out, r.deadline_ns);
  switch (r.op) {
    case Op::kScan:
      put_u8(out, static_cast<std::uint8_t>(r.scan_op));
      put_vec(out, r.data);
      if (r.segmented()) put_bytes(out, r.byte_flags);
      break;
    case Op::kPack:
      put_vec(out, r.data);
      put_bytes(out, r.byte_flags);
      break;
    case Op::kEnumerate:
      put_le<std::uint32_t>(out,
                            static_cast<std::uint32_t>(r.byte_flags.size()));
      put_bytes(out, r.byte_flags);
      break;
    case Op::kPipeline:
      put_vec(out, r.data);
      put_le<std::uint16_t>(out, static_cast<std::uint16_t>(r.stages.size()));
      for (const Stage& s : r.stages) {
        put_u8(out, static_cast<std::uint8_t>(s.op));
        put_le<std::int64_t>(out, s.arg);
      }
      break;
    case Op::kPlan:
      put_str(out, r.plan);
      put_le<std::uint16_t>(out,
                            static_cast<std::uint16_t>(r.registers.size()));
      for (const auto& [name, v] : r.registers) {
        put_str(out, name);
        put_vec(out, v);
      }
      break;
  }
  seal(out, len_at);
}

void encode_response(std::string& out, const Response& r) {
  const std::size_t len_at = out.size();
  put_le<std::uint32_t>(out, 0);
  put_le<std::uint32_t>(out, kMagic);
  put_le<std::uint16_t>(out, kVersion);
  put_u8(out, static_cast<std::uint8_t>(r.status));
  put_u8(out, 0);
  put_le<std::uint64_t>(out, r.request_id);
  put_le<std::uint32_t>(out, r.kept);
  put_le<std::uint32_t>(out, static_cast<std::uint32_t>(r.outputs.size()));
  for (const auto& v : r.outputs) put_vec(out, v);
  put_str(out, r.error);
  seal(out, len_at);
}

std::size_t frame_size(std::span<const std::uint8_t> buf,
                       std::size_t max_frame) {
  if (buf.size() < kLenPrefix) return 0;
  std::uint32_t body = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    body |= static_cast<std::uint32_t>(buf[i]) << (8 * i);
  }
  if (body > max_frame) {
    throw ProtocolError("frame length " + std::to_string(body) +
                        " exceeds limit " + std::to_string(max_frame));
  }
  const std::size_t total = kLenPrefix + body;
  return buf.size() >= total ? total : 0;
}

namespace {

/// Common header checks; returns the cursor positioned after magic+version.
Reader open_frame(std::span<const std::uint8_t> frame) {
  Reader rd(frame.subspan(kLenPrefix));
  const auto magic = rd.le<std::uint32_t>();
  if (magic != kMagic) throw ProtocolError("bad magic");
  const auto version = rd.le<std::uint16_t>();
  if (version != kVersion) throw VersionSkew(version);
  return rd;
}

}  // namespace

Request decode_request(std::span<const std::uint8_t> frame) {
  Reader rd = open_frame(frame);
  Request r;
  const std::uint8_t op = rd.u8();
  if (op < 1 || op > 5) {
    throw ProtocolError("unknown op " + std::to_string(op));
  }
  r.op = static_cast<Op>(op);
  r.flags = rd.u8();
  r.request_id = rd.le<std::uint64_t>();
  r.tenant = rd.le<std::uint32_t>();
  const std::uint8_t prio = rd.u8();
  if (prio > 2) throw ProtocolError("unknown priority " + std::to_string(prio));
  r.priority = static_cast<Priority>(prio);
  rd.u8();
  rd.u8();
  rd.u8();
  r.deadline_ns = rd.le<std::uint64_t>();
  switch (r.op) {
    case Op::kScan: {
      const std::uint8_t sop = rd.u8();
      if (sop > 4) {
        throw ProtocolError("unknown scan op " + std::to_string(sop));
      }
      r.scan_op = static_cast<ScanOp>(sop);
      r.data = rd.vec();
      if (r.segmented()) r.byte_flags = rd.bytes(r.data.size());
      break;
    }
    case Op::kPack:
      r.data = rd.vec();
      r.byte_flags = rd.bytes(r.data.size());
      break;
    case Op::kEnumerate: {
      const std::size_t n = rd.le<std::uint32_t>();
      r.byte_flags = rd.bytes(n);
      break;
    }
    case Op::kPipeline: {
      r.data = rd.vec();
      const std::size_t nstages = rd.le<std::uint16_t>();
      r.stages.reserve(nstages);
      for (std::size_t i = 0; i < nstages; ++i) {
        const std::uint8_t sop = rd.u8();
        const auto arg = rd.le<std::int64_t>();
        switch (static_cast<StageOp>(sop)) {
          case StageOp::kAddConst:
          case StageOp::kMulConst:
          case StageOp::kMinConst:
          case StageOp::kMaxConst:
          case StageOp::kScanPlus:
          case StageOp::kScanMax:
          case StageOp::kScanMin:
            break;
          default:
            throw ProtocolError("unknown stage op " + std::to_string(sop));
        }
        r.stages.push_back(Stage{static_cast<StageOp>(sop), arg});
      }
      break;
    }
    case Op::kPlan: {
      r.plan = rd.str();
      const std::size_t nregs = rd.le<std::uint16_t>();
      for (std::size_t i = 0; i < nregs; ++i) {
        std::string name = rd.str();
        std::vector<Value> v = rd.vec();
        r.registers.emplace(std::move(name), std::move(v));
      }
      break;
    }
  }
  rd.expect_drained();
  return r;
}

Response decode_response(std::span<const std::uint8_t> frame) {
  Reader rd = open_frame(frame);
  Response r;
  const std::uint8_t status = rd.u8();
  if (status > 9) {
    throw ProtocolError("unknown status " + std::to_string(status));
  }
  r.status = static_cast<Status>(status);
  rd.u8();
  r.request_id = rd.le<std::uint64_t>();
  r.kept = rd.le<std::uint32_t>();
  const std::size_t nout = rd.le<std::uint32_t>();
  r.outputs.reserve(nout <= 64 ? nout : 0);  // count validated by the reads
  for (std::size_t i = 0; i < nout; ++i) r.outputs.push_back(rd.vec());
  r.error = rd.str();
  rd.expect_drained();
  return r;
}

bool looks_like_http(std::span<const std::uint8_t> buf) {
  static constexpr char kGet[] = {'G', 'E', 'T', ' '};
  const std::size_t n = buf.size() < 4 ? buf.size() : 4;
  for (std::size_t i = 0; i < n; ++i) {
    if (buf[i] != static_cast<std::uint8_t>(kGet[i])) return false;
  }
  return n > 0;  // a strict prefix of "GET " still looks like HTTP
}

}  // namespace scanprim::net
