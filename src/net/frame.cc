#include "net/frame.h"

#include <unordered_set>

#include "common/string_util.h"
#include "crypto/packing.h"

namespace hprl::net {

using smc::Message;

namespace {

void PutU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v));
}

/// Short name field (from/to/tag): 1-byte length prefix.
Status AppendName(const std::string& s, std::vector<uint8_t>* out) {
  if (s.size() > 255) return Status::InvalidArgument("name too long: " + s);
  out->push_back(static_cast<uint8_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
  return Status::OK();
}

Result<std::string_view> ConsumeNameView(const uint8_t* body, size_t n,
                                         size_t* off) {
  if (*off + 1 > n) return Status::IOError("truncated frame: name length");
  size_t len = body[*off];
  *off += 1;
  if (*off + len > n) return Status::IOError("truncated frame: name bytes");
  std::string_view s(reinterpret_cast<const char*>(body + *off), len);
  *off += len;
  return s;
}

}  // namespace

size_t FrameSize(const Message& msg) {
  // len + magic + version + flags + 3 length-prefixed names + seq + checksum.
  return 4 + 4 + 2 + 1 + (1 + msg.from.size()) + (1 + msg.to.size()) +
         (1 + msg.tag.size()) + 8 + 4 + msg.payload.size();
}

std::vector<uint8_t> EncodeFrameHeader(const Message& msg) {
  std::vector<uint8_t> out;
  out.reserve(FrameSize(msg) - msg.payload.size());
  AppendU32(0, &out);  // length placeholder
  AppendU32(kWireMagic, &out);
  PutU16(kWireVersion, &out);
  out.push_back(0);  // flags
  // Names are bounded by the protocol (party roles + ":ctl" suffixes); a
  // violation is a programming error surfaced by the empty-frame fallback.
  if (!AppendName(msg.from, &out).ok() || !AppendName(msg.to, &out).ok() ||
      !AppendName(msg.tag, &out).ok()) {
    return {};
  }
  AppendU64(msg.seq, &out);
  AppendU32(msg.checksum, &out);
  // The length prefix covers the payload the caller will scatter-gather
  // after this header: the wire bytes are exactly EncodeFrame's.
  uint32_t len = static_cast<uint32_t>(out.size() - 4 + msg.payload.size());
  out[0] = static_cast<uint8_t>(len >> 24);
  out[1] = static_cast<uint8_t>(len >> 16);
  out[2] = static_cast<uint8_t>(len >> 8);
  out[3] = static_cast<uint8_t>(len);
  return out;
}

std::vector<uint8_t> EncodeFrame(const Message& msg) {
  std::vector<uint8_t> out = EncodeFrameHeader(msg);
  if (out.empty()) return out;
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  return out;
}

Message FrameView::ToMessage() const {
  Message msg;
  msg.from.assign(from);
  msg.to.assign(to);
  msg.tag.assign(tag);
  msg.seq = seq;
  msg.checksum = checksum;
  msg.payload.assign(payload, payload + payload_size);
  return msg;
}

Result<FrameView> DecodeFrameView(const uint8_t* body, size_t n) {
  size_t off = 0;
  auto u32 = [&](const char* what) -> Result<uint32_t> {
    if (off + 4 > n) {
      return Status::IOError(StrFormat("truncated frame: %s", what));
    }
    uint32_t v = (static_cast<uint32_t>(body[off]) << 24) |
                 (static_cast<uint32_t>(body[off + 1]) << 16) |
                 (static_cast<uint32_t>(body[off + 2]) << 8) |
                 static_cast<uint32_t>(body[off + 3]);
    off += 4;
    return v;
  };
  auto magic = u32("magic");
  if (!magic.ok()) return magic.status();
  if (*magic != kWireMagic) {
    return Status::IOError(StrFormat("bad frame magic 0x%08X", *magic));
  }
  if (off + 3 > n) return Status::IOError("truncated frame: version");
  uint16_t version = static_cast<uint16_t>((body[off] << 8) | body[off + 1]);
  off += 2;
  if (version != kWireVersion) {
    return Status::IOError(StrFormat(
        "wire version mismatch: peer speaks v%u, this build speaks v%u",
        unsigned{version}, unsigned{kWireVersion}));
  }
  off += 1;  // flags (reserved)

  FrameView view;
  auto from = ConsumeNameView(body, n, &off);
  if (!from.ok()) return from.status();
  auto to = ConsumeNameView(body, n, &off);
  if (!to.ok()) return to.status();
  auto tag = ConsumeNameView(body, n, &off);
  if (!tag.ok()) return tag.status();
  view.from = *from;
  view.to = *to;
  view.tag = *tag;

  if (off + 8 > n) return Status::IOError("truncated frame: seq");
  uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) seq = (seq << 8) | body[off + i];
  off += 8;
  view.seq = seq;
  auto checksum = u32("checksum");
  if (!checksum.ok()) return checksum.status();
  view.checksum = *checksum;
  view.payload = body + off;
  view.payload_size = n - off;
  // A stamped checksum that no longer covers the payload means the frame was
  // truncated or corrupted in transit; reject it here so a bad frame never
  // reaches an inbox. Unstamped frames (checksum 0: the hello handshake)
  // carry no payload to protect.
  if (view.checksum != 0 &&
      view.checksum != smc::PayloadChecksum(view.payload, view.payload_size)) {
    return Status::IOError(StrFormat(
        "frame checksum mismatch on '%.*s' (%zu payload bytes): truncated or "
        "corrupted in transit",
        static_cast<int>(view.tag.size()), view.tag.data(),
        view.payload_size));
  }
  return view;
}

Result<Message> DecodeFrame(const uint8_t* body, size_t n) {
  auto view = DecodeFrameView(body, n);
  if (!view.ok()) return view.status();
  return view->ToMessage();
}

Result<Message> ReadFrame(int fd, int timeout_ms, size_t* wire_bytes) {
  uint8_t len_buf[4];
  HPRL_RETURN_IF_ERROR(FullRead(fd, len_buf, 4, timeout_ms));
  uint32_t len = (static_cast<uint32_t>(len_buf[0]) << 24) |
                 (static_cast<uint32_t>(len_buf[1]) << 16) |
                 (static_cast<uint32_t>(len_buf[2]) << 8) |
                 static_cast<uint32_t>(len_buf[3]);
  if (len == 0 || len > kMaxFrameBytes) {
    // The stream is desynchronized or hostile; the connection cannot be
    // trusted past this point.
    return Status::IOError(StrFormat(
        "oversized frame length %u (max %u): stream desynchronized",
        unsigned{len}, unsigned{kMaxFrameBytes}));
  }
  std::vector<uint8_t> body(len);
  HPRL_RETURN_IF_ERROR(FullRead(fd, body.data(), len, timeout_ms));
  if (wire_bytes != nullptr) *wire_bytes = 4 + static_cast<size_t>(len);
  return DecodeFrame(body.data(), body.size());
}

Status WriteFrame(int fd, const Message& msg, size_t* wire_bytes) {
  std::vector<uint8_t> frame = EncodeFrame(msg);
  if (frame.empty()) {
    return Status::InvalidArgument("unframeable message (name over 255 bytes)");
  }
  if (wire_bytes != nullptr) *wire_bytes = frame.size();
  return FullWrite(fd, frame.data(), frame.size());
}

// --------------------------------------------------------------- ctl payloads

void AppendU8(uint8_t v, std::vector<uint8_t>* out) { out->push_back(v); }

void AppendU32(uint32_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v >> 24));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v));
}

void AppendU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<uint8_t>(v >> shift));
  }
}

void AppendI64(int64_t v, std::vector<uint8_t>* out) {
  AppendU64(static_cast<uint64_t>(v), out);
}

void AppendString(const std::string& s, std::vector<uint8_t>* out) {
  AppendU32(static_cast<uint32_t>(s.size()), out);
  out->insert(out->end(), s.begin(), s.end());
}

void AppendSignedBigInt(const crypto::BigInt& x, std::vector<uint8_t>* out) {
  AppendU8(x.Sign() < 0 ? 1 : 0, out);
  smc::AppendBigInt(x.Sign() < 0 ? -x : x, out);
}

Result<uint8_t> ConsumeU8(const std::vector<uint8_t>& buf, size_t* off) {
  if (*off + 1 > buf.size()) return Status::IOError("truncated ctl field: u8");
  return buf[(*off)++];
}

Result<uint32_t> ConsumeU32(const std::vector<uint8_t>& buf, size_t* off) {
  if (*off + 4 > buf.size()) {
    return Status::IOError("truncated ctl field: u32");
  }
  uint32_t v = (static_cast<uint32_t>(buf[*off]) << 24) |
               (static_cast<uint32_t>(buf[*off + 1]) << 16) |
               (static_cast<uint32_t>(buf[*off + 2]) << 8) |
               static_cast<uint32_t>(buf[*off + 3]);
  *off += 4;
  return v;
}

Result<uint64_t> ConsumeU64(const std::vector<uint8_t>& buf, size_t* off) {
  if (*off + 8 > buf.size()) {
    return Status::IOError("truncated ctl field: u64");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | buf[*off + i];
  *off += 8;
  return v;
}

Result<int64_t> ConsumeI64(const std::vector<uint8_t>& buf, size_t* off) {
  auto v = ConsumeU64(buf, off);
  if (!v.ok()) return v.status();
  return static_cast<int64_t>(*v);
}

Result<std::string> ConsumeString(const std::vector<uint8_t>& buf,
                                  size_t* off) {
  auto len = ConsumeU32(buf, off);
  if (!len.ok()) return len.status();
  if (*off + *len > buf.size()) {
    return Status::IOError("truncated ctl field: string bytes");
  }
  std::string s(reinterpret_cast<const char*>(buf.data() + *off), *len);
  *off += *len;
  return s;
}

Result<crypto::BigInt> ConsumeSignedBigInt(const std::vector<uint8_t>& buf,
                                           size_t* off) {
  auto neg = ConsumeU8(buf, off);
  if (!neg.ok()) return neg.status();
  if (*neg > 1) return Status::IOError("signed BigInt: sign byte not 0 or 1");
  // A leading zero byte would decode to the same value as the shorter
  // encoding AppendSignedBigInt writes: refused, so a value has one form.
  size_t first = *off;
  auto len = ConsumeU32(buf, &first);
  if (len.ok() && *len > 0 && first < buf.size() && buf[first] == 0) {
    return Status::IOError("signed BigInt: leading zero byte");
  }
  auto mag = smc::ConsumeBigInt(buf, off);
  if (!mag.ok()) return mag.status();
  if (*neg == 0) return mag;
  if (mag->IsZero()) return Status::IOError("signed BigInt: negative zero");
  return -*mag;
}

const char* CtlVerbTag(CtlVerb verb) {
  switch (verb) {
    case CtlVerb::kConfigure:
      return "cfg";
    case CtlVerb::kKeygen:
      return "keygen";
    case CtlVerb::kRecvKey:
      return "recvkey";
    case CtlVerb::kPairBatch:
      return "pairb";
    case CtlVerb::kPurge:
      return "purge";
    case CtlVerb::kStats:
      return "stats";
    case CtlVerb::kShutdown:
      return "shutdown";
    case CtlVerb::kInjectFail:
      return "inject_fail";
    case CtlVerb::kHeartbeat:
      return "hb";
    case CtlVerb::kRejoin:
      return "rejoin";
  }
  return "unknown";  // unreachable: the switch above is exhaustive
}

Result<CtlVerb> CtlVerbFromTag(const std::string& tag) {
  for (uint8_t v = 0; v < kCtlVerbCount; ++v) {
    CtlVerb verb = static_cast<CtlVerb>(v);
    if (tag == CtlVerbTag(verb)) return verb;
  }
  return Status::InvalidArgument("unknown ctl command: " + tag);
}

std::string CtlInbox(const std::string& role, CtlVerb verb) {
  return role + (verb == CtlVerb::kHeartbeat ? ":hb" : ":ctl");
}

smc::Message EncodeCtlRequest(const std::string& from, const std::string& role,
                              const CtlRequest& req) {
  Message msg;
  msg.from = from;
  msg.to = CtlInbox(role, req.verb);
  msg.tag = CtlVerbTag(req.verb);
  AppendU64(req.epoch, &msg.payload);
  msg.payload.insert(msg.payload.end(), req.body.begin(), req.body.end());
  return msg;
}

void AppendCtlResponse(const CtlResponse& r, std::vector<uint8_t>* out) {
  AppendString(r.role, out);
  AppendU8(static_cast<uint8_t>(r.verb), out);
  AppendU64(r.id, out);
  AppendU64(r.epoch, out);
  AppendU8(static_cast<uint8_t>(r.code), out);
  AppendString(r.detail, out);
  out->insert(out->end(), r.extra.begin(), r.extra.end());
}

Result<CtlResponse> ParseCtlResponse(const std::vector<uint8_t>& payload) {
  CtlResponse r;
  size_t off = 0;
  auto role = ConsumeString(payload, &off);
  if (!role.ok()) return role.status();
  auto verb = ConsumeU8(payload, &off);
  if (!verb.ok()) return verb.status();
  if (*verb >= kCtlVerbCount) {
    return Status::IOError("ctl reply carries unknown verb " +
                           std::to_string(int{*verb}));
  }
  auto id = ConsumeU64(payload, &off);
  if (!id.ok()) return id.status();
  auto epoch = ConsumeU64(payload, &off);
  if (!epoch.ok()) return epoch.status();
  auto code = ConsumeU8(payload, &off);
  if (!code.ok()) return code.status();
  if (*code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::IOError("ctl reply carries unknown status code " +
                           std::to_string(int{*code}));
  }
  auto detail = ConsumeString(payload, &off);
  if (!detail.ok()) return detail.status();
  r.role = std::move(role).value();
  r.verb = static_cast<CtlVerb>(*verb);
  r.id = *id;
  r.epoch = *epoch;
  r.code = static_cast<StatusCode>(*code);
  r.detail = std::move(detail).value();
  r.extra.assign(payload.begin() + static_cast<long>(off), payload.end());
  return r;
}

// --------------------------------------------- cfg, recvkey and pairb bodies

namespace {

/// The fewest bytes an entry can take: what a declared count is checked
/// against before anything is allocated.
constexpr size_t kMinSignedBigInt = 1 + 4;  // sign byte + zero-length magnitude
constexpr size_t kMinRowEntry = 8 + 4;  // row_id, value count
constexpr size_t kPairEntryBytes = 8 + 8 + 8;
constexpr uint32_t kMaxKeyBits = 1u << 16;

Status CheckCount(uint32_t count, size_t min_entry, size_t off, size_t size,
                  const char* body, const char* what) {
  if (static_cast<uint64_t>(count) * min_entry <= size - off) {
    return Status::OK();
  }
  return Status::IOError(StrFormat("%s declares %u %s in %zu bytes", body,
                                   unsigned{count}, what, size - off));
}

}  // namespace

void AppendConfigBody(const ConfigBody& body, std::vector<uint8_t>* out) {
  AppendU32(body.key_bits, out);
  AppendU64(body.test_seed, out);
  AppendU32(body.emulated_latency_micros, out);
  AppendString(body.material_dir, out);
  AppendU32(body.pack_pairs, out);
  AppendU32(static_cast<uint32_t>(body.slot_widths.size()), out);
  for (int w : body.slot_widths) AppendU32(static_cast<uint32_t>(w), out);
  AppendU32(static_cast<uint32_t>(body.thresholds.size()), out);
  for (const crypto::BigInt& t : body.thresholds) AppendSignedBigInt(t, out);
}

Result<ConfigBody> ParseConfigBody(const std::vector<uint8_t>& payload) {
  ConfigBody body;
  size_t off = 0;
  HPRL_ASSIGN_OR_RETURN(body.key_bits, ConsumeU32(payload, &off));
  // Far past any usable Paillier key, and small enough that every width and
  // arena size derived from it stays in int range.
  if (body.key_bits > kMaxKeyBits) {
    return Status::InvalidArgument("cfg: key wider than " +
                                   std::to_string(kMaxKeyBits) + " bits");
  }
  HPRL_ASSIGN_OR_RETURN(body.test_seed, ConsumeU64(payload, &off));
  HPRL_ASSIGN_OR_RETURN(body.emulated_latency_micros,
                        ConsumeU32(payload, &off));
  HPRL_ASSIGN_OR_RETURN(body.material_dir, ConsumeString(payload, &off));
  HPRL_ASSIGN_OR_RETURN(body.pack_pairs, ConsumeU32(payload, &off));
  uint32_t widths = 0;
  HPRL_ASSIGN_OR_RETURN(widths, ConsumeU32(payload, &off));
  HPRL_RETURN_IF_ERROR(
      CheckCount(widths, 4, off, payload.size(), "cfg", "slot widths"));
  for (uint32_t i = 0; i < widths; ++i) {
    uint32_t w = 0;
    HPRL_ASSIGN_OR_RETURN(w, ConsumeU32(payload, &off));
    // A width past the key never fits (the layout check below rejects a
    // zero width).
    if (w > body.key_bits) {
      return Status::InvalidArgument("cfg: slot width wider than the key");
    }
    body.slot_widths.push_back(static_cast<int>(w));
  }
  uint32_t attrs = 0;
  HPRL_ASSIGN_OR_RETURN(attrs, ConsumeU32(payload, &off));
  HPRL_RETURN_IF_ERROR(CheckCount(attrs, kMinSignedBigInt, off,
                                  payload.size(), "cfg", "thresholds"));
  body.thresholds.resize(attrs);
  for (crypto::BigInt& t : body.thresholds) {
    HPRL_ASSIGN_OR_RETURN(t, ConsumeSignedBigInt(payload, &off));
  }
  if (off != payload.size()) {
    return Status::InvalidArgument("cfg: trailing bytes after thresholds");
  }
  if (body.pack_pairs == 0 || attrs == 0 || widths != attrs) {
    return Status::InvalidArgument(StrFormat(
        "cfg: a unit needs at least one pair and one slot width per "
        "attribute (%u pairs, %u widths, %u attributes)",
        unsigned{body.pack_pairs}, unsigned{widths}, unsigned{attrs}));
  }
  auto layout = crypto::PackingLayout::Plan(static_cast<int>(body.key_bits),
                                            body.slot_widths);
  if (!layout.ok() ||
      body.pack_pairs > static_cast<uint32_t>(layout->groups())) {
    int64_t pair_bits = 0;
    for (int w : body.slot_widths) pair_bits += w;
    return Status::InvalidArgument(StrFormat(
        "cfg: a unit of %u pairs of %lld bits does not fit a %u-bit key",
        unsigned{body.pack_pairs}, static_cast<long long>(pair_bits),
        unsigned{body.key_bits}));
  }
  return body;
}

void AppendRecvKeyBody(uint32_t randomizers, std::vector<uint8_t>* out) {
  AppendU32(randomizers, out);
}

Result<uint32_t> ParseRecvKeyBody(const std::vector<uint8_t>& payload) {
  size_t off = 0;
  uint32_t randomizers = 0;
  HPRL_ASSIGN_OR_RETURN(randomizers, ConsumeU32(payload, &off));
  if (off != payload.size()) {
    return Status::InvalidArgument("recvkey: trailing bytes after the count");
  }
  return randomizers;
}

void AppendPairBatchBody(const PairBatchBody& body, std::vector<uint8_t>* out) {
  AppendU64(body.batch_id, out);
  AppendU32(static_cast<uint32_t>(body.rows.size()), out);
  for (const RowEntry& row : body.rows) {
    AppendI64(row.row_id, out);
    AppendU32(static_cast<uint32_t>(row.values.size()), out);
    for (const crypto::BigInt& v : row.values) AppendSignedBigInt(v, out);
  }
  AppendU32(static_cast<uint32_t>(body.pairs.size()), out);
  for (const PairEntry& pair : body.pairs) {
    AppendU64(pair.pair_index, out);
    AppendI64(pair.a_id, out);
    AppendI64(pair.b_id, out);
  }
}

Result<PairBatchBody> ParsePairBatchBody(const std::vector<uint8_t>& payload) {
  PairBatchBody body;
  size_t off = 0;
  HPRL_ASSIGN_OR_RETURN(body.batch_id, ConsumeU64(payload, &off));
  uint32_t nrows = 0;
  HPRL_ASSIGN_OR_RETURN(nrows, ConsumeU32(payload, &off));
  HPRL_RETURN_IF_ERROR(
      CheckCount(nrows, kMinRowEntry, off, payload.size(), "pairb", "rows"));
  body.rows.resize(nrows);
  std::unordered_set<int64_t> ids;
  ids.reserve(nrows);
  for (RowEntry& row : body.rows) {
    HPRL_ASSIGN_OR_RETURN(row.row_id, ConsumeI64(payload, &off));
    if (!ids.insert(row.row_id).second) {
      return Status::IOError("pairb repeats row " + std::to_string(row.row_id));
    }
    uint32_t nvalues = 0;
    HPRL_ASSIGN_OR_RETURN(nvalues, ConsumeU32(payload, &off));
    HPRL_RETURN_IF_ERROR(CheckCount(nvalues, kMinSignedBigInt, off,
                                    payload.size(), "pairb", "values"));
    row.values.resize(nvalues);
    for (crypto::BigInt& v : row.values) {
      HPRL_ASSIGN_OR_RETURN(v, ConsumeSignedBigInt(payload, &off));
    }
  }
  uint32_t npairs = 0;
  HPRL_ASSIGN_OR_RETURN(npairs, ConsumeU32(payload, &off));
  HPRL_RETURN_IF_ERROR(CheckCount(npairs, kPairEntryBytes, off, payload.size(),
                                  "pairb", "pairs"));
  body.pairs.resize(npairs);
  for (PairEntry& pair : body.pairs) {
    HPRL_ASSIGN_OR_RETURN(pair.pair_index, ConsumeU64(payload, &off));
    HPRL_ASSIGN_OR_RETURN(pair.a_id, ConsumeI64(payload, &off));
    HPRL_ASSIGN_OR_RETURN(pair.b_id, ConsumeI64(payload, &off));
  }
  if (off != payload.size()) {
    return Status::IOError("pairb body carries trailing bytes");
  }
  return body;
}

}  // namespace hprl::net
