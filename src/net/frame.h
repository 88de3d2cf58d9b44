#ifndef HPRL_NET_FRAME_H_
#define HPRL_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/bigint.h"
#include "net/socket.h"
#include "smc/channel.h"

namespace hprl::net {

/// Wire framing for smc::Message (docs/PROTOCOL.md, "Wire format"). Every
/// frame on a party link is
///
///   u32  length     bytes that follow this field (big-endian, like all ints)
///   u32  magic      0x4850524C ("HPRL")
///   u16  version    kWireVersion; a mismatch rejects the frame
///   u8   flags      reserved, 0
///   u8+  from       length-prefixed sender name
///   u8+  to         length-prefixed recipient name
///   u8+  tag        length-prefixed message tag
///   u64  seq        per (from, to) link sequence number (MessageBus::Stamp)
///   u32  checksum   FNV-1a of the payload (smc::PayloadChecksum)
///   ...  payload    the remaining length bytes
///
/// Encode/Decode round-trip a Message byte-exactly: from, to, tag, payload,
/// seq and checksum all survive the wire unchanged, so receiver-side
/// Expect validation (checksum, sequence advance) behaves identically to the
/// in-process transport.

inline constexpr uint32_t kWireMagic = 0x4850524C;  // "HPRL"
/// Version 16: the "stats" reply carries the randomizers each holder's
/// offline phase generated. Mixed-version meshes are rejected at the frame
/// layer; docs/PROTOCOL.md ("Wire format") records what every earlier
/// version changed.
inline constexpr uint16_t kWireVersion = 16;

/// Frames larger than this are rejected before any allocation — an oversized
/// length prefix means a corrupted or hostile stream, not a big message
/// (the largest legitimate payload is a few KiB of ciphertexts).
inline constexpr uint32_t kMaxFrameBytes = 1u << 24;  // 16 MiB

/// Total wire size of `msg` once framed (length prefix included) — what the
/// transport charges to the bandwidth accounting.
size_t FrameSize(const smc::Message& msg);

/// Serializes `msg` into a ready-to-send frame (length prefix included).
std::vector<uint8_t> EncodeFrame(const smc::Message& msg);

/// Serializes only the frame header (length prefix through checksum); the
/// length prefix already covers the payload, so a sender can scatter-gather
/// {header, payload} with writev and the bytes on the wire are identical to
/// EncodeFrame's — the payload is never concatenated into a second buffer.
/// Empty on unframeable names (same fallback as EncodeFrame).
std::vector<uint8_t> EncodeFrameHeader(const smc::Message& msg);

/// Non-owning view of a decoded frame: the name fields and the payload point
/// into the caller's buffer (a pooled read buffer in the epoll transport),
/// valid only as long as that buffer is. ToMessage() materializes the one
/// owning copy when the frame crosses into an inbox.
struct FrameView {
  std::string_view from;
  std::string_view to;
  std::string_view tag;
  uint64_t seq = 0;
  uint32_t checksum = 0;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;

  smc::Message ToMessage() const;
};

/// Parses a frame body (everything after the length prefix) without copying:
/// every field of the returned view aliases `body`. IOError on bad magic,
/// wrong version, truncated fields, or a checksum that no longer covers the
/// payload — identical validation to the owning DecodeFrame.
Result<FrameView> DecodeFrameView(const uint8_t* body, size_t n);

/// Parses a frame body (everything after the length prefix). IOError on bad
/// magic, wrong version, or truncated fields. Implemented over
/// DecodeFrameView: one codec, two ownership disciplines.
Result<smc::Message> DecodeFrame(const uint8_t* body, size_t n);

/// Reads one frame from `fd`. `timeout_ms` bounds the wait for the frame to
/// start (NotFound on expiry); once the length prefix arrived the body must
/// follow within the same timeout (IOError mid-frame otherwise). When
/// `wire_bytes` is non-null it receives the frame's total wire size.
Result<smc::Message> ReadFrame(int fd, int timeout_ms,
                               size_t* wire_bytes = nullptr);

/// Encodes and writes one frame. Returns FullWrite's status (Unavailable
/// when the peer is gone). When `wire_bytes` is non-null it receives the
/// frame's total wire size.
Status WriteFrame(int fd, const smc::Message& msg,
                  size_t* wire_bytes = nullptr);

// ---------------------------------------------------------------------------
// Payload builders for the coordination (ctl) messages: fixed-width
// big-endian integers, length-prefixed strings, and sign-carrying BigInts
// (the protocol's AppendBigInt is magnitude-only, which is fine for
// ciphertexts but loses the sign of plaintext attribute encodings).

void AppendU8(uint8_t v, std::vector<uint8_t>* out);
void AppendU32(uint32_t v, std::vector<uint8_t>* out);
void AppendU64(uint64_t v, std::vector<uint8_t>* out);
void AppendI64(int64_t v, std::vector<uint8_t>* out);
void AppendString(const std::string& s, std::vector<uint8_t>* out);
void AppendSignedBigInt(const crypto::BigInt& x, std::vector<uint8_t>* out);

Result<uint8_t> ConsumeU8(const std::vector<uint8_t>& buf, size_t* off);
Result<uint32_t> ConsumeU32(const std::vector<uint8_t>& buf, size_t* off);
Result<uint64_t> ConsumeU64(const std::vector<uint8_t>& buf, size_t* off);
Result<int64_t> ConsumeI64(const std::vector<uint8_t>& buf, size_t* off);
Result<std::string> ConsumeString(const std::vector<uint8_t>& buf,
                                  size_t* off);
/// Accepts only AppendSignedBigInt's own encoding: a sign byte of 0 or 1,
/// a magnitude without leading zero bytes, and no negative zero.
Result<crypto::BigInt> ConsumeSignedBigInt(const std::vector<uint8_t>& buf,
                                           size_t* off);

// ---------------------------------------------------------------------------
// Typed coordination (ctl) plane. Every command the coordinator sends a
// party daemon is one of these verbs; the verb is carried as the message tag
// on the wire (stable short strings, so a capture stays greppable) and as a
// single byte inside every acknowledgement. Adding a verb is a
// compile-checked change: CtlVerbTag() and the daemons' dispatch switch are
// exhaustive over the enum, so a missing case is a -Wswitch error, not a
// silently ignored command.

enum class CtlVerb : uint8_t {
  kConfigure = 0,   ///< protocol parameters ("cfg")
  kKeygen = 1,      ///< qp only: generate + publish key ("keygen")
  kRecvKey = 2,     ///< holders: consume the public key, then run the
                    ///  offline phase ("recvkey")
  kPairBatch = 3,   ///< run a batch of pairs ("pairb")
  kPurge = 4,       ///< inter-attempt flush barrier ("purge")
  kStats = 5,       ///< report cost/traffic counters ("stats")
  kShutdown = 6,    ///< leave the serve loop ("shutdown")
  kInjectFail = 7,  ///< test hook: fail/crash upcoming pairs ("inject_fail")
  kHeartbeat = 8,   ///< membership probe on the ":hb" sub-inbox ("hb")
  kRejoin = 9,      ///< re-admit a restarted daemon: adopt the coordinator's
                    ///  session epoch and bump past its last-seen
                    ///  incarnation ("rejoin")
};

/// Number of verbs: every byte below it is a verb, and ParseCtlResponse
/// rejects verb bytes at or above it.
inline constexpr uint8_t kCtlVerbCount = 10;

/// The verb's wire tag. Exhaustive switch: a new enum value that is not
/// given a tag here fails to compile.
const char* CtlVerbTag(CtlVerb verb);

/// Inverse of CtlVerbTag; InvalidArgument for an unknown tag.
Result<CtlVerb> CtlVerbFromTag(const std::string& tag);

/// Sub-inbox a verb is addressed to on the daemon: heartbeats ride ":hb"
/// (exempt from flush barriers so membership probes survive a purge),
/// everything else ":ctl".
std::string CtlInbox(const std::string& role, CtlVerb verb);

/// One coordinator command: the verb, the coordinator's session-epoch
/// fencing token, and the verb-specific body (the payload layouts are
/// documented in docs/PROTOCOL.md). kConfigure and kRejoin ADOPT the
/// epoch on the daemon; work verbs from any other epoch are fenced
/// (rejected with kFailedPrecondition, never executed), which is what
/// makes a relaunched coordinator safe against frames the crashed one
/// left in flight.
struct CtlRequest {
  CtlVerb verb = CtlVerb::kConfigure;
  uint64_t epoch = 0;
  std::vector<uint8_t> body;
};

/// Builds the wire message for `req` from `from` to `role`'s proper
/// sub-inbox.
smc::Message EncodeCtlRequest(const std::string& from, const std::string& role,
                              const CtlRequest& req);

/// Every command's acknowledgement. `id` echoes the command's correlation
/// id (batch id, barrier id, or heartbeat probe sequence); `extra` carries
/// verb-specific data (kStats counters, kPairBatch slots,
/// kConfigure/kHeartbeat the daemon's incarnation number).
struct CtlResponse {
  std::string role;  ///< replying replica's mesh name (e.g. "alice#1")
  CtlVerb verb = CtlVerb::kConfigure;
  uint64_t id = 0;
  uint64_t epoch = 0;  ///< the daemon's current session epoch
  StatusCode code = StatusCode::kOk;
  std::string detail;
  std::vector<uint8_t> extra;
};

void AppendCtlResponse(const CtlResponse& r, std::vector<uint8_t>* out);
Result<CtlResponse> ParseCtlResponse(const std::vector<uint8_t>& payload);

// ---------------------------------------------------------------------------
// kConfigure body (wire v15): the key size, the daemon's knobs, and the
// public plan every daemon needs to run its role's unit step without seeing
// a row it does not hold.
//
//   u32  key_bits
//   u64  test_seed
//   u32  emulated per-pair latency, microseconds
//   str  material_dir ("" disables the material store)
//   u32  pack_pairs: pairs per unit, at least 1 (smc::PackedGroupPairs)
//   u32  slot-width count, then per compared attribute the bits of its
//        packed slot (smc::RuleOperands::slot_widths)
//   u32  compared-attribute count, then per attribute its scaled threshold
//        (signed BigInt)

struct ConfigBody {
  uint32_t key_bits = 0;
  uint64_t test_seed = 0;
  uint32_t emulated_latency_micros = 0;
  std::string material_dir;
  uint32_t pack_pairs = 0;
  std::vector<int> slot_widths;
  std::vector<crypto::BigInt> thresholds;
};

void AppendConfigBody(const ConfigBody& body, std::vector<uint8_t>* out);
/// Parses an exact body: a truncated field or a byte past the last one
/// fails, and so do a key wider than 2^16 bits, a non-canonical threshold,
/// and a unit that could not be laid out — pack_pairs 0, no attribute, a
/// slot width missing or zero, or pack_pairs·Σwidths > key_bits − 2.
Result<ConfigBody> ParseConfigBody(const std::vector<uint8_t>& payload);

// ---------------------------------------------------------------------------
// kRecvKey body (wire v15): the randomizers the receiving holder's offline
// phase prewarms, its own role's smc::RandomizerDraws count.
//
//   u32  randomizers

void AppendRecvKeyBody(uint32_t randomizers, std::vector<uint8_t>* out);
/// Parses an exact body: a short body or a byte past the count fails.
Result<uint32_t> ParseRecvKeyBody(const std::vector<uint8_t>& payload);

// ---------------------------------------------------------------------------
// kPairBatch body (wire v12): self-contained. A holder's frame carries
// every distinct row of its own side that its pairs name, once (alice the R
// rows, bob the S rows); qp's frame carries none. A daemon resolves the
// frame's pairs from the frame alone and keeps no row after it.
//
//   u64  batch_id
//   u32  row count, then per row: i64 row_id, u32 value count, then the
//        receiving holder's own encoding per compared attribute (signed
//        BigInts)
//   u32  pair count, then per pair: u64 pair_index, i64 a_id, i64 b_id

struct RowEntry {
  int64_t row_id = -1;
  std::vector<crypto::BigInt> values;
};

struct PairEntry {
  uint64_t pair_index = 0;  ///< echoed in the pair's reply slot
  int64_t a_id = -1;        ///< R row
  int64_t b_id = -1;        ///< S row
};

struct PairBatchBody {
  uint64_t batch_id = 0;
  std::vector<RowEntry> rows;  ///< distinct row ids
  std::vector<PairEntry> pairs;
};

void AppendPairBatchBody(const PairBatchBody& body, std::vector<uint8_t>* out);
/// Parses a body. Declared counts are checked against the bytes left
/// before anything is allocated; truncation, a repeated row id, a
/// non-canonical BigInt and trailing bytes are errors, so every body it
/// accepts re-encodes to exactly its own bytes.
Result<PairBatchBody> ParsePairBatchBody(const std::vector<uint8_t>& payload);

}  // namespace hprl::net

#endif  // HPRL_NET_FRAME_H_
