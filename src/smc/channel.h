#ifndef HPRL_SMC_CHANNEL_H_
#define HPRL_SMC_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "crypto/bigint.h"
#include "obs/metrics.h"

namespace hprl::smc {

/// One protocol message. `seq` and `checksum` are transport integrity
/// metadata stamped by MessageBus::Send (senders leave them 0): the receiver
/// rejects payloads whose checksum no longer matches (corruption) and
/// messages whose per-link sequence number does not advance (replay /
/// reordering). Both checks are how the retry layer detects transit faults.
struct Message {
  std::string from;
  std::string to;
  std::string tag;
  std::vector<uint8_t> payload;
  uint64_t seq = 0;       // per (from, to) link, strictly increasing; 0 = unset
  uint32_t checksum = 0;  // FNV-1a of payload (never 0 once stamped); 0 = unset
};

/// Fnv1a32 (common/hash.h) over the payload: never 0, so 0 can mean
/// "unstamped".
uint32_t PayloadChecksum(const uint8_t* data, size_t n);
uint32_t PayloadChecksum(const std::vector<uint8_t>& payload);

/// Traffic counters for one directed link.
struct LinkStats {
  int64_t messages = 0;
  int64_t bytes = 0;
};

/// In-process message transport between the three linkage parties. The
/// protocol logic is identical to a networked deployment; only the transport
/// is simulated, and every byte is accounted so communication costs can be
/// reported (paper §VI cost model).
///
/// Send/Receive/Expect are virtual so a decorating transport (FaultyBus,
/// smc/fault.h) can inject deterministic faults underneath the protocol
/// without the parties knowing.
class MessageBus {
 public:
  virtual ~MessageBus() = default;

  virtual void Send(Message msg);

  /// Pops the oldest message addressed to `to`; NotFound when none pending.
  virtual Result<Message> Receive(const std::string& to);

  /// Pops the oldest message for `to`, requiring a tag, a valid payload
  /// checksum and an advancing per-link sequence number. Tag or sequence
  /// mismatch is a desynchronization (Internal); a checksum mismatch is a
  /// corrupted payload (IOError). Both are retried by the protocol layer.
  virtual Result<Message> Expect(const std::string& to, const std::string& tag);

  /// Discards every pending message (stats are kept). The retry layer calls
  /// this between attempts so a half-delivered exchange cannot desync the
  /// next one.
  virtual void PurgeAll();

  /// Fault-injection context hook: the comparator announces which record
  /// pair (and retry attempt) the next messages belong to, so a decorating
  /// FaultyBus can schedule faults deterministically per pair. No-op here.
  virtual void SetPairContext(int64_t a_id, int64_t b_id, int attempt) {
    (void)a_id;
    (void)b_id;
    (void)attempt;
  }

  const std::map<std::pair<std::string, std::string>, LinkStats>& links()
      const {
    return links_;
  }

  int64_t total_bytes() const { return total_bytes_; }
  int64_t total_messages() const { return total_messages_; }

  /// Streams smc.bytes_sent / smc.messages into `registry` on every Send
  /// (nullptr detaches). The per-link LinkStats accounting is unaffected.
  virtual void AttachMetrics(obs::MetricsRegistry* registry);

 protected:
  /// Accounting + enqueue of an already-stamped message. Decorators call
  /// this after applying their faults so the checksum still covers the
  /// payload as the sender produced it.
  void Enqueue(Message msg);

  /// Charges `bytes` on the (from, to) link and the totals (and the attached
  /// per-send counters) without enqueueing anything. Enqueue uses it with the
  /// payload size; a networked transport (net::SocketBus) uses it with the
  /// framed wire size of messages it puts on a socket instead of an inbox.
  void Account(const std::string& from, const std::string& to, int64_t bytes);

  /// Assigns the per-link sequence number and (when still unset) the payload
  /// checksum.
  void Stamp(Message* msg);

 private:
  std::map<std::string, std::deque<Message>> inboxes_;
  std::map<std::pair<std::string, std::string>, LinkStats> links_;
  std::map<std::pair<std::string, std::string>, uint64_t> next_seq_;
  std::map<std::pair<std::string, std::string>, uint64_t> last_delivered_;
  int64_t total_bytes_ = 0;
  int64_t total_messages_ = 0;
  obs::Counter* bytes_counter_ = nullptr;     // not owned
  obs::Counter* messages_counter_ = nullptr;  // not owned
};

/// Serialization helpers: BigInts travel as 4-byte big-endian length followed
/// by magnitude bytes. AppendBigInt exports the mpz limbs straight into the
/// destination buffer (no intermediate byte-vector hop); ConsumeBigIntInto
/// imports straight into a caller-provided (typically arena-backed) BigInt.
void AppendBigInt(const crypto::BigInt& x, std::vector<uint8_t>* out);
Result<crypto::BigInt> ConsumeBigInt(const std::vector<uint8_t>& buf,
                                     size_t* offset);
Status ConsumeBigIntInto(const std::vector<uint8_t>& buf, size_t* offset,
                         crypto::BigInt* out);

}  // namespace hprl::smc

#endif  // HPRL_SMC_CHANNEL_H_
