#include "smc/channel.h"

#include "common/hash.h"

namespace hprl::smc {

uint32_t PayloadChecksum(const uint8_t* data, size_t n) {
  return Fnv1a32(data, n);
}

uint32_t PayloadChecksum(const std::vector<uint8_t>& payload) {
  return PayloadChecksum(payload.data(), payload.size());
}

void MessageBus::Stamp(Message* msg) {
  msg->seq = ++next_seq_[{msg->from, msg->to}];
  if (msg->checksum == 0) msg->checksum = PayloadChecksum(msg->payload);
}

void MessageBus::Account(const std::string& from, const std::string& to,
                         int64_t bytes) {
  LinkStats& link = links_[{from, to}];
  link.messages += 1;
  link.bytes += bytes;
  total_messages_ += 1;
  total_bytes_ += bytes;
  if (messages_counter_ != nullptr) {
    messages_counter_->Increment();
    bytes_counter_->Increment(bytes);
  }
}

void MessageBus::Enqueue(Message msg) {
  Account(msg.from, msg.to, static_cast<int64_t>(msg.payload.size()));
  inboxes_[msg.to].push_back(std::move(msg));
}

void MessageBus::Send(Message msg) {
  Stamp(&msg);
  Enqueue(std::move(msg));
}

void MessageBus::AttachMetrics(obs::MetricsRegistry* registry) {
  bytes_counter_ = registry ? registry->counter("smc.bytes_sent") : nullptr;
  messages_counter_ = registry ? registry->counter("smc.messages") : nullptr;
}

Result<Message> MessageBus::Receive(const std::string& to) {
  auto it = inboxes_.find(to);
  if (it == inboxes_.end() || it->second.empty()) {
    return Status::NotFound("no message pending for " + to);
  }
  Message msg = std::move(it->second.front());
  it->second.pop_front();
  return msg;
}

Result<Message> MessageBus::Expect(const std::string& to,
                                   const std::string& tag) {
  auto msg = Receive(to);
  if (!msg.ok()) return msg.status();
  // Validation failures name the offending link (from->to), tag and
  // sequence numbers: when the parties run as separate processes these
  // strings are all an operator has to attribute a fault to one hop.
  if (msg->tag != tag) {
    return Status::Internal("protocol desync on link " + msg->from + "->" +
                            to + ": expected '" + tag + "' but got '" +
                            msg->tag + "' (seq " +
                            std::to_string(msg->seq) + ")");
  }
  if (msg->checksum != 0 && msg->checksum != PayloadChecksum(msg->payload)) {
    return Status::IOError("corrupted payload on link " + msg->from + "->" +
                           to + ": checksum mismatch on '" + tag + "' (seq " +
                           std::to_string(msg->seq) + ")");
  }
  if (msg->seq != 0) {
    uint64_t& last = last_delivered_[{msg->from, msg->to}];
    if (msg->seq <= last) {
      return Status::Internal(
          "protocol desync on link " + msg->from + "->" + to +
          ": stale sequence on '" + tag + "' (got seq " +
          std::to_string(msg->seq) + ", already delivered " +
          std::to_string(last) + ")");
    }
    last = msg->seq;
  }
  return msg;
}

void MessageBus::PurgeAll() { inboxes_.clear(); }

void AppendBigInt(const crypto::BigInt& x, std::vector<uint8_t>* out) {
  // Export the limbs straight into the destination: same bytes as the old
  // ToBytes() hop (big-endian magnitude, zero encodes as length 0) without
  // materializing an intermediate vector per ciphertext.
  const uint32_t len =
      x.IsZero() ? 0 : static_cast<uint32_t>((x.BitLength() + 7) / 8);
  out->push_back(static_cast<uint8_t>(len >> 24));
  out->push_back(static_cast<uint8_t>(len >> 16));
  out->push_back(static_cast<uint8_t>(len >> 8));
  out->push_back(static_cast<uint8_t>(len));
  if (len == 0) return;
  const size_t base = out->size();
  out->resize(base + len);
  size_t count = 0;
  mpz_export(out->data() + base, &count, /*order=*/1, /*size=*/1,
             /*endian=*/1, /*nails=*/0, x.raw());
}

Result<crypto::BigInt> ConsumeBigInt(const std::vector<uint8_t>& buf,
                                     size_t* offset) {
  if (*offset + 4 > buf.size()) {
    return Status::InvalidArgument("truncated BigInt length");
  }
  uint32_t len = (static_cast<uint32_t>(buf[*offset]) << 24) |
                 (static_cast<uint32_t>(buf[*offset + 1]) << 16) |
                 (static_cast<uint32_t>(buf[*offset + 2]) << 8) |
                 static_cast<uint32_t>(buf[*offset + 3]);
  *offset += 4;
  if (*offset + len > buf.size()) {
    return Status::InvalidArgument("truncated BigInt payload");
  }
  std::vector<uint8_t> bytes(buf.begin() + static_cast<long>(*offset),
                             buf.begin() + static_cast<long>(*offset + len));
  *offset += len;
  return crypto::BigInt::FromBytes(bytes);
}

Status ConsumeBigIntInto(const std::vector<uint8_t>& buf, size_t* offset,
                         crypto::BigInt* out) {
  if (*offset + 4 > buf.size()) {
    return Status::InvalidArgument("truncated BigInt length");
  }
  uint32_t len = (static_cast<uint32_t>(buf[*offset]) << 24) |
                 (static_cast<uint32_t>(buf[*offset + 1]) << 16) |
                 (static_cast<uint32_t>(buf[*offset + 2]) << 8) |
                 static_cast<uint32_t>(buf[*offset + 3]);
  *offset += 4;
  if (*offset + len > buf.size()) {
    return Status::InvalidArgument("truncated BigInt payload");
  }
  if (len == 0) {
    mpz_set_ui(out->raw(), 0);
  } else {
    // Import straight into the caller's (typically arena-backed) value: no
    // intermediate byte vector, no fresh mpz allocation on the hot path.
    mpz_import(out->raw(), len, /*order=*/1, /*size=*/1, /*endian=*/1,
               /*nails=*/0, buf.data() + *offset);
  }
  *offset += len;
  return Status::OK();
}

}  // namespace hprl::smc
