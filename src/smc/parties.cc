#include "smc/parties.h"

namespace hprl::smc {

using crypto::BigInt;

namespace {
constexpr char kQp[] = "qp";

std::unique_ptr<crypto::SecureRandom> MakeRng(uint64_t test_seed) {
  return test_seed != 0 ? std::make_unique<crypto::SecureRandom>(test_seed)
                        : std::make_unique<crypto::SecureRandom>();
}

/// Receive-site ciphertext validation. A wire value that fails the range
/// precondition was damaged in transit (or forged); surface it as an IOError
/// so the retry layer treats it like any other transport fault instead of
/// aborting the run.
Status ValidateReceived(const crypto::PaillierPublicKey& pub,
                        const BigInt& c, const char* what) {
  Status st = pub.ValidateCiphertext(c);
  if (st.ok()) return st;
  return Status::IOError(std::string("received ") + what +
                         " failed validation: " + st.message());
}
}  // namespace

QueryingParty::QueryingParty(int key_bits, uint64_t test_seed)
    : key_bits_(key_bits), rng_(MakeRng(test_seed)) {}

Status QueryingParty::PublishKey(MessageBus* bus, SmcCosts* costs) {
  auto kp = crypto::GeneratePaillierKeyPair(key_bits_, *rng_);
  if (!kp.ok()) return kp.status();
  return PublishKeyPair(*kp, bus, costs);
}

Status QueryingParty::PublishKeyPair(const crypto::PaillierKeyPair& kp,
                                     MessageBus* bus, SmcCosts* costs) {
  pub_ = kp.pub;
  priv_ = kp.priv;
  std::vector<uint8_t> payload;
  AppendBigInt(pub_.n(), &payload);
  bus->Send({kQp, "alice", "pubkey", payload});
  bus->Send({kQp, "bob", "pubkey", std::move(payload)});
  return Status::OK();
}

void QueryingParty::AttachMetrics(obs::MetricsRegistry* registry) {
  pub_.AttachMetrics(registry);
  priv_.AttachMetrics(registry);
}

Result<std::vector<uint8_t>> QueryingParty::DecideUnit(
    MessageBus* bus, const std::vector<BigInt>& thresholds, size_t pairs,
    const crypto::PackingLayout& layout, crypto::BigIntArena* arena,
    SmcCosts* costs) {
  const size_t attrs = thresholds.size();
  const size_t slots = pairs * attrs;
  auto msg = bus->Expect(kQp, "bob_pk");
  if (!msg.ok()) return msg.status();
  size_t off = 0;
  auto c = ConsumeBigInt(msg->payload, &off);
  if (!c.ok()) return c.status();
  HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, *c, "bob_pk"));
  // ONE decryption covers every slot. The packed plaintext is Σ d_i·W_i
  // with d_i = (x_i - y_i)² >= 0, so the unsigned decode is exact even
  // though the homomorphic fold passed through negative slot contributions
  // mod n. It lies below 2^(the unit's last slot end), so a narrow unit
  // decrypts with one CRT half (DecryptBelow); the unpack below still
  // rejects a damaged plaintext.
  const size_t last = slots - 1;
  auto plain =
      priv_.DecryptBelow(*c, layout.SlotOffset(last) + layout.SlotWidth(last));
  if (!plain.ok()) return plain.status();
  costs->decryptions += 1;
  std::vector<BigInt*> distances;
  distances.reserve(slots);
  for (size_t i = 0; i < slots; ++i) distances.push_back(&arena->Next());
  BigInt& rest = arena->Next();
  Status st = crypto::UnpackSlotsInto(*plain, slots, layout, &rest, distances);
  if (!st.ok()) {
    // A residue past the last slot means the plaintext was damaged (or a
    // slot overflowed); hand it to the retry layer as transit damage.
    return Status::IOError(std::string("packed plaintext failed unpack: ") +
                           st.message());
  }
  costs->packed_exchanges += 1;
  costs->packed_pairs += static_cast<int64_t>(pairs);
  costs->attr_comparisons += static_cast<int64_t>(slots);
  // Exact distances, so each pair's conjunction is the plaintext rule's.
  std::vector<uint8_t> labels(pairs, 1);
  for (size_t i = 0; i < slots; ++i) {
    if (*distances[i] > thresholds[i % attrs]) labels[i / attrs] = 0;
  }
  return labels;
}

// Results travel on a dedicated ":res" sub-inbox so a pipelined next unit's
// "alice_pk" (addressed to the main inbox) can never interleave with a
// still-in-flight result announcement: the batched RPC path overlaps units,
// so the split is load-bearing.
Status QueryingParty::AnnounceResults(MessageBus* bus,
                                      const std::vector<uint8_t>& labels) {
  std::vector<uint8_t> payload = labels;
  bus->Send({kQp, "alice:res", "results", payload});
  bus->Send({kQp, "bob:res", "results", std::move(payload)});
  return Status::OK();
}

DataHolder::DataHolder(std::string name, uint64_t test_seed)
    : name_(std::move(name)), rng_(MakeRng(test_seed)) {}

Status DataHolder::ReceiveKey(MessageBus* bus) {
  auto msg = bus->Expect(name_, "pubkey");
  if (!msg.ok()) return msg.status();
  size_t off = 0;
  auto n = ConsumeBigInt(msg->payload, &off);
  if (!n.ok()) return n.status();
  if (n->Sign() <= 0) {
    return Status::IOError("received pubkey failed validation: n <= 0");
  }
  pub_ = crypto::PaillierPublicKey(std::move(n).value());
  have_key_ = true;
  return Status::OK();
}

void DataHolder::AttachMetrics(obs::MetricsRegistry* registry) {
  pub_.AttachMetrics(registry);
}

void DataHolder::AttachRandomizerPool(crypto::RandomizerPool* pool) {
  pub_.AttachRandomizerPool(pool);
}

Status DataHolder::SendUnit(MessageBus* bus, const std::string& peer,
                            const std::vector<BigInt>& xs,
                            const crypto::PackingLayout& layout,
                            crypto::BigIntArena* arena, SmcCosts* costs) {
  if (!have_key_) return Status::FailedPrecondition("no public key yet");
  // Every BigInt below lives in preallocated arena storage.
  std::vector<const BigInt*> x2;
  x2.reserve(xs.size());
  for (const BigInt& x : xs) {
    BigInt& sq = arena->Next();
    mpz_mul(sq.raw(), x.raw(), x.raw());
    x2.push_back(&sq);
  }
  BigInt& scratch = arena->Next();
  BigInt& packed = arena->Next();
  HPRL_RETURN_IF_ERROR(
      crypto::PackSlotsInto(x2, layout, &scratch, &packed));
  BigInt& c_px2 = arena->Next();
  HPRL_RETURN_IF_ERROR(pub_.EncryptInto(packed, *rng_, &scratch, &c_px2));
  costs->encryptions += 1;
  std::vector<uint8_t> payload;
  AppendBigInt(c_px2, &payload);
  // Cross terms leave pre-weighted: Enc(-2·x_i·W_i), W_i = 2^offset(i), so
  // Bob's fold exponentiates by the bare y_i (|y_i| bits) instead of y_i·W_i
  // (offset(i) + |y_i| bits). Same plaintext mod n either way.
  BigInt& m2xw = arena->Next();
  BigInt& ct = arena->Next();
  for (size_t i = 0; i < xs.size(); ++i) {
    mpz_mul_si(m2xw.raw(), xs[i].raw(), -2);
    mpz_mul_2exp(m2xw.raw(), m2xw.raw(), layout.SlotOffset(i));
    HPRL_RETURN_IF_ERROR(pub_.EncryptSignedInto(m2xw, *rng_, &scratch, &ct));
    costs->encryptions += 1;
    AppendBigInt(ct, &payload);
  }
  bus->Send({name_, peer, "alice_pk", std::move(payload)});
  return Status::OK();
}

Status DataHolder::FoldUnit(MessageBus* bus, const std::vector<BigInt>& ys,
                            const crypto::PackingLayout& layout,
                            crypto::BigIntArena* arena, SmcCosts* costs) {
  if (!have_key_) return Status::FailedPrecondition("no public key yet");
  auto msg = bus->Expect(name_, "alice_pk");
  if (!msg.ok()) return msg.status();
  // Ciphertexts deserialize straight into arena slots and the fold runs
  // through the in-place homomorphic ops.
  size_t off = 0;
  BigInt& c_px2 = arena->Next();
  HPRL_RETURN_IF_ERROR(ConsumeBigIntInto(msg->payload, &off, &c_px2));
  HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, c_px2, "alice_pk[0]"));
  std::vector<const BigInt*> c_m2xw;
  c_m2xw.reserve(ys.size());
  for (size_t i = 0; i < ys.size(); ++i) {
    BigInt& c = arena->Next();
    HPRL_RETURN_IF_ERROR(ConsumeBigIntInto(msg->payload, &off, &c));
    HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, c, "alice_pk[i]"));
    c_m2xw.push_back(&c);
  }
  std::vector<const BigInt*> y2;
  y2.reserve(ys.size());
  for (const BigInt& y : ys) {
    BigInt& sq = arena->Next();
    mpz_mul(sq.raw(), y.raw(), y.raw());
    y2.push_back(&sq);
  }
  BigInt& scratch = arena->Next();
  BigInt& packed_y2 = arena->Next();
  HPRL_RETURN_IF_ERROR(
      crypto::PackSlotsInto(y2, layout, &scratch, &packed_y2));
  BigInt& c_py2 = arena->Next();
  HPRL_RETURN_IF_ERROR(pub_.EncryptInto(packed_y2, *rng_, &scratch, &c_py2));
  costs->encryptions += 1;
  // Σ_i Enc(d_i · W_i): the x² terms arrive pre-packed and the cross terms
  // pre-weighted, so Enc(-2x_i·W_i) ×h y_i lands in slot i. Every cross
  // term joins in one simultaneous exponentiation, whose squarings all
  // slots share.
  BigInt& acc = arena->Next();
  mpz_set(acc.raw(), c_px2.raw());
  pub_.AddInto(&acc, c_py2);
  pub_.ProductOfPowersInto(c_m2xw, ys, arena, &acc);
  costs->homomorphic_adds += 1 + static_cast<int64_t>(ys.size());
  costs->scalar_muls += static_cast<int64_t>(ys.size());
  std::vector<uint8_t> payload;
  AppendBigInt(acc, &payload);
  bus->Send({name_, kQp, "bob_pk", std::move(payload)});
  return Status::OK();
}

Result<std::vector<uint8_t>> DataHolder::ReceiveResults(MessageBus* bus,
                                                        size_t count) {
  auto msg = bus->Expect(name_ + ":res", "results");
  if (!msg.ok()) return msg.status();
  if (msg->payload.size() != count) {
    return Status::Internal("malformed results message");
  }
  return msg->payload;
}

}  // namespace hprl::smc
