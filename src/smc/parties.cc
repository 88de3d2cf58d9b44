#include "smc/parties.h"

#include <algorithm>

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

/// Row groups of a unit whose `values` operands are pair-major, one pair
/// per entry of `a_ids` (UnitRows); *groups gets their count and *attrs
/// the operands per pair. Both holders' steps group through this one rule.
Result<std::vector<uint32_t>> RowGroups(const std::vector<int64_t>& a_ids,
                                        size_t values, size_t* groups,
                                        size_t* attrs) {
  if (a_ids.empty() || values == 0 || values % a_ids.size() != 0) {
    return Status::InvalidArgument(
        "a unit needs a row id per pair and the same operand count for "
        "every pair");
  }
  std::vector<uint32_t> rows = UnitRows(a_ids);
  *groups = 1 + *std::max_element(rows.begin(), rows.end());
  *attrs = values / a_ids.size();
  return rows;
}

/// A holder's Enc(Σ v²·W): every slot's square packed into one plaintext
/// and encrypted into an arena slot, which it returns.
Result<BigInt*> EncryptPackedSquares(const crypto::PaillierPublicKey& pub,
                                     crypto::SecureRandom& rng,
                                     const std::vector<BigInt>& values,
                                     const crypto::PackingLayout& layout,
                                     crypto::BigIntArena* arena,
                                     SmcCosts* costs) {
  std::vector<const BigInt*> squares;
  squares.reserve(values.size());
  for (const BigInt& v : values) {
    BigInt& sq = arena->Next();
    mpz_mul(sq.raw(), v.raw(), v.raw());
    squares.push_back(&sq);
  }
  BigInt& scratch = arena->Next();
  BigInt& packed = arena->Next();
  HPRL_RETURN_IF_ERROR(
      crypto::PackSlotsInto(squares, layout, &scratch, &packed));
  BigInt& c = arena->Next();
  HPRL_RETURN_IF_ERROR(pub.EncryptInto(packed, rng, &scratch, &c));
  costs->encryptions += 1;
  return &c;
}
}  // namespace

std::vector<uint32_t> UnitRows(const std::vector<int64_t>& a_ids) {
  std::vector<uint32_t> rows(a_ids.size());
  uint32_t groups = 0;
  for (size_t j = 0; j < a_ids.size(); ++j) {
    rows[j] = groups;
    for (size_t i = 0; a_ids[j] >= 0 && i < j; ++i) {
      if (a_ids[i] == a_ids[j]) {
        rows[j] = rows[i];
        break;
      }
    }
    if (rows[j] == groups) ++groups;
  }
  return rows;
}

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
  auto msg = bus->Expect(kQp, "alice_pk");
  if (!msg.ok()) return msg.status();
  size_t off = 0;
  auto c = ConsumeBigInt(msg->payload, &off);
  if (!c.ok()) return c.status();
  HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, *c, "alice_pk"));
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
// "bob_pk" (addressed to the main inbox) can never interleave with a
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

Status DataHolder::SendColumns(MessageBus* bus, const std::string& peer,
                               const std::vector<BigInt>& ys,
                               const std::vector<int64_t>& a_ids,
                               const crypto::PackingLayout& layout,
                               crypto::BigIntArena* arena, SmcCosts* costs) {
  if (!have_key_) return Status::FailedPrecondition("no public key yet");
  size_t groups = 0, attrs = 0;
  HPRL_ASSIGN_OR_RETURN(const std::vector<uint32_t> rows,
                        RowGroups(a_ids, ys.size(), &groups, &attrs));
  // Every BigInt below lives in preallocated arena storage.
  HPRL_ASSIGN_OR_RETURN(
      const BigInt* c_py2,
      EncryptPackedSquares(pub_, *rng_, ys, layout, arena, costs));
  std::vector<uint8_t> payload;
  AppendBigInt(*c_py2, &payload);
  // Column (r, i) sums y·W over the slots of row group r's attribute i, so
  // Alice's exponent is her bare x_{r,i} (|x| bits), shared by the group.
  std::vector<BigInt*> columns(groups * attrs);
  for (BigInt*& column : columns) {
    column = &arena->Next();
    mpz_set_ui(column->raw(), 0);
  }
  BigInt& weighted = arena->Next();
  BigInt& scratch = arena->Next();
  for (size_t s = 0; s < ys.size(); ++s) {
    mpz_mul_2exp(weighted.raw(), ys[s].raw(), layout.SlotOffset(s));
    BigInt* column = columns[rows[s / attrs] * attrs + s % attrs];
    mpz_add(column->raw(), column->raw(), weighted.raw());
  }
  BigInt& ct = arena->Next();
  for (BigInt* column : columns) {
    mpz_mul_si(column->raw(), column->raw(), -2);
    HPRL_RETURN_IF_ERROR(pub_.EncryptSignedInto(*column, *rng_, &scratch, &ct));
    costs->encryptions += 1;
    AppendBigInt(ct, &payload);
  }
  bus->Send({name_, peer, "bob_pk", std::move(payload)});
  return Status::OK();
}

Status DataHolder::FoldColumns(MessageBus* bus, const std::vector<BigInt>& xs,
                               const std::vector<int64_t>& a_ids,
                               const crypto::PackingLayout& layout,
                               crypto::BigIntArena* arena, SmcCosts* costs) {
  if (!have_key_) return Status::FailedPrecondition("no public key yet");
  size_t groups = 0, attrs = 0;
  HPRL_ASSIGN_OR_RETURN(const std::vector<uint32_t> rows,
                        RowGroups(a_ids, xs.size(), &groups, &attrs));
  // Her own packed x² needs nothing from Bob: encrypt it before waiting.
  HPRL_ASSIGN_OR_RETURN(
      const BigInt* c_px2,
      EncryptPackedSquares(pub_, *rng_, xs, layout, arena, costs));
  auto msg = bus->Expect(name_, "bob_pk");
  if (!msg.ok()) return msg.status();
  // Column (r, i)'s exponent is row group r's operand i, which every pair
  // of the group must carry. Checked once Bob's message is consumed, so a
  // refused unit leaves nothing on the bus.
  std::vector<const BigInt*> exponents(groups * attrs, nullptr);
  for (size_t s = 0; s < xs.size(); ++s) {
    const BigInt*& x = exponents[rows[s / attrs] * attrs + s % attrs];
    if (x == nullptr) {
      x = &xs[s];
    } else if (mpz_cmp(x->raw(), xs[s].raw()) != 0) {
      return Status::InvalidArgument(
          "pairs of one R row carry different operands");
    }
  }
  // Ciphertexts deserialize straight into arena slots and the fold runs
  // through the in-place homomorphic ops.
  size_t off = 0;
  BigInt& acc = arena->Next();
  HPRL_RETURN_IF_ERROR(ConsumeBigIntInto(msg->payload, &off, &acc));
  HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, acc, "bob_pk[0]"));
  std::vector<const BigInt*> columns;
  columns.reserve(exponents.size());
  for (size_t i = 0; i < exponents.size(); ++i) {
    BigInt& c = arena->Next();
    HPRL_RETURN_IF_ERROR(ConsumeBigIntInto(msg->payload, &off, &c));
    HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, c, "bob_pk[i]"));
    columns.push_back(&c);
  }
  // Every column joins in one simultaneous exponentiation, whose squarings
  // all columns share.
  pub_.AddInto(&acc, *c_px2);
  pub_.ProductOfPowersInto(columns, exponents, arena, &acc);
  const auto bases = static_cast<int64_t>(columns.size());
  costs->homomorphic_adds += 1 + bases;
  costs->scalar_muls += bases;
  std::vector<uint8_t> payload;
  AppendBigInt(acc, &payload);
  bus->Send({name_, kQp, "alice_pk", std::move(payload)});
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
