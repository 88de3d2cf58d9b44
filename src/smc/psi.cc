#include "smc/psi.h"

#include <map>
#include <memory>
#include <string>

#include "crypto/commutative.h"

namespace hprl::smc {

using crypto::BigInt;
using crypto::CommutativeCipher;

namespace {

/// Rendered join key of one row (length-prefixed per field: unambiguous).
std::string JoinKey(const Table& t, int64_t row,
                    const std::vector<int>& key_attrs) {
  std::string key;
  for (int attr : key_attrs) {
    std::string field = t.schema()->RenderValue(attr, t.at(row, attr));
    uint32_t n = static_cast<uint32_t>(field.size());
    key.append(reinterpret_cast<const char*>(&n), sizeof(n));
    key += field;
  }
  return key;
}

/// Serializes a vector of group elements into one payload.
std::vector<uint8_t> Pack(const std::vector<BigInt>& xs) {
  std::vector<uint8_t> out;
  for (const BigInt& x : xs) AppendBigInt(x, &out);
  return out;
}

Result<std::vector<BigInt>> Unpack(const std::vector<uint8_t>& payload) {
  std::vector<BigInt> out;
  size_t off = 0;
  while (off < payload.size()) {
    auto x = ConsumeBigInt(payload, &off);
    if (!x.ok()) return x.status();
    out.push_back(std::move(x).value());
  }
  return out;
}

}  // namespace

Result<PsiResult> RunPsiLinkage(const Table& a, const Table& b,
                                const std::vector<int>& key_attrs,
                                const PsiConfig& config) {
  if (key_attrs.empty()) {
    return Status::InvalidArgument("PSI needs at least one key attribute");
  }
  auto rng = config.test_seed != 0
                 ? std::make_unique<crypto::SecureRandom>(config.test_seed)
                 : std::make_unique<crypto::SecureRandom>();

  // Shared group setup (public parameter).
  auto prime = CommutativeCipher::GenerateSafePrime(config.prime_bits, *rng);
  if (!prime.ok()) return prime.status();
  auto alice = CommutativeCipher::Create(*prime, *rng);
  if (!alice.ok()) return alice.status();
  auto bob = CommutativeCipher::Create(*prime, *rng);
  if (!bob.ok()) return bob.status();

  PsiResult result;
  MessageBus bus;

  // Round 1: each holder encrypts its own keys once and ships them to the
  // other holder.
  std::vector<BigInt> a_once(a.num_rows());
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    a_once[i] = alice->Encrypt(alice->EncodeToGroup(JoinKey(a, i, key_attrs)));
  }
  result.exponentiations += a.num_rows();
  bus.Send({"alice", "bob", "keys_a", Pack(a_once)});

  std::vector<BigInt> b_once(b.num_rows());
  for (int64_t i = 0; i < b.num_rows(); ++i) {
    b_once[i] = bob->Encrypt(bob->EncodeToGroup(JoinKey(b, i, key_attrs)));
  }
  result.exponentiations += b.num_rows();
  bus.Send({"bob", "alice", "keys_b", Pack(b_once)});

  // Round 2: each holder adds its own exponent to the other's ciphertexts
  // (order preserved, so the querying party can name row indexes) and
  // forwards the double encryptions to the querying party.
  auto msg_a = bus.Expect("bob", "keys_a");
  if (!msg_a.ok()) return msg_a.status();
  auto from_a = Unpack(msg_a->payload);
  if (!from_a.ok()) return from_a.status();
  for (BigInt& x : *from_a) x = bob->Encrypt(x);
  result.exponentiations += static_cast<int64_t>(from_a->size());
  bus.Send({"bob", "qp", "double_a", Pack(*from_a)});

  auto msg_b = bus.Expect("alice", "keys_b");
  if (!msg_b.ok()) return msg_b.status();
  auto from_b = Unpack(msg_b->payload);
  if (!from_b.ok()) return from_b.status();
  for (BigInt& x : *from_b) x = alice->Encrypt(x);
  result.exponentiations += static_cast<int64_t>(from_b->size());
  bus.Send({"alice", "qp", "double_b", Pack(*from_b)});

  // Querying party: join h(k)^{ab} values.
  auto qp_a = bus.Expect("qp", "double_a");
  if (!qp_a.ok()) return qp_a.status();
  auto double_a = Unpack(qp_a->payload);
  if (!double_a.ok()) return double_a.status();
  auto qp_b = bus.Expect("qp", "double_b");
  if (!qp_b.ok()) return qp_b.status();
  auto double_b = Unpack(qp_b->payload);
  if (!double_b.ok()) return double_b.status();

  // Keyed by the values' hex digits (canonical, so equal iff the values
  // are); a byte-vector key trips GCC 12's -Wstringop-overread false
  // positive in its three-way compare.
  std::map<std::string, std::vector<int64_t>> index;
  for (size_t i = 0; i < double_a->size(); ++i) {
    index[(*double_a)[i].ToString(16)].push_back(static_cast<int64_t>(i));
  }
  for (size_t j = 0; j < double_b->size(); ++j) {
    auto it = index.find((*double_b)[j].ToString(16));
    if (it == index.end()) continue;
    for (int64_t i : it->second) {
      result.links.emplace_back(i, static_cast<int64_t>(j));
    }
  }
  result.bytes = bus.total_bytes();
  return result;
}

}  // namespace hprl::smc
