// SMC substrate demo: the §V-A cryptographic machinery on its own.
//
// Walks through (1) Paillier key generation and the homomorphic identities,
// (2) the three-party secure comparison of one record pair with byte-level
// traffic accounting, and (3) private schema matching.
//
// Build & run:  ./build/examples/smc_demo

#include <cstdio>

#include "crypto/paillier.h"
#include "smc/protocol.h"
#include "smc/schema_match.h"

using namespace hprl;
using crypto::BigInt;

namespace {
void Die(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  std::exit(1);
}
}  // namespace

int main() {
  // --- 1. Paillier homomorphisms ---
  crypto::SecureRandom rng;  // real OS entropy
  std::printf("generating a 1024-bit Paillier key pair...\n");
  auto kp_or = crypto::GeneratePaillierKeyPair(1024, rng);
  if (!kp_or.ok()) Die(kp_or.status());
  auto& [pub, priv] = *kp_or;

  auto c1 = pub.Encrypt(BigInt(1200), rng);
  auto c2 = pub.Encrypt(BigInt(34), rng);
  if (!c1.ok() || !c2.ok()) Die(c1.ok() ? c2.status() : c1.status());
  auto sum = priv.Decrypt(pub.Add(*c1, *c2));
  auto scaled = priv.Decrypt(pub.ScalarMul(*c1, BigInt(5)));
  if (!sum.ok() || !scaled.ok()) Die(sum.ok() ? scaled.status() : sum.status());
  std::printf("  Dec(Enc(1200) +h Enc(34))  = %s\n", sum->ToString().c_str());
  std::printf("  Dec(Enc(1200) ×h 5)        = %s\n\n",
              scaled->ToString().c_str());

  // --- 2. three-party secure comparison with traffic accounting ---
  // The querying party decrypts the squared distance (52 - 49)² = 9 and
  // compares it with the threshold (paper §V-A).
  MatchRule rule;
  {
    AttrRule age;
    age.attr_index = 0;
    age.type = AttrType::kNumeric;
    age.theta = 0.05;
    age.norm = 96;  // |Δage| <= 4.8 matches
    age.name = "age";
    age.domain_lo = 16;  // public domain [16, 112): sizes the packing slot
    age.domain_hi = 112;
    rule.attrs = {age};
  }
  smc::SmcConfig cfg;
  cfg.key_bits = 1024;
  smc::SecureRecordComparator cmp(cfg, rule);
  if (auto st = cmp.Init(); !st.ok()) Die(st);

  Record alice_rec = {Value::Numeric(52)};
  Record bob_rec = {Value::Numeric(49)};
  auto matched = cmp.Compare(alice_rec, bob_rec);
  if (!matched.ok()) Die(matched.status());
  std::printf("match decision for (52, 49) under θ·norm = 4.8: %s\n\n",
              *matched ? "match" : "non-match");

  std::printf("traffic per directed link:\n");
  for (const auto& [link, stats] : cmp.bus().links()) {
    std::printf("  %-6s -> %-6s : %5lld bytes in %lld messages\n",
                link.first.c_str(), link.second.c_str(),
                static_cast<long long>(stats.bytes),
                static_cast<long long>(stats.messages));
  }
  std::printf("crypto ops: %s\n\n", cmp.costs().ToString().c_str());

  // --- 3. private schema matching: the §II preprocessing step ---
  auto schema_a = std::make_shared<Schema>();
  schema_a->AddNumeric("age");
  schema_a->AddText("marital-status");
  auto schema_b = std::make_shared<Schema>();
  schema_b->AddText("MaritalStatus");
  schema_b->AddNumeric("age_years");
  smc::SchemaMatchConfig sm_cfg;
  sm_cfg.threshold = 0.3;
  auto sm = smc::RunPrivateSchemaMatch(*schema_a, *schema_b, sm_cfg);
  if (!sm.ok()) Die(sm.status());
  std::printf("private schema matching (trigrams under commutative "
              "encryption):\n");
  for (const auto& match : sm->matches) {
    std::printf("  %-16s <-> %-16s (similarity %.2f)\n",
                schema_a->attribute(match.r_attr).name.c_str(),
                schema_b->attribute(match.s_attr).name.c_str(),
                match.similarity);
  }
  std::printf("  cost: %lld exponentiations, %lld bytes\n",
              static_cast<long long>(sm->exponentiations),
              static_cast<long long>(sm->bytes));
  return 0;
}
