// GMP allocation audit of the packed SMC exchange: how many heap allocations
// the GMP layer performs per compared pair, with every intermediate living
// in the comparator's preallocated BigIntArena slots. Counting happens
// through chained mp_set_memory_functions wrappers, so only mpz limb traffic
// is measured — exactly the traffic the arena exists to remove.
//
//   micro_arena [--groups N] [--out file.json]
//
// A manually prewarmed, never-Start()ed RandomizerPool feeds the run so
// randomizer generation (an offline-phase cost) cannot pollute the per-pair
// counts. After the counted window every pair's label is checked against
// the plaintext rule (RecordsMatch); the bench aborts if any label differs.
// BENCH_hotpath.json's arena_alloc block records `allocs_per_pair_arena`;
// bench_smoke.sh --check fails above 9.

#include <gmp.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/paillier.h"
#include "smc/protocol.h"

namespace {

// Chained GMP allocators: defer to whatever was installed before (so GMP's
// own allocator keeps running underneath) and count allocation events.
// Reallocs count too — a realloc is precisely the arena-defeating event the
// preallocated slot width is meant to prevent. Frees are not counted.
void* (*g_base_alloc)(size_t) = nullptr;
void* (*g_base_realloc)(void*, size_t, size_t) = nullptr;
void (*g_base_free)(void*, size_t) = nullptr;
int64_t g_allocs = 0;

void* CountingAlloc(size_t n) {
  ++g_allocs;
  return g_base_alloc(n);
}
void* CountingRealloc(void* p, size_t old_n, size_t new_n) {
  ++g_allocs;
  return g_base_realloc(p, old_n, new_n);
}
void CountingFree(void* p, size_t n) { g_base_free(p, n); }

}  // namespace

namespace hprl::smc {
namespace {

// 6 two-attribute pairs per packed group. Each age attribute's declared
// domain takes a 36-bit slot at fp_scale=1000, so a 1024-bit plaintext
// would hold 14 pairs (PackingLayout::Plan reserves 2 sign-safety bits), and
// 6 (432 bits) is the widest unit one CRT half decrypts; the cap holds the
// group at 6. Every pair compares its own R row, so the unit carries a
// column per slot: the most ciphertexts a 6-pair unit moves. The slot cap
// must admit 36 bits: under a narrower one the plan refuses the rule.
constexpr int kPairsPerGroup = 6;

MatchRule TwoNumericRule() {
  MatchRule rule;
  for (int i = 0; i < 2; ++i) {
    AttrRule a;
    a.attr_index = i;
    a.type = AttrType::kNumeric;
    a.theta = 0.05;
    a.norm = 96;
    a.domain_lo = 16;  // the paper's age range, [16, 112)
    a.domain_hi = 112;
    rule.attrs.push_back(a);
  }
  return rule;
}

/// Runs `groups` packed group comparisons (after one uncounted warmup group
/// that grows the arena and any lazy pool state) and returns the mean GMP
/// allocations per compared pair. Exits when a packed label differs from
/// the plaintext rule's (RecordsMatch) on the same pair.
int64_t Measure(int groups) {
  SmcConfig cfg;
  cfg.key_bits = 1024;
  cfg.test_seed = 4242;
  cfg.pack_pairs = kPairsPerGroup;
  cfg.pack_slot_bits = 64;
  MatchRule rule = TwoNumericRule();
  SecureRecordComparator cmp(cfg, rule);
  if (!cmp.Init().ok()) std::abort();
  if (cmp.unit_pairs() < kPairsPerGroup) std::abort();

  // Offline-phase stand-in: prewarm enough r^n mod n² values for every
  // encryption of the run, and never Start() the background filler, so no
  // randomizer is generated (or raced over) inside the measured window.
  // Per group: bob's packed y² ciphertext and a column per slot, and
  // alice's packed x² ciphertext.
  const int takes_per_group = 2 + 2 * kPairsPerGroup;
  crypto::RandomizerPool pool(cmp.public_key(), /*target_depth=*/8,
                              /*test_seed=*/99);
  pool.Prewarm(takes_per_group * (groups + 2));
  cmp.AttachRandomizerPool(&pool);

  // Two near-identical numeric records per pair, varied per index so the
  // label stream is not trivially constant.
  std::vector<Record> as(kPairsPerGroup, Record(2));
  std::vector<Record> bs(kPairsPerGroup, Record(2));
  std::vector<RowPairRequest> pairs(kPairsPerGroup);
  auto fill = [&](int64_t round) {
    for (int i = 0; i < kPairsPerGroup; ++i) {
      as[i][0] = Value::Numeric(40 + i);
      as[i][1] = Value::Numeric(60 + i);
      bs[i][0] = Value::Numeric(40 + i + (i % 3));   // drift: some mismatch
      bs[i][1] = Value::Numeric(60 + i + (round % 2));
      pairs[i] = {round * kPairsPerGroup + i, round * kPairsPerGroup + i,
                  &as[i], &bs[i]};
    }
  };

  fill(0);  // warmup: arena growth + first-touch happen here, uncounted
  if (!cmp.CompareUnit(pairs).ok()) std::abort();

  std::vector<std::vector<bool>> packed(groups);
  g_allocs = 0;
  for (int g = 0; g < groups; ++g) {
    fill(g);
    auto labels = cmp.CompareUnit(pairs);
    if (!labels.ok()) std::abort();
    packed[g] = std::move(labels).value();
  }
  const int64_t allocs_per_pair =
      g_allocs / (static_cast<int64_t>(groups) * kPairsPerGroup);

  // The arena is a pure allocation optimization over the packed exchange,
  // which must label exactly like the plaintext rule: a divergence means
  // the datapath changed semantics, which voids the measurement.
  for (int g = 0; g < groups; ++g) {
    fill(g);
    for (int i = 0; i < kPairsPerGroup; ++i) {
      if (RecordsMatch(as[i], bs[i], rule) != packed[g][i]) {
        std::fprintf(stderr,
                     "micro_arena: packed and plaintext labels diverge\n");
        std::exit(1);
      }
    }
  }
  return allocs_per_pair;
}

}  // namespace
}  // namespace hprl::smc

int main(int argc, char** argv) {
  int groups = 20;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--groups" && i + 1 < argc) {
      groups = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // Install the counting allocators before any mpz exists, chained over the
  // defaults so every existing allocation path keeps working.
  mp_get_memory_functions(&g_base_alloc, &g_base_realloc, &g_base_free);
  mp_set_memory_functions(CountingAlloc, CountingRealloc, CountingFree);

  const int64_t allocs_per_pair = hprl::smc::Measure(groups);

  char json[256];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"groups\": %d,\n"
                "  \"pairs_per_group\": %d,\n"
                "  \"allocs_per_pair_arena\": %lld\n"
                "}\n",
                groups, hprl::smc::kPairsPerGroup,
                static_cast<long long>(allocs_per_pair));
  if (!out.empty()) {
    FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::perror("fopen --out");
      return 1;
    }
    std::fputs(json, f);
    std::fclose(f);
  }
  std::fputs(json, stdout);
  return 0;
}
