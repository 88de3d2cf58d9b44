// Microbenchmarks for the three-party SMC protocols: full per-record secure
// comparison and a one-attribute secure distance, each a one-pair packed
// unit, and one §VI unit of 1 to 8 pairs over one or many R rows, with
// communication accounting. Supports the paper's claim that the
// SMC invocation count is the right cost unit.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "crypto/paillier.h"
#include "data/names.h"
#include "smc/protocol.h"
#include "smc/psi.h"

namespace hprl::smc {
namespace {

/// The paper's §VI rule shape: age on its VGH root range [16, 112) and four
/// categoricals of 16, 14, 7 and 7 leaves.
MatchRule FiveAttrRule() {
  MatchRule rule;
  const int leaves[] = {0, 16, 14, 7, 7};
  for (int i = 0; i < 5; ++i) {
    AttrRule a;
    a.attr_index = i;
    a.type = i == 0 ? AttrType::kNumeric : AttrType::kCategorical;
    a.theta = 0.05;
    a.norm = i == 0 ? 96 : 1;
    a.domain_lo = i == 0 ? 16 : 0;
    a.domain_hi = i == 0 ? 112 : leaves[i];
    rule.attrs.push_back(a);
  }
  return rule;
}

Record MatchingRecord() {
  Record r(5);
  r[0] = Value::Numeric(42);
  for (int i = 1; i < 5; ++i) r[i] = Value::Category(3);
  return r;
}

void BM_SecureRecordCompare(benchmark::State& state) {
  SmcConfig cfg;
  cfg.key_bits = static_cast<int>(state.range(0));
  cfg.test_seed = 4321;
  SecureRecordComparator cmp(cfg, FiveAttrRule());
  if (!cmp.Init().ok()) std::abort();
  Record a = MatchingRecord();
  Record b = MatchingRecord();  // full match: all 5 attributes compared
  int64_t bytes_before = cmp.bus().total_bytes();
  int64_t n = 0;
  for (auto _ : state) {
    auto m = cmp.Compare(a, b);
    if (!m.ok()) std::abort();
    benchmark::DoNotOptimize(m);
    ++n;
  }
  state.counters["bytes/invocation"] = static_cast<double>(
      (cmp.bus().total_bytes() - bytes_before) / std::max<int64_t>(1, n));
  state.counters["enc/invocation"] =
      static_cast<double>(cmp.costs().encryptions) /
      std::max<int64_t>(1, cmp.costs().invocations);
}
BENCHMARK(BM_SecureRecordCompare)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_SecureAttrDistance(benchmark::State& state) {
  SmcConfig cfg;
  cfg.key_bits = static_cast<int>(state.range(0));
  cfg.test_seed = 777;
  MatchRule rule = FiveAttrRule();
  rule.attrs.resize(1);  // age alone: one secure distance per pair
  SecureRecordComparator cmp(cfg, rule);
  if (!cmp.Init().ok()) std::abort();
  const Record a = {Value::Numeric(35)};
  const Record b = {Value::Numeric(36)};
  for (auto _ : state) {
    auto m = cmp.Compare(a, b);
    if (!m.ok()) std::abort();
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_SecureAttrDistance)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// One §VI unit at Paillier-1024, the unit the paper-scale run repeats:
// range(0) pairs whose R rows are one (range(1) = 0, d = 1, as a session's
// R-row-major drain yields) or all distinct (range(1) = 1, d = g). Bob
// encrypts d·5 + 1 ciphertexts, Alice one and folds d·5 columns, qp
// decrypts once: one CRT half up to 6 pairs, the full CRT at 8. A pool
// serves every randomizer, refilled outside the timed region, as the
// offline phase does. The plan's cap is 14 pairs, so each unit runs at the
// size asked for.
void BM_SectionSixUnit(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  const bool distinct = state.range(1) != 0;
  SmcConfig cfg;
  cfg.key_bits = 1024;
  cfg.test_seed = 4321;
  cfg.pack_pairs = 14;
  SecureRecordComparator cmp(cfg, FiveAttrRule());
  if (!cmp.Init().ok() || cmp.unit_pairs() < pairs) std::abort();
  const int draws = (distinct ? pairs : 1) * 5 + 2;
  crypto::RandomizerPool pool(cmp.public_key(), draws, 4322);
  if (!pool.Prewarm(draws).ok()) std::abort();
  cmp.AttachRandomizerPool(&pool);
  std::vector<Record> as(static_cast<size_t>(pairs), MatchingRecord());
  std::vector<Record> bs(static_cast<size_t>(pairs), MatchingRecord());
  std::vector<RowPairRequest> unit;
  for (int j = 0; j < pairs; ++j) {
    as[static_cast<size_t>(j)][0] = Value::Numeric(distinct ? 20 + 9 * j : 42);
    bs[static_cast<size_t>(j)][0] = Value::Numeric(20 + 9 * j);
    bs[static_cast<size_t>(j)][1] = Value::Category(j % 16);
    unit.push_back({distinct ? j : 0, j, &as[static_cast<size_t>(j)],
                    &bs[static_cast<size_t>(j)]});
  }
  const SmcCosts before = cmp.costs();
  const int64_t bytes_before = cmp.bus().total_bytes();
  int64_t units = 0;
  for (auto _ : state) {
    auto labels = cmp.CompareUnit(unit);
    if (!labels.ok()) std::abort();
    benchmark::DoNotOptimize(labels);
    ++units;
    state.PauseTiming();
    if (!pool.Prewarm(draws).ok()) std::abort();
    state.ResumeTiming();
  }
  const double n = static_cast<double>(std::max<int64_t>(1, units));
  state.counters["enc/unit"] =
      static_cast<double>(cmp.costs().encryptions - before.encryptions) / n;
  state.counters["bases/unit"] =
      static_cast<double>(cmp.costs().scalar_muls - before.scalar_muls) / n;
  state.counters["bytes/unit"] =
      static_cast<double>(cmp.bus().total_bytes() - bytes_before) / n;
  state.counters["pool_misses"] = static_cast<double>(pool.misses());
  state.SetItemsProcessed(units * pairs);
}
BENCHMARK(BM_SectionSixUnit)
    ->ArgNames({"pairs", "distinct_rows"})
    ->ArgsProduct({{1, 3, 6, 8}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_CommutativePsiLinkage(benchmark::State& state) {
  // Commutative-encryption equijoin over n-vs-n registries (256-bit safe
  // prime). Cost scales linearly: 2 exponentiations per record per side.
  const int64_t n = state.range(0);
  Table a = GenerateNameRegistry(n, 31);
  Table b = GenerateNameRegistry(n, 32);
  PsiConfig cfg;
  cfg.prime_bits = 256;
  cfg.test_seed = 77;
  int64_t links = 0;
  for (auto _ : state) {
    auto r = RunPsiLinkage(a, b, {0, 1, 2}, cfg);
    if (!r.ok()) std::abort();
    links = static_cast<int64_t>(r->links.size());
    benchmark::DoNotOptimize(r);
  }
  state.counters["links"] = static_cast<double>(links);
  state.counters["exponentiations"] = static_cast<double>(4 * n);
}
BENCHMARK(BM_CommutativePsiLinkage)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_MessageBusSendReceive(benchmark::State& state) {
  MessageBus bus;
  std::vector<uint8_t> payload(256);
  for (auto _ : state) {
    bus.Send({"a", "b", "t", payload});
    auto m = bus.Receive("b");
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MessageBusSendReceive);

}  // namespace
}  // namespace hprl::smc

BENCHMARK_MAIN();
