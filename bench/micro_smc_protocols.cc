// Microbenchmarks for the three-party SMC protocols: full per-record secure
// comparison (reveal and blinded variants) and per-attribute secure
// distance, with communication accounting. Supports the paper's claim that
// the SMC invocation count is the right cost unit.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "data/names.h"
#include "smc/protocol.h"
#include "smc/psi.h"

namespace hprl::smc {
namespace {

MatchRule FiveAttrRule() {
  MatchRule rule;
  for (int i = 0; i < 5; ++i) {
    AttrRule a;
    a.attr_index = i;
    a.type = i == 0 ? AttrType::kNumeric : AttrType::kCategorical;
    a.theta = 0.05;
    a.norm = i == 0 ? 96 : 1;
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
  cfg.reveal_distances = state.range(1) != 0;
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
    ->Args({512, 1})
    ->Args({512, 0})
    ->Args({1024, 1})
    ->Args({1024, 0})
    ->Unit(benchmark::kMillisecond);

void BM_SecureAttrDistance(benchmark::State& state) {
  SmcConfig cfg;
  cfg.key_bits = static_cast<int>(state.range(0));
  cfg.test_seed = 777;
  MatchRule rule = FiveAttrRule();
  SecureRecordComparator cmp(cfg, rule);
  if (!cmp.Init().ok()) std::abort();
  for (auto _ : state) {
    auto d = cmp.SecureSquaredDistance(35, 36);
    if (!d.ok()) std::abort();
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_SecureAttrDistance)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

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
