// Reproduces the §VI timing paragraph: per-attribute secure-distance cost
// under Paillier-1024, anonymization time for D1 and D2 (including file
// I/O, as in the paper), and the blocking step time; then prints the
// paper's "non-cryptographic work ≈ N secure value comparisons"
// equivalence (the paper measured 0.43 s/value on 2006-era hardware and
// ≈ 13 values; absolute numbers differ on modern hardware, the conclusion
// — crypto dominates — must not).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/blocking.h"
#include "data/csv.h"
#include "smc/protocol.h"
#include "smc/smc_oracle.h"

using namespace hprl;

int main(int argc, char** argv) {
  bench::CommonFlags common;
  int64_t* k = common.flags.AddInt("k", 32, "anonymity requirement");
  int64_t* reps =
      common.flags.AddInt("smc-reps", 25, "secure distance repetitions");
  int64_t* key_bits = common.flags.AddInt("key-bits", 1024, "Paillier bits");
  int64_t* smc_threads = common.flags.AddInt(
      "smc-threads", 4, "worker comparators for the batched SMC stage");
  int64_t* smc_batch = common.flags.AddInt(
      "smc-batch", 24, "row pairs in the batched SMC stage comparison");
  int64_t* smc_pack = common.flags.AddInt(
      "smc-pack", 4,
      "pairs per packed ciphertext in the packed SMC stage (0 = skip)");
  std::string* material_dir = common.flags.AddString(
      "material-dir", "",
      "run the cold/warm offline-material comparison against this store "
      "directory (start it empty for a true cold run; \"\" = skip)");
  common.ParseOrDie(argc, argv);
  ExperimentData data = common.PrepareOrDie();

  std::printf("# §VI timing table (paper values on a 2.8 GHz PC, 2 GB RAM)\n");

  // --- secure distance for a single continuous attribute ---
  MatchRule one_attr;
  {
    AttrRule a;
    a.attr_index = 0;
    a.type = AttrType::kNumeric;
    a.theta = 0.05;
    a.norm = 96;
    a.domain_lo = 16;  // the paper's age range, [16, 112): it packs
    a.domain_hi = 112;
    one_attr.attrs = {a};
  }
  smc::SmcConfig smc_cfg;
  smc_cfg.key_bits = static_cast<int>(*key_bits);
  smc_cfg.test_seed = 99;  // deterministic bench
  smc::SecureRecordComparator cmp(smc_cfg, one_attr);
  {
    WallTimer t;
    if (auto s = cmp.Init(); !s.ok()) bench::Die(s);
    std::printf("%-52s %10.3f s\n", "Paillier key generation", t.ElapsedSeconds());
  }
  double smc_per_value;
  {
    // One continuous value per pair: a one-pair unit of the one-attribute
    // rule, the whole exchange from encryption to announcement.
    const Record b = {Value::Numeric(36.0)};
    WallTimer t;
    for (int64_t i = 0; i < *reps; ++i) {
      const Record a = {Value::Numeric(35.0 + static_cast<double>(i % 64))};
      auto m = cmp.Compare(a, b);
      if (!m.ok()) bench::Die(m.status());
    }
    smc_per_value = t.ElapsedSeconds() / static_cast<double>(*reps);
    std::printf("%-52s %10.4f s   (paper: 0.43 s)\n",
                "secure distance, one continuous value", smc_per_value);
  }

  // --- batched SMC stage: reference serial engine vs fast engine ---
  // The same packed units (SmcConfig's default unit size) both ways.
  // Reference: one worker, inline randomizers. Fast: a prefilled randomizer
  // pool and --smc-threads workers sharing the published key. Same labels,
  // which must be the plaintext rule's.
  double smc_serial_seconds = 0, smc_fast_seconds = 0, smc_packed_seconds = 0;
  double smc_setup_serial_seconds = 0, smc_setup_fast_seconds = 0;
  double material_cold_total = 0, material_warm_offline = 0,
         material_warm_online = 0;
  // Crypto work of one CompareBatch per stage. These are exact counts, not
  // timings: bench_smoke.sh gates them by equality, so a change in the work
  // itself shows even where a timed ratio's noise would hide it.
  using StageCounts = std::vector<std::pair<std::string, int64_t>>;
  StageCounts serial_counts, fast_counts, packed_counts, warm_counts;
  {
    // R-row-major, as a session drains its schedule: each R row meets
    // kRowPairs S rows, so a unit's cross terms fold by R row.
    constexpr int64_t kRowPairs = 4;
    std::vector<Record> recs_a, recs_s;
    for (int64_t i = 0; i < *smc_batch; ++i) {
      recs_a.push_back(
          {Value::Numeric(35.0 + static_cast<double>(i / kRowPairs % 9))});
      recs_s.push_back({Value::Numeric(36.0 + static_cast<double>(i % 7))});
    }
    std::vector<RowPairRequest> batch;
    for (int64_t i = 0; i < *smc_batch; ++i) {
      batch.push_back(
          {i / kRowPairs, i, &recs_a[i / kRowPairs], &recs_s[i]});
    }

    // Crypto work done between two cost snapshots.
    auto crypto_work = [](const smc::SmcCosts& after,
                          const smc::SmcCosts& before) -> StageCounts {
      return {{"encryptions", after.encryptions - before.encryptions},
              {"decryptions", after.decryptions - before.decryptions},
              {"homomorphic_adds",
               after.homomorphic_adds - before.homomorphic_adds},
              {"scalar_muls", after.scalar_muls - before.scalar_muls}};
    };
    // An engine's crypto work since `before`, plus its pool's randomizer
    // draws (hits + misses) since `draws_before`.
    auto work_since = [&](smc::SmcMatchOracle& engine,
                          const smc::SmcCosts& before, int64_t draws_before) {
      StageCounts counts = crypto_work(engine.costs(), before);
      const crypto::RandomizerPool* pool = engine.randomizer_pool();
      counts.push_back(
          {"randomizer_draws", pool->hits() + pool->misses() - draws_before});
      return counts;
    };

    // Engine stages are timed best-of-3: at smoke sizes the fast and packed
    // stages run in single-digit milliseconds, where one scheduler hiccup
    // would swing the recorded time (and trip bench_smoke.sh --check).
    auto time_stage = [&](smc::SmcMatchOracle& engine, int pool_depth,
                          double* best_seconds, StageCounts* counts) {
      const smc::SmcCosts before = engine.costs();
      // Randomizer draws (pool hits + misses): d·k + 2 per unit over d
      // distinct R rows, so a change in the exchange's arithmetic shows here
      // too.
      const crypto::RandomizerPool* pool = engine.randomizer_pool();
      const int64_t draws_before = pool->hits() + pool->misses();
      auto run_once = [&] {
        // The pool fill models idle-time precomputation: excluded from the
        // measured stage, like key generation.
        if (!engine.randomizer_pool()->Prewarm(pool_depth).ok()) {
          bench::Die(Status::Internal("randomizer prewarm failed"));
        }
        WallTimer t;
        auto labels = engine.CompareBatch(batch);
        if (!labels.ok()) bench::Die(labels.status());
        double seconds = t.ElapsedSeconds();
        if (*best_seconds == 0 || seconds < *best_seconds) {
          *best_seconds = seconds;
        }
        return std::move(labels).value();
      };
      auto labels = run_once();
      *counts = work_since(engine, before, draws_before);
      for (int rep = 1; rep < 5; ++rep) run_once();
      return labels;
    };

    // Setup (key generation, pool construction and any material prewarm)
    // is the offline phase: reported on its own line and series entry, never
    // folded into the per-stage online numbers below.
    // The reference is a standalone comparator: one unit at a time on this
    // thread, every randomizer computed inline.
    smc::SecureRecordComparator ref(smc_cfg, one_attr);
    {
      WallTimer t;
      if (auto s = ref.Init(); !s.ok()) bench::Die(s);
      smc_setup_serial_seconds = t.ElapsedSeconds();
    }
    std::printf("%-52s %10.3f s\n", "SMC setup (keygen), serial engine",
                smc_setup_serial_seconds);
    auto compare_serially = [&] {
      std::vector<uint8_t> labels;
      const auto unit = static_cast<size_t>(ref.unit_pairs());
      for (size_t begin = 0; begin < batch.size(); begin += unit) {
        const size_t end = std::min(begin + unit, batch.size());
        auto matches = ref.CompareUnit(
            {batch.begin() + static_cast<long>(begin),
             batch.begin() + static_cast<long>(end)});
        if (!matches.ok()) bench::Die(matches.status());
        for (bool m : *matches) {
          labels.push_back(m ? kPairMatch : kPairNonMatch);
        }
      }
      return labels;
    };
    std::vector<uint8_t> ref_labels;
    for (int rep = 0; rep < 5; ++rep) {
      const smc::SmcCosts before = ref.costs();
      WallTimer t;
      ref_labels = compare_serially();
      const double seconds = t.ElapsedSeconds();
      if (rep == 0) serial_counts = crypto_work(ref.costs(), before);
      if (rep == 0 || seconds < smc_serial_seconds) {
        smc_serial_seconds = seconds;
      }
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      if ((ref_labels[i] == kPairMatch) !=
          RecordsMatch(*batch[i].a, *batch[i].b, one_attr)) {
        bench::Die(Status::Internal("SMC labels diverge from the plaintext "
                                    "rule"));
      }
    }
    std::printf("%-52s %10.3f s\n", "SMC stage, serial reference engine",
                smc_serial_seconds);

    const int fast_prewarm = static_cast<int>(3 * *smc_batch + 8);
    smc::SmcMatchOracle fast_engine(smc_cfg, one_attr,
                                    static_cast<int>(*smc_threads));
    {
      WallTimer t;
      if (auto s = fast_engine.Init(); !s.ok()) bench::Die(s);
      smc_setup_fast_seconds = t.ElapsedSeconds();
    }
    std::printf("%-52s %10.3f s\n", "SMC setup (keygen + pool), fast engine",
                smc_setup_fast_seconds);
    auto fast_labels =
        time_stage(fast_engine, fast_prewarm, &smc_fast_seconds, &fast_counts);
    if (fast_labels != ref_labels) {
      bench::Die(Status::Internal("fast SMC engine labels diverge"));
    }
    std::printf(
        "SMC stage, %lld threads + pool %*s %10.3f s   (%.2fx)\n",
        static_cast<long long>(*smc_threads), 18, "", smc_fast_seconds,
        smc_serial_seconds / smc_fast_seconds);

    // The fast engine at --smc-pack pairs per unit: the larger the unit, the
    // more pairs one decryption serves. Labels must still match the
    // reference bit for bit (a unit's size never changes a label).
    if (*smc_pack > 0) {
      smc::SmcConfig packed_cfg = smc_cfg;
      packed_cfg.pack_pairs = static_cast<int>(*smc_pack);
      smc::SmcMatchOracle packed_engine(packed_cfg, one_attr,
                                        static_cast<int>(*smc_threads));
      if (auto s = packed_engine.Init(); !s.ok()) bench::Die(s);
      auto packed_labels = time_stage(packed_engine, fast_prewarm,
                                      &smc_packed_seconds, &packed_counts);
      if (packed_labels != ref_labels) {
        bench::Die(Status::Internal("packed SMC engine labels diverge"));
      }
      std::printf(
          "SMC stage, packed x%lld on the fast engine %*s %8.3f s   (%.2fx)\n",
          static_cast<long long>(*smc_pack), 7, "", smc_packed_seconds,
          smc_serial_seconds / smc_packed_seconds);
      const smc::SmcCosts& pc = packed_engine.costs();
      if (pc.packed_exchanges > 0) {
        std::printf("  packed crypto: %s\n  (%.1f pairs/decrypt)\n",
                    pc.ToString().c_str(),
                    static_cast<double>(pc.packed_pairs) /
                        static_cast<double>(pc.packed_exchanges));
      }
    }

    // --- offline/online phase split against a persistent material store ---
    // Cold: empty store, so Init pays keygen + full randomizer generation
    // and persists the result. Warm: a fresh engine adopts that material,
    // so its online batch runs with every expensive exponentiation already
    // on disk. Labels must match the reference bit for bit in both runs —
    // material changes where the work happens, never the answer.
    if (!material_dir->empty()) {
      smc::SmcConfig mat_cfg = smc_cfg;
      mat_cfg.material_dir = *material_dir;
      mat_cfg.offline_pairs = static_cast<int>(*smc_batch);
      smc::SmcMatchOracle cold_engine(mat_cfg, one_attr,
                                      static_cast<int>(*smc_threads));
      {
        WallTimer t;
        if (auto s = cold_engine.Init(); !s.ok()) bench::Die(s);
        auto labels = cold_engine.CompareBatch(batch);
        if (!labels.ok()) bench::Die(labels.status());
        material_cold_total = t.ElapsedSeconds();
        if (*labels != ref_labels) {
          bench::Die(Status::Internal("cold material-run labels diverge"));
        }
      }
      smc::SmcMatchOracle warm_engine(mat_cfg, one_attr,
                                      static_cast<int>(*smc_threads));
      {
        WallTimer t;
        if (auto s = warm_engine.Init(); !s.ok()) bench::Die(s);
        material_warm_offline = t.ElapsedSeconds();
        if (!warm_engine.material_warm()) {
          bench::Die(Status::Internal(
              "warm engine missed the material store (cold run saved "
              "nothing, or the store key mismatched)"));
        }
        const smc::SmcCosts before = warm_engine.costs();
        WallTimer online;
        auto labels = warm_engine.CompareBatch(batch);
        if (!labels.ok()) bench::Die(labels.status());
        material_warm_online = online.ElapsedSeconds();
        warm_counts = work_since(warm_engine, before, 0);
        if (*labels != ref_labels) {
          bench::Die(Status::Internal("warm material-run labels diverge"));
        }
      }
      std::printf("%-52s %10.3f s\n",
                  "SMC cold end-to-end (keygen + material + batch)",
                  material_cold_total);
      std::printf(
          "SMC warm online (material adopted in %.3f s) %*s %8.3f s   "
          "(%.2fx)\n",
          material_warm_offline, 5, "", material_warm_online,
          material_cold_total / material_warm_online);
    }
  }

  // --- anonymization incl. file I/O, per the paper's measurement ---
  auto anon_cfg = MakeAdultAnonConfig(data, 5, *k);
  if (!anon_cfg.ok()) bench::Die(anon_cfg.status());
  auto anonymizer = MakeMaxEntropyAnonymizer(*anon_cfg);
  auto tmp = std::filesystem::temp_directory_path();
  double anon_seconds[2];
  const Table* tables[2] = {&data.split.d1, &data.split.d2};
  AnonymizedTable anons[2];
  for (int i = 0; i < 2; ++i) {
    WallTimer t;
    std::string path = (tmp / ("hprl_D" + std::to_string(i + 1) + ".csv")).string();
    if (auto s = WriteCsv(*tables[i], path); !s.ok()) bench::Die(s);
    auto back = ReadCsv(path, data.schema);
    if (!back.ok()) bench::Die(back.status());
    auto anon = anonymizer->Anonymize(*back);
    if (!anon.ok()) bench::Die(anon.status());
    anons[i] = std::move(anon).value();
    anon_seconds[i] = t.ElapsedSeconds();
    std::remove(path.c_str());
    std::printf("anonymize D%d (k=%lld, incl. file I/O)%*s %10.3f s   "
                "(paper: %.2f s)\n",
                i + 1, static_cast<long long>(*k), 14, "", anon_seconds[i],
                i == 0 ? 2.02 : 2.03);
  }

  // --- blocking step ---
  std::vector<VghPtr> vghs;
  for (const auto& n : adult::AdultQidNames()) {
    vghs.push_back(data.hierarchies.ByName(n));
  }
  auto rule =
      MakeUniformRule(data.schema, adult::AdultQidNames(), vghs, 5, 0.05);
  if (!rule.ok()) bench::Die(rule.status());
  double blocking_seconds;
  {
    WallTimer t;
    auto blocking = RunBlocking(anons[0], anons[1], *rule);
    if (!blocking.ok()) bench::Die(blocking.status());
    blocking_seconds = t.ElapsedSeconds();
    std::printf("%-52s %10.3f s   (paper: 1.35 s)\n", "blocking step",
                blocking_seconds);
  }

  double total_plain = anon_seconds[0] + anon_seconds[1] + blocking_seconds;
  std::printf(
      "\nnon-cryptographic total %.3f s  ==  %.1f secure value comparisons "
      "(paper: ~13)\n",
      total_plain, total_plain / smc_per_value);
  std::printf(
      "=> cryptographic cost dominates; the cost model can be reduced to "
      "the number of SMC invocations (§VI)\n");

  bench::MetricsSeries series("timing_table");
  LinkageMetrics timing;
  timing.rows_r = data.split.d1.num_rows();
  timing.rows_s = data.split.d2.num_rows();
  timing.sequences_r = anons[0].NumSequences();
  timing.sequences_s = anons[1].NumSequences();
  timing.anon_seconds = anon_seconds[0] + anon_seconds[1];
  timing.blocking_seconds = blocking_seconds;
  timing.smc_seconds = smc_per_value;  // per secure value comparison
  series.Add("k=" + std::to_string(*k), timing);
  {
    LinkageMetrics stage;
    stage.smc_seconds = smc_serial_seconds;
    series.Add("smc_stage_serial_reference", stage, serial_counts);
    stage.smc_seconds = smc_fast_seconds;
    series.Add("smc_stage_fast", stage, fast_counts);
    if (smc_packed_seconds > 0) {
      stage.smc_seconds = smc_packed_seconds;
      series.Add("smc_stage_packed", stage, packed_counts);
    }
    stage.smc_seconds = smc_setup_serial_seconds;
    series.Add("smc_stage_setup_serial", stage);
    stage.smc_seconds = smc_setup_fast_seconds;
    series.Add("smc_stage_setup_fast", stage);
    if (material_warm_online > 0) {
      stage.smc_seconds = material_cold_total;
      series.Add("material_cold_total", stage);
      stage.smc_seconds = material_warm_offline;
      series.Add("material_warm_offline", stage);
      stage.smc_seconds = material_warm_online;
      series.Add("material_warm_online", stage, warm_counts);
    }
  }
  series.WriteIfRequested(*common.metrics_out);
  return 0;
}
