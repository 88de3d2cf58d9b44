#!/usr/bin/env bash
# Hot-path benchmark smoke run. Builds the release tree, runs the hot-path
# benches at smoke sizes and writes the before/after ratios to
# BENCH_hotpath.json at the repo root:
#   - Paillier decryption: CRT fast path vs reference lambda/mu path, plus
#     the one-CRT-half time of a narrow (6-pair §VI) packed plaintext
#   - packed fold: Alice's fold of one 8-pair §VI unit over 8 distinct R
#     rows (40 columns) as one simultaneous exponentiation vs the per-base
#     ScalarMulInto + AddInto chain
#   - randomizer: fixed-base comb table vs square-and-multiply PowMod, with
#     the comb's table entries and products per 512-bit Pow as exact counts
#     and its serial build time
#   - SMC stage: batched engine (threads + randomizer pool) vs the
#     serial reference engine (1 worker, no pool), both on the same packed
#     units of the timing-table workload (R-row-major, 4 S rows per R row,
#     so each unit folds its cross terms by R row), plus the exact crypto
#     operation counts of one batch in the serial, fast and packed stages,
#     and the pooled stages' exact randomizer draws (pool hits + misses)
#   (each timed speedup, these three and blocking, is the median of five
#   runs' ratios; every stage time is the median of five)
#   - packed SMC: the fast engine at 8 pairs per unit
#   - offline/online: the warm persisted-material online stage (median of
#     five) with its exact crypto operation and randomizer draw counts,
#     next to the cold end-to-end stage (keygen + prewarm + compare) on the
#     same workload
#   - blocking: memoized SlackTable sweep vs the seed's direct sweep
#   - tcp transport: wire bytes of a real three-daemon loopback run vs the
#     bytes the in-process bus accounts for the same traffic
#   - pipelined rpc: exact ctl round-trip and pairb row counts of the same
#     loopback run at rpc_batch 1 (one round trip and two rows per SMC pair)
#     and rpc_batch 32 (one per 32-pair frame), with zero retries in both
#   - async datapath: SocketBus bulk throughput vs raw loopback TCP moving
#     the identical checksummed wire frames (overhead budget: 2x)
#   - arena alloc: GMP allocations per packed-SMC pair (ceiling: 9)
#
#   scripts/bench_smoke.sh [build-dir]           # run + write BENCH_hotpath.json
#   scripts/bench_smoke.sh --check [build-dir]   # run, compare against the
#       committed BENCH_hotpath.json and fail if any recorded speedup drops
#       below 80% of its committed value, if the async-datapath overhead
#       ratio exceeds 2x, if a packed pair costs more than 9 GMP
#       allocations, if the fast, packed or warm-material SMC stage takes
#       more than 10 ms, or if a pipelined-rpc count, the comb's table
#       entries or products per Pow, or an SMC stage's crypto operation or
#       randomizer draw count differs from its committed value; the
#       committed file is not rewritten
#
# Both modes fail when an rpc_batch 1 run's ctl round trips differ from its
# SMC pair count, either rpc_batch run retried a pair, or the five
# timing_table runs disagree on an SMC stage's crypto operation counts.
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi
BUILD="${1:-build}"

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j --target micro_crypto micro_blocking timing_table \
  hprl_link hprl_party hprl_gen net_throughput micro_arena

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== micro_crypto x5: CRT + narrow decrypt, fixed-base randomizer, packed fold (1024 bit) =="
# One run's ratio swings across its floor on a shared host; the decrypt,
# randomizer and fold speedups, like every timed ratio below, use the median
# of five.
for rep in 1 2 3 4 5; do
  "./$BUILD/bench/micro_crypto" \
    --benchmark_filter='(BM_PaillierDecrypt(Crt|Reference|Narrow)|BM_Randomizer(FixedBasePow|ReferencePowMod)|BM_FixedBaseTableBuild)/1024|BM_PackedFold(Chained|Product)/8' \
    --benchmark_format=json --benchmark_out="$TMP/crypto_$rep.json" \
    --benchmark_out_format=json >/dev/null
done

echo "== timing_table x5: batched + packed SMC + cold/warm material stages =="
# The pooled SMC stages take about a millisecond, so one run swings by a
# third on a shared host; smc_stage and packed_smc use the median of five.
for rep in 1 2 3 4 5; do
  "./$BUILD/bench/timing_table" --rows 400 --smc-reps 3 --smc-threads 4 \
    --smc-batch 32 --smc-pack 8 --material-dir "$TMP/material_$rep" \
    --metrics_out "$TMP/timing_$rep.json"
done

echo "== micro_blocking x5: memoized sweep vs direct sweep (+ cutoff guard) =="
# The sweeps take well under a millisecond: median of five, as above.
for rep in 1 2 3 4 5; do
  "./$BUILD/bench/micro_blocking" --rows 4000 --k 8 --threads 4 \
    --metrics_out "$TMP/blocking_$rep.json"
done

echo "== tcp transport: three-daemon loopback run, wire vs accounted bytes =="
# Three reps; the python below records the one with the fastest SMC stage.
"./$BUILD/tools/hprl_gen" --out "$TMP/tcpdata" --rows 300 --seed 7 >/dev/null
sed -i 's/^keybits .*/keybits 256/; s/^allowance .*/allowance 0.01/' \
  "$TMP/tcpdata/linkage.spec"
for rep in 1 2 3; do
  "./$BUILD/tools/hprl_link" --spec "$TMP/tcpdata/linkage.spec" \
    --r "$TMP/tcpdata/r.csv" --s "$TMP/tcpdata/s.csv" --transport tcp \
    --metrics_out "$TMP/tcp_$rep.json" >/dev/null
done

echo "== pipelined rpc: ctl round trips and rows sent at rpc_batch 1 and 32 =="
# Variant specs: the base spec plus appended directives, which replace its
# values (a later directive wins).
{ cat "$TMP/tcpdata/linkage.spec"; echo "rpc_batch 1"; } \
  > "$TMP/tcpdata/batch1.spec"
{ cat "$TMP/tcpdata/linkage.spec"; echo "rpc_batch 32"; echo "rpc_window 4"; } \
  > "$TMP/tcpdata/batch32.spec"
for batch in 1 32; do
  "./$BUILD/tools/hprl_link" --spec "$TMP/tcpdata/batch$batch.spec" \
    --r "$TMP/tcpdata/r.csv" --s "$TMP/tcpdata/s.csv" --transport tcp \
    --metrics_out "$TMP/tcp_batch$batch.json" >/dev/null
done

echo "== net_throughput: SocketBus vs raw TCP, identical framed traffic =="
"./$BUILD/bench/net_throughput" --msgs 128 --reps 3 \
  --out "$TMP/net_throughput.json"

echo "== micro_arena: GMP allocations per packed pair =="
"./$BUILD/bench/micro_arena" --groups 10 --out "$TMP/arena.json"

CHECK="$CHECK" python3 - "$TMP" <<'EOF'
import json, sys, os

tmp = sys.argv[1]
check = os.environ.get("CHECK") == "1"
# The pooled SMC stages' 32-pair batch: about a millisecond on a 4-vCPU
# host, several times that without a working pool or with a slot weight in
# Alice's exponents.
SMC_STAGE_CEILING_SECONDS = 0.01

def median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2

def crypto_runs(rep):
    with open(os.path.join(tmp, "crypto_%d.json" % rep)) as f:
        crypto = json.load(f)
    return {b["name"]: b for b in crypto["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}

def crypto_ms(rep):
    return {name: b["real_time"] for name, b in crypto_runs(rep).items()}

# Each timed ratio below is the median over five runs of each run's ratio;
# the recorded times are the medians of the times.
crypto_reps = [crypto_ms(rep) for rep in range(1, 6)]

def crypto_series(name):
    return [c[name] for c in crypto_reps]

crt_reps = crypto_series("BM_PaillierDecryptCrt/1024")
ref_reps = crypto_series("BM_PaillierDecryptReference/1024")
narrow_reps = crypto_series("BM_PaillierDecryptNarrow/1024")
fb_reps = crypto_series("BM_RandomizerFixedBasePow/1024")
powmod_reps = crypto_series("BM_RandomizerReferencePowMod/1024")
build_reps = crypto_series("BM_FixedBaseTableBuild/1024")
# The comb's shape at the 512-bit short exponent: counters, not timings,
# identical in every run.
comb = crypto_runs(1)["BM_RandomizerFixedBasePow/1024"]
chained_reps = crypto_series("BM_PackedFoldChained/8")
product_reps = crypto_series("BM_PackedFoldProduct/8")

def series(path):
    with open(os.path.join(tmp, path)) as f:
        return {row["label"]: row for row in json.load(f)["series"]}

timing_reps = [series("timing_%d.json" % rep) for rep in range(1, 6)]
timing = timing_reps[0]

def stage_seconds(label):
    return [t[label]["smc_seconds"] for t in timing_reps]

serial_reps = stage_seconds("smc_stage_serial_reference")
fast_reps = stage_seconds("smc_stage_fast")
packed_reps = stage_seconds("smc_stage_packed")
warm_online_reps = stage_seconds("material_warm_online")
# Crypto work of one CompareBatch per stage (encryptions, decryptions,
# homomorphic adds, scalar muls, and for the pooled stages randomizer draws):
# exact counts, identical in every run.
count_failures = []

def stage_counts(label):
    counts = [t[label]["counts"] for t in timing_reps]
    if any(c != counts[0] for c in counts):
        count_failures.append(f"{label}: crypto counts differ across runs: "
                              f"{counts}")
    return counts[0]

smc_serial = median(serial_reps)
smc_fast = median(fast_reps)
smc_packed = median(packed_reps)

blocking_reps = [series("blocking_%d.json" % rep) for rep in range(1, 6)]
par_label = [l for l in blocking_reps[0] if l.startswith("memoized_") and
             l.endswith("_threads")][0]

def blocking_seconds(label):
    return [b[label]["blocking_seconds"] for b in blocking_reps]

direct_reps = blocking_seconds("direct_slack_decide")
memo_reps = blocking_seconds("memoized_1_thread")

report = {
    "schema": "hprl-bench-hotpath/2",
    "paillier_decrypt_1024": {
        "reference_ms": median(ref_reps),
        "crt_ms": median(crt_reps),
        "speedup": median([r / c for r, c in zip(ref_reps, crt_reps)]),
        # One CRT half: a 6-pair §VI plaintext (438 bits) through
        # DecryptBelow, as the querying party decrypts a narrow unit.
        "narrow_ms": median(narrow_reps),
    },
    # Alice's fold of one 8-pair §VI unit over 8 distinct R rows (40
    # columns): one simultaneous exponentiation (ProductOfPowersInto) vs
    # the per-base ScalarMulInto + AddInto chain. A fold back on per-base
    # exponentiations reads ~1.0.
    "packed_fold_1024": {
        "chained_us": median(chained_reps),
        "product_us": median(product_reps),
        "speedup": median([c / p for c, p in zip(chained_reps, product_reps)]),
    },
    # Randomizer hot path: h_n^s through the fixed-base comb table vs the
    # reference square-and-multiply r^n mod n². This is the per-randomizer
    # cost behind the RandomizerPool's fast refill. The comb's entries
    # (4 blocks of 1023) and the products one 512-bit Pow costs at most
    # (12 squarings + 52 multiplies) are exact gates; the serial table
    # build, paid once per key, is reported.
    "randomizer_fixed_base_1024": {
        "reference_powmod_ms": median(powmod_reps),
        "fixed_base_ms": median(fb_reps),
        "speedup": median([p / f for p, f in zip(powmod_reps, fb_reps)]),
        "table_entries": int(comb["table_entries"]),
        "max_products": int(comb["max_products"]),
        "table_build_ms": median(build_reps),
    },
    # The same packed units on one worker without a pool and on the fast
    # engine. The ratio (median over the five runs of each run's ratio) is
    # reported, not gated: it swings several-fold with how busy the host
    # was just before. The exact counts gate the work and the 10 ms ceiling
    # below the fast stage's time.
    "smc_stage": {
        "serial_reference_seconds": smc_serial,
        "fast_seconds": smc_fast,
        "serial_over_fast": median([s / f
                                    for s, f in zip(serial_reps, fast_reps)]),
        "serial_counts": stage_counts("smc_stage_serial_reference"),
        "fast_counts": stage_counts("smc_stage_fast"),
    },
    # The fast engine at 8 pairs per unit. Gated by its exact counts and a
    # 10 ms ceiling on its time: Alice's fold exponentiates by the bare x_i
    # (Bob pre-weights his columns into their slots), and a slot weight back
    # in her exponent, or a pool that stopped serving randomizers, would
    # cost several times that.
    "packed_smc": {
        "packed_seconds": smc_packed,
        "pack_pairs": 8,
        "packed_counts": stage_counts("smc_stage_packed"),
    },
    "blocking_sweep": {
        "direct_seconds": median(direct_reps),
        "memoized_seconds": median(memo_reps),
        "memoized_parallel_seconds": median(blocking_seconds(par_label)),
        "speedup": median([d / m if m > 0 else float("inf")
                           for d, m in zip(direct_reps, memo_reps)]),
    },
}

# Offline/online phase split: cold end-to-end SMC stage (keygen + material
# prewarm + compare, empty store) and the warm online stage alone
# (persisted material adopted, which timing_table asserts; the offline
# phase shrinks to a file load, reported next to it). Same labels both
# ways, asserted inside timing_table. The warm online stage is gated by
# the 10 ms ceiling below and by its exact crypto operation and randomizer
# draw counts: a ratio to the cold stage, whose keygen time swings with
# the key, could not see it slow down many-fold.
report["offline_online"] = {
    "cold_total_seconds": timing["material_cold_total"]["smc_seconds"],
    "warm_offline_seconds": timing["material_warm_offline"]["smc_seconds"],
    "warm_online_seconds": median(warm_online_reps),
    "warm_online_counts": stage_counts("material_warm_online"),
}

# Real three-daemon loopback run. The wire/accounted ratio is the acceptance
# criterion (within 5%). Of the three reps, the one with the fastest SMC
# stage is recorded.
def best_gauges(pattern):
    reps = []
    for rep in (1, 2, 3):
        with open(os.path.join(tmp, pattern % rep)) as f:
            reps.append(json.load(f)["gauges"])
    return min(reps, key=lambda g: g["net.measured_smc_seconds"])

tcp_gauges = best_gauges("tcp_%d.json")
wire = tcp_gauges["net.wire_bytes_sent"]
accounted = tcp_gauges["net.bus_accounted_bytes"]
report["tcp_transport"] = {
    "measured_smc_seconds": tcp_gauges["net.measured_smc_seconds"],
    "wire_bytes_sent": wire,
    "bus_accounted_bytes": accounted,
    "wire_vs_accounted_ratio": wire / accounted,
}

# Windowed pipelined batch RPC: the same loopback linkage at rpc_batch 1
# (one pair per pairb frame) and rpc_batch 32 (4 frames in flight). These
# are exact counts, not timings: rpc_batch 1 pays one ctl round trip per SMC
# pair, rpc_batch 32 one per 32-pair frame, and a healthy loopback mesh
# never retries. Every pairb frame carries its own rows, so rows_sent is
# 2 x smc_pairs at rpc_batch 1 (an R and an S row per one-pair frame) and
# the frames' distinct rows at rpc_batch 32. Gated below by exact equality,
# not the 80% floor.
def rpc_run(path):
    with open(os.path.join(tmp, path)) as f:
        run = json.load(f)
    return (run["counters"]["net.ctl_round_trips"],
            run["metrics"]["smc_processed"],
            run["counters"].get("smc.retries", 0),
            run["counters"].get("net.rows_sent", 0))

trips1, pairs1, retries1, rows1 = rpc_run("tcp_batch1.json")
trips32, pairs32, retries32, rows32 = rpc_run("tcp_batch32.json")
report["pipelined_rpc"] = {
    "smc_pairs": pairs1,
    "ctl_round_trips_rpc_batch1": trips1,
    "ctl_round_trips_rpc_batch32": trips32,
    "smc_retries_rpc_batch1": retries1,
    "smc_retries_rpc_batch32": retries32,
    "rows_sent_rpc_batch1": rows1,
    "rows_sent_rpc_batch32": rows32,
}
rpc_failures = []
if trips1 != pairs1:
    rpc_failures.append(f"pipelined_rpc: rpc_batch 1 made {trips1} ctl round "
                        f"trips for {pairs1} SMC pairs")
if rows1 != 2 * pairs1:
    rpc_failures.append(f"pipelined_rpc: rpc_batch 1 sent {rows1} rows for "
                        f"{pairs1} SMC pairs, want {2 * pairs1}")
if pairs32 != pairs1:
    rpc_failures.append(f"pipelined_rpc: rpc_batch 32 ran {pairs32} SMC pairs, "
                        f"rpc_batch 1 ran {pairs1}")
if retries1 or retries32:
    rpc_failures.append(f"pipelined_rpc: smc.retries {retries1} (rpc_batch 1) "
                        f"/ {retries32} (rpc_batch 32), want 0")

# Async datapath: the epoll SocketBus pushing bulk messages vs a blocking
# raw-TCP loop carrying the identical checksummed wire frames. Lower is
# better for the ratio; the key deliberately avoids the generic "speedup"
# name so the 80%-floor loop below never touches it — it carries its own
# guard (raw_over_bus_ratio <= 2.0).
with open(os.path.join(tmp, "net_throughput.json")) as f:
    netthru = json.load(f)
report["async_datapath"] = {
    "msg_bytes": netthru["msg_bytes"],
    "raw_mbps": netthru["raw_mbps"],
    "bus_mbps": netthru["bus_mbps"],
    "raw_over_bus_ratio": netthru["raw_over_bus_ratio"],
}

# Arena allocation audit: GMP heap allocations per packed-SMC pair, with
# packed labels checked against the plaintext rule by the bench itself.
# Guarded below by its own ceiling (<= 9), not the generic loop.
with open(os.path.join(tmp, "arena.json")) as f:
    arena = json.load(f)
report["arena_alloc"] = {
    "allocs_per_pair_arena": arena["allocs_per_pair_arena"],
}

if check:
    with open("BENCH_hotpath.json") as f:
        committed = json.load(f)
    failures = rpc_failures + count_failures
    for block, values in committed.items():
        if not isinstance(values, dict):
            continue
        for key, committed_value in values.items():
            if key != "speedup":
                continue
            measured = report.get(block, {}).get(key)
            if measured is None:
                failures.append(f"{block}.{key}: missing from this run")
            elif measured < 0.8 * committed_value:
                failures.append(
                    f"{block}.{key}: measured {measured:.2f} < 80% of "
                    f"committed {committed_value:.2f}")
            else:
                print(f"check OK {block}.{key}: {measured:.2f} "
                      f"(committed {committed_value:.2f})")
    # Absolute-threshold guards (not relative to the committed value):
    # the async datapath must stay within its 2x overhead budget, a packed
    # pair must cost at most 9 GMP allocations, and the pooled SMC stages
    # (fast, packed and warm-material) must finish their 32-pair batch
    # within 10 ms.
    ratio = report["async_datapath"]["raw_over_bus_ratio"]
    if ratio > 2.0:
        failures.append(
            f"async_datapath.raw_over_bus_ratio: measured {ratio:.2f} "
            f"> 2.0 overhead budget")
    else:
        print(f"check OK async_datapath.raw_over_bus_ratio: "
              f"{ratio:.2f} (budget 2.0)")
    # Exact count gates: the same seeded run must make exactly the committed
    # number of ctl round trips (400 SMC pairs -> 400 at rpc_batch 1, 14 at
    # rpc_batch 32: frames are cut at whole 3-pair units, 30 pairs each) and
    # send exactly the committed number of rows in its pairb frames.
    for key, measured in report["pipelined_rpc"].items():
        want = committed.get("pipelined_rpc", {}).get(key)
        if measured != want:
            failures.append(f"pipelined_rpc.{key}: measured {measured}, "
                            f"committed {want}")
        else:
            print(f"check OK pipelined_rpc.{key}: {measured} (exact)")
    for key in ("table_entries", "max_products"):
        measured = report["randomizer_fixed_base_1024"][key]
        want = committed.get("randomizer_fixed_base_1024", {}).get(key)
        if measured != want:
            failures.append(f"randomizer_fixed_base_1024.{key}: measured "
                            f"{measured}, committed {want}")
        else:
            print(f"check OK randomizer_fixed_base_1024.{key}: {measured} "
                  f"(exact)")
    for block, key in (("smc_stage", "fast_seconds"),
                       ("packed_smc", "packed_seconds"),
                       ("offline_online", "warm_online_seconds")):
        seconds = report[block][key]
        if seconds > SMC_STAGE_CEILING_SECONDS:
            failures.append(f"{block}.{key}: measured {seconds:.4f} s > "
                            f"{SMC_STAGE_CEILING_SECONDS} s ceiling")
        else:
            print(f"check OK {block}.{key}: {seconds:.4f} s "
                  f"(ceiling {SMC_STAGE_CEILING_SECONDS} s)")
    # Exact crypto work per SMC stage batch, randomizer draws included
    # (d·k + 2 per unit over d distinct R rows; smc::RandomizerDraws, the
    # offline phase's sizing, bounds it). These counts see a change in the
    # work itself, which a timing's run-to-run noise can hide.
    for block, key in (("smc_stage", "serial_counts"),
                       ("smc_stage", "fast_counts"),
                       ("packed_smc", "packed_counts"),
                       ("offline_online", "warm_online_counts")):
        measured = report[block][key]
        want = committed.get(block, {}).get(key)
        if measured != want:
            failures.append(f"{block}.{key}: measured {measured}, "
                            f"committed {want}")
        else:
            print(f"check OK {block}.{key}: {measured} (exact)")
    allocs = report["arena_alloc"]["allocs_per_pair_arena"]
    if allocs > 9:
        failures.append(
            f"arena_alloc.allocs_per_pair_arena: measured {allocs} "
            f"> 9 ceiling")
    else:
        print(f"check OK arena_alloc.allocs_per_pair_arena: {allocs} "
              f"(ceiling 9)")
    if failures:
        print("BENCH CHECK FAILED:", *failures, sep="\n  ")
        sys.exit(1)
    print("bench check passed: no speedup below 80% of committed")
elif rpc_failures or count_failures:
    print("BENCH RUN FAILED (BENCH_hotpath.json not written):",
          *(rpc_failures + count_failures), sep="\n  ")
    sys.exit(1)
else:
    with open("BENCH_hotpath.json", "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(json.dumps(report, indent=2))
EOF

if [[ "$CHECK" == "1" ]]; then
  echo "== bench check OK (BENCH_hotpath.json unchanged) =="
else
  echo "== wrote BENCH_hotpath.json =="
fi
