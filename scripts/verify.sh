#!/usr/bin/env bash
# Tier-1 verification plus the process-level smokes (TCP transport, material
# store, comparator fleet, failover, seeded chaos schedules) and sanitizer
# passes (ASan/TSan/UBSan) over the concurrency- and codec-sensitive pieces.
#
#   scripts/verify.sh            # everything
#   scripts/verify.sh --fast     # tier-1 + smokes only (no bench/sanitizers)
#   scripts/verify.sh --quick    # inner loop: build + `ctest -L tier1` only
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--quick" ]]; then
  echo "== quick: configure + build + tier1-labeled ctest =="
  cmake -B build -S . >/dev/null
  cmake --build build -j
  (cd build && ctest -L tier1 --output-on-failure -j)
  echo "== quick OK (sub-second suites only; run without --quick before merging) =="
  exit 0
fi

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== fault-matrix smoke: three pinned fault schedules =="
# ctest already ran the suite at the default seed (11); sweep two more
# schedules so a fix tuned to one seed cannot pass silently.
for seed in 11 23 47; do
  echo "-- fault schedule seed ${seed}"
  HPRL_FAULT_SEED="${seed}" ./build/tests/fault_test --gtest_brief=1
done

echo "== tcp transport smoke: three-process loopback, bit-identical links =="
# The coordinator spawns three hprl_party daemons on loopback and the run
# must reproduce the in-process transport's links bit for bit (pinned seed,
# exact protocol). Also checks the 5% wire-vs-accounted byte criterion.
cmake --build build -j --target hprl_link hprl_party hprl_gen
TCP_TMP="$(mktemp -d)"
trap 'rm -rf "$TCP_TMP"' EXIT
./build/tools/hprl_gen --out "$TCP_TMP" --rows 300 --seed 7 >/dev/null
sed -i 's/^keybits .*/keybits 256/; s/^allowance .*/allowance 0.01/' \
  "$TCP_TMP/linkage.spec"
./build/tools/hprl_link --spec "$TCP_TMP/linkage.spec" \
  --r "$TCP_TMP/r.csv" --s "$TCP_TMP/s.csv" \
  --links "$TCP_TMP/links_inproc.csv" >/dev/null
./build/tools/hprl_link --spec "$TCP_TMP/linkage.spec" \
  --r "$TCP_TMP/r.csv" --s "$TCP_TMP/s.csv" --transport tcp \
  --links "$TCP_TMP/links_tcp.csv" \
  --metrics_out "$TCP_TMP/run_tcp.json" >/dev/null
diff "$TCP_TMP/links_inproc.csv" "$TCP_TMP/links_tcp.csv" \
  || { echo "FAIL: tcp links differ from in-process links"; exit 1; }
python3 - "$TCP_TMP/run_tcp.json" <<'EOF'
import json, sys
g = json.load(open(sys.argv[1]))["gauges"]
wire, bus = g["net.wire_bytes_sent"], g["net.bus_accounted_bytes"]
drift = abs(wire - bus) / wire
assert drift < 0.05, f"wire {wire} vs accounted {bus}: drift {drift:.4f}"
print(f"tcp loopback OK: links bit-identical, byte drift {drift:.4%}")
EOF

echo "== offline/online smoke: cold-then-warm material, bit-identical links =="
# First run is cold (empty store: generate + persist), second is warm
# (adopt persisted material). Warm links must be bit-identical and the
# warm offline phase must generate no randomizers (the cold one generates
# them all: the crypto.material.generated counter). A third run at a larger
# offline_pairs adopts that bank and generates exactly the draws it lacks:
# the difference between two cold runs' counts. Cold, warm and grown runs
# must also reproduce the links over TCP and a 2-shard fleet, with the same
# generated counts summed over the holder daemons, each daemon adopting its
# own store's bank (the daemons keep their own stores, so their first run
# is their cold).
# Variant specs are the base spec plus appended directives, which replace
# its values (a later directive wins).
MAT_DIR="$TCP_TMP/material"
material_spec() {  # <material dir> [extra directive]
  cat "$TCP_TMP/linkage.spec"
  printf 'smc_seed 4242\nmaterial_dir %s\noffline_pairs 64\n' "$1"
  [[ -z "${2:-}" ]] || echo "$2"
}
material_spec "$MAT_DIR" > "$TCP_TMP/material.spec"
for phase in cold warm; do
  ./build/tools/hprl_link --spec "$TCP_TMP/material.spec" \
    --r "$TCP_TMP/r.csv" --s "$TCP_TMP/s.csv" \
    --links "$TCP_TMP/links_${phase}.csv" \
    --metrics_out "$TCP_TMP/run_${phase}.json" >/dev/null
done
diff "$TCP_TMP/links_cold.csv" "$TCP_TMP/links_warm.csv" \
  || { echo "FAIL: warm-material links differ from cold links"; exit 1; }
python3 - "$TCP_TMP/run_cold.json" "$TCP_TMP/run_warm.json" <<'EOF'
import json, sys
cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
assert cold["counters"].get("crypto.material.hits", 0) == 0, "cold run hit"
assert cold["counters"].get("crypto.material.misses", 0) >= 1, "no cold miss"
hits = warm["counters"].get("crypto.material.hits", 0)
assert hits >= 1, "warm run did not adopt persisted material"
cg = cold["counters"].get("crypto.material.generated", 0)
wg = warm["counters"].get("crypto.material.generated", 0)
assert cg > 0, "cold offline phase generated no randomizers"
assert wg == 0, f"warm offline phase generated {wg} randomizers"
print(f"material OK: warm adopted ({hits} hit), offline randomizers "
      f"generated {cg} -> {wg}")
EOF
material_spec "$MAT_DIR" "offline_pairs 128" > "$TCP_TMP/grown.spec"
material_spec "$TCP_TMP/material128" "offline_pairs 128" \
  > "$TCP_TMP/cold128.spec"
for phase in grown cold128; do
  ./build/tools/hprl_link --spec "$TCP_TMP/$phase.spec" \
    --r "$TCP_TMP/r.csv" --s "$TCP_TMP/s.csv" \
    --links "$TCP_TMP/links_${phase}.csv" \
    --metrics_out "$TCP_TMP/run_${phase}.json" >/dev/null
  diff "$TCP_TMP/links_cold.csv" "$TCP_TMP/links_${phase}.csv" \
    || { echo "FAIL: $phase material links differ from cold links"; exit 1; }
done
python3 - "$TCP_TMP/run_cold.json" "$TCP_TMP/run_cold128.json" \
  "$TCP_TMP/run_grown.json" <<'EOF'
import json, sys
cold, cold128, grown = (json.load(open(p))["counters"] for p in sys.argv[1:])
assert grown.get("crypto.material.hits", 0) == 1, "grown run did not adopt"
want = (cold128.get("crypto.material.generated", 0)
        - cold.get("crypto.material.generated", 0))
got = grown.get("crypto.material.generated", 0)
assert want > 0 and got == want, f"grown run generated {got}, lacked {want}"
print(f"material OK: offline_pairs 64 -> 128 generated exactly {got}")
EOF
for variant in tcp2 fleet2; do
  extra=""
  shards=1
  if [[ "$variant" == fleet2 ]]; then extra="shards 2"; shards=2; fi
  material_spec "$MAT_DIR/$variant" "$extra" > "$TCP_TMP/$variant.spec"
  { cat "$TCP_TMP/$variant.spec"; echo "offline_pairs 128"; } \
    > "$TCP_TMP/${variant}_grown.spec"
  for phase in cold warm grown; do
    spec="$TCP_TMP/$variant.spec"
    [[ "$phase" != grown ]] || spec="$TCP_TMP/${variant}_grown.spec"
    ./build/tools/hprl_link --spec "$spec" \
      --r "$TCP_TMP/r.csv" --s "$TCP_TMP/s.csv" --transport tcp \
      --links "$TCP_TMP/links_mat_${variant}_${phase}.csv" \
      --metrics_out "$TCP_TMP/run_mat_${variant}_${phase}.json" >/dev/null
    diff "$TCP_TMP/links_cold.csv" \
      "$TCP_TMP/links_mat_${variant}_${phase}.csv" \
      || { echo "FAIL: $phase $variant links differ from cold inproc"; exit 1; }
  done
  # Every shard's holders prewarm the full offline_pairs draws, alice's and
  # bob's together the in-process pool's: the daemons' generated counts sum
  # to shards times the in-process one, and to shards times the draw
  # difference when a grown run adopts the smaller bank. The same role's
  # daemons in different shards share one store directory, so in a fleet's
  # cold and grown runs a daemon may adopt the bank its sibling has just
  # saved: there the sum lies between one shard's count and shards times it.
  python3 - "$TCP_TMP" "$variant" "$shards" <<'EOF'
import json, sys
tmp, variant, shards = sys.argv[1], sys.argv[2], int(sys.argv[3])
def counters(name):
    return json.load(open(f"{tmp}/{name}.json"))["counters"]
def generated(name):
    return counters(name).get("crypto.material.generated", 0)
cold, cold128 = generated("run_cold"), generated("run_cold128")
holders = 2 * shards
for phase, racy, want_hits, want in (
        ("cold", shards > 1, 0, cold),
        ("warm", False, holders, 0),
        ("grown", shards > 1, holders, cold128 - cold)):
    c = counters(f"run_mat_{variant}_{phase}")
    hits = c.get("crypto.material.hits", 0)
    got = c.get("crypto.material.generated", 0)
    if racy:
        assert want <= got <= shards * want, \
            f"{variant} {phase}: generated {got}, want {want}..{shards * want}"
        continue
    assert hits == want_hits, \
        f"{variant} {phase}: {hits} store hits, want {want_hits}"
    assert got == shards * want, \
        f"{variant} {phase}: generated {got}, want {shards * want}"
print(f"material OK: {variant} generated "
      + ", ".join(f"{generated(f'run_mat_{variant}_{phase}')} {phase}"
                  for phase in ("cold", "warm", "grown")))
EOF
done
echo "material OK: cold, warm and grown tcp + 2-shard fleet links" \
  "bit-identical, one store hit per holder daemon when warm"

echo "== comparator fleet smoke: 2 shards (7 processes), bit-identical links =="
# Sharding is a throughput measure only: a 2-shard fleet run must reproduce
# the in-process links bit for bit at the pinned seed (docs/CLUSTER.md).
{ cat "$TCP_TMP/linkage.spec"; echo "shards 2"; } > "$TCP_TMP/fleet.spec"
./build/tools/hprl_link --spec "$TCP_TMP/fleet.spec" \
  --r "$TCP_TMP/r.csv" --s "$TCP_TMP/s.csv" --transport tcp \
  --links "$TCP_TMP/links_fleet.csv" >/dev/null
diff "$TCP_TMP/links_inproc.csv" "$TCP_TMP/links_fleet.csv" \
  || { echo "FAIL: 2-shard fleet links differ from in-process links"; exit 1; }
echo "fleet OK: 2-shard links bit-identical to in-process"

echo "== fleet failover smoke: one replica SIGKILLed mid-drain =="
# Two manually started shard meshes; bob#1 is SIGKILLed while the drain is
# in flight. The coordinator must rebalance its work onto shard 0 and still
# produce bit-identical links with zero quarantined pairs.
# Below 32768, the kernel's default ephemeral range, where a client socket
# lingering in TIME_WAIT would make a daemon's bind fail.
BASE=$((20000 + RANDOM % 12000))
FLEET_PIDS=()
BOB1_PID=""
for s in 0 1; do
  A="127.0.0.1:$((BASE + 10 * s + 1))"
  B="127.0.0.1:$((BASE + 10 * s + 2))"
  Q="127.0.0.1:$((BASE + 10 * s + 3))"
  for role in alice bob qp; do
    ./build/tools/hprl_party --role "$role" --alice "$A" --bob "$B" \
      --qp "$Q" --shard "$s" >/dev/null 2>&1 &
    FLEET_PIDS+=($!)
    if [[ "$role" == bob && "$s" == 1 ]]; then BOB1_PID=$!; fi
  done
done
sleep 0.5
PARTIES="127.0.0.1:$((BASE + 1)),127.0.0.1:$((BASE + 2)),127.0.0.1:$((BASE + 3))"
PARTIES="$PARTIES;127.0.0.1:$((BASE + 11)),127.0.0.1:$((BASE + 12)),127.0.0.1:$((BASE + 13))"
./build/tools/hprl_link --spec "$TCP_TMP/linkage.spec" \
  --r "$TCP_TMP/r.csv" --s "$TCP_TMP/s.csv" --transport tcp \
  --parties "$PARTIES" --net_emu_latency_micros 20000 \
  --links "$TCP_TMP/links_killed.csv" \
  --metrics_out "$TCP_TMP/run_killed.json" >/dev/null &
LINK_PID=$!
sleep 1.5
kill -9 "$BOB1_PID" 2>/dev/null || true
wait "$LINK_PID" \
  || { echo "FAIL: fleet run did not survive the killed replica"; exit 1; }
for pid in "${FLEET_PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
wait 2>/dev/null || true
diff "$TCP_TMP/links_inproc.csv" "$TCP_TMP/links_killed.csv" \
  || { echo "FAIL: killed-replica links differ from in-process links"; exit 1; }
python3 - "$TCP_TMP/run_killed.json" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))
quarantined = run["metrics"]["quarantined_pairs"]
rebalanced = run["counters"].get("net.membership.rebalanced_pairs", 0)
assert quarantined == 0, f"{quarantined} pairs quarantined despite a live shard"
assert rebalanced > 0, "no pairs rebalanced: the kill missed the drain"
print(f"failover OK: links bit-identical, {rebalanced} pairs rebalanced, "
      f"0 quarantined")
EOF

echo "== chaos smoke: seeded crash/stun schedules (scripts/chaos_smoke.sh) =="
# Three pinned fault schedules, each replaying a SIGSTOP pulse, a whole-shard
# SIGKILL with identical-argv restart (rejoin handshake), and coordinator
# SIGKILLs recovered with --resume — in-process and across a 2-shard TCP
# fleet. Every schedule must converge to the uninterrupted run's links.
for seed in 3 11 29; do
  scripts/chaos_smoke.sh "$seed"
done

echo "== serve smoke: 1k-delta churn stream, crash/resume + tcp fleet =="
# Streaming service end to end (scripts/serve_smoke.sh --check): final links
# bit-identical to a one-batch replay, mid-stream coordinator SIGKILL
# recovered by --resume with zero lost/duplicated verdicts, and the same
# links over a TCP fleet.
scripts/serve_smoke.sh --check

if [[ "${1:-}" == "--fast" ]]; then
  echo "== skipped sanitizer passes and bench check (--fast) =="
  exit 0
fi

echo "== bench check: hot-path speedups vs committed BENCH_hotpath.json =="
# Re-runs the smoke benches and fails when any recorded speedup drops below
# 80% of its committed value (scripts/bench_smoke.sh --check).
scripts/bench_smoke.sh --check

echo "== ASan: fault injection + SMC unit steps + batch SMC engine + membership/scheduler + TCP + durable files + crypto + CSV ingest + anonymizers + streaming service =="
cmake -B build-asan -S . -DHPRL_SANITIZE=address >/dev/null
cmake --build build-asan -j --target fault_test membership_test net_test \
  material_test journal_test durable_file_test framing_test arena_test \
  crypto_test data_test misc_test cli_test smc_test parallel_smc_test \
  anon_test text_linkage_test serve_test
# The per-role unit steps (PartyTest, the packed §VI ProtocolTest cases).
./build-asan/tests/smc_test
./build-asan/tests/parallel_smc_test
./build-asan/tests/crypto_test
./build-asan/tests/data_test
./build-asan/tests/misc_test
./build-asan/tests/cli_test
./build-asan/tests/fault_test
./build-asan/tests/membership_test
./build-asan/tests/net_test
./build-asan/tests/material_test
./build-asan/tests/journal_test
./build-asan/tests/durable_file_test
./build-asan/tests/framing_test
./build-asan/tests/arena_test
# The anonymizers index raw leaf -> child tables (anon/qid_data.h).
./build-asan/tests/anon_test
./build-asan/tests/text_linkage_test
./build-asan/tests/serve_test

echo "== TSan: metrics registry + threaded blocking + parallel/faulty SMC =="
cmake -B build-tsan -S . -DHPRL_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target obs_test blocking_test session_test \
  parallel_smc_test crypto_test fault_test membership_test net_test \
  material_test journal_test
./build-tsan/tests/obs_test
./build-tsan/tests/blocking_test
./build-tsan/tests/session_test
./build-tsan/tests/parallel_smc_test
./build-tsan/tests/crypto_test
./build-tsan/tests/fault_test
./build-tsan/tests/membership_test
./build-tsan/tests/net_test
./build-tsan/tests/material_test
./build-tsan/tests/journal_test

echo "== UBSan: wire/durable-file codecs + SMC unit steps + batch SMC engine + arena + material store + membership + fault schedules + crypto + CSV ingest + anonymizers + streaming service =="
cmake -B build-ubsan -S . -DHPRL_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j --target fault_test membership_test \
  journal_test durable_file_test net_test framing_test crypto_test \
  data_test misc_test cli_test smc_test parallel_smc_test anon_test \
  text_linkage_test serve_test arena_test material_test
./build-ubsan/tests/smc_test
./build-ubsan/tests/parallel_smc_test
./build-ubsan/tests/crypto_test
./build-ubsan/tests/data_test
./build-ubsan/tests/misc_test
./build-ubsan/tests/cli_test
./build-ubsan/tests/fault_test
./build-ubsan/tests/membership_test
./build-ubsan/tests/journal_test
./build-ubsan/tests/durable_file_test
./build-ubsan/tests/net_test
./build-ubsan/tests/framing_test
./build-ubsan/tests/anon_test
./build-ubsan/tests/text_linkage_test
./build-ubsan/tests/serve_test
./build-ubsan/tests/arena_test
./build-ubsan/tests/material_test

echo "== verify OK =="
