#!/usr/bin/env bash
# Streaming-service smoke: a seeded 1k-delta churn stream driven through
# `hprl_link --serve` (docs/SERVICE.md). Asserts, at smoke scale, the three
# properties the subsystem promises:
#
#   - determinism: the final links of the streamed run are bit-identical to
#     an uninterrupted one-batch replay of the same stream;
#   - crash consistency: a coordinator SIGKILLed mid-stream (after the
#     journal write for delta N) and relaunched with --resume settles the
#     exact same links with zero lost or duplicated verdicts — replayed +
#     live SMC spend must equal the uninterrupted run's spend;
#   - transport independence: the same stream over a real hprl_party TCP
#     fleet (wire v12: every pairb frame carries the rows its pairs name,
#     and the daemons keep none between frames) produces the same links
#     again.
#
# Throughput and latency of the service are measured by perfbench's
# serve-churn workload, not here; this script writes no file.
#
#   scripts/serve_smoke.sh [--check] [build-dir]
#
# --check is accepted for symmetry with scripts/bench_smoke.sh; every run
# asserts the three properties above.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--check" ]]; then
  shift
fi
BUILD="${1:-build}"

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j --target hprl_link hprl_party hprl_gen churn

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"; pkill -P $$ hprl_party 2>/dev/null || true' EXIT

echo "== churn: seeded 1k-delta stream over the demo workspace =="
"./$BUILD/tools/hprl_gen" --out "$TMP/demo" --rows 400 --seed 7 >/dev/null
"./$BUILD/bench/churn" --out "$TMP/deltas.csv" --deltas 1000 --tenants 2 \
  --seed 11

echo "== uninterrupted run: the reference links =="
"./$BUILD/tools/hprl_link" --spec "$TMP/demo/linkage.spec" --serve \
  --deltas "$TMP/deltas.csv" --links "$TMP/links_ref.csv" \
  | tee "$TMP/ref.out"
grep '^HPRL_SERVE summary:' "$TMP/ref.out" > "$TMP/ref.summary"

echo "== crash consistency: SIGKILL after 300 settled deltas, then --resume =="
set +e
"./$BUILD/tools/hprl_link" --spec "$TMP/demo/linkage.spec" --serve \
  --deltas "$TMP/deltas.csv" --journal "$TMP/serve.jnl" \
  --serve_crash_after 300 >/dev/null 2>&1
CRASH_EXIT=$?
set -e
[[ "$CRASH_EXIT" -eq 137 ]] \
  || { echo "FAIL: crash run exited $CRASH_EXIT, expected SIGKILL (137)"; exit 1; }
"./$BUILD/tools/hprl_link" --spec "$TMP/demo/linkage.spec" --serve \
  --deltas "$TMP/deltas.csv" --journal "$TMP/serve.jnl" --resume \
  --links "$TMP/links_resumed.csv" | tee "$TMP/resumed.out"
diff "$TMP/links_ref.csv" "$TMP/links_resumed.csv" \
  || { echo "FAIL: resumed links differ from the uninterrupted run"; exit 1; }

echo "== tcp fleet: same stream across spawned hprl_party daemons =="
cp -r "$TMP/demo" "$TMP/demo_tcp"
sed -i 's/^keybits .*/keybits 256/' "$TMP/demo_tcp/linkage.spec"
"./$BUILD/tools/hprl_link" --spec "$TMP/demo_tcp/linkage.spec" --serve \
  --deltas "$TMP/deltas.csv" --links "$TMP/links_tcp.csv" \
  --transport tcp --party_bin "./$BUILD/tools/hprl_party" \
  | tee "$TMP/tcp.out"
diff "$TMP/links_ref.csv" "$TMP/links_tcp.csv" \
  || { echo "FAIL: tcp-fleet links differ from the in-process run"; exit 1; }

python3 - "$TMP" <<'EOF'
import os, re, sys

tmp = sys.argv[1]

def summary(path):
    line = open(os.path.join(tmp, path)).read()
    m = re.search(r"^HPRL_SERVE summary: (.*)$", line, re.M)
    assert m, f"no summary line in {path}"
    out = {}
    for kv in m.group(1).split():
        k, v = kv.split("=", 1)
        out[k] = float(v) if "." in v else int(v)
    return out

ref = summary("ref.out")
resumed = summary("resumed.out")
tcp = summary("tcp.out")

# Accounting: zero lost or duplicated verdicts across the crash. The resumed
# incarnation replays the journaled prefix (replayed_smc resolved from the
# journal, no SMC spend) and settles the rest live; the totals must line up
# with the uninterrupted run exactly.
assert ref["deltas"] == 1000 and ref["replayed"] == 0, ref
assert resumed["deltas"] == 1000 and resumed["replayed"] == 300, resumed
assert resumed["replayed"] + resumed["applied"] + resumed["queued"] \
    + resumed["rejected"] == 1000, resumed
assert resumed["replayed_smc"] + resumed["smc_pairs"] == ref["smc_pairs"], \
    (resumed, ref)
assert resumed["links"] == ref["links"] and tcp["links"] == ref["links"]
assert tcp["smc_pairs"] == ref["smc_pairs"], (tcp, ref)
assert resumed["epoch"] == 2, resumed
print(f"serve accounting OK: {ref['links']} links, {ref['smc_pairs']} SMC "
      f"pairs, crash replay {resumed['replayed']}+{resumed['applied']} "
      f"lost nothing, fenced epoch {resumed['epoch']}")
EOF

echo "== serve smoke OK =="
