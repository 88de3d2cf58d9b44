#!/usr/bin/env bash
# Deterministic chaos smoke: SIGKILL/SIGSTOP replicas and the coordinator at
# seed-derived schedule points, then require the fleet to converge to the
# uninterrupted run's links, bit for bit, with zero quarantined pairs
# (docs/ROBUSTNESS.md).
#
#   scripts/chaos_smoke.sh [SEED]
#
# Everything about a run is pinned by SEED — the kill/stun/restart delays,
# the stunned replica, and the port block all come from one LCG stream — so
# `chaos_smoke.sh 11` replays the same fault schedule every time. Three
# scenarios:
#
#   A. in-process coordinator crash: hprl_link (journaling on) is SIGKILLed
#      mid-drain, a seeded delay after its first journal flush; the relaunch
#      restores the session journal with --resume and drains only the
#      remainder.
#   B. fleet replica crash: one 2-shard-TCP replica takes a SIGSTOP/SIGCONT
#      pulse (missed heartbeats), then its whole shard is SIGKILLed
#      mid-drain and restarted with identical argv — the rejoin handshake
#      re-admits the shard and it receives scheduled work again.
#   C. fleet coordinator crash: the coordinator of a 2-shard TCP run is
#      SIGKILLed mid-drain and relaunched with --resume against the SAME
#      daemons; the bumped session epoch fences anything its predecessor
#      left behind.
set -euo pipefail
cd "$(dirname "$0")/.."
SEED="${1:-11}"
BUILD="${BUILD:-build}"

# --- seed-derived schedule -------------------------------------------------
H=$((SEED))
next() { H=$(( (H * 1103515245 + 12345) % 2147483648 )); }
ms() { printf '%d.%03d' $(($1 / 1000)) $(($1 % 1000)); }

next; A_KILL_MS=$((    100 + H % 400 ))  # A: SIGKILL delay after 1st flush
next; STUN_MS=$((      400 + H % 400 ))  # B: SIGSTOP point
next; STUN_LEN_MS=$((  300 + H % 300 ))  # B: pulse length
next; STUN_ROLE=$((          H % 3   ))  # B: which shard-1 replica stalls
next; KILL_MS=$((     1000 + H % 700 ))  # B: shard-1 SIGKILL point
next; RESTART_MS=$((   300 + H % 500 ))  # B: restart delay after the kill
next; C_KILL_MS=$((   1400 + H % 700 ))  # C: coordinator SIGKILL point
# Port blocks (BASE+1..13, then BASE+101..113) stay below 32768, the
# kernel's default ephemeral range: a client socket lingering in TIME_WAIT on
# an ephemeral port makes a daemon's bind of that port fail.
next; BASE=$((       21000 + H % 11000 ))

TMP="$(mktemp -d)"
DAEMONS=()
# Daemons start through a subshell so the script's job control never owns
# them: a SIGKILLed replica then dies without a "Killed" line in the log.
spawn() { ( "$@" >/dev/null 2>&1 & echo $! ); }
cleanup() {
  for pid in "${DAEMONS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

echo "== chaos seed $SEED: kills @flush+${A_KILL_MS}/${KILL_MS}/${C_KILL_MS}ms," \
  "stun replica $STUN_ROLE @${STUN_MS}ms for ${STUN_LEN_MS}ms, ports $BASE+"

# 450 rows -> a 900-pair SMC drain with several journal flushes behind any
# mid-drain kill point, and a seed whose ground truth has real links (13),
# so a resume that merged journaled matches wrongly would change the output.
"./$BUILD/tools/hprl_gen" --out "$TMP" --rows 450 --seed 5 >/dev/null
sed -i 's/^keybits .*/keybits 256/; s/^allowance .*/allowance 0.01/' \
  "$TMP/linkage.spec"
LINK=( "./$BUILD/tools/hprl_link" --r "$TMP/r.csv" --s "$TMP/s.csv" )
# Scenario settings live in variant specs: the base spec plus appended
# directives, which replace its values (a later directive wins). Delay-only
# faults for A; a 100 ms heartbeat cadence for the fleets of B and C.
{ cat "$TMP/linkage.spec"; echo "fault seed $SEED"; echo "fault delay 1 1500"
} > "$TMP/delay.spec"
{ cat "$TMP/linkage.spec"; echo "hb_interval 100"; } > "$TMP/hb.spec"

# The uninterrupted baseline every chaos scenario must converge to.
"${LINK[@]}" --spec "$TMP/linkage.spec" --links "$TMP/links_base.csv" \
  >/dev/null

assert_converged() {  # <links> <metrics.json> <label>
  diff "$TMP/links_base.csv" "$1" >/dev/null \
    || { echo "FAIL($3): links differ from the uninterrupted run"; exit 1; }
  python3 - "$2" "$3" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))
q = run["metrics"]["quarantined_pairs"]
assert q == 0, f"{sys.argv[2]}: {q} pairs quarantined"
EOF
}

assert_resumed() {  # <metrics.json> <label>
  python3 - "$1" "$2" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
r = m.get("resumed_pairs", 0)
assert r > 0, f"{sys.argv[2]}: --resume restored a journal but skipped 0 pairs"
print(f"   {sys.argv[2]} OK: resumed past {r} journaled pairs")
EOF
}

# --- A: in-process coordinator SIGKILL + journal resume --------------------
echo "-- A: coordinator SIGKILL ${A_KILL_MS}ms after the first journal flush," \
  "relaunch with --resume"
# Delay-only fault injection stretches the drain (labels are untouched) to
# a couple of seconds. The kill waits for the first journal flush (256 of
# the 900 pairs) and lands a seeded delay after it, mid-drain, so the
# relaunch always has a journal to resume from.
A_ARGS=( --spec "$TMP/delay.spec" --journal "$TMP/a.jnl"
         --links "$TMP/links_a.csv" --metrics_out "$TMP/run_a.json" )
VICTIM=$(spawn "${LINK[@]}" "${A_ARGS[@]}")
while [[ ! -f "$TMP/a.jnl" ]] && kill -0 "$VICTIM" 2>/dev/null; do
  sleep 0.01
done
sleep "$(ms "$A_KILL_MS")"
kill -9 "$VICTIM" 2>/dev/null \
  || { echo "FAIL(inproc-resume): run ended before the kill point"; exit 1; }
sleep 0.2  # let the kernel reap before relaunching over the same journal
[[ -f "$TMP/a.jnl" ]] \
  || { echo "FAIL(inproc-resume): no journal behind the kill"; exit 1; }
"${LINK[@]}" "${A_ARGS[@]}" --resume >/dev/null
assert_converged "$TMP/links_a.csv" "$TMP/run_a.json" "inproc-resume"
assert_resumed "$TMP/run_a.json" "inproc-resume"

# --- B: fleet replica SIGSTOP pulse + whole-shard SIGKILL and rejoin -------
echo "-- B: shard-1 SIGKILL at ${KILL_MS}ms, identical-argv restart" \
  "+${RESTART_MS}ms"
PIDS=()   # index 3*shard + role: 0..2 = shard 0, 3..5 = shard 1
CMDS=()
for s in 0 1; do
  A="127.0.0.1:$((BASE + 10 * s + 1))"
  B="127.0.0.1:$((BASE + 10 * s + 2))"
  Q="127.0.0.1:$((BASE + 10 * s + 3))"
  for role in alice bob qp; do
    CMD="./$BUILD/tools/hprl_party --role $role --alice $A --bob $B \
--qp $Q --shard $s"
    PID=$(spawn $CMD)
    PIDS+=("$PID"); DAEMONS+=("$PID"); CMDS+=("$CMD")
  done
done
sleep 0.5
PARTIES="127.0.0.1:$((BASE + 1)),127.0.0.1:$((BASE + 2)),127.0.0.1:$((BASE + 3))"
PARTIES="$PARTIES;127.0.0.1:$((BASE + 11)),127.0.0.1:$((BASE + 12)),127.0.0.1:$((BASE + 13))"
"${LINK[@]}" --spec "$TMP/hb.spec" --transport tcp --parties "$PARTIES" \
  --net_emu_latency_micros 10000 \
  --links "$TMP/links_b.csv" --metrics_out "$TMP/run_b.json" >/dev/null &
COORD=$!
# Heartbeat chaos first: one shard-1 replica stalls under SIGSTOP long
# enough to miss probes, then resumes (the shard dies for real later).
sleep "$(ms "$STUN_MS")"
STUN_PID="${PIDS[$((3 + STUN_ROLE))]}"
kill -STOP "$STUN_PID" 2>/dev/null || true
( sleep "$(ms "$STUN_LEN_MS")"; kill -CONT "$STUN_PID" 2>/dev/null ) &
# The real crash: a dead replica retires its whole shard (its mesh peers
# abort mid-protocol), so the operational recovery unit is the shard.
sleep "$(ms $((KILL_MS - STUN_MS)))"
for i in 3 4 5; do kill -9 "${PIDS[$i]}" 2>/dev/null || true; done
sleep "$(ms "$RESTART_MS")"
for i in 3 4 5; do
  DAEMONS+=("$(spawn ${CMDS[$i]})")
done
wait "$COORD" \
  || { echo "FAIL(rejoin): coordinator did not survive the crash"; exit 1; }
assert_converged "$TMP/links_b.csv" "$TMP/run_b.json" "rejoin"
python3 - "$TMP/run_b.json" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))
rejoins = max(run.get("counters", {}).get("net.membership.rejoins", 0),
              int(run.get("gauges", {}).get("net.membership.rejoins", 0)))
assert rejoins >= 3, f"shard did not rejoin: {rejoins} rejoin(s) recorded"
print(f"   rejoin OK: {rejoins} replicas re-admitted, links bit-identical")
EOF
wait 2>/dev/null || true

# --- C: fleet coordinator SIGKILL + --resume against the same daemons ------
echo "-- C: fleet coordinator SIGKILL at ${C_KILL_MS}ms, --resume relaunch"
BASE=$((BASE + 100))
PARTIES="127.0.0.1:$((BASE + 1)),127.0.0.1:$((BASE + 2)),127.0.0.1:$((BASE + 3))"
PARTIES="$PARTIES;127.0.0.1:$((BASE + 11)),127.0.0.1:$((BASE + 12)),127.0.0.1:$((BASE + 13))"
for s in 0 1; do
  A="127.0.0.1:$((BASE + 10 * s + 1))"
  B="127.0.0.1:$((BASE + 10 * s + 2))"
  Q="127.0.0.1:$((BASE + 10 * s + 3))"
  for role in alice bob qp; do
    DAEMONS+=("$(spawn "./$BUILD/tools/hprl_party" --role "$role" \
      --alice "$A" --bob "$B" --qp "$Q" --shard "$s")")
  done
done
sleep 0.5
C_ARGS=( --spec "$TMP/hb.spec" --transport tcp --parties "$PARTIES"
         --net_emu_latency_micros 5000 --journal "$TMP/c.jnl"
         --links "$TMP/links_c.csv" --metrics_out "$TMP/run_c.json" )
VICTIM=$(spawn "${LINK[@]}" "${C_ARGS[@]}")
sleep "$(ms "$C_KILL_MS")"
kill -9 "$VICTIM" 2>/dev/null || true
sleep 0.2
RESUME=()
[[ -f "$TMP/c.jnl" ]] && RESUME=( --resume )
# Same daemons, next session epoch: leftovers of the dead coordinator's
# session are fenced daemon-side, and only the remainder is drained.
"${LINK[@]}" "${C_ARGS[@]}" ${RESUME[@]+"${RESUME[@]}"} >/dev/null
assert_converged "$TMP/links_c.csv" "$TMP/run_c.json" "fleet-resume"
if [[ ${#RESUME[@]} -gt 0 ]]; then
  assert_resumed "$TMP/run_c.json" "fleet-resume"
else
  echo "   fleet-resume OK: killed pre-flush, clean restart converged"
fi
wait 2>/dev/null || true

echo "chaos OK (seed $SEED): all three crash schedules converged to the" \
  "uninterrupted links"
