#!/usr/bin/env python3
"""End-to-end benchmark of hybrid private record linkage (see BENCH.md).

    python3 perfbench/run.py --workload paper-inproc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The script builds the driver and the
repository's tools into .bench_build/, generates the workload's inputs from
--seed with the repository's own generators (hprl_gen, churn), runs
perfbench_driver, checks its output and work counts, writes a run record
under .bench_build/perfbench/records/, and prints one JSON line last:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are every end-to-end metric; with --trace 1
they are every per-layer metric, from a traced run.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
STATE = os.path.join(BUILD, "perfbench")

# Paper §VI default: 30,162 source rows split into two 20,108-row tables.
SOURCE_ROWS = 30162
KEY_BITS = 1024
PAPER_ALLOWANCE = 0.015
PAPER_SECONDS_PER_DISTANCE = 0.43
# SMC pairs labeled per batch iteration: the first SLICE pairs of the 1.5 %
# allowance in MinAvgFirst order.
SLICE = 256
# serve-churn: a run applies several short 2-tenant churn streams, each on
# its own cold deployment, open-loop at a fixed rate in deltas/s. Latency
# percentiles and link_s pool the streams, because one stream's composition
# decides too much of either. The rate is about half the service's capacity
# on these streams (~300 deltas/s on a 4-vCPU Xeon). The end-to-end metrics
# leave queueing out, so the rate only sets how many streams fit in a run.
SERVE_TENANTS = 2
SERVE_STREAM_DELTAS = 400
SERVE_RATE = 150.0
# Prewarm per serve set-up, in the engine's offline-pair unit (3 randomizers
# per attribute). A packed pair spends at most 7 randomizers (one per
# attribute plus two per single-pair group); the pool-miss gate catches a
# stream that outgrows it.
SERVE_OFFLINE_PAIRS = 350
# A run does ceil(--seconds / nominal) units: cold set-up plus link of one
# dataset (batch), or cold set-up plus one stream (serve). The nominal
# values set how many datasets or streams a run pools; at the benchmark's
# 20 s that is 20 and 10. A batch run covers many datasets, each from
# hprl_gen at a seed derived from --seed, because a slice's SMC cost
# depends on the records it holds (a zero-valued scalar skips an
# exponentiation).
NOMINAL_ITERATION_S = {"paper-inproc": 1.0, "serve-churn": 2.0}

WORKLOADS = ("paper-inproc", "serve-churn")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def run(cmd, **kw):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, **kw)
    if proc.returncode != 0:
        log(proc.stdout)
        fail_setup("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    return proc.stdout


def build():
    for need in ("CMakeLists.txt", "src", "tools", "bench"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail_setup("not a repository checkout: %s is missing" % need)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"] + gen)
    run(["cmake", "--build", BUILD, "--target", "perfbench_driver",
         "-j", str(os.cpu_count() or 1)])
    tools = os.path.join(BUILD, "hprl")
    return {
        "driver": os.path.join(BUILD, "perfbench_driver"),
        "hprl_gen": os.path.join(tools, "tools", "hprl_gen"),
        "hprl_party": os.path.join(tools, "tools", "hprl_party"),
        "churn": os.path.join(tools, "bench", "churn"),
    }


def tree_fingerprint():
    """Content hash of the program and the benchmark: identifies the code
    a work-count record belongs to (the checkout need not be a git repo)."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("src", "tools", "bench")] + [HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for r in roots:
        for dirpath, dirnames, names in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, n) for n in sorted(names)
                      if not n.endswith(".pyc")]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def host_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def workload_seeds(workload, seed, units):
    """Every seed the workload uses, derived from the benchmark's --seed.
    The keypair seed is pinned per workload because keygen time depends on
    it."""
    index = WORKLOADS.index(workload)
    derived = [1000 * seed + j for j in range(units)]
    serve = workload == "serve-churn"
    return {
        "benchmark": seed,
        "data": [seed] if serve else derived,
        "keypair": 1_000_003 * seed + 17 * index + 1,
        "churn": derived if serve else [],
    }


def write_spec(spec_dir, workload, seeds, rows_r, rows_s):
    """Appends the workload's settings to hprl_gen's §VI spec. Every setting
    lives here, none in flag overrides."""
    path = os.path.join(spec_dir, "linkage.spec")
    with open(path) as f:
        text = f.read()
    threads = min(4, os.cpu_count() or 1)
    total_pairs = rows_r * rows_s
    # Allowance that yields exactly SLICE pairs: the first SLICE pairs of
    # the paper's 1.5 % allowance (selection order does not depend on it).
    allowance = (SLICE + 0.5) / total_pairs
    text = re.sub(r"(?m)^keybits .*$", "keybits %d" % KEY_BITS, text)
    text = re.sub(r"(?m)^allowance .*$", "allowance %.17g" % allowance, text)
    text += "smc_pack 8 64\n"
    text += "smc_seed %d\n" % seeds["keypair"]
    text += "smc_threads %d\nthreads %d\n" % (threads, threads)
    text += "material_dir %s\n" % os.path.join(spec_dir, "material")
    if workload == "serve-churn":
        text += "offline_pairs %d\n" % SERVE_OFFLINE_PAIRS
    else:
        # offline_pairs >= the slice: the online phase is consume-only.
        text += "offline_pairs %d\n" % SLICE
    with open(path, "w") as f:
        f.write(text)
    return path


def count_rows(path):
    with open(path) as f:
        return sum(1 for _ in f) - 1


def make_inputs(tools, workload, seed, seconds, work):
    units = max(2, math.ceil(seconds / NOMINAL_ITERATION_S[workload]))
    seeds = workload_seeds(workload, seed, units)
    dirs = []
    for j, data_seed in enumerate(seeds["data"]):
        d = os.path.join(work, "d%d" % j)
        run([tools["hprl_gen"], "--out", d, "--rows", str(SOURCE_ROWS),
             "--seed", str(data_seed)])
        dirs.append(d)
    # hprl_gen writes the same spec and hierarchies for every seed.
    rows_r = count_rows(os.path.join(dirs[0], "r.csv"))
    rows_s = count_rows(os.path.join(dirs[0], "s.csv"))
    spec = write_spec(dirs[0], workload, seeds, rows_r, rows_s)
    inputs = {"spec": spec, "seeds": seeds, "rows_r": rows_r, "rows_s": rows_s,
              "r": ",".join(os.path.join(d, "r.csv") for d in dirs),
              "s": ",".join(os.path.join(d, "s.csv") for d in dirs)}
    if workload == "serve-churn":
        paths = []
        for j, churn_seed in enumerate(seeds["churn"]):
            paths.append(os.path.join(work, "deltas-%d.csv" % j))
            run([tools["churn"], "--out", paths[-1], "--deltas",
                 str(SERVE_STREAM_DELTAS), "--tenants", str(SERVE_TENANTS),
                 "--seed", str(churn_seed)])
        inputs["deltas"] = ",".join(paths)
    return inputs


def run_driver(tools, workload, inputs, trace, work):
    raw_path = os.path.join(work, "raw.json")
    cmd = [tools["driver"], "--workload", workload, "--spec", inputs["spec"],
           "--trace", str(trace),
           "--party_binary", tools["hprl_party"], "--out", raw_path]
    if workload == "serve-churn":
        cmd += ["--deltas", inputs["deltas"], "--rate", repr(SERVE_RATE)]
    else:
        cmd += ["--r", inputs["r"], "--s", inputs["s"], "--slice", str(SLICE)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode not in (0, 1) or not os.path.exists(raw_path):
        log(proc.stdout)
        fail_setup("perfbench_driver failed with code %d" % proc.returncode)
    # The last raw record of each workload stays for inspection.
    shutil.copy(raw_path, os.path.join(STATE, "last-raw-%s-trace%d.json" % (
        workload, trace)))
    with open(raw_path) as f:
        return json.load(f)


def check_counts(tree, workload, seed, counts, problems):
    """Exact work counts must repeat from run to run of the same code and
    seed; the first run of a (code, workload, seed) records them."""
    key = "%s-%s-%d" % (tree, workload, seed)
    path = os.path.join(STATE, "counts", key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before != counts:
            problems.append("work counts differ from an earlier run of this "
                            "code and seed: %s vs %s" % (counts, before))
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail_setup("--seconds must be >= 1")

    tools = build()
    work = os.path.join(STATE, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                      os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = make_inputs(tools, args.workload, args.seed, args.seconds,
                             work)
        raw = run_driver(tools, args.workload, inputs, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.workload == "serve-churn":
        summary = benchlib.summarize_serve(raw, trace=bool(args.trace))
    else:
        summary = benchlib.summarize_batch(raw, SLICE,
                                           trace=bool(args.trace))
    problems = summary["problems"]
    if not raw.get("gates_ok", False):
        problems.append("driver reported a failed output gate")
    tree = tree_fingerprint()
    check_counts(tree, args.workload, args.seed, summary["counts"], problems)

    if args.trace:
        names = benchlib.EXERCISED[args.workload]
        metrics = summary["per_layer"]
    else:
        names = benchlib.END_TO_END
        metrics = summary["end_to_end"]
    if sorted(metrics) != sorted(names):
        problems.append("measured metrics %s do not match the declared %s"
                        % (sorted(metrics), sorted(names)))
    if args.trace:
        metrics = benchlib.complete_per_layer(args.workload, metrics)
    for k, v in sorted(metrics.items()):
        if not math.isfinite(v):
            problems.append("metric %s is not finite" % k)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "commit": commit_id(),
        "tree": tree,
        "key_bits": raw.get("key_bits"),
        "seeds": inputs["seeds"],
        "seconds": args.seconds,
        "rows": [inputs["rows_r"], inputs["rows_s"]],
        "problems": problems,
    }
    record.update(summary["record"])
    if args.workload == "serve-churn":
        record["stream"] = {"tenants": SERVE_TENANTS, "rate_dps": SERVE_RATE,
                            "deltas_per_stream": SERVE_STREAM_DELTAS}
    else:
        record["slice_pairs"] = SLICE
        record.update(benchlib.projection(raw, summary, PAPER_ALLOWANCE,
                                          PAPER_SECONDS_PER_DISTANCE))
    rec_dir = os.path.join(STATE, "records")
    os.makedirs(rec_dir, exist_ok=True)
    rec_path = os.path.join(rec_dir, "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, int(time.time() * 1000)))
    with open(rec_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for p in problems:
        log("perfbench: FAILED GATE: " + p)
    for line in summary["report"]:
        print(line)
    print("run record: " + os.path.relpath(rec_path, ROOT))
    units = benchlib.UNITS
    result = {
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v if math.isfinite(v) else None,
                        "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
