"""Arithmetic of the benchmark: percentiles, run statistics, open-loop
timing, span self time, and the metrics each workload emits. Pure functions
over the driver's raw record, so test_benchlib.py can check them without a
build."""

import math
import statistics

# ---------------------------------------------------------------------------
# Metric catalog. BENCHMARK.json lists the same names (test_benchlib checks).

UNITS = {
    # end to end
    "setup_s": "s", "link_s": "s", "smc_pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    # per layer
    "failed_frac": "frac",
    "data.read_s": "s",
    "anon.anonymize_s": "s", "anon.groups": "count",
    "core.block_s": "s", "core.block.decided_frac": "frac",
    "core.block.slack_hit_ratio": "frac", "core.select_s": "s",
    "core.drain_self_s": "s",
    "smc.init_s": "s", "smc.compare_busy_s": "s", "smc.batches": "count",
    "smc.pairs_per_batch": "count", "smc.batch_p50_ms": "ms",
    "smc.batch_p99_ms": "ms", "smc.pool_hit_ratio": "frac",
    "smc.packed_frac": "frac", "smc.retries": "count",
    "smc.quarantined": "count",
    "crypto.encryptions_per_pair": "count/pair",
    "crypto.decryptions_per_pair": "count/pair",
    "crypto.hom_ops_per_pair": "count/pair",
    "crypto.encrypt_us": "us", "crypto.decrypt_us": "us",
    "crypto.add_us": "us", "crypto.scalar_mul_us": "us",
    "crypto.est_online_s": "s", "crypto.share": "frac",
    "crypto.prewarm_randomizers": "count",
    "crypto.prewarm_us_per_randomizer": "us",
    "net.spawn_s": "s", "net.link_s": "s", "net.smc_pairs_per_s": "1/s",
    "net.wire_bytes_per_pair": "B/pair",
    "net.ctl_round_trips": "count", "net.reconnects": "count",
    "net.send_errors": "count", "net.overhead_s_per_pair": "s/pair",
    "serve.apply_self_s": "s", "serve.oracle_s": "s",
    "serve.blocked_pairs_per_delta": "count/delta",
    "serve.smc_pairs_per_delta": "count/delta",
    "serve.delta_p50_ms": "ms", "serve.delta_p99_ms": "ms",
    "serve.queue_wait_p99_ms": "ms", "serve.generator_late_ms": "ms",
    "serve.status.applied": "count", "serve.status.queued": "count",
    "serve.status.rejected": "count",
    "trace.overhead_frac": "frac", "trace.coverage_frac": "frac",
    "trace.remainder_s": "s",
}
PARTY_ROLES = ("alice", "bob", "qp")
PARTY_OPS = ("encryptions", "decryptions", "hom_ops")
for _role in PARTY_ROLES:
    for _op in PARTY_OPS:
        UNITS["net.party.%s.%s_per_pair" % (_role, _op)] = "count/pair"

# Every workload emits every end-to-end metric; each names the same
# quantity on each workload (BENCH.md gives the per-workload reading).
END_TO_END = ["setup_s", "link_s", "smc_pairs_per_s", "peak_rss_mb"]

_SMC = ["smc.init_s", "smc.compare_busy_s", "smc.batches",
        "smc.pairs_per_batch", "smc.batch_p50_ms", "smc.batch_p99_ms",
        "smc.pool_hit_ratio", "smc.packed_frac", "smc.retries",
        "smc.quarantined"]
_CRYPTO = ["crypto.encryptions_per_pair", "crypto.decryptions_per_pair",
           "crypto.hom_ops_per_pair", "crypto.encrypt_us", "crypto.decrypt_us",
           "crypto.add_us", "crypto.scalar_mul_us", "crypto.est_online_s",
           "crypto.share", "crypto.prewarm_randomizers",
           "crypto.prewarm_us_per_randomizer"]
_TRACE = ["failed_frac", "trace.overhead_frac", "trace.coverage_frac",
          "trace.remainder_s"]
_BATCH_LAYERS = (["data.read_s", "anon.anonymize_s", "anon.groups",
                  "core.block_s", "core.block.decided_frac",
                  "core.block.slack_hit_ratio", "core.select_s",
                  "core.drain_self_s"] + _SMC + _CRYPTO + _TRACE)
_NET = (["net.spawn_s", "net.link_s", "net.smc_pairs_per_s",
         "net.wire_bytes_per_pair", "net.ctl_round_trips",
         "net.reconnects", "net.send_errors", "net.overhead_s_per_pair"] +
        ["net.party.%s.%s_per_pair" % (r, o)
         for r in PARTY_ROLES for o in PARTY_OPS])
_SERVE = ["serve.apply_self_s", "serve.oracle_s",
          "serve.blocked_pairs_per_delta", "serve.smc_pairs_per_delta",
          "serve.delta_p50_ms", "serve.delta_p99_ms",
          "serve.queue_wait_p99_ms", "serve.generator_late_ms",
          "serve.status.applied", "serve.status.queued",
          "serve.status.rejected"]
# The per-layer metrics each workload exercises and measures.
EXERCISED = {
    "paper-inproc": _BATCH_LAYERS + _NET,
    "serve-churn": _SMC + _CRYPTO + _TRACE + _SERVE,
}
# A traced run emits every per-layer metric. A layer the workload does not
# exercise reads 0: no CSV read, no daemon, no delta.
PER_LAYER = _BATCH_LAYERS + _NET + _SERVE


def complete_per_layer(workload, measured):
    """The workload's measured per-layer metrics plus 0 for every layer it
    does not exercise."""
    return {name: measured.get(name, math.nan) if name in EXERCISED[workload]
            else 0.0 for name in PER_LAYER}

# Traced runs must attribute at least this share of the online time to a
# layer's self time.
MIN_COVERAGE = 0.9
# A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10

# ---------------------------------------------------------------------------
# Statistics.


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share q
    of the samples at or below it (rank ceil(q * n), 1-based). This is the
    convention the serve runner's p99 uses."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie beyond the nearest-rank q-percentile."""
    return n - max(1, min(n, math.ceil(q * n)))


def spread(values):
    """Median and quartiles as statistics.quantiles(values, n=4) gives them,
    plus the interquartile range as a share of the median."""
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values),
            "iqr_frac": (q3 - q1) / q2 if q2 else 0.0, "values": list(values)}


# ---------------------------------------------------------------------------
# Open loop: delta i is due at t0 + i / rate whatever happened before it.


def open_loop(due, begin, end):
    """Per-delta timings of an open-loop pass, all in seconds:
    latency (due -> verdict, so a stall delays every later delta),
    queue wait (due -> start), busy (start -> verdict), and generator
    lateness (how late the delta started after both its due time and the
    previous verdict, i.e. dispatch delay not caused by queueing)."""
    lat, wait, busy, late = [], [], [], []
    prev_end = -math.inf
    for d, b, e in zip(due, begin, end):
        lat.append(e - d)
        wait.append(b - d)
        busy.append(e - b)
        late.append(max(0.0, b - max(d, prev_end)))
        prev_end = e
    return {"latency": lat, "queue_wait": wait, "busy": busy, "late": late}


# ---------------------------------------------------------------------------
# Spans: [name, start, end, parent_index, items].


def self_times(spans):
    """Each span's duration minus the part of it its children cover. Child
    intervals are merged first, so overlapping children count once."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], s[1]), min(spans[c][2], s[2]))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s[2] - s[1]) - covered)
    return out


def concat_spans(lists):
    """Joins span lists recorded separately, rebasing parent indexes."""
    out = []
    for spans in lists:
        base = len(out)
        out += [[s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4]]
                for s in spans]
    return out


def span_total(spans, name):
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def self_total(spans, name):
    selfs = self_times(spans)
    return sum(t for s, t in zip(spans, selfs) if s[0] == name)


# ---------------------------------------------------------------------------
# Shared per-layer pieces.


def _ops(costs):
    return costs["homomorphic_adds"] + costs["scalar_muls"]


def _crypto_layer(costs, pairs, calib, compare_busy_s, workers,
                  prewarm_randomizers):
    est = 1e-6 * (costs["encryptions"] * calib["encrypt_us"] +
                  costs["decryptions"] * calib["decrypt_us"] +
                  costs["homomorphic_adds"] * calib["add_us"] +
                  costs["scalar_muls"] * calib["scalar_mul_us"])
    return {
        "crypto.encryptions_per_pair": costs["encryptions"] / pairs,
        "crypto.decryptions_per_pair": costs["decryptions"] / pairs,
        "crypto.hom_ops_per_pair": _ops(costs) / pairs,
        "crypto.encrypt_us": calib["encrypt_us"],
        "crypto.decrypt_us": calib["decrypt_us"],
        "crypto.add_us": calib["add_us"],
        "crypto.scalar_mul_us": calib["scalar_mul_us"],
        "crypto.est_online_s": est,
        # Share of the comparator threads' busy time the op counts explain.
        "crypto.share": est / (compare_busy_s * workers),
        "crypto.prewarm_randomizers": prewarm_randomizers,
        "crypto.prewarm_us_per_randomizer":
            calib["prewarm_us_per_randomizer"],
    }


def _compare_layer(spans, registry_counters, costs, pairs):
    compares = [s for s in spans if s[0] == "smc.compare"]
    durations_ms = [1e3 * (s[2] - s[1]) for s in compares]
    hits = registry_counters.get("paillier.randomizer_pool_hits", 0)
    misses = registry_counters.get("paillier.randomizer_pool_misses", 0)
    return {
        "smc.compare_busy_s": sum(s[2] - s[1] for s in compares),
        "smc.batches": len(compares),
        "smc.pairs_per_batch": sum(s[4] for s in compares) / len(compares),
        "smc.batch_p50_ms": percentile(durations_ms, 0.50),
        "smc.batch_p99_ms": percentile(durations_ms, 0.99),
        "smc.pool_hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "smc.packed_frac": costs["packed_pairs"] / pairs,
        "smc.retries": costs["retries"],
    }


def _median_dicts(dicts):
    return {k: statistics.median([d[k] for d in dicts]) for k in dicts[0]}


def _stats_record(named_values):
    return {k: spread(v) for k, v in named_values.items()}


# ---------------------------------------------------------------------------
# Batch workload (paper-inproc).


def _batch_counts(it):
    c = it["costs"]
    return {"smc_pairs": it["smc_pairs"], "encryptions": c["encryptions"],
            "decryptions": c["decryptions"],
            "homomorphic_adds": c["homomorphic_adds"],
            "scalar_muls": c["scalar_muls"], "pool_misses": it["pool_misses"],
            "quarantined": it["quarantined"], "links": it["links"]}


def _batch_layers(it, calib):
    spans = it["spans"]
    counters = it["counters"]
    prog = it["program_spans"]
    pairs = it["smc_pairs"]
    costs = it["costs"]
    link_s = span_total(spans, "link")
    compare = _compare_layer(spans, counters, costs, pairs)
    out = {
        "data.read_s": span_total(spans, "data.read"),
        "anon.anonymize_s": span_total(spans, "anon.anonymize"),
        "anon.groups": counters.get("anon.groups", 0),
        "core.block_s": prog["linkage/block"],
        "core.block.decided_frac":
            (counters["blocking.pairs_m"] + counters["blocking.pairs_n"]) /
            counters["blocking.pairs_total"],
        "core.block.slack_hit_ratio":
            counters["blocking.slack_cache_hits"] /
            max(1, counters["blocking.slack_cache_hits"] +
                counters["blocking.slack_cache_misses"]),
        "core.select_s": prog["linkage/select"],
        "core.drain_self_s":
            prog["linkage/smc"] - compare["smc.compare_busy_s"],
        "smc.init_s": it["init_s"],
        "smc.quarantined": it["quarantined"],
    }
    out.update(compare)
    prewarm = (counters.get("paillier.randomizer_pool_hits", 0) +
               it["gauges"].get("paillier.randomizer_pool_depth", 0))
    out.update(_crypto_layer(costs, pairs, calib, out["smc.compare_busy_s"],
                             it["gauges"].get("smc.workers", 1), prewarm))
    layers = (out["data.read_s"] + out["anon.anonymize_s"] +
              out["core.block_s"] + out["core.select_s"] +
              out["core.drain_self_s"] + out["smc.compare_busy_s"])
    out["trace.coverage_frac"] = layers / link_s
    out["trace.remainder_s"] = link_s - layers
    return out


def _net_layer(tcp_it, base_it):
    """The net layer from a TCP iteration and the traced in-process
    iteration on the same dataset."""
    mesh = tcp_it["mesh"]
    pairs = tcp_it["smc_pairs"]
    busy = span_total(tcp_it["spans"], "smc.compare")
    out = {
        "net.spawn_s": tcp_it["spawn_s"],
        "net.link_s": tcp_it["link_s"],
        "net.smc_pairs_per_s": pairs / tcp_it["program_spans"]["linkage/smc"],
        "net.wire_bytes_per_pair": mesh["wire_bytes_sent"] / pairs,
        "net.ctl_round_trips": tcp_it["counters"].get("net.ctl_round_trips",
                                                      0),
        "net.reconnects": mesh["reconnects"],
        "net.send_errors": mesh["send_errors"],
        "net.overhead_s_per_pair":
            (busy - span_total(base_it["spans"], "smc.compare")) / pairs,
    }
    for role in PARTY_ROLES:
        c = mesh["per_party"][role]
        out["net.party.%s.encryptions_per_pair" % role] = (
            c["encryptions"] / pairs)
        out["net.party.%s.decryptions_per_pair" % role] = (
            c["decryptions"] / pairs)
        out["net.party.%s.hom_ops_per_pair" % role] = _ops(c) / pairs
    return out


def summarize_batch(raw, slice_pairs, trace):
    """Metrics, gate problems, work counts and record fields of a batch
    run."""
    its = raw["iterations"]
    problems = []
    # Counts repeat per dataset: traced and untraced iterations of one
    # dataset must agree, and so must two runs of one seed.
    by_dataset = {}
    for i, it in enumerate(its):
        by_dataset.setdefault(it["dataset"], _batch_counts(it))
        if not it["links_match"]:
            problems.append("iteration %d: links differ from the plaintext "
                            "reference" % i)
        if it["pool_misses"] != 0:
            problems.append("iteration %d: %d randomizer-pool misses in the "
                            "online phase" % (i, it["pool_misses"]))
        if _batch_counts(it) != by_dataset[it["dataset"]]:
            problems.append("iteration %d: work counts %s differ from an "
                            "earlier iteration on the same dataset" % (
                                i, _batch_counts(it)))
    counts = [by_dataset[d] for d in sorted(by_dataset)]
    attempted = slice_pairs * len(its)
    failed = sum(it["quarantined"] + max(0, slice_pairs - it["smc_pairs"])
                 for it in its)

    untraced = [it for it in its if not it["traced"]]
    setup = [it["setup_s"] for it in untraced]
    link = [it["link_s"] for it in untraced]
    smc = [it["program_spans"]["linkage/smc"] for it in untraced]
    pairs = [it["smc_pairs"] for it in untraced]
    # Each iteration links a different dataset, and a slice's SMC cost
    # depends on its records, so the online metrics are totals over the
    # run's datasets (mean link time, pairs over SMC seconds); set-up does
    # not depend on the data and reports the median.
    e2e = {
        "setup_s": statistics.median(setup),
        "link_s": sum(link) / len(link),
        "smc_pairs_per_s": sum(pairs) / sum(smc),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    record = {"iterations": _stats_record(
        {"setup_s": setup, "link_s": link,
         "smc_pairs_per_s": [p / t for p, t in zip(pairs, smc)]}),
        "counts": counts, "reference": raw["reference"]}
    report = ["%s: %d iterations over %d datasets, slice %d pairs, links %s "
              "(reference %s)" % (
                  raw["workload"], len(its), len(by_dataset), slice_pairs,
                  [c["links"] for c in counts],
                  [r["links"] for r in raw["reference"]])]

    per_layer = {}
    if trace:
        traced = [it for it in its if it["traced"]]
        layers = [_batch_layers(it, raw["calibration"]) for it in traced]
        per_layer = _median_dicts(layers)
        base = {it["dataset"]: it for it in traced}
        net = []
        for i, it in enumerate(raw["tcp_iterations"]):
            if not it["links_match"]:
                problems.append("tcp iteration %d: links differ from the "
                                "plaintext reference" % i)
            if it["pool_misses"] != 0:
                problems.append("tcp iteration %d: %d randomizer-pool misses "
                                "in the online phase" % (i, it["pool_misses"]))
            net.append(_net_layer(it, base[it["dataset"]]))
        per_layer.update(_median_dicts(net))
        # Batch durations pooled over the traced iterations.
        durations = [1e3 * (s[2] - s[1]) for it in traced
                     for s in it["spans"] if s[0] == "smc.compare"]
        per_layer["smc.batch_p50_ms"] = percentile(durations, 0.50)
        per_layer["smc.batch_p99_ms"] = percentile(durations, 0.99)
        traced_link = sum(it["link_s"] for it in traced) / len(traced)
        per_layer["trace.overhead_frac"] = traced_link / e2e["link_s"] - 1
        per_layer["failed_frac"] = failed / attempted
        record["trace"] = {"traced_link_s": traced_link,
                           "untraced_link_s": e2e["link_s"],
                           "batch_samples": len(durations),
                           "per_iteration": layers, "tcp_iterations": net}
        if per_layer["trace.coverage_frac"] < MIN_COVERAGE:
            problems.append("layer self times cover %.1f%% of link_s "
                            "(< %.0f%%)" % (
                                100 * per_layer["trace.coverage_frac"],
                                100 * MIN_COVERAGE))
        report.append("traced: layers cover %.1f%% of link_s, remainder "
                      "%.4f s; tracing overhead %+.1f%%" % (
                          100 * per_layer["trace.coverage_frac"],
                          per_layer["trace.remainder_s"],
                          100 * per_layer["trace.overhead_frac"]))
    return {"end_to_end": e2e, "per_layer": per_layer, "problems": problems,
            "counts": counts, "attempted": attempted, "failed": failed,
            "record": record, "report": report}


def projection(raw, summary, allowance, paper_seconds_per_distance):
    """Full-allowance wall clock projected from the measured slice rate,
    next to the paper's cost model. A projection, not a metric."""
    total = raw["reference"][0]["total_pairs"]
    full = int(math.floor(allowance * total))
    rate = summary["end_to_end"]["smc_pairs_per_s"]
    return {"projection": {
        "label": "projection from the measured slice, not a measurement",
        "full_allowance_pairs": full,
        "projected_smc_seconds": full / rate,
        "paper_seconds_at_0.43s_per_distance":
            full * paper_seconds_per_distance,
    }}


# ---------------------------------------------------------------------------
# serve-churn.

STATUS_APPLIED = 0
STATUS_QUEUED = 1


def _serve_counts(p):
    c = p["costs"]
    return {"smc_pairs": p["smc_pairs"], "encryptions": c["encryptions"],
            "decryptions": c["decryptions"],
            "homomorphic_adds": c["homomorphic_adds"],
            "scalar_muls": c["scalar_muls"], "pool_misses": p["pool_misses"],
            "quarantined": sum(p["delta_quarantined"]),
            "statuses": sorted(set(p["status"]))}


def summarize_serve(raw, trace):
    passes = raw["passes"]
    problems = []
    by_stream = {}
    for i, p in enumerate(passes):
        by_stream.setdefault(p["stream"], _serve_counts(p))
        if not p["links_match"]:
            problems.append("pass %d: links differ from the plaintext "
                            "replay" % i)
        if p["smc_pairs"] != p["reference_smc_pairs"]:
            problems.append("pass %d: %d SMC pairs, plaintext replay %d" % (
                i, p["smc_pairs"], p["reference_smc_pairs"]))
        if p["pool_misses"] != 0:
            problems.append("pass %d: %d randomizer-pool misses" % (
                i, p["pool_misses"]))
        if _serve_counts(p) != by_stream[p["stream"]]:
            problems.append("pass %d: work counts differ from an earlier "
                            "pass of the same stream" % i)
    counts = [by_stream[k] for k in sorted(by_stream)]

    # Latencies pool the deltas of every untraced pass.
    untraced = [p for p in passes if not p["traced"]]
    lat_ms, wait, late_ms, statuses = [], [], [], []
    stream_busy, smc_s = [], 0.0
    failed = 0
    for p in untraced:
        timing = open_loop(p["due"], p["begin"], p["end"])
        for t, s, q in zip(timing["latency"], p["status"],
                           p["delta_quarantined"]):
            good = s == STATUS_APPLIED and q == 0
            failed += not good
            # A failed or refused delta misses every latency limit.
            lat_ms.append(1e3 * t if good else math.inf)
        wait += timing["queue_wait"]
        late_ms += [1e3 * t for t in timing["late"]]
        stream_busy.append(sum(timing["busy"]))
        smc_s += p["histogram_sums"].get("smc.batch_seconds", 0.0)
        statuses += p["status"]
    n = len(lat_ms)
    busy = sum(stream_busy)
    if samples_beyond(n, 0.99) < MIN_TAIL_SAMPLES:
        problems.append("%d deltas leave fewer than %d samples beyond p99" % (
            n, MIN_TAIL_SAMPLES))
    setups = [p["setup_s"] for p in untraced]
    # link_s: the service's online linking time for one stream, Σ Apply
    # busy seconds, as a mean over the run's streams. smc_pairs_per_s: the
    # streams' SMC pairs over the SMC engine's batch seconds.
    e2e = {
        "setup_s": statistics.median(setups),
        "link_s": busy / len(untraced),
        "smc_pairs_per_s": sum(p["smc_pairs"] for p in untraced) / smc_s,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    delta_p50 = percentile(lat_ms, 0.50)
    delta_p99 = percentile(lat_ms, 0.99)
    record = {"setups": _stats_record({"setup_s": setups}),
              "streams": _stats_record({"link_s": stream_busy}),
              "counts": counts,
              "open_loop": {
                  "deltas": n, "streams": len(untraced), "apply_busy_s": busy,
                  "capacity_dps": n / busy,
                  "delta_p50_ms": delta_p50, "delta_p99_ms": delta_p99,
                  "generator_late_p99_ms": percentile(late_ms, 0.99),
                  "generator_late_max_ms": max(late_ms),
                  "queue_wait_p99_ms": 1e3 * percentile(wait, 0.99),
                  "samples_beyond_p99": samples_beyond(n, 0.99)}}
    report = ["serve-churn: %d deltas in %d streams open-loop, %d SMC pairs, "
              "link %.3f s per stream, capacity %.1f deltas/s, p50 %.2f ms, "
              "p99 %.2f ms" % (
                  n, len(untraced), sum(c["smc_pairs"] for c in counts),
                  e2e["link_s"], n / busy, delta_p50, delta_p99)]

    per_layer = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        spans = concat_spans([p["spans"] for p in traced])
        pairs = sum(p["smc_pairs"] for p in traced)
        costs = {k: sum(p["costs"][k] for p in traced)
                 for k in traced[0]["costs"]}
        counters = {k: sum(p["counters"].get(k, 0) for p in traced)
                    for k in ("paillier.randomizer_pool_hits",
                              "paillier.randomizer_pool_misses",
                              "serve.pairs_blocked")}
        compare = _compare_layer(spans, counters, costs, pairs)
        traced_busy = span_total(spans, "serve.apply")
        apply_self = self_total(spans, "serve.apply")
        prewarm = statistics.median(
            [p["counters"].get("paillier.randomizer_pool_hits", 0) +
             p["gauges"].get("paillier.randomizer_pool_depth", 0)
             for p in traced])
        per_layer.update(compare)
        per_layer.update(_crypto_layer(
            costs, pairs, raw["calibration"], compare["smc.compare_busy_s"],
            traced[0]["gauges"].get("smc.workers", 1), prewarm))
        per_layer.update({
            "smc.init_s": statistics.median([p["init_s"] for p in passes]),
            "smc.quarantined": sum(sum(p["delta_quarantined"])
                                   for p in traced),
            "serve.apply_self_s": apply_self,
            "serve.oracle_s": compare["smc.compare_busy_s"],
            "serve.blocked_pairs_per_delta":
                counters["serve.pairs_blocked"] / n,
            "serve.smc_pairs_per_delta": pairs / n,
            "serve.delta_p50_ms": delta_p50,
            "serve.delta_p99_ms": delta_p99,
            "serve.queue_wait_p99_ms": record["open_loop"]["queue_wait_p99_ms"],
            "serve.generator_late_ms":
                record["open_loop"]["generator_late_p99_ms"],
            "serve.status.applied": statuses.count(STATUS_APPLIED),
            "serve.status.queued": statuses.count(STATUS_QUEUED),
            "serve.status.rejected": n - statuses.count(STATUS_APPLIED) -
                                     statuses.count(STATUS_QUEUED),
            "failed_frac": failed / n,
            "trace.overhead_frac": traced_busy / busy - 1,
            "trace.coverage_frac":
                (apply_self + compare["smc.compare_busy_s"]) / traced_busy,
            "trace.remainder_s":
                traced_busy - apply_self - compare["smc.compare_busy_s"],
        })
        if per_layer["trace.coverage_frac"] < MIN_COVERAGE:
            problems.append("layer self times cover %.1f%% of apply time" %
                            (100 * per_layer["trace.coverage_frac"]))
        record["trace"] = {"traced_apply_busy_s": traced_busy,
                           "untraced_apply_busy_s": busy}
        report.append("traced: serve self %.3f s + oracle %.3f s of %.3f s "
                      "apply; tracing overhead %+.1f%%" % (
                          apply_self, compare["smc.compare_busy_s"],
                          traced_busy, 100 * per_layer["trace.overhead_frac"]))
    return {"end_to_end": e2e, "per_layer": per_layer, "problems": problems,
            "counts": counts, "attempted": n, "failed": failed,
            "record": record, "report": report}
