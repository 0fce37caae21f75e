#!/usr/bin/env python3
"""Validates a bench_baseline JSON file and flags performance regressions.

Usage:
    check_bench_json.py CANDIDATE.json [--baseline BASELINE.json]
                        [--threshold 0.20]

Schema checks (always):
  * top-level keys: schema_version (1..6), eps, n, rss_n, entries
  * every entry has dataset/algorithm/ns_per_update/max_memory_bytes/
    max_rank_error/avg_rank_error with sane types and ranges
  * all expected (dataset, algorithm) cells are present, none duplicated
  * observed max rank error respects the configured eps with the same
    slack the repo's integration tests allow (3x for the randomized
    algorithms whose guarantee is probabilistic, and RSS's width cap
    makes it advisory-only)
  * schema_version 2 additionally requires a parallel_ingest section: a
    mergeable algorithm, a known dataset, and a thread sweep starting at
    1 thread with positive throughput and merged accuracy within the
    algorithm's slack
  * schema_version 3 additionally requires a durability section: a mode
    list containing the wal_off baseline plus at least one WAL-on mode
    whose wal_bytes and wal_syncs are positive; timings are
    sanity-checked, never gated
  * schema_version 4 additionally requires a trace_overhead section
    (null straight out of bench_baseline; the committed baseline carries
    the merged bench_trace_overhead lanes, see
    scripts/merge_trace_overhead.py): lanes "off" (a -DSTREAMQ_TRACE=OFF
    build), "idle" (compiled in, tracer disabled), and "recording"
    (tracer enabled, events flowing). This is the one timing this
    checker HARD-GATES: idle ns_per_update must stay within 5% of off --
    the whole point of the compiled-in flight recorder is that leaving
    it idle in production is free
  * schema_version 5 additionally requires a cluster section (null
    straight out of bench_baseline; the committed baseline carries the
    bench_cluster output, spliced with scripts/merge_cluster_bench.py):
    a node-count sweep of sustained cluster insert throughput and
    coordinator merge (query) latency, plus a failover point timing a
    killed node's recovery and resync. Timings are sanity-checked, never
    gated -- they depend on host thread scheduling
  * schema_version 6 additionally requires ns_per_update_batch (> 0) in
    every entry: the same stream fed through UpdateBatch in 4096-element
    spans. This is the second timing this checker HARD-GATES, and only on
    the single-thread lane (never on the multi-threaded sweeps, whose
    numbers ride on scheduling): on the uniform-random dataset, the
    amortised batch cost must stay under the BATCH_NS_GATES ceilings
    (Random/MRL99 <= 5 ns/item, DCS <= 300 ns/item) -- the hot-path
    speed campaign's acceptance bars
  * schema_version 7 additionally requires a net section (null straight
    out of bench_baseline; the committed baseline carries the bench_net
    output, spliced with scripts/merge_net_bench.py): a client-count
    sweep of sustained INSERT and BATCH_INSERT throughput plus query
    latency percentiles over TCP loopback. The third HARD GATE lives
    here: at the 1-client point, 4096-element BATCH_INSERT frames must
    sustain >= 10x the single-item INSERT inserts/sec -- the network
    tier's acceptance bar (a ratio on one host, so stable where absolute
    throughput is not)
  * schema_version 8 additionally requires a net_resilience section (null
    straight out of bench_baseline; the committed baseline carries the
    bench_net_resilience output, spliced with
    scripts/merge_net_resilience_bench.py): reconnect+replay+flush
    recovery latency percentiles over injected connection kills, plus
    sustained throughput clean vs under a ~1% transport fault rate. The
    fourth HARD GATE lives here: the faulty lane must sustain >= 50% of
    the clean lane's inserts/sec -- again a same-host ratio, so stable
    where absolute throughput is not
  * schema_version 9 additionally requires an audit section (null straight
    out of bench_baseline; the committed baseline carries the bench_audit
    output, spliced with scripts/merge_audit_bench.py): the same ingest
    lane with and without per-shard reservoir shadows, plus a scored audit
    round. Two HARD GATES live here: the audited lane must stay within 5%
    of the unaudited lane's ns/update (a safety net that taxes the hot
    path gets turned off), and the audit rounds must report zero
    violations (a correctly-provisioned pipeline audits clean)

Regression check (with --baseline): every cell's ns_per_update must stay
within (1 + threshold) of the baseline's. Comparing a file against itself
(as the `verify` target does) degenerates to the schema check. The
parallel_ingest sweep is schema-checked only -- thread-scheduling noise
makes its ns/update numbers unsuitable for a tight regression gate.

Every violation found is reported; the checker never stops at the first
problem (a schema bump touching several sections should need exactly one
fix-check iteration). Only an unreadable/unparsable input file aborts.

Exit code 0 = clean, 1 = any failure (messages on stderr).
"""

import argparse
import json
import sys

EXPECTED_ALGORITHMS = [
    "GKTheory",
    "GKAdaptive",
    "GKArray",
    "FastQDigest",
    "MRL99",
    "Random",
    "RSS",
    "DCM",
    "DCS",
    "Post",
]

EXPECTED_DATASETS = [
    "uniform-random",
    "normal-random",
    "uniform-sorted",
    "loguniform-random",
]

# Observed max rank error is allowed eps * slack. Deterministic
# comparison-based summaries must meet eps outright; randomized and
# universe-capped ones get the same latitude the integration tests grant.
ERROR_SLACK = {
    "GKTheory": 1.0,
    "GKAdaptive": 1.0,
    "GKArray": 1.0,
    "FastQDigest": 1.0,
    "MRL99": 3.0,
    "Random": 3.0,
    "DCM": 3.0,
    "DCS": 3.0,
    "Post": 3.0,
    "RSS": None,  # width-capped far below its 1/eps^2 theory: advisory
}


def fail(msg):
    print(f"check_bench_json: {msg}", file=sys.stderr)
    return 1


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def check_schema(doc, path):
    # Missing pieces are reported and then skipped over: every other check
    # that can still run does, so one pass surfaces every violation.
    errors = 0
    for key in ("schema_version", "eps", "n", "rss_n", "entries"):
        if key not in doc:
            errors += fail(f"{path}: missing top-level key '{key}'")
    version = doc.get("schema_version", 0)
    if "schema_version" in doc and version not in (1, 2, 3, 4, 5, 6, 7, 8, 9):
        errors += fail(f"{path}: unsupported schema_version {version!r}")
    eps = doc.get("eps", 0.0)
    if "eps" in doc and not (isinstance(eps, float) and 0.0 < eps < 1.0):
        errors += fail(f"{path}: eps must be a float in (0, 1), got {eps!r}")
    for key in ("n", "rss_n"):
        if key in doc and not (isinstance(doc[key], int) and doc[key] > 0):
            errors += fail(f"{path}: {key} must be a positive integer")
    if not isinstance(version, int):
        version = 0

    cells = {}
    entries = doc.get("entries")
    if not isinstance(entries, list):
        entries = []
    for i, entry in enumerate(entries):
        where = f"{path}: entries[{i}]"
        if not isinstance(entry, dict):
            errors += fail(f"{where}: not an object")
            continue
        missing = [
            k
            for k in (
                "dataset",
                "algorithm",
                "ns_per_update",
                "max_memory_bytes",
                "max_rank_error",
                "avg_rank_error",
            )
            if k not in entry
        ]
        if missing:
            errors += fail(f"{where}: missing keys {missing}")
            continue
        dataset, algorithm = entry["dataset"], entry["algorithm"]
        if dataset not in EXPECTED_DATASETS:
            errors += fail(f"{where}: unknown dataset {dataset!r}")
        if algorithm not in EXPECTED_ALGORITHMS:
            errors += fail(f"{where}: unknown algorithm {algorithm!r}")
        if not (isinstance(entry["ns_per_update"], (int, float)) and entry["ns_per_update"] > 0):
            errors += fail(f"{where}: ns_per_update must be > 0")
        if version >= 6:
            batch_ns = entry.get("ns_per_update_batch")
            if not (isinstance(batch_ns, (int, float)) and batch_ns > 0):
                errors += fail(
                    f"{where}: schema_version 6 requires ns_per_update_batch > 0"
                )
        if not (isinstance(entry["max_memory_bytes"], int) and entry["max_memory_bytes"] > 0):
            errors += fail(f"{where}: max_memory_bytes must be a positive integer")
        for k in ("max_rank_error", "avg_rank_error"):
            v = entry[k]
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                errors += fail(f"{where}: {k} must be in [0, 1]")
        if entry["avg_rank_error"] > entry["max_rank_error"]:
            errors += fail(f"{where}: avg_rank_error exceeds max_rank_error")

        key = (dataset, algorithm)
        if key in cells:
            errors += fail(f"{where}: duplicate cell {key}")
        cells[key] = entry

        slack = ERROR_SLACK.get(algorithm)
        if slack is not None and entry["max_rank_error"] > eps * slack:
            errors += fail(
                f"{where}: max_rank_error {entry['max_rank_error']:.6f} "
                f"exceeds eps*{slack} = {eps * slack:.6f}"
            )

    if isinstance(doc.get("entries"), list):
        for dataset in EXPECTED_DATASETS:
            for algorithm in EXPECTED_ALGORITHMS:
                if (dataset, algorithm) not in cells:
                    errors += fail(f"{path}: missing cell ({dataset}, {algorithm})")

    if version >= 2:
        if "parallel_ingest" not in doc:
            errors += fail(f"{path}: schema_version 2 requires 'parallel_ingest'")
        else:
            errors += check_parallel_ingest(doc["parallel_ingest"], eps, path)
    if version >= 3:
        if "durability" not in doc:
            errors += fail(f"{path}: schema_version 3 requires 'durability'")
        else:
            errors += check_durability(doc["durability"], path)
    if version >= 4:
        if "trace_overhead" not in doc:
            errors += fail(f"{path}: schema_version 4 requires 'trace_overhead'")
        else:
            errors += check_trace_overhead(doc["trace_overhead"], path)
    if version >= 5:
        if "cluster" not in doc:
            errors += fail(f"{path}: schema_version 5 requires 'cluster'")
        else:
            errors += check_cluster(doc["cluster"], path)
    if version >= 6:
        errors += check_batch_gates(cells, path)
    if version >= 7:
        if "net" not in doc:
            errors += fail(f"{path}: schema_version 7 requires 'net'")
        else:
            errors += check_net(doc["net"], path)
    if version >= 8:
        if "net_resilience" not in doc:
            errors += fail(f"{path}: schema_version 8 requires 'net_resilience'")
        else:
            errors += check_net_resilience(doc["net_resilience"], path)
    if version >= 9:
        if "audit" not in doc:
            errors += fail(f"{path}: schema_version 9 requires 'audit'")
        else:
            errors += check_audit(doc["audit"], path)
    return errors, cells


# Hard single-thread ceilings on the amortised batched-update cost
# (ns/item through UpdateBatch in 4096-element spans), measured on the
# uniform-random dataset. These are the hot-path speed campaign's
# acceptance bars: the sampling summaries must amortise to a few ns/item
# (block striding skips whole sampling blocks in O(1)), and DCS -- one
# counter update per dyadic level, hashing vectorised -- must stay under
# 300 ns. Absolute ceilings, not relative ones: a host too slow to meet
# them is a host too slow to reproduce the paper's relative timings.
# Multi-threaded sections are NEVER ns-gated (scheduling noise).
BATCH_NS_GATES = {
    "Random": 5.0,
    "MRL99": 5.0,
    "DCS": 300.0,
}
BATCH_GATE_DATASET = "uniform-random"


def check_batch_gates(cells, path):
    errors = 0
    for algorithm, limit in BATCH_NS_GATES.items():
        entry = cells.get((BATCH_GATE_DATASET, algorithm))
        if entry is None:
            continue  # absence already reported by the schema pass
        batch_ns = entry.get("ns_per_update_batch")
        if not isinstance(batch_ns, (int, float)):
            continue  # type error already reported by the schema pass
        if batch_ns > limit:
            errors += fail(
                f"{path}: {algorithm} on {BATCH_GATE_DATASET} spends "
                f"{batch_ns:.2f} ns/item in batch mode "
                f"(hard ceiling {limit:.0f} ns)"
            )
    return errors


# Algorithms the ingest pipeline accepts: mergeable with a clone path.
PIPELINE_ALGORITHMS = ["Random", "MRL99", "FastQDigest", "DCM", "DCS"]


def check_parallel_ingest(section, eps, path):
    """Schema check of the parallel-ingest sweep (no regression gate)."""
    where = f"{path}: parallel_ingest"
    errors = 0
    if not isinstance(section, dict):
        return fail(f"{where}: not an object")
    for key in ("algorithm", "dataset", "n", "sweep"):
        if key not in section:
            errors += fail(f"{where}: missing key '{key}'")
    algorithm = section.get("algorithm")
    if "algorithm" in section and algorithm not in PIPELINE_ALGORITHMS:
        errors += fail(
            f"{where}: algorithm {algorithm!r} is not pipeline-capable "
            f"(expected one of {PIPELINE_ALGORITHMS})"
        )
    if "dataset" in section and section["dataset"] not in EXPECTED_DATASETS:
        errors += fail(f"{where}: unknown dataset {section['dataset']!r}")
    if "n" in section and not (isinstance(section["n"], int) and section["n"] > 0):
        errors += fail(f"{where}: n must be a positive integer")
    sweep = section.get("sweep")
    if sweep is None:
        return errors
    if not (isinstance(sweep, list) and sweep):
        return errors + fail(f"{where}: sweep must be a non-empty list")
    seen_threads = set()
    for i, point in enumerate(sweep):
        p_where = f"{where}.sweep[{i}]"
        if not isinstance(point, dict):
            errors += fail(f"{p_where}: not an object")
            continue
        missing = [
            k
            for k in (
                "threads",
                "ns_per_update",
                "updates_per_sec",
                "merged_max_rank_error",
                "peak_memory_bytes",
            )
            if k not in point
        ]
        if missing:
            errors += fail(f"{p_where}: missing keys {missing}")
            continue
        threads = point["threads"]
        if not (isinstance(threads, int) and threads > 0):
            errors += fail(f"{p_where}: threads must be a positive integer")
        elif threads in seen_threads:
            errors += fail(f"{p_where}: duplicate thread count {threads}")
        else:
            seen_threads.add(threads)
        for k in ("ns_per_update", "updates_per_sec"):
            if not (isinstance(point[k], (int, float)) and point[k] > 0):
                errors += fail(f"{p_where}: {k} must be > 0")
        err = point["merged_max_rank_error"]
        if not (isinstance(err, (int, float)) and 0.0 <= err <= 1.0):
            errors += fail(f"{p_where}: merged_max_rank_error must be in [0, 1]")
        else:
            slack = ERROR_SLACK.get(algorithm)
            if slack is not None and err > eps * slack:
                errors += fail(
                    f"{p_where}: merged_max_rank_error {err:.6f} exceeds "
                    f"eps*{slack} = {eps * slack:.6f}"
                )
        if not (
            isinstance(point["peak_memory_bytes"], int)
            and point["peak_memory_bytes"] > 0
        ):
            errors += fail(f"{p_where}: peak_memory_bytes must be positive")
    if 1 not in seen_threads:
        errors += fail(f"{where}: sweep must include the 1-thread baseline")
    return errors


def check_durability(section, path):
    """Schema check of the durability cost section (no regression gate).

    bench_baseline always measures this section itself, so `null` is not
    legal here (unlike the sections spliced in from other benches).
    """
    where = f"{path}: durability"
    errors = 0
    if not isinstance(section, dict):
        return fail(f"{where}: not an object")
    for key in ("algorithm", "dataset", "n", "modes"):
        if key not in section:
            errors += fail(f"{where}: missing key '{key}'")
    if "algorithm" in section and section["algorithm"] not in PIPELINE_ALGORITHMS:
        errors += fail(
            f"{where}: algorithm {section['algorithm']!r} is not "
            f"pipeline-capable (expected one of {PIPELINE_ALGORITHMS})"
        )
    if "dataset" in section and section["dataset"] not in EXPECTED_DATASETS:
        errors += fail(f"{where}: unknown dataset {section['dataset']!r}")
    if "n" in section and not (isinstance(section["n"], int) and section["n"] > 0):
        errors += fail(f"{where}: n must be a positive integer")
    modes = section.get("modes")
    if modes is None:
        return errors
    if not (isinstance(modes, list) and modes):
        return errors + fail(f"{where}: modes must be a non-empty list")
    seen_modes = set()
    wal_on_modes = 0
    for i, point in enumerate(modes):
        p_where = f"{where}.modes[{i}]"
        if not isinstance(point, dict):
            errors += fail(f"{p_where}: not an object")
            continue
        missing = [
            k
            for k in (
                "mode",
                "ns_per_update",
                "wal_bytes",
                "wal_syncs",
                "checkpoints",
                "recovery_ms",
                "replayed_updates",
            )
            if k not in point
        ]
        if missing:
            errors += fail(f"{p_where}: missing keys {missing}")
            continue
        mode = point["mode"]
        if not isinstance(mode, str) or not mode:
            errors += fail(f"{p_where}: mode must be a non-empty string")
            continue
        if mode in seen_modes:
            errors += fail(f"{p_where}: duplicate mode {mode!r}")
        seen_modes.add(mode)
        if not (isinstance(point["ns_per_update"], (int, float)) and point["ns_per_update"] > 0):
            errors += fail(f"{p_where}: ns_per_update must be > 0")
        for k in ("wal_bytes", "wal_syncs", "checkpoints", "replayed_updates"):
            if not (isinstance(point[k], int) and point[k] >= 0):
                errors += fail(f"{p_where}: {k} must be a non-negative integer")
        if not (isinstance(point["recovery_ms"], (int, float)) and point["recovery_ms"] >= 0):
            errors += fail(f"{p_where}: recovery_ms must be >= 0")
        if mode == "wal_off":
            for k in ("wal_bytes", "wal_syncs", "checkpoints"):
                if point.get(k):
                    errors += fail(f"{p_where}: wal_off must have {k} == 0")
        else:
            wal_on_modes += 1
            if not point.get("wal_bytes"):
                errors += fail(f"{p_where}: WAL-on mode must log bytes")
            if not point.get("wal_syncs"):
                errors += fail(f"{p_where}: WAL-on mode must sync at least once")
    if "wal_off" not in seen_modes:
        errors += fail(f"{where}: modes must include the wal_off baseline")
    if wal_on_modes == 0:
        errors += fail(f"{where}: modes must include at least one WAL-on mode")
    return errors


# Hard gate on compiled-in-but-idle tracing cost over a trace-OFF build.
# This is the PR's acceptance criterion, deliberately tighter than the
# generic 20% regression threshold: idle tracing is one relaxed atomic
# load + branch per macro site and must stay in the noise.
TRACE_IDLE_OVERHEAD_LIMIT = 0.05

TRACE_LANES = ("off", "idle", "recording")


def check_trace_overhead(section, path):
    """Schema + overhead gate for the trace_overhead section.

    `null` is legal -- bench_baseline emits it because one build cannot
    measure both sides of the comparison (the "off" lane needs a
    -DSTREAMQ_TRACE=OFF binary). The committed baseline must carry the
    real section, produced by running bench_trace_overhead in both builds
    and merging with scripts/merge_trace_overhead.py.
    """
    where = f"{path}: trace_overhead"
    errors = 0
    if section is None:
        return 0
    if not isinstance(section, dict):
        return fail(f"{where}: not an object (or null)")
    for key in ("n", "reps", "lanes"):
        if key not in section:
            errors += fail(f"{where}: missing key '{key}'")
    for key in ("n", "reps"):
        if key in section and not (isinstance(section[key], int) and section[key] > 0):
            errors += fail(f"{where}: {key} must be a positive integer")
    lanes = section.get("lanes")
    if lanes is None:
        return errors
    if not isinstance(lanes, dict):
        return errors + fail(f"{where}: lanes must be an object")
    for mode in lanes:
        if mode not in TRACE_LANES:
            errors += fail(f"{where}: unknown lane {mode!r}")
    for mode, lane in lanes.items():
        l_where = f"{where}.lanes.{mode}"
        if not isinstance(lane, dict):
            errors += fail(f"{l_where}: not an object")
            continue
        missing = [k for k in ("ns_per_update", "events_recorded") if k not in lane]
        if missing:
            errors += fail(f"{l_where}: missing keys {missing}")
            continue
        ns = lane["ns_per_update"]
        if not (isinstance(ns, (int, float)) and ns > 0):
            errors += fail(f"{l_where}: ns_per_update must be > 0")
        events = lane["events_recorded"]
        if not (isinstance(events, int) and events >= 0):
            errors += fail(f"{l_where}: events_recorded must be >= 0")
        elif mode == "recording" and events == 0:
            errors += fail(f"{l_where}: recording lane recorded no events")
        elif mode != "recording" and events != 0:
            errors += fail(f"{l_where}: lane {mode!r} must record 0 events")
    for mode in TRACE_LANES:
        if mode not in lanes:
            errors += fail(f"{where}: missing lane {mode!r}")
    # Gate whenever both operands are usable numbers, even if some other
    # lane had problems above -- one run reports everything.
    off_ns = lanes.get("off", {}).get("ns_per_update") if isinstance(
        lanes.get("off"), dict) else None
    idle_ns = lanes.get("idle", {}).get("ns_per_update") if isinstance(
        lanes.get("idle"), dict) else None
    if (isinstance(off_ns, (int, float)) and off_ns > 0
            and isinstance(idle_ns, (int, float))):
        limit = off_ns * (1.0 + TRACE_IDLE_OVERHEAD_LIMIT)
        if idle_ns > limit:
            errors += fail(
                f"{where}: idle tracing costs {idle_ns:.2f} ns/update vs "
                f"{off_ns:.2f} with tracing compiled out "
                f"(> {TRACE_IDLE_OVERHEAD_LIMIT:.0%} overhead)"
            )
    return errors


def check_cluster(section, path):
    """Schema check of the cluster section (no regression gate).

    `null` is legal -- bench_baseline always emits it because the cluster
    sweep is bench_cluster's own workload. The committed baseline must
    carry the real section, spliced in with scripts/merge_cluster_bench.py.
    Timings are structure/sanity-checked only: cluster throughput and
    recovery latency ride on worker-thread scheduling.
    """
    where = f"{path}: cluster"
    errors = 0
    if section is None:
        return 0
    if not isinstance(section, dict):
        return fail(f"{where}: not an object (or null)")
    for key in ("algorithm", "dataset", "n", "sweep", "failover"):
        if key not in section:
            errors += fail(f"{where}: missing key '{key}'")
    if "algorithm" in section and section["algorithm"] not in PIPELINE_ALGORITHMS:
        errors += fail(
            f"{where}: algorithm {section['algorithm']!r} is not "
            f"pipeline-capable (expected one of {PIPELINE_ALGORITHMS})"
        )
    if "dataset" in section and section["dataset"] not in EXPECTED_DATASETS:
        errors += fail(f"{where}: unknown dataset {section['dataset']!r}")
    if "n" in section and not (isinstance(section["n"], int) and section["n"] > 0):
        errors += fail(f"{where}: n must be a positive integer")
    errors += check_cluster_sweep(section.get("sweep"), where)
    errors += check_cluster_failover(section.get("failover"), where)
    return errors


def check_cluster_sweep(sweep, where):
    errors = 0
    if sweep is None:
        return errors
    if not (isinstance(sweep, list) and sweep):
        return errors + fail(f"{where}: sweep must be a non-empty list")
    seen_nodes = set()
    for i, point in enumerate(sweep):
        p_where = f"{where}.sweep[{i}]"
        if not isinstance(point, dict):
            errors += fail(f"{p_where}: not an object")
            continue
        missing = [
            k
            for k in (
                "nodes",
                "ns_per_append",
                "inserts_per_sec",
                "merge_latency_us",
                "coordinator_memory_bytes",
            )
            if k not in point
        ]
        if missing:
            errors += fail(f"{p_where}: missing keys {missing}")
            continue
        nodes = point["nodes"]
        if not (isinstance(nodes, int) and nodes > 0):
            errors += fail(f"{p_where}: nodes must be a positive integer")
        elif nodes in seen_nodes:
            errors += fail(f"{p_where}: duplicate node count {nodes}")
        else:
            seen_nodes.add(nodes)
        for k in ("ns_per_append", "inserts_per_sec", "merge_latency_us"):
            if not (isinstance(point[k], (int, float)) and point[k] > 0):
                errors += fail(f"{p_where}: {k} must be > 0")
        if not (
            isinstance(point["coordinator_memory_bytes"], int)
            and point["coordinator_memory_bytes"] > 0
        ):
            errors += fail(f"{p_where}: coordinator_memory_bytes must be positive")
    if 1 not in seen_nodes:
        errors += fail(f"{where}: sweep must include the 1-node baseline")
    return errors


def check_cluster_failover(failover, where):
    errors = 0
    if failover is None:
        return errors
    f_where = f"{where}.failover"
    if not isinstance(failover, dict):
        return errors + fail(f"{f_where}: not an object")
    missing = [
        k
        for k in ("nodes", "recovery_ms", "replayed_updates", "resync_ms")
        if k not in failover
    ]
    if missing:
        errors += fail(f"{f_where}: missing keys {missing}")
    if "nodes" in failover and not (
        isinstance(failover["nodes"], int) and failover["nodes"] > 1
    ):
        errors += fail(f"{f_where}: nodes must be an integer > 1 (a 1-node "
                       f"cluster has no survivors to fail over to)")
    for k in ("recovery_ms", "resync_ms"):
        if k in failover and not (
            isinstance(failover[k], (int, float)) and failover[k] >= 0
        ):
            errors += fail(f"{f_where}: {k} must be >= 0")
    if "replayed_updates" in failover and not (
        isinstance(failover["replayed_updates"], int)
        and failover["replayed_updates"] >= 0
    ):
        errors += fail(f"{f_where}: replayed_updates must be a non-negative "
                       f"integer")
    return errors


# Hard gate on the network tier's framing amortisation: at one client, a
# 4096-element BATCH_INSERT frame must sustain at least this multiple of
# the single-item INSERT inserts/sec over TCP loopback. A ratio, not an
# absolute: both lanes run in the same process on the same host, so the
# per-frame overheads (syscalls, header, CRC, response) divide out of any
# host-speed dependence.
NET_BATCH_SPEEDUP_GATE = 10.0


def check_net(section, path):
    """Schema + batch-speedup gate for the net section.

    `null` is legal -- bench_baseline always emits it (the network sweep
    is bench_net's own workload). The committed baseline must carry the
    real section, spliced in with scripts/merge_net_bench.py. Query
    latencies are sanity-checked, never gated (scheduling noise); the
    batch-vs-single throughput RATIO at 1 client is hard-gated.
    """
    where = f"{path}: net"
    errors = 0
    if section is None:
        return 0
    if not isinstance(section, dict):
        return fail(f"{where}: not an object (or null)")
    for key in ("algorithm", "transport", "batch", "sweep"):
        if key not in section:
            errors += fail(f"{where}: missing key '{key}'")
    if "algorithm" in section and section["algorithm"] not in PIPELINE_ALGORITHMS:
        errors += fail(
            f"{where}: algorithm {section['algorithm']!r} is not "
            f"pipeline-capable (expected one of {PIPELINE_ALGORITHMS})"
        )
    if "transport" in section and not (
        isinstance(section["transport"], str) and section["transport"]
    ):
        errors += fail(f"{where}: transport must be a non-empty string")
    if "batch" in section and not (
        isinstance(section["batch"], int) and section["batch"] > 1
    ):
        errors += fail(f"{where}: batch must be an integer > 1")
    sweep = section.get("sweep")
    if sweep is None:
        return errors
    if not (isinstance(sweep, list) and sweep):
        return errors + fail(f"{where}: sweep must be a non-empty list")
    seen_clients = {}
    for i, point in enumerate(sweep):
        p_where = f"{where}.sweep[{i}]"
        if not isinstance(point, dict):
            errors += fail(f"{p_where}: not an object")
            continue
        missing = [
            k
            for k in (
                "clients",
                "insert_per_sec",
                "batch_insert_per_sec",
                "query_p50_us",
                "query_p99_us",
            )
            if k not in point
        ]
        if missing:
            errors += fail(f"{p_where}: missing keys {missing}")
            continue
        clients = point["clients"]
        if not (isinstance(clients, int) and clients > 0):
            errors += fail(f"{p_where}: clients must be a positive integer")
        elif clients in seen_clients:
            errors += fail(f"{p_where}: duplicate client count {clients}")
        else:
            seen_clients[clients] = point
        for k in (
            "insert_per_sec",
            "batch_insert_per_sec",
            "query_p50_us",
            "query_p99_us",
        ):
            if not (isinstance(point[k], (int, float)) and point[k] > 0):
                errors += fail(f"{p_where}: {k} must be > 0")
        if (
            isinstance(point["query_p50_us"], (int, float))
            and isinstance(point["query_p99_us"], (int, float))
            and point["query_p99_us"] < point["query_p50_us"]
        ):
            errors += fail(f"{p_where}: query_p99_us below query_p50_us")
    if 1 not in seen_clients:
        errors += fail(f"{where}: sweep must include the 1-client baseline")
    else:
        point = seen_clients[1]
        single = point.get("insert_per_sec")
        batch = point.get("batch_insert_per_sec")
        if (
            isinstance(single, (int, float))
            and single > 0
            and isinstance(batch, (int, float))
            and batch < NET_BATCH_SPEEDUP_GATE * single
        ):
            errors += fail(
                f"{where}: at 1 client, BATCH_INSERT sustains {batch:.0f} "
                f"inserts/sec vs {single:.0f} single-item "
                f"({batch / single:.1f}x; hard floor "
                f"{NET_BATCH_SPEEDUP_GATE:.0f}x)"
            )
    return errors


# Hard gate on the self-healing client's chaos tax: under a ~1% transport
# fault rate (short IO, would-blocks, occasional bit flips and resets),
# sustained BATCH_INSERT throughput must stay at least this fraction of
# the clean lane's. A same-host ratio, like the batch-speedup gate: the
# absolute numbers ride on the host, the ratio prices the retry protocol.
NET_RESILIENCE_THROUGHPUT_FLOOR = 0.5


def check_net_resilience(section, path):
    """Schema + faulty/clean throughput-ratio gate for net_resilience.

    `null` is legal -- bench_baseline always emits it (the chaos lanes
    are bench_net_resilience's own workload). Recovery latencies are
    sanity-checked, never gated (they ride on backoff jitter and
    scheduling); the faulty-vs-clean throughput RATIO is hard-gated.
    """
    where = f"{path}: net_resilience"
    errors = 0
    if section is None:
        return 0
    if not isinstance(section, dict):
        return fail(f"{where}: not an object (or null)")
    required = (
        "algorithm",
        "transport",
        "batch",
        "fault_rate",
        "kills",
        "reconnects",
        "replayed_values",
        "reconnect_p50_us",
        "reconnect_p99_us",
        "clean_insert_per_sec",
        "faulty_insert_per_sec",
    )
    for key in required:
        if key not in section:
            errors += fail(f"{where}: missing key '{key}'")
    if "algorithm" in section and section["algorithm"] not in PIPELINE_ALGORITHMS:
        errors += fail(
            f"{where}: algorithm {section['algorithm']!r} is not "
            f"pipeline-capable (expected one of {PIPELINE_ALGORITHMS})"
        )
    if "transport" in section and not (
        isinstance(section["transport"], str) and section["transport"]
    ):
        errors += fail(f"{where}: transport must be a non-empty string")
    if "batch" in section and not (
        isinstance(section["batch"], int) and section["batch"] > 1
    ):
        errors += fail(f"{where}: batch must be an integer > 1")
    fault_rate = section.get("fault_rate")
    if "fault_rate" in section and not (
        isinstance(fault_rate, (int, float)) and 0.0 < fault_rate < 1.0
    ):
        errors += fail(f"{where}: fault_rate must be in (0, 1)")
    for key in ("kills", "reconnects"):
        if key in section and not (
            isinstance(section[key], int) and section[key] > 0
        ):
            errors += fail(f"{where}: {key} must be a positive integer")
    if "replayed_values" in section and not (
        isinstance(section["replayed_values"], int)
        and section["replayed_values"] >= 0
    ):
        errors += fail(f"{where}: replayed_values must be a non-negative integer")
    for key in (
        "reconnect_p50_us",
        "reconnect_p99_us",
        "clean_insert_per_sec",
        "faulty_insert_per_sec",
    ):
        if key in section and not (
            isinstance(section[key], (int, float)) and section[key] > 0
        ):
            errors += fail(f"{where}: {key} must be > 0")
    p50 = section.get("reconnect_p50_us")
    p99 = section.get("reconnect_p99_us")
    if (
        isinstance(p50, (int, float))
        and isinstance(p99, (int, float))
        and p99 < p50
    ):
        errors += fail(f"{where}: reconnect_p99_us below reconnect_p50_us")
    # Every injected kill must have produced a successful re-handshake;
    # fewer reconnects than kills means some recovery never happened.
    kills = section.get("kills")
    reconnects = section.get("reconnects")
    if (
        isinstance(kills, int)
        and isinstance(reconnects, int)
        and 0 < reconnects < kills
    ):
        errors += fail(
            f"{where}: {reconnects} reconnect(s) for {kills} kill(s); "
            f"every kill must recover"
        )
    clean = section.get("clean_insert_per_sec")
    faulty = section.get("faulty_insert_per_sec")
    if (
        isinstance(clean, (int, float))
        and clean > 0
        and isinstance(faulty, (int, float))
        and faulty < NET_RESILIENCE_THROUGHPUT_FLOOR * clean
    ):
        errors += fail(
            f"{where}: faulty lane sustains {faulty:.0f} inserts/sec vs "
            f"{clean:.0f} clean ({faulty / clean:.0%}; hard floor "
            f"{NET_RESILIENCE_THROUGHPUT_FLOOR:.0%})"
        )
    return errors


# Hard gate on the audit plane's hot-path tax: per-shard reservoir shadows
# (skip-counter decrement per update in the common case) must keep the
# audited ingest lane within 5% of the unaudited lane. Same spirit as the
# idle-tracing gate: the continuous self-verification plane only earns its
# keep if leaving it on is effectively free.
AUDIT_OVERHEAD_LIMIT = 0.05

AUDIT_LANES = ("unaudited", "audited")


def check_audit(section, path):
    """Schema + overhead and violation gates for the audit section.

    `null` is legal -- bench_baseline always emits it (the lanes live in
    bench_audit). The committed baseline must carry the real section,
    spliced in with scripts/merge_audit_bench.py. max_observed_err is
    sanity-checked only: the auditor's own per-probe budget (eps*slack
    plus the reservoir's CI guard) is the correctness bar, and
    `violations` counts probes that broke it.
    """
    where = f"{path}: audit"
    errors = 0
    if section is None:
        return 0
    if not isinstance(section, dict):
        return fail(f"{where}: not an object (or null)")
    for key in ("algorithm", "dataset", "n", "reservoir", "eps_budget",
                "lanes", "rounds", "violations", "max_observed_err",
                "round_us"):
        if key not in section:
            errors += fail(f"{where}: missing key '{key}'")
    if "algorithm" in section and section["algorithm"] not in PIPELINE_ALGORITHMS:
        errors += fail(
            f"{where}: algorithm {section['algorithm']!r} is not "
            f"pipeline-capable (expected one of {PIPELINE_ALGORITHMS})"
        )
    if "dataset" in section and section["dataset"] not in EXPECTED_DATASETS:
        errors += fail(f"{where}: unknown dataset {section['dataset']!r}")
    for key in ("n", "reservoir", "rounds"):
        if key in section and not (
            isinstance(section[key], int) and section[key] > 0
        ):
            errors += fail(f"{where}: {key} must be a positive integer")
    if "eps_budget" in section and not (
        isinstance(section["eps_budget"], (int, float))
        and 0.0 < section["eps_budget"] < 1.0
    ):
        errors += fail(f"{where}: eps_budget must be in (0, 1)")
    if "round_us" in section and not (
        isinstance(section["round_us"], (int, float)) and section["round_us"] > 0
    ):
        errors += fail(f"{where}: round_us must be > 0")
    err = section.get("max_observed_err")
    if "max_observed_err" in section and not (
        isinstance(err, (int, float)) and 0.0 <= err <= 1.0
    ):
        errors += fail(f"{where}: max_observed_err must be in [0, 1]")
    violations = section.get("violations")
    if "violations" in section:
        if not (isinstance(violations, int) and violations >= 0):
            errors += fail(f"{where}: violations must be a non-negative integer")
        elif violations > 0:
            errors += fail(
                f"{where}: {violations} audit violation(s); a "
                f"correctly-provisioned pipeline must audit clean"
            )
    lanes = section.get("lanes")
    if lanes is None:
        return errors
    if not isinstance(lanes, dict):
        return errors + fail(f"{where}: lanes must be an object")
    for mode in lanes:
        if mode not in AUDIT_LANES:
            errors += fail(f"{where}: unknown lane {mode!r}")
    for mode in AUDIT_LANES:
        if mode not in lanes:
            errors += fail(f"{where}: missing lane {mode!r}")
    for mode, lane in lanes.items():
        l_where = f"{where}.lanes.{mode}"
        if not isinstance(lane, dict):
            errors += fail(f"{l_where}: not an object")
            continue
        ns = lane.get("ns_per_update")
        if not (isinstance(ns, (int, float)) and ns > 0):
            errors += fail(f"{l_where}: ns_per_update must be > 0")
    # Gate whenever both operands are usable numbers.
    base_ns = lanes.get("unaudited", {}).get("ns_per_update") if isinstance(
        lanes.get("unaudited"), dict) else None
    audited_ns = lanes.get("audited", {}).get("ns_per_update") if isinstance(
        lanes.get("audited"), dict) else None
    if (isinstance(base_ns, (int, float)) and base_ns > 0
            and isinstance(audited_ns, (int, float))):
        limit = base_ns * (1.0 + AUDIT_OVERHEAD_LIMIT)
        if audited_ns > limit:
            errors += fail(
                f"{where}: audited ingest costs {audited_ns:.2f} ns/update "
                f"vs {base_ns:.2f} unaudited "
                f"(> {AUDIT_OVERHEAD_LIMIT:.0%} overhead)"
            )
    return errors


def check_regression(candidate, baseline, threshold):
    errors = 0
    for key, base_entry in baseline.items():
        cand_entry = candidate.get(key)
        if cand_entry is None:
            continue  # absence already reported by the schema pass
        base_ns = base_entry["ns_per_update"]
        cand_ns = cand_entry["ns_per_update"]
        if cand_ns > base_ns * (1.0 + threshold):
            errors += fail(
                f"regression: {key[1]} on {key[0]} went from "
                f"{base_ns:.1f} to {cand_ns:.1f} ns/update "
                f"(> {threshold:.0%} over baseline)"
            )
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("candidate", help="bench_baseline JSON to validate")
    parser.add_argument("--baseline", help="committed baseline to compare against")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional ns/update increase (default 0.20)",
    )
    args = parser.parse_args()

    try:
        candidate_doc = load(args.candidate)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{args.candidate}: {e}")

    errors, candidate_cells = check_schema(candidate_doc, args.candidate)

    if args.baseline and args.baseline != args.candidate:
        try:
            baseline_doc = load(args.baseline)
        except (OSError, json.JSONDecodeError) as e:
            return fail(f"{args.baseline}: {e}")
        base_errors, baseline_cells = check_schema(baseline_doc, args.baseline)
        errors += base_errors
        errors += check_regression(candidate_cells, baseline_cells, args.threshold)

    if errors:
        print(f"check_bench_json: {errors} problem(s)", file=sys.stderr)
        return 1
    print(f"check_bench_json: {args.candidate} OK "
          f"({len(candidate_cells)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
