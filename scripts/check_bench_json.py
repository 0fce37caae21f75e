#!/usr/bin/env python3
"""Validates BENCH_baseline.json against one gate table, flags ns/update
regressions, and splices bench sections into the baseline.

Usage:
    check_bench_json.py CANDIDATE.json [--baseline BASELINE.json]
                        [--threshold 0.20]
    check_bench_json.py BASELINE.json --splice SECTION SECTION.json

Check (always): every row of TABLE is evaluated and every violation is
reported; only an unreadable input file stops the run. A row either lists
the required fields of one part of the file with their types and ranges,
requires that a list has no two elements with the same key or has an
element matching a selector, or states one hard gate. The hard gates are:

  * each cell's max_rank_error is at most eps x ERROR_SLACK (RSS's width
    cap makes its error advisory), and so is the parallel-ingest sweep's
    merged error;
  * the amortised batch cost on uniform-random: Random and MRL99 at most
    5 ns/item, DCS at most 300 (absolute ceilings; a host too slow to meet
    them is too slow to reproduce the paper's relative timings);
  * net: at 1 client, BATCH_INSERT sustains at least 10x the single-item
    INSERT rate;
  * net_resilience: the faulty lane keeps at least 0.5x the clean lane's
    throughput, and every injected kill reconnects;
  * audit: the audited lane costs at most 1.05x the unaudited lane, and
    the audit rounds report 0 violations;
  * trace_overhead: the recording lane records events, the idle lane none.

Multi-threaded sections are never ns-gated (scheduling noise). Five
sections come from benches of their own and are null straight out of
bench_baseline; --splice fills one of them.

Regression check (with --baseline): every cell's ns_per_update must stay
within (1 + threshold) of the baseline's.

Splice (with --splice): checks the section file against the rows for that
section and rewrites BASELINE.json with it only if they all pass.

Exit code 0 = clean, 1 = any failure (messages on stderr).
"""

import argparse
import json
import operator
import re
import sys
from collections import namedtuple

SCHEMA_VERSION = 10

ALGORITHMS = ["GKTheory", "GKAdaptive", "GKArray", "FastQDigest", "MRL99",
              "Random", "RSS", "DCM", "DCS", "Post"]
DATASETS = ["uniform-random", "normal-random", "uniform-sorted",
            "loguniform-random"]
# Algorithms the ingest pipeline accepts: mergeable with a clone path.
PIPELINE_ALGORITHMS = ["Random", "MRL99", "FastQDigest", "DCM", "DCS"]

# Observed max rank error is allowed eps * slack. Deterministic
# comparison-based summaries must meet eps outright; randomized and
# universe-capped ones get the same latitude the integration tests grant.
ERROR_SLACK = {
    "GKTheory": 1.0, "GKAdaptive": 1.0, "GKArray": 1.0, "FastQDigest": 1.0,
    "MRL99": 3.0, "Random": 3.0, "DCM": 3.0, "DCS": 3.0, "Post": 3.0,
    "RSS": None,  # width-capped far below its 1/eps^2 theory: advisory
}

# Single-thread ceilings on ns/item through UpdateBatch, on uniform-random.
BATCH_NS_CEILINGS = {"Random": 5.0, "MRL99": 5.0, "DCS": 300.0}


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# A field's type and range: a predicate and what a message says it must be.
Kind = namedtuple("Kind", "ok want")
POSITIVE = Kind(lambda v: is_num(v) and v > 0, "a number > 0")
NONNEG = Kind(lambda v: is_num(v) and v >= 0, "a number >= 0")
UNIT = Kind(lambda v: is_num(v) and 0 <= v <= 1, "a number in [0, 1]")
OPEN_UNIT = Kind(lambda v: is_num(v) and 0 < v < 1, "a number in (0, 1)")
COUNT = Kind(lambda v: is_int(v) and v >= 0, "an integer >= 0")
TEXT = Kind(lambda v: isinstance(v, str) and v != "", "a non-empty string")
LIST = Kind(lambda v: isinstance(v, list) and v != [], "a non-empty list")
OBJECT = Kind(lambda v: isinstance(v, dict), "an object")
# The one place null is legal: a section bench_baseline cannot measure.
OBJECT_OR_NULL = Kind(lambda v: v is None or isinstance(v, dict),
                      "an object or null")


def int_above(k):
    return Kind(lambda v: is_int(v) and v > k, f"an integer > {k}")


def one_of(names):
    return Kind(lambda v: v in names, f"one of {names}")


POS_INT = int_above(0)

# Rows. A path names nodes of the document: `a.b` walks objects, `b[]` is
# every element of list b, `b[k=v,...]` the elements whose fields match
# (`!=` negates), and `*` every value of an object.
Fields = namedtuple("Fields", "path fields closed", defaults=(False,))
Unique = namedtuple("Unique", "path key")     # no two elements share key
Present = namedtuple("Present", "path")       # some element matches
# One hard gate: `field` `op` bound(node, doc) holds, for the reason `why`.
Gate = namedtuple("Gate", "path field op bound why")


def const(x):
    return lambda node, doc: x


def times(k, name):
    """k x the node's field `name` (None when that is not a number)."""
    def bound(node, doc):
        v = get(node, name)
        return k * v if is_num(v) else None
    return bound


def error_budget(algorithm_of):
    """eps x ERROR_SLACK of the algorithm algorithm_of(node, doc) names."""
    def bound(node, doc):
        slack = ERROR_SLACK.get(algorithm_of(node, doc))
        eps = doc.get("eps")
        return eps * slack if slack is not None and is_num(eps) else None
    return bound


TABLE = [
    Fields("", {"schema_version": one_of([SCHEMA_VERSION]), "eps": OPEN_UNIT,
                "n": POS_INT, "rss_n": POS_INT, "entries": LIST,
                "parallel_ingest": OBJECT, "durability": OBJECT,
                "trace_overhead": OBJECT_OR_NULL, "cluster": OBJECT_OR_NULL,
                "net": OBJECT_OR_NULL, "net_resilience": OBJECT_OR_NULL,
                "audit": OBJECT_OR_NULL}),

    # The 40 single-thread cells: time, space and observed error.
    Fields("entries[]", {"dataset": one_of(DATASETS),
                         "algorithm": one_of(ALGORITHMS),
                         "ns_per_update": POSITIVE,
                         "ns_per_update_batch": POSITIVE,
                         "max_memory_bytes": POS_INT,
                         "max_rank_error": UNIT, "avg_rank_error": UNIT}),
    Unique("entries", ("dataset", "algorithm")),
    *(Present(f"entries[dataset={d},algorithm={a}]")
      for d in DATASETS for a in ALGORITHMS),
    Gate("entries[]", "avg_rank_error", "<=", times(1, "max_rank_error"),
         "max_rank_error"),
    Gate("entries[]", "max_rank_error", "<=",
         error_budget(lambda e, doc: e.get("algorithm")),
         "eps x ERROR_SLACK"),
    *(Gate(f"entries[dataset=uniform-random,algorithm={a}]",
           "ns_per_update_batch", "<=", const(ns), "batch ceiling")
      for a, ns in BATCH_NS_CEILINGS.items()),

    # Sharded ingest vs thread count.
    Fields("parallel_ingest", {"algorithm": one_of(PIPELINE_ALGORITHMS),
                               "dataset": one_of(DATASETS), "n": POS_INT,
                               "sweep": LIST}),
    Fields("parallel_ingest.sweep[]", {"threads": POS_INT,
                                       "ns_per_update": POSITIVE,
                                       "updates_per_sec": POSITIVE,
                                       "merged_max_rank_error": UNIT,
                                       "peak_memory_bytes": POS_INT}),
    Unique("parallel_ingest.sweep", ("threads",)),
    Present("parallel_ingest.sweep[threads=1]"),
    Gate("parallel_ingest.sweep[]", "merged_max_rank_error", "<=",
         error_budget(lambda p, doc: get(doc, "parallel_ingest.algorithm")),
         "eps x ERROR_SLACK"),

    # WAL cost: the wal_off baseline plus WAL-on modes.
    Fields("durability", {"algorithm": one_of(PIPELINE_ALGORITHMS),
                          "dataset": one_of(DATASETS), "n": POS_INT,
                          "modes": LIST}),
    Fields("durability.modes[]", {"mode": TEXT, "ns_per_update": POSITIVE,
                                  "wal_bytes": COUNT, "wal_syncs": COUNT,
                                  "checkpoints": COUNT, "recovery_ms": NONNEG,
                                  "replayed_updates": COUNT}),
    Unique("durability.modes", ("mode",)),
    Present("durability.modes[mode=wal_off]"),
    Present("durability.modes[mode!=wal_off]"),
    *(Gate("durability.modes[mode=wal_off]", f, "==", const(0),
           "wal_off writes no WAL")
      for f in ("wal_bytes", "wal_syncs", "checkpoints")),
    *(Gate("durability.modes[mode!=wal_off]", f, ">", const(0),
           "a WAL-on mode logs and syncs")
      for f in ("wal_bytes", "wal_syncs")),

    # bench_trace_overhead: the tracer idle and recording.
    Fields("trace_overhead", {"n": POS_INT, "reps": POS_INT,
                              "lanes": OBJECT}),
    Fields("trace_overhead.lanes", {"idle": OBJECT, "recording": OBJECT},
           closed=True),
    Fields("trace_overhead.lanes.*", {"ns_per_update": POSITIVE,
                                      "events_recorded": COUNT}),
    Gate("trace_overhead.lanes.recording", "events_recorded", ">", const(0),
         "a recording tracer records"),
    Gate("trace_overhead.lanes.idle", "events_recorded", "==", const(0),
         "an idle tracer records nothing"),

    # bench_cluster: node-count sweep plus one failover point.
    Fields("cluster", {"algorithm": one_of(PIPELINE_ALGORITHMS),
                       "dataset": one_of(DATASETS), "n": POS_INT,
                       "sweep": LIST, "failover": OBJECT}),
    Fields("cluster.sweep[]", {"nodes": POS_INT, "ns_per_append": POSITIVE,
                               "inserts_per_sec": POSITIVE,
                               "merge_latency_us": POSITIVE,
                               "coordinator_memory_bytes": POS_INT}),
    Unique("cluster.sweep", ("nodes",)),
    Present("cluster.sweep[nodes=1]"),
    # A 1-node cluster has no survivors to fail over to.
    Fields("cluster.failover", {"nodes": int_above(1), "recovery_ms": NONNEG,
                                "replayed_updates": COUNT,
                                "resync_ms": NONNEG}),

    # bench_net: client-count sweep over TCP loopback.
    Fields("net", {"algorithm": one_of(PIPELINE_ALGORITHMS),
                   "transport": TEXT, "batch": int_above(1), "sweep": LIST}),
    Fields("net.sweep[]", {"clients": POS_INT, "insert_per_sec": POSITIVE,
                           "batch_insert_per_sec": POSITIVE,
                           "query_p50_us": POSITIVE,
                           "query_p99_us": POSITIVE}),
    Unique("net.sweep", ("clients",)),
    Present("net.sweep[clients=1]"),
    Gate("net.sweep[]", "query_p99_us", ">=", times(1, "query_p50_us"),
         "query_p50_us"),
    Gate("net.sweep[clients=1]", "batch_insert_per_sec", ">=",
         times(10, "insert_per_sec"), "10x single-item INSERT"),

    # bench_net_resilience: reconnects under kills, throughput under faults.
    Fields("net_resilience", {"algorithm": one_of(PIPELINE_ALGORITHMS),
                              "transport": TEXT, "batch": int_above(1),
                              "fault_rate": OPEN_UNIT, "kills": POS_INT,
                              "reconnects": POS_INT,
                              "replayed_values": COUNT,
                              "reconnect_p50_us": POSITIVE,
                              "reconnect_p99_us": POSITIVE,
                              "clean_insert_per_sec": POSITIVE,
                              "faulty_insert_per_sec": POSITIVE}),
    Gate("net_resilience", "reconnect_p99_us", ">=",
         times(1, "reconnect_p50_us"), "reconnect_p50_us"),
    Gate("net_resilience", "reconnects", ">=", times(1, "kills"),
         "every kill must recover"),
    Gate("net_resilience", "faulty_insert_per_sec", ">=",
         times(0.5, "clean_insert_per_sec"), "half the clean lane"),

    # bench_audit: ingest with and without reservoir shadows, plus rounds.
    Fields("audit", {"algorithm": one_of(PIPELINE_ALGORITHMS),
                     "dataset": one_of(DATASETS), "n": POS_INT,
                     "reservoir": POS_INT, "eps_budget": OPEN_UNIT,
                     "lanes": OBJECT, "rounds": POS_INT,
                     "violations": COUNT, "max_observed_err": UNIT,
                     "round_us": POSITIVE}),
    Fields("audit.lanes", {"unaudited": OBJECT, "audited": OBJECT},
           closed=True),
    Fields("audit.lanes.*", {"ns_per_update": POSITIVE}),
    Gate("audit.lanes", "audited.ns_per_update", "<=",
         times(1.05, "unaudited.ns_per_update"), "1.05x unaudited"),
    Gate("audit", "violations", "==", const(0),
         "a correctly-provisioned pipeline audits clean"),
]

# The sections --splice may fill: exactly those that may be null.
SPLICED = [name for name, kind in TABLE[0].fields.items()
           if kind is OBJECT_OR_NULL]


def get(node, dotted):
    for name in dotted.split("."):
        node = node.get(name) if isinstance(node, dict) else None
    return node


def join(where, name):
    return f"{where}.{name}" if where else name


def matches(node, selector):
    """True if dict `node` satisfies `k=v,k!=v,...` (values as strings)."""
    for term in filter(None, selector.split(",")):
        key, op, value = re.fullmatch(r"(\w+)(!?=)(.*)", term).groups()
        if (str(get(node, key)) == value) != (op == "="):
            return False
    return True


def select(doc, path):
    """(where, node) for every node `path` names. A step that is missing or
    null selects nothing; the Fields row of its parent reports it."""
    nodes = [("", doc)]
    for step in filter(None, path.split(".")):
        name, _, selector = step.partition("[")
        selector = selector.rstrip("]")
        found = []
        for where, node in nodes:
            if not isinstance(node, dict):
                continue
            if name == "*":
                found += [(join(where, k), v) for k, v in node.items()]
                continue
            child, where = node.get(name), join(where, name)
            if "[" not in step:
                if child is not None:
                    found.append((where, child))
            elif isinstance(child, list):
                found += [(f"{where}[{i}]", e) for i, e in enumerate(child)
                          if not selector or
                          (isinstance(e, dict) and matches(e, selector))]
        nodes = found
    return nodes


def check_fields(doc, row):
    problems = []
    for where, node in select(doc, row.path):
        if not isinstance(node, dict):
            problems.append(f"{where or 'document'} must be an object")
            continue
        for name, kind in row.fields.items():
            if name not in node:
                problems.append(f"{join(where, name)} is missing")
            elif not kind.ok(node[name]):
                problems.append(f"{join(where, name)} is {node[name]!r}, "
                                f"must be {kind.want}")
        if row.closed:
            problems += [f"{join(where, k)} is not one of {list(row.fields)}"
                         for k in node if k not in row.fields]
    return problems


def check_unique(doc, row):
    problems = []
    for where, items in select(doc, row.path):
        first = {}
        for i, e in enumerate(items if isinstance(items, list) else []):
            if not isinstance(e, dict):
                continue
            key = ",".join(f"{k}={get(e, k)}" for k in row.key)
            if key in first:
                problems.append(f"{where}[{i}] repeats {key} "
                                f"(first at {where}[{first[key]}])")
            first.setdefault(key, i)
    return problems


def check_present(doc, row):
    path, _, selector = row.path.rpartition("[")
    selector = selector.rstrip("]")
    return [f"{where} has no element with {selector}"
            for where, items in select(doc, path)
            if isinstance(items, list) and not any(
                isinstance(e, dict) and matches(e, selector) for e in items)]


OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
       ">": operator.gt}


def check_gate(doc, row):
    problems = []
    for where, node in select(doc, row.path):
        value, bound = get(node, row.field), row.bound(node, doc)
        if is_num(value) and is_num(bound) and not OPS[row.op](value, bound):
            problems.append(f"{join(where, row.field)} is {value:.10g}, "
                            f"must be {row.op} {bound:.10g} ({row.why})")
    return problems


RULES = {Fields: check_fields, Unique: check_unique, Present: check_present,
         Gate: check_gate}


def check(doc, rows=TABLE):
    """Every violation of `rows` in `doc`, one message each."""
    return [p for row in rows for p in RULES[type(row)](doc, row)]


def check_regression(candidate, baseline, threshold):
    """Cells whose ns_per_update grew by more than `threshold`."""
    def cells(doc):
        return {(e.get("dataset"), e.get("algorithm")): e.get("ns_per_update")
                for e in doc.get("entries") or [] if isinstance(e, dict)}
    new = cells(candidate)
    problems = []
    for key, base_ns in cells(baseline).items():
        cand_ns = new.get(key)
        if (is_num(base_ns) and is_num(cand_ns) and
                cand_ns > base_ns * (1.0 + threshold)):
            problems.append(
                f"{key[1]} on {key[0]}: ns_per_update went from "
                f"{base_ns:.1f} to {cand_ns:.1f} (> {threshold:.0%} over "
                f"the baseline)")
    return problems


def splice(doc, name, section):
    """Problems with putting `section` into `doc` as `name`; on none, the
    section is in place."""
    if name not in SPLICED:
        return [f"--splice takes one of {SPLICED}, not {name!r}"]
    if doc.get("schema_version") != SCHEMA_VERSION:
        return [f"schema_version is {doc.get('schema_version')!r}, not "
                f"{SCHEMA_VERSION}; regenerate it with bench_baseline first"]
    if not isinstance(section, dict):
        return [f"{name} must be an object"]
    rows = [r for r in TABLE if re.match(r"\w*", r.path).group() == name]
    problems = check({**doc, name: section}, rows)
    if not problems:
        doc[name] = section
    return problems


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def report(path, problems):
    for p in problems:
        print(f"check_bench_json: {path}: {p}", file=sys.stderr)
    return len(problems)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("candidate", help="BENCH_baseline JSON to check")
    parser.add_argument("--baseline", help="file to compare ns/update with")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional ns/update increase "
                             "(default 0.20)")
    parser.add_argument("--splice", nargs=2, metavar=("SECTION", "FILE"),
                        help="check FILE as SECTION and write it into "
                             "CANDIDATE if it passes")
    args = parser.parse_args()

    docs = {}
    for path in (args.candidate, args.baseline, args.splice and args.splice[1]):
        try:
            if path:
                docs[path] = load(path)
        except (OSError, json.JSONDecodeError) as e:
            report(path, [str(e)])
            return 1
    doc = docs[args.candidate]

    if args.splice:
        name, section_path = args.splice
        if report(section_path, splice(doc, name, docs[section_path])):
            print(f"check_bench_json: {args.candidate} unchanged",
                  file=sys.stderr)
            return 1
        with open(args.candidate, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"check_bench_json: spliced {section_path} into "
              f"{args.candidate} as {name}")
        return 0

    errors = report(args.candidate, check(doc))
    if args.baseline:
        base = docs[args.baseline]
        errors += report(args.baseline, check(base))
        errors += report(args.candidate,
                         check_regression(doc, base, args.threshold))
    if errors:
        print(f"check_bench_json: {errors} problem(s)", file=sys.stderr)
        return 1
    print(f"check_bench_json: {args.candidate} OK "
          f"({len(doc.get('entries', []))} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
