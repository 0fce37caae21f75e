#!/usr/bin/env python3
"""Negative controls for scripts/check_bench_json.py's gate table.

The committed BENCH_baseline.json must pass. Each entry of MUTATIONS breaks
one gate in a copy of it, and the checker must then report a problem that
names the field the mutation touched; each entry of ACCEPTED moves a value
to the edge of its gate, and the copy must still pass. Every copy is also
compared with the committed file as --baseline would, so the 20%
ns/update regression gate is under the same test.

Usage: bench_gates_test.py [-v]
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_baseline.json")
CHECKER = os.path.join(ROOT, "scripts", "check_bench_json.py")
sys.path.insert(0, os.path.dirname(CHECKER))

import check_bench_json  # noqa: E402


def find(items, **match):
    """The first element of `items` whose fields equal `match`."""
    return next(e for e in items
                if all(e.get(k) == v for k, v in match.items()))


def cell(doc, algorithm, dataset="uniform-random"):
    return find(doc["entries"], dataset=dataset, algorithm=algorithm)


def scale(node, field, k):
    node[field] *= k


def lanes(doc, section):
    return doc[section]["lanes"]


# (name, mutate(doc) in place, the field a rejection must name)
MUTATIONS = [
    ("cell error above eps x slack",
     lambda d: cell(d, "GKArray").update(max_rank_error=d["eps"] * 1.01),
     "max_rank_error"),
    ("Random batch at 5.01 ns",
     lambda d: cell(d, "Random").update(ns_per_update_batch=5.01),
     "ns_per_update_batch"),
    ("DCS batch at 300.1 ns",
     lambda d: cell(d, "DCS").update(ns_per_update_batch=300.1),
     "ns_per_update_batch"),
    ("one cell missing",
     lambda d: d["entries"].remove(cell(d, "MRL99", "normal-random")),
     "entries"),
    ("one cell duplicated",
     lambda d: d["entries"].append(dict(cell(d, "Post"))),
     "entries"),
    ("no 1-thread ingest point",
     lambda d: d["parallel_ingest"]["sweep"].remove(
         find(d["parallel_ingest"]["sweep"], threads=1)),
     "threads"),
    ("no wal_off mode",
     lambda d: d["durability"]["modes"].remove(
         find(d["durability"]["modes"], mode="wal_off")),
     "wal_off"),
    ("WAL-on mode with 0 syncs",
     lambda d: find(d["durability"]["modes"], mode="wal_mem").update(
         wal_syncs=0),
     "wal_syncs"),
    ("recording lane with 0 events",
     lambda d: lanes(d, "trace_overhead")["recording"].update(
         events_recorded=0),
     "events_recorded"),
    ("idle lane with events",
     lambda d: lanes(d, "trace_overhead")["idle"].update(events_recorded=1),
     "events_recorded"),
    ("no 1-node cluster point",
     lambda d: d["cluster"]["sweep"].remove(find(d["cluster"]["sweep"],
                                                 nodes=1)),
     "nodes"),
    ("failover with 1 node",
     lambda d: d["cluster"]["failover"].update(nodes=1),
     "nodes"),
    ("net batch below 10x single",
     lambda d: find(d["net"]["sweep"], clients=1).update(
         batch_insert_per_sec=9.9 * find(d["net"]["sweep"], clients=1)[
             "insert_per_sec"]),
     "batch_insert_per_sec"),
    ("net_resilience faulty below 0.5x clean",
     lambda d: d["net_resilience"].update(
         faulty_insert_per_sec=0.49 * d["net_resilience"][
             "clean_insert_per_sec"]),
     "faulty_insert_per_sec"),
    ("audit above 1.05x unaudited",
     lambda d: lanes(d, "audit")["audited"].update(
         ns_per_update=1.06 * lanes(d, "audit")["unaudited"]["ns_per_update"]),
     "audited.ns_per_update"),
    ("audit with 1 violation",
     lambda d: d["audit"].update(violations=1),
     "violations"),
    ("one cell 21% slower than the baseline",
     lambda d: scale(cell(d, "GKArray", "uniform-sorted"), "ns_per_update",
                     1.21),
     "ns_per_update"),
]

# Values at the edge of a gate, which must still pass.
ACCEPTED = [
    ("Random batch at 5 ns",
     lambda d: cell(d, "Random").update(ns_per_update_batch=5.0)),
    ("DCS batch at 300 ns",
     lambda d: cell(d, "DCS").update(ns_per_update_batch=300.0)),
    ("one cell 19% slower than the baseline",
     lambda d: scale(cell(d, "GKArray", "uniform-sorted"), "ns_per_update",
                     1.19)),
    ("RSS error far above eps (advisory)",
     lambda d: cell(d, "RSS").update(max_rank_error=0.5)),
]


def problems(doc, baseline):
    """What `check_bench_json.py DOC --baseline BASELINE` reports on DOC."""
    return (check_bench_json.check(doc) +
            check_bench_json.check_regression(doc, baseline, 0.20))


class GateTableTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(BASELINE, encoding="utf-8") as f:
            cls.committed = json.load(f)

    def test_committed_baseline_passes_with_no_null_section(self):
        self.assertEqual(problems(self.committed, self.committed), [])
        self.assertEqual([k for k, v in self.committed.items() if v is None],
                         [])

    def test_every_mutation_is_rejected_naming_its_field(self):
        for name, mutate, field in MUTATIONS:
            with self.subTest(name):
                doc = copy.deepcopy(self.committed)
                mutate(doc)
                found = problems(doc, self.committed)
                self.assertTrue(found, f"{name}: accepted")
                self.assertTrue(any(field in p for p in found),
                                f"{name}: no message names {field}: {found}")

    def test_values_at_the_edge_of_a_gate_pass(self):
        for name, mutate in ACCEPTED:
            with self.subTest(name):
                doc = copy.deepcopy(self.committed)
                mutate(doc)
                self.assertEqual(problems(doc, self.committed), [])

    def test_splice_writes_a_passing_section_and_refuses_a_failing_one(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "base.json")
            section = os.path.join(tmp, "cluster.json")
            emptied = dict(self.committed, cluster=None)

            def run(cluster):
                with open(base, "w", encoding="utf-8") as f:
                    json.dump(emptied, f)
                with open(section, "w", encoding="utf-8") as f:
                    json.dump(cluster, f)
                rc = subprocess.run(
                    [sys.executable, CHECKER, base, "--splice", "cluster",
                     section], capture_output=True).returncode
                with open(base, encoding="utf-8") as f:
                    return rc, json.load(f)

            self.assertEqual(run(self.committed["cluster"]),
                             (0, self.committed))
            broken = copy.deepcopy(self.committed["cluster"])
            broken["failover"]["nodes"] = 1
            self.assertEqual(run(broken), (1, emptied))

    def test_splice_takes_only_the_sections_bench_baseline_leaves_null(self):
        doc = copy.deepcopy(self.committed)
        self.assertEqual(check_bench_json.SPLICED,
                         ["trace_overhead", "cluster", "net",
                          "net_resilience", "audit"])
        self.assertTrue(check_bench_json.splice(doc, "durability", {}))
        self.assertEqual(doc, self.committed)


if __name__ == "__main__":
    unittest.main()
