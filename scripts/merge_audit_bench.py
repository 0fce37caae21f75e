#!/usr/bin/env python3
"""Merges bench_audit's JSON output into BENCH_baseline.json.

bench_baseline always emits "audit": null -- the audited-vs-unaudited
ingest lanes (plus a scored audit round) are bench_audit's own workload.
This script splices the real numbers in:

    build/bench/bench_audit --json /tmp/audit.json
    scripts/merge_audit_bench.py BENCH_baseline.json /tmp/audit.json

The section file is bench_audit's --json output:

    {"algorithm": ..., "dataset": ..., "n": ..., "reservoir": ...,
     "eps_budget": ...,
     "lanes": {"unaudited": {"ns_per_update": ...},
               "audited": {"ns_per_update": ...}},
     "rounds": ..., "violations": ..., "max_observed_err": ...,
     "round_us": ...}

The merged document must pass check_bench_json.py's schema-v9 audit check
(5% overhead gate, zero violations) before the baseline file is
rewritten; a failing merge leaves it untouched.

Exit code 0 = baseline updated, 1 = any failure (messages on stderr).
"""

import json
import sys

import check_bench_json


def fail(msg):
    print(f"merge_audit_bench: {msg}", file=sys.stderr)
    return 1


def main():
    if len(sys.argv) != 3:
        return fail("usage: merge_audit_bench.py BASELINE.json SECTION.json")
    baseline_path, section_path = sys.argv[1], sys.argv[2]

    try:
        with open(baseline_path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{baseline_path}: {e}")
    try:
        with open(section_path, "r", encoding="utf-8") as f:
            section = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{section_path}: {e}")

    if not isinstance(section, dict) or "lanes" not in section:
        return fail(f"{section_path}: not a bench_audit section file")
    if doc.get("schema_version", 0) < 9:
        return fail(
            f"{baseline_path}: schema_version "
            f"{doc.get('schema_version')!r} predates the audit section; "
            f"regenerate with the current bench_baseline first"
        )
    doc["audit"] = section

    errors = check_bench_json.check_audit(section, baseline_path)
    if errors:
        return fail("merged section failed validation; baseline unchanged")

    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    lanes = section["lanes"]
    print(
        f"merge_audit_bench: {baseline_path} updated "
        f"(unaudited {lanes['unaudited']['ns_per_update']:.2f} ns/update, "
        f"audited {lanes['audited']['ns_per_update']:.2f}, "
        f"{section.get('violations', 0)} violation(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
