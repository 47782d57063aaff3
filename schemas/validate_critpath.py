#!/usr/bin/env python3
"""Validate critical-path profiler JSON (stdlib only).

Usage: python3 schemas/validate_critpath.py FILE

Accepts either artifact of the critical-path profiler:

* the CLI's `--critpath-out` export (`"schema": "hetsort-critpath-v1"`):
  blame totals, the what-if ranking and the path segments, with the
  invariants that blame sums to the makespan within 1% and the segments
  tile `[0, makespan]` contiguously;
* the bench binary's `BENCH_critpath.json` (`"bench": "critpath_report"`):
  the same blame/what-if tables plus the what-if headline.
"""

import json
import sys

CATEGORIES = {"cpu", "io-read", "io-write", "queue-wait", "net-transfer",
              "credit-stall", "idle-straggler"}


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_blame(blame, makespan, where):
    if not isinstance(blame, dict) or set(blame) != CATEGORIES:
        fail(f"{where}: blame must map exactly the 7 categories, "
             f"got {sorted(blame) if isinstance(blame, dict) else blame!r}")
    for cat, secs in blame.items():
        if not isinstance(secs, (int, float)) or secs < 0:
            fail(f"{where}: blame[{cat!r}] must be a non-negative number")
    total = sum(blame.values())
    if makespan > 0 and abs(total - makespan) > 0.01 * makespan:
        fail(f"{where}: blame sums to {total:.6f}, not within 1% of the "
             f"makespan {makespan:.6f}")


def check_whatif(rows, makespan):
    if not isinstance(rows, list) or len(rows) != len(CATEGORIES):
        fail(f"whatif must have {len(CATEGORIES)} rows, got "
             f"{len(rows) if isinstance(rows, list) else rows!r}")
    seen = set()
    for row in rows:
        cat = row.get("category")
        if cat not in CATEGORIES:
            fail(f"whatif: unknown category {cat!r}")
        if cat in seen:
            fail(f"whatif: duplicate category {cat!r}")
        seen.add(cat)
        for key in ("path_secs", "estimate_secs", "speedup"):
            if not isinstance(row.get(key), (int, float)) or row[key] < 0:
                fail(f"whatif[{cat}]: {key} must be a non-negative number")
        expected = max(0.0, makespan - row["path_secs"])
        if abs(row["estimate_secs"] - expected) > 1e-6 * max(1.0, makespan):
            fail(f"whatif[{cat}]: estimate {row['estimate_secs']} != "
                 f"makespan - path share {expected}")
    for a, b in zip(rows, rows[1:]):
        if a["path_secs"] < b["path_secs"] - 1e-12:
            fail("whatif rows must be ranked by path share, descending")


def check_export(doc):
    makespan = doc.get("makespan_secs")
    if not isinstance(makespan, (int, float)) or makespan <= 0:
        fail("makespan_secs must be a positive number")
    err = doc.get("blame_sum_rel_err")
    if not isinstance(err, (int, float)) or err > 0.01:
        fail(f"blame_sum_rel_err must be <= 0.01, got {err!r}")
    check_blame(doc.get("blame"), makespan, "path")
    check_whatif(doc.get("whatif"), makespan)

    segments = doc.get("segments")
    if not isinstance(segments, list) or not segments:
        fail("segments must be a non-empty array")
    prev_end = 0.0
    tol = 1e-6 * max(1.0, makespan)
    for i, seg in enumerate(segments):
        for key in ("node", "phase", "start", "end", "blame"):
            if key not in seg:
                fail(f"segment {i}: missing {key!r}")
        if not isinstance(seg["node"], int) or seg["node"] < 0:
            fail(f"segment {i}: node must be a non-negative integer")
        if abs(seg["start"] - prev_end) > tol:
            fail(f"segment {i}: starts at {seg['start']}, previous ended at "
                 f"{prev_end} — segments must tile contiguously")
        dur = seg["end"] - seg["start"]
        if dur < -tol:
            fail(f"segment {i}: negative duration")
        total = sum(seg["blame"].values())
        if set(seg["blame"]) != CATEGORIES:
            fail(f"segment {i}: blame must map exactly the 7 categories")
        if abs(total - dur) > tol:
            fail(f"segment {i}: blame sums to {total}, duration is {dur}")
        prev_end = seg["end"]
    if abs(prev_end - makespan) > tol:
        fail(f"segments end at {prev_end}, makespan is {makespan}")

    print(f"critpath ok: makespan {makespan:.4f}s over {len(segments)} "
          f"segments, blame sum rel err {err:.2e}")


def check_bench(doc):
    makespan = doc.get("makespan_secs")
    if not isinstance(makespan, (int, float)) or makespan <= 0:
        fail("makespan_secs must be a positive number")
    if not isinstance(doc.get("n"), int) or doc["n"] <= 0:
        fail("n must be a positive integer")
    err = doc.get("blame_sum_rel_err")
    if not isinstance(err, (int, float)) or err > 0.01:
        fail(f"blame_sum_rel_err must be <= 0.01, got {err!r}")
    check_blame(doc.get("blame"), makespan, "path")
    check_whatif(doc.get("whatif"), makespan)
    top = doc.get("whatif_top_category")
    if top not in CATEGORIES:
        fail(f"whatif_top_category {top!r} unknown")
    headline = doc.get("whatif_top_speedup")
    if not isinstance(headline, (int, float)) or headline < 1.0:
        fail(f"whatif_top_speedup must be >= 1.0, got {headline!r}")
    ranked = doc["whatif"][0]
    if ranked["category"] != top or abs(ranked["speedup"] - headline) > 1e-3:
        fail(f"headline ({top}, {headline}) disagrees with the top whatif "
             f"row ({ranked['category']}, {ranked['speedup']})")

    print(f"critpath bench ok: n = {doc['n']}, top category {top} "
          f"({headline:.2f}x if free)")


def check(doc):
    if doc.get("schema") == "hetsort-critpath-v1":
        check_export(doc)
    elif doc.get("bench") == "critpath_report":
        check_bench(doc)
    else:
        fail("document is neither a hetsort-critpath-v1 export nor a "
             "critpath_report bench artifact")


def main(path):
    with open(path) as f:
        check(json.load(f))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1])
