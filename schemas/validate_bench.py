#!/usr/bin/env python3
"""Validate any hetsort JSON artifact (stdlib only).

Usage: python3 schemas/validate_bench.py FILE [FILE ...]

One dispatcher for every machine-readable artifact the workspace emits,
replacing the per-file validate_*.py scripts:

* `BENCH_*.json` bench outputs, dispatched on their `"bench"` field
  (critpath_report, scale);
* `--metrics-out` documents (`"schema": "hetsort-metrics-v1"`);
* `--critpath-out` documents (`"schema": "hetsort-critpath-v1"`),
  delegated to validate_critpath.py;
* Chrome `trace_event` files (`"traceEvents"` array).

Each check enforces the same structural contract and headline claims the
retired standalone validators did; any failure exits 1 naming the file.
"""

import json
import sys

import validate_critpath

PHASES = {"local-sort", "pivots", "partition", "redistribute", "merge",
          "partition+redistribute"}


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


# ---------------------------------------------------------------- metrics

REQUIRED_NODE_COUNTERS = ["io.blocks_read", "io.blocks_written",
                          "net.sent_bytes"]
REQUIRED_CLUSTER_GAUGES = ["skew.expansion", "skew.bound", "skew.within_bound"]


def check_metric_registry(m, where):
    if not isinstance(m, dict):
        fail(f"{where}: metrics must be an object")
    for section in ("counters", "gauges", "histograms"):
        if section not in m or not isinstance(m[section], dict):
            fail(f"{where}: missing {section!r} object")
    for name, v in m["counters"].items():
        if not isinstance(v, int) or v < 0:
            fail(f"{where}: counter {name!r} must be a non-negative integer")
    for name, v in m["gauges"].items():
        if not isinstance(v, (int, float)):
            fail(f"{where}: gauge {name!r} must be a number")
    for name, h in m["histograms"].items():
        if not isinstance(h, dict):
            fail(f"{where}: histogram {name!r} must be an object")
        for key in ("count", "sum", "min", "max", "mean", "buckets"):
            if key not in h:
                fail(f"{where}: histogram {name!r} missing {key!r}")
        total = 0
        for b in h["buckets"]:
            if "le" not in b or "count" not in b:
                fail(f"{where}: histogram {name!r} bucket missing le/count")
            # Power-of-two upper bounds: le is 2^k - 1.
            le = b["le"]
            if not isinstance(le, int) or (le & (le + 1)) != 0:
                fail(f"{where}: histogram {name!r} bucket le {le} is not 2^k-1")
            total += b["count"]
        if total != h["count"]:
            fail(f"{where}: histogram {name!r} bucket counts {total} != "
                 f"count {h['count']}")
    for section in ("counters", "gauges", "histograms"):
        for name in m[section]:
            if "." not in name:
                fail(f"{where}: metric {name!r} lacks a dotted subsystem prefix")


def check_metrics(doc):
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        fail("nodes must be a non-empty array")
    for node in nodes:
        rank = node.get("node")
        if not isinstance(rank, int):
            fail("node entry missing integer 'node' rank")
        where = f"node {rank}"
        if not isinstance(node.get("label"), str):
            fail(f"{where}: missing string label")
        phases = node.get("phases")
        if not isinstance(phases, list) or not phases:
            fail(f"{where}: phases must be a non-empty array")
        for p in phases:
            if p.get("name") not in PHASES:
                fail(f"{where}: unknown phase {p.get('name')!r}")
            for key in ("virt_secs", "wall_secs"):
                if not isinstance(p.get(key), (int, float)) or p[key] < 0:
                    fail(f"{where}: phase {p['name']!r} bad {key}")
        check_metric_registry(node.get("metrics"), where)
        for name in REQUIRED_NODE_COUNTERS:
            if name not in node["metrics"]["counters"]:
                fail(f"{where}: required counter {name!r} missing")
    cluster = doc.get("cluster")
    check_metric_registry(cluster, "cluster")
    for name in REQUIRED_CLUSTER_GAUGES:
        if name not in cluster["gauges"]:
            fail(f"cluster: required skew gauge {name!r} missing")

    print(
        f"metrics ok: {len(nodes)} nodes, skew expansion "
        f"{cluster['gauges']['skew.expansion']:.4f} "
        f"(bound {cluster['gauges']['skew.bound']:.4f})"
    )


# ------------------------------------------------------------------ trace

ALG1_PHASES = ["local-sort", "pivots", "partition", "redistribute", "merge"]
FUSED = "partition+redistribute"
KINDS = {"phase", "collective", "task"}

# Wall-clock task spans nested inside phases: the pipelined engine's
# per-worker chunk sorts and the extsort stage markers. The bare name (no
# -N suffix) covers worker indices past the static-name table.
TASK_NAMES = {"chunk-sort", "extsort.run-formation",
              "extsort.merge-pass", "extsort.kway-merge"}
TASK_PREFIXES = ("chunk-sort-",)


def task_name_ok(name):
    if name in TASK_NAMES:
        return True
    for prefix in TASK_PREFIXES:
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return True
    return False


def check_trace(doc):
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents must be a non-empty array")

    pids = set()
    phase_names = {}  # pid -> set of phase span names
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            fail(f"event {i}: unexpected ph {ph!r}")
        if not isinstance(ev.get("pid"), int):
            fail(f"event {i}: pid must be an integer node rank")
        pids.add(ev["pid"])
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                fail(f"event {i}: unknown metadata {ev.get('name')!r}")
            continue
        # "X" complete event.
        for key in ("name", "cat", "tid", "ts", "dur"):
            if key not in ev:
                fail(f"event {i}: X event missing {key!r}")
        if ev["cat"] not in KINDS:
            fail(f"event {i}: unknown span kind {ev['cat']!r}")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            fail(f"event {i}: ts must be a non-negative number (µs)")
        if not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0:
            fail(f"event {i}: dur must be a non-negative number (µs)")
        if ev["cat"] == "task" and not task_name_ok(ev["name"]):
            fail(f"event {i}: unknown task span name {ev['name']!r}")
        if ev["cat"] == "phase":
            phase_names.setdefault(ev["pid"], set()).add(ev["name"])

    if not pids:
        fail("no events")
    for pid in sorted(pids):
        names = phase_names.get(pid, set())
        for phase in ALG1_PHASES:
            # The fused path stamps partition+redistribute as one span.
            if phase in ("partition", "redistribute") and FUSED in names:
                continue
            if phase not in names:
                fail(f"node {pid}: phase span {phase!r} missing "
                     f"(has {sorted(names)})")

    print(
        f"trace ok: {len(events)} events, {len(pids)} nodes, "
        f"all five Algorithm 1 phases present per node"
    )


# ---------------------------------------------------------------- benches

def check_scale(doc):
    P_LADDER = [4, 16, 64, 256, 1024]
    RUNTIMES = {"threads", "events"}
    WORKLOADS = {"ring", "psrs"}
    SPLITTERS = {"flat", "grouped"}
    BASE_KEYS = {"workload", "p", "runtime", "size", "makespan_sim_secs",
                 "wall_secs", "sim_per_wall"}
    SHARE_KEYS = {"splitter_share", "alltoall_share"}
    SPLIT_KEYS = {"split_sample_gather_secs", "split_leader_sort_secs",
                  "split_boundary_exchange_secs"}
    HEADLINE_GATE = 10.0
    EXPANSION_CEIL = 2.0
    FLAT_SHARE_FLOOR = 0.60
    GROUPED_SHARE_CEIL = 0.25
    if doc.get("p_ladder") != P_LADDER:
        fail(f"p_ladder must be {P_LADDER}, got {doc.get('p_ladder')!r}")
    threads_max = doc.get("threads_max_p")
    if threads_max not in P_LADDER:
        fail(f"threads_max_p must be on the ladder, got {threads_max!r}")
    flat_max = doc.get("flat_max_p")
    if flat_max not in P_LADDER:
        fail(f"flat_max_p must be on the ladder, got {flat_max!r}")
    headline_p = doc.get("headline_p")
    if headline_p not in P_LADDER or headline_p > threads_max:
        fail(f"headline_p {headline_p!r} must be a ladder width both "
             "runtimes cover")
    if not isinstance(doc.get("ring_rounds"), int) or doc["ring_rounds"] <= 0:
        fail("ring_rounds must be a positive integer")
    if not isinstance(doc.get("n"), int) or doc["n"] <= 0:
        fail("n must be a positive integer")

    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail("rows must be a non-empty array")
    seen = {}
    for row in rows:
        workload, p, runtime = row.get("workload"), row.get("p"), \
            row.get("runtime")
        if workload not in WORKLOADS:
            fail(f"unknown workload {workload!r}")
        if p not in P_LADDER:
            fail(f"unknown p {p!r}")
        if runtime not in RUNTIMES:
            fail(f"unknown runtime {runtime!r}")
        splitter = row.get("splitter")
        if workload == "psrs":
            if splitter not in SPLITTERS:
                fail(f"(psrs, {p}, {runtime}): splitter must be one of "
                     f"{sorted(SPLITTERS)}, got {splitter!r}")
            want = BASE_KEYS | {"splitter", "sublist_expansion"} | SHARE_KEYS
            if splitter == "grouped":
                want = want | SPLIT_KEYS
        else:
            if splitter is not None:
                fail(f"(ring, {p}, {runtime}): ring rows carry no splitter")
            want = BASE_KEYS
        if set(row) != want:
            fail(f"({workload}, {p}, {runtime}): row keys {sorted(row)} != "
                 f"expected {sorted(want)}")
        if runtime == "threads" and p > threads_max:
            fail(f"({workload}, {p}): thread runtime swept past "
                 f"threads_max_p {threads_max}")
        if splitter == "flat" and p > flat_max:
            fail(f"(psrs, {p}): flat splitter swept past flat_max_p "
                 f"{flat_max}")
        key = (workload, p, runtime, splitter)
        if key in seen:
            fail(f"duplicate row {key}")
        seen[key] = row
        for k in ("makespan_sim_secs", "wall_secs", "sim_per_wall"):
            if not isinstance(row[k], (int, float)) or row[k] <= 0:
                fail(f"({workload}, {p}, {runtime}): {k} must be positive")
        if not isinstance(row["size"], int) or row["size"] <= 0:
            fail(f"({workload}, {p}, {runtime}): size must be a positive "
                 "integer")
        if workload == "psrs":
            for k in SHARE_KEYS:
                if not isinstance(row[k], (int, float)) \
                        or not 0.0 <= row[k] <= 1.0:
                    fail(f"(psrs, {p}, {runtime}): {k} must be in [0, 1]")
            s_max = row["sublist_expansion"]
            if not isinstance(s_max, (int, float)) or s_max < 1.0:
                fail(f"(psrs, {p}, {runtime}): sublist_expansion must be "
                     f">= 1, got {s_max!r}")
        if splitter == "grouped":
            for k in SPLIT_KEYS:
                if not isinstance(row[k], (int, float)) or row[k] < 0.0:
                    fail(f"(psrs, {p}, {runtime}): {k} must be >= 0")

    for p in P_LADDER:
        if ("ring", p, "events", None) not in seen:
            fail(f"event runtime must cover p={p} on 'ring' "
                 "(the full ladder including 1024)")
        if ("psrs", p, "events", "grouped") not in seen:
            fail(f"grouped splitter must cover p={p} on 'psrs' "
                 "(the full ladder including 1024)")
        if p <= flat_max and ("psrs", p, "events", "flat") not in seen:
            fail(f"flat splitter must cover p={p} on 'psrs' up to "
                 f"flat_max_p {flat_max}")
        variants = [("ring", None)] if p > threads_max else \
            [("ring", None), ("psrs", "flat"), ("psrs", "grouped")]
        for workload, splitter in variants:
            if p > threads_max:
                continue
            if (workload, p, "threads", splitter) not in seen:
                fail(f"thread runtime must cover p={p} on {workload!r} "
                     f"(splitter {splitter!r})")
            # Blocking exchanges only: both schedulers simulate the exact
            # same virtual run, so the makespans must agree exactly.
            t = seen[(workload, p, "threads", splitter)]["makespan_sim_secs"]
            e = seen[(workload, p, "events", splitter)]["makespan_sim_secs"]
            if t != e:
                fail(f"({workload}, {p}, {splitter}): simulated makespan "
                     f"differs across runtimes ({t} vs {e})")

    headline = doc.get("events_vs_threads_p64")
    if not isinstance(headline, (int, float)):
        fail("events_vs_threads_p64 must be a number")
    derived = seen[("ring", headline_p, "events", None)]["sim_per_wall"] \
        / seen[("ring", headline_p, "threads", None)]["sim_per_wall"]
    if abs(derived - headline) > 0.02 * max(derived, headline):
        fail(f"events_vs_threads_p64 {headline} disagrees with its ring "
             f"rows {derived:.4f}")
    if headline < HEADLINE_GATE:
        fail(f"event runtime must clear {HEADLINE_GATE}x the thread "
             f"runtime's throughput at p={headline_p}, got {headline}")

    flat256 = seen[("psrs", 256, "events", "flat")]
    grouped256 = seen[("psrs", 256, "events", "grouped")]
    if flat256["splitter_share"] < FLAT_SHARE_FLOOR:
        fail(f"flat splitter share at p=256 should exhibit the O(p^2) "
             f"bottleneck (>= {FLAT_SHARE_FLOOR}), got "
             f"{flat256['splitter_share']}")
    if grouped256["splitter_share"] >= GROUPED_SHARE_CEIL:
        fail(f"grouped splitter share at p=256 must stay < "
             f"{GROUPED_SHARE_CEIL}, got {grouped256['splitter_share']}")
    for row in (flat256, grouped256):
        if row["sublist_expansion"] > EXPANSION_CEIL:
            fail(f"{row['splitter']} splitter at p=256: sublist expansion "
                 f"{row['sublist_expansion']} breaks the {EXPANSION_CEIL}x "
                 "bound")
    speedup = doc.get("grouped_speedup_p256")
    if not isinstance(speedup, (int, float)):
        fail("grouped_speedup_p256 must be a number")
    derived = flat256["makespan_sim_secs"] / grouped256["makespan_sim_secs"]
    if abs(derived - speedup) > 0.02 * max(derived, speedup):
        fail(f"grouped_speedup_p256 {speedup} disagrees with its psrs "
             f"rows {derived:.4f}")
    if speedup <= 1.0:
        fail(f"grouped splitter must beat flat at p=256, got {speedup}x")

    print(f"scale ok: {len(rows)} rows, events/threads at p={headline_p} "
          f"{headline:.1f}x, p=256 splitter share flat "
          f"{flat256['splitter_share']:.3f} -> grouped "
          f"{grouped256['splitter_share']:.3f} ({speedup:.2f}x makespan), "
          f"S(max) flat {flat256['sublist_expansion']:.3f} grouped "
          f"{grouped256['sublist_expansion']:.3f}")


# --------------------------------------------------------------- dispatch

BENCH_CHECKS = {
    "critpath_report": validate_critpath.check_bench,
    "scale": check_scale,
}


def dispatch(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    print(f"{path}: ", end="")
    schema = doc.get("schema")
    if schema == "hetsort-metrics-v1":
        check_metrics(doc)
    elif schema == "hetsort-critpath-v1":
        validate_critpath.check_export(doc)
    elif "traceEvents" in doc:
        check_trace(doc)
    elif doc.get("bench") in BENCH_CHECKS:
        BENCH_CHECKS[doc["bench"]](doc)
    else:
        fail(f"{path}: unrecognized document (schema {schema!r}, "
             f"bench {doc.get('bench')!r})")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for p in sys.argv[1:]:
        dispatch(p)
