#!/usr/bin/env python3
"""Validate any hetsort JSON artifact (stdlib only).

Usage: python3 schemas/validate_bench.py FILE [FILE ...]

One dispatcher for every machine-readable artifact the workspace emits,
replacing the per-file validate_*.py scripts:

* `BENCH_*.json` bench outputs, dispatched on their `"bench"` field
  (pipeline_speedup, kernel_speedup, overlap_speedup, parmerge_speedup,
  planner_speedup, wallclock_speedup, critpath_report, scale);
* `--metrics-out` documents (`"schema": "hetsort-metrics-v1"`);
* `--critpath-out` documents (`"schema": "hetsort-critpath-v1"`),
  delegated to validate_critpath.py;
* the trend baseline registry (`"schema": "hetsort-trend-v1"`);
* Chrome `trace_event` files (`"traceEvents"` array).

Each check enforces the same structural contract and headline claims the
retired standalone validators did; any failure exits 1 naming the file.
"""

import json
import sys

import validate_critpath

PHASES = {"local-sort", "pivots", "partition", "redistribute", "merge",
          "partition+redistribute", "exchange-merge"}


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


# ---------------------------------------------------------------- metrics

REQUIRED_NODE_COUNTERS = ["io.blocks_read", "io.blocks_written",
                          "net.sent_bytes", "io.queue.wait_us"]
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
STREAMED = "exchange-merge"
KINDS = {"phase", "collective", "task"}

# Wall-clock task spans nested inside phases: the pipelined engine's
# per-worker chunk sorts, the range-partitioned merge's per-worker range
# spans, and the extsort stage markers. Bare names (no -N suffix) cover
# worker indices past the static-name tables.
TASK_NAMES = {"chunk-sort", "merge.worker", "extsort.run-formation",
              "extsort.merge-pass", "extsort.kway-merge"}
TASK_PREFIXES = ("chunk-sort-", "merge.worker-")


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
            # The fused path stamps partition+redistribute as one span; the
            # streaming path fuses steps 3-5 into a single exchange-merge.
            if phase in ("partition", "redistribute") and FUSED in names:
                continue
            if phase in ("partition", "redistribute", "merge") \
                    and STREAMED in names:
                continue
            if phase not in names:
                fail(f"node {pid}: phase span {phase!r} missing "
                     f"(has {sorted(names)})")

    print(
        f"trace ok: {len(events)} events, {len(pids)} nodes, "
        f"all five Algorithm 1 phases present per node"
    )


# ---------------------------------------------------------------- benches

def check_overlap(doc):
    MSG_LADDER = [8, 64, 1024, 8192]
    PERFS = {"homogeneous", "1-1-4-4"}
    ROW_KEYS = {
        "perf", "msg_records", "staged_secs", "streamed_secs", "speedup",
        "staged_io_blocks", "streamed_io_blocks", "io_saving_pct",
    }
    if not isinstance(doc.get("n"), int) or doc["n"] <= 0:
        fail("n must be a positive integer")
    if doc.get("msg_ladder") != MSG_LADDER:
        fail(f"msg_ladder must be {MSG_LADDER}, got {doc.get('msg_ladder')!r}")

    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != len(PERFS) * len(MSG_LADDER):
        fail(f"expected {len(PERFS) * len(MSG_LADDER)} rows, got "
             f"{len(rows) if isinstance(rows, list) else rows!r}")

    seen = set()
    for row in rows:
        if set(row) != ROW_KEYS:
            fail(f"row keys {sorted(row)} != expected {sorted(ROW_KEYS)}")
        perf, msg = row["perf"], row["msg_records"]
        if perf not in PERFS:
            fail(f"unknown perf {perf!r}")
        if msg not in MSG_LADDER:
            fail(f"unknown msg_records {msg}")
        if (perf, msg) in seen:
            fail(f"duplicate row ({perf}, {msg})")
        seen.add((perf, msg))
        for key in ("staged_secs", "streamed_secs", "speedup"):
            if not isinstance(row[key], (int, float)) or row[key] <= 0:
                fail(f"({perf}, {msg}): {key} must be positive")
        for key in ("staged_io_blocks", "streamed_io_blocks"):
            if not isinstance(row[key], int) or row[key] <= 0:
                fail(f"({perf}, {msg}): {key} must be a positive integer")
        if row["streamed_io_blocks"] >= row["staged_io_blocks"]:
            fail(f"({perf}, {msg}): streamed must move strictly fewer blocks "
                 f"({row['streamed_io_blocks']} vs {row['staged_io_blocks']})")

    headline = doc.get("speedup_1144_1ki")
    if not isinstance(headline, (int, float)):
        fail("speedup_1144_1ki must be a number")
    if headline <= 1.0:
        fail(f"1-1-4-4 speedup at 1 Ki messages must exceed 1.0, "
             f"got {headline}")
    ref = next(r for r in rows
               if r["perf"] == "1-1-4-4" and r["msg_records"] == 1024)
    if abs(ref["speedup"] - headline) > 1e-3:
        fail(f"speedup_1144_1ki {headline} disagrees with its row "
             f"{ref['speedup']}")

    print(f"overlap ok: {len(rows)} rows, 1-1-4-4 speedup at 1 Ki msgs "
          f"{headline:.2f}x")


def check_parmerge(doc):
    WORKER_LADDER = [1, 2, 4]
    KERNELS = {"comparison", "radix"}
    ROW_KEYS = {
        "kernel", "workers", "virtual_secs", "virtual_secs_scsi",
        "virtual_secs_scsi_shared", "speedup", "probe_random_reads",
        "wall_secs",
    }
    if not isinstance(doc.get("n"), int) or doc["n"] <= 0:
        fail("n must be a positive integer")
    if doc.get("worker_ladder") != WORKER_LADDER:
        fail(f"worker_ladder must be {WORKER_LADDER}, "
             f"got {doc.get('worker_ladder')!r}")
    if not isinstance(doc.get("runs"), int) or doc["runs"] < 2:
        fail("runs must be an integer >= 2")

    rows = doc.get("rows")
    if not isinstance(rows, list) \
            or len(rows) != len(KERNELS) * len(WORKER_LADDER):
        fail(f"expected {len(KERNELS) * len(WORKER_LADDER)} rows, got "
             f"{len(rows) if isinstance(rows, list) else rows!r}")

    seen = set()
    for row in rows:
        if set(row) != ROW_KEYS:
            fail(f"row keys {sorted(row)} != expected {sorted(ROW_KEYS)}")
        kernel, workers = row["kernel"], row["workers"]
        if kernel not in KERNELS:
            fail(f"unknown kernel {kernel!r}")
        if workers not in WORKER_LADDER:
            fail(f"unknown workers {workers}")
        if (kernel, workers) in seen:
            fail(f"duplicate row ({kernel}, {workers})")
        seen.add((kernel, workers))
        for key in ("virtual_secs", "virtual_secs_scsi",
                    "virtual_secs_scsi_shared", "speedup"):
            if not isinstance(row[key], (int, float)) or row[key] <= 0:
                fail(f"({kernel}, {workers}): {key} must be positive")
        # Sharing the disk can only add queueing delay on top of the
        # dedicated SCSI price; a lone stream pays exactly the old price.
        if row["virtual_secs_scsi_shared"] < row["virtual_secs_scsi"] - 1e-9:
            fail(f"({kernel}, {workers}): contention-priced SCSI time "
                 "undercuts the dedicated price")
        if workers == 1 and abs(row["virtual_secs_scsi_shared"]
                                - row["virtual_secs_scsi"]) > 1e-9:
            fail(f"({kernel}, 1): one stream must pay the dedicated price")
        if not isinstance(row["probe_random_reads"], int) \
                or row["probe_random_reads"] < 0:
            fail(f"({kernel}, {workers}): probe_random_reads must be a "
                 "non-negative integer")
        if workers == 1:
            if abs(row["speedup"] - 1.0) > 1e-6:
                fail(f"({kernel}, 1): baseline speedup must be 1.0, "
                     f"got {row['speedup']}")
            if row["probe_random_reads"] != 0:
                fail(f"({kernel}, 1): the sequential row must not probe")
        else:
            if row["probe_random_reads"] == 0:
                fail(f"({kernel}, {workers}): parallel rows must meter "
                     "splitter probes")
            if row["speedup"] <= 1.0:
                fail(f"({kernel}, {workers}): parallel speedup must exceed "
                     f"1.0, got {row['speedup']}")

    headline = doc.get("speedup_4_workers")
    if not isinstance(headline, (int, float)):
        fail("speedup_4_workers must be a number")
    if headline < 2.0:
        fail(f"comparison-kernel speedup at 4 workers must be >= 2.0, "
             f"got {headline}")
    ref = next(r for r in rows
               if r["kernel"] == "comparison" and r["workers"] == 4)
    if abs(ref["speedup"] - headline) > 1e-3:
        fail(f"speedup_4_workers {headline} disagrees with its row "
             f"{ref['speedup']}")

    print(f"parmerge ok: {len(rows)} rows, comparison-kernel speedup at "
          f"4 workers {headline:.2f}x")


def check_planner(doc):
    FIXED_LADDER = [1, 2, 4]
    DEVICES = {"scsi_2000", "nvme_modern"}
    PLANS = {"fixed", "adaptive"}
    ROW_KEYS = {"device", "plan", "workers", "virtual_secs", "speedup",
                "wall_secs"}
    if not isinstance(doc.get("n"), int) or doc["n"] <= 0:
        fail("n must be a positive integer")
    if doc.get("fixed_ladder") != FIXED_LADDER:
        fail(f"fixed_ladder must be {FIXED_LADDER}, "
             f"got {doc.get('fixed_ladder')!r}")
    if doc.get("pricing") != "shared_service_time":
        fail("pricing must be 'shared_service_time' (the contention model)")
    if set(doc.get("devices", [])) != DEVICES:
        fail(f"devices must be {sorted(DEVICES)}, got {doc.get('devices')!r}")

    rows = doc.get("rows")
    expected = len(DEVICES) * (len(FIXED_LADDER) + 1)
    if not isinstance(rows, list) or len(rows) != expected:
        fail(f"expected {expected} rows, got "
             f"{len(rows) if isinstance(rows, list) else rows!r}")

    seen = set()
    times = {}
    for row in rows:
        if set(row) != ROW_KEYS:
            fail(f"row keys {sorted(row)} != expected {sorted(ROW_KEYS)}")
        device, plan, workers = row["device"], row["plan"], row["workers"]
        if device not in DEVICES:
            fail(f"unknown device {device!r}")
        if plan not in PLANS:
            fail(f"unknown plan {plan!r}")
        if plan == "fixed" and workers not in FIXED_LADDER:
            fail(f"fixed workers must be in {FIXED_LADDER}, got {workers}")
        if plan == "adaptive" and not (1 <= workers <= doc["advisory_cap"]):
            fail(f"adaptive workers {workers} outside "
                 f"[1, {doc['advisory_cap']}]")
        key = (device, plan, workers if plan == "fixed" else None)
        if key in seen:
            fail(f"duplicate row {key}")
        seen.add(key)
        for k in ("virtual_secs", "speedup"):
            if not isinstance(row[k], (int, float)) or row[k] <= 0:
                fail(f"{device}/{plan}/{workers}: {k} must be positive")
        times[(device, plan, workers if plan == "fixed" else "ada")] = \
            row["virtual_secs"]

    for device in DEVICES:
        seq = times[(device, "fixed", 1)]
        ada = times[(device, "adaptive", "ada")]
        best = min(times[(device, "fixed", w)] for w in FIXED_LADDER)
        if ada > seq * (1 + 1e-9):
            fail(f"{device}: adaptive plan {ada} worse than sequential {seq}")
        if ada > best * 1.05:
            fail(f"{device}: adaptive plan {ada} more than 5% off the best "
                 f"fixed config {best}")

    vs_best = doc.get("scsi_adaptive_vs_best_fixed")
    if not isinstance(vs_best, (int, float)) or vs_best > 1.05:
        fail(f"scsi_adaptive_vs_best_fixed must be <= 1.05, got {vs_best!r}")
    vs_seq = doc.get("scsi_adaptive_vs_sequential")
    if not isinstance(vs_seq, (int, float)) or vs_seq > 1.0 + 1e-9:
        fail(f"scsi_adaptive_vs_sequential must be <= 1.0, got {vs_seq!r}")
    nvme = doc.get("nvme_adaptive_speedup")
    if not isinstance(nvme, (int, float)) or nvme <= 1.0:
        fail(f"nvme_adaptive_speedup must exceed 1.0, got {nvme!r}")

    print(f"planner ok: {len(rows)} rows, scsi adaptive/best {vs_best:.3f}, "
          f"nvme adaptive speedup {nvme:.2f}x")


def check_wallclock(doc):
    KERNELS = ["radix", "ips4o"]
    CODECS = ["copy", "zerocopy"]
    ROW_KEYS = {"kernel", "codec", "wall_secs", "records_per_sec",
                "mb_per_sec"}
    for key in ("n", "record_bytes", "mem_records", "tapes", "block_bytes",
                "sort_workers", "prefetch_depth"):
        if not isinstance(doc.get(key), int) or doc[key] <= 0:
            fail(f"{key} must be a positive integer")
    ref = doc.get("reference")
    upg = doc.get("upgraded")
    if ref != {"kernel": "radix", "codec": "copy"}:
        fail(f"unexpected reference cell {ref!r}")
    if upg != {"kernel": "ips4o", "codec": "zerocopy"}:
        fail(f"unexpected upgraded cell {upg!r}")

    rows = doc.get("rows")
    expected = 1 + len(KERNELS) * len(CODECS)
    if not isinstance(rows, list) or len(rows) != expected:
        fail(f"expected {expected} rows (baseline + grid), got "
             f"{len(rows) if isinstance(rows, list) else rows!r}")

    baseline = rows[0]
    if baseline.get("kernel") != "std_slice_sort":
        fail("first row must be the std_slice_sort baseline")
    if baseline.get("codec") is not None:
        fail("baseline row must have a null codec")

    seen = set()
    for row in rows:
        if set(row) != ROW_KEYS:
            fail(f"row keys {sorted(row)} != expected {sorted(ROW_KEYS)}")
        for key in ("wall_secs", "records_per_sec", "mb_per_sec"):
            if not isinstance(row[key], (int, float)) or row[key] <= 0:
                fail(f"{row['kernel']}: {key} must be positive")
        if row["kernel"] == "std_slice_sort":
            continue
        cell = (row["kernel"], row["codec"])
        if row["kernel"] not in KERNELS or row["codec"] not in CODECS:
            fail(f"unknown grid cell {cell}")
        if cell in seen:
            fail(f"duplicate grid cell {cell}")
        seen.add(cell)
    if len(seen) != expected - 1:
        fail(f"grid incomplete: {len(seen)} of {expected - 1} cells")

    # The headline is a recorded measurement, not a claim: it must agree
    # with its rows, but no minimum is asserted.
    headline = doc.get("speedup_upgraded")
    if not isinstance(headline, (int, float)) or headline <= 0:
        fail(f"speedup_upgraded must be positive, got {headline!r}")
    ref_row = next(r for r in rows
                   if (r["kernel"], r["codec"]) == ("radix", "copy"))
    upg_row = next(r for r in rows
                   if (r["kernel"], r["codec"]) == ("ips4o", "zerocopy"))
    derived = ref_row["wall_secs"] / upg_row["wall_secs"]
    if abs(derived - headline) > 0.01 * max(derived, headline):
        fail(f"speedup_upgraded {headline} disagrees with its rows "
             f"{derived:.4f}")

    print(f"wallclock ok (n={doc['n']}): {len(rows)} rows, upgraded speedup "
          f"{headline:.2f}x")


def check_kernels(doc):
    for key in ("n", "mem_records", "tapes", "block_bytes",
                "cpu_model", "disk_model", "speedup_uniform", "rows"):
        if key not in doc:
            fail(f"missing top-level key {key!r}")
    if not doc["rows"]:
        fail("rows must be non-empty")
    for row in doc["rows"]:
        for key in ("workload", "kernel", "comparisons", "key_ops",
                    "cpu_secs", "io_secs", "virtual_secs", "speedup"):
            if key not in row:
                fail(f"missing row key {key!r}")
        if row["kernel"] not in ("comparison", "radix"):
            fail(f"unknown kernel {row['kernel']!r}")
    if doc["speedup_uniform"] < 1.5:
        fail(f"speedup_uniform must be >= 1.5, got {doc['speedup_uniform']}")
    print(f"kernels ok: {len(doc['rows'])} rows, "
          f"uniform speedup {doc['speedup_uniform']}x")


def check_pipeline(doc):
    if not isinstance(doc.get("n"), int) or doc["n"] <= 0:
        fail("n must be a positive integer")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail("rows must be a non-empty array")
    for row in rows:
        for key in ("mode", "workers", "virtual_secs", "speedup"):
            if key not in row:
                fail(f"missing row key {key!r}")
        if not isinstance(row["virtual_secs"], (int, float)) \
                or row["virtual_secs"] <= 0:
            fail(f"{row['mode']}: virtual_secs must be positive")
    headline = doc.get("speedup_4_workers")
    if not isinstance(headline, (int, float)) or headline <= 1.0:
        fail(f"speedup_4_workers must exceed 1.0, got {headline!r}")
    print(f"pipeline ok: {len(rows)} rows, 4-worker speedup {headline:.2f}x")


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
            want = BASE_KEYS | {"splitter"} | SHARE_KEYS
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
          f"{grouped256['splitter_share']:.3f} ({speedup:.2f}x makespan)")


def check_trend(doc):
    baselines = doc.get("baselines")
    if not isinstance(baselines, list) or not baselines:
        fail("baselines must be a non-empty array")
    seen = set()
    for b in baselines:
        for key in ("bench", "n", "key", "value"):
            if key not in b:
                fail(f"baseline entry missing {key!r}")
        if not isinstance(b["value"], (int, float)) or b["value"] <= 0:
            fail(f"{b['bench']}: baseline value must be positive")
        triple = (b["bench"], b["n"], b["key"])
        if triple in seen:
            fail(f"duplicate baseline {triple}")
        seen.add(triple)
    print(f"trend ok: {len(baselines)} baselines")


# --------------------------------------------------------------- dispatch

BENCH_CHECKS = {
    "overlap_speedup": check_overlap,
    "parmerge_speedup": check_parmerge,
    "planner_speedup": check_planner,
    "wallclock_speedup": check_wallclock,
    "kernel_speedup": check_kernels,
    "pipeline_speedup": check_pipeline,
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
    elif schema == "hetsort-trend-v1":
        check_trend(doc)
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
