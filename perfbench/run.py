#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of the ppsi library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
perfbench/ (which compiles the library from the checkout's sources) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed.

--trace 0 runs the workload untraced in a few separate processes (parts),
each set up from scratch and timed for an equal share of S seconds, and
reports each end-to-end metric as the median over the parts; setup_s is the
median over SETUP_SAMPLES fresh processes. --trace 1 runs one traced process: the same load, then a layer by
layer replay of a sample of the queries, and reports the per-layer metrics.
Every answer is checked; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # every process of one run together
# Set-up samples per untraced run: the measuring parts plus set-up-only
# processes. Set-up includes the OMP warm-up, whose cost is bimodal per
# process, so setup_s takes the median of this many fresh processes.
SETUP_SAMPLES = 16

# Per workload: the tail percentile reported (lowered by stats.tail_level
# when the run has too few samples for it) and the number of processes an
# untraced run is split into. Each process is set up from scratch, and every
# end-to-end metric is the median over the processes, so one process that
# lands in the runtime's slow per-process state cannot move it.
# connectivity runs one process: its queries take seconds, which the slow
# state's 30-100 ms floor barely moves, and whole rotations of seven graphs
# need the whole run.
WORKLOADS = {
    "serve_warm": (90.0, 4),
    "cold_decide": (90.0, 4),
    "edit_stream": (90.0, 4),
    "connectivity": (50.0, 1),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the workload program; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "api" / "solver.hpp"
    ).is_file():
        fail(f"no ppsi sources under {ROOT}; run from a full source checkout")
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out / "ppsi_perfbench"


def workload_env():
    """OMP at the core count with the runtime's own wait and nesting
    defaults: overriding OMP_WAIT_POLICY or OMP_MAX_ACTIVE_LEVELS would mask
    the nested-team behaviour the serving workloads are meant to expose."""
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    for name in ("OMP_WAIT_POLICY", "OMP_MAX_ACTIVE_LEVELS", "GOMP_SPINCOUNT"):
        env.pop(name, None)
    return env


def run_parts(binary, args):
    """Runs the workload's processes one after another. Returns the
    measuring parts' records and the set-up times of every process."""
    parts = 1 if args.trace else WORKLOADS[args.workload][1]
    seconds = args.seconds if args.trace else args.seconds / parts
    processes = parts if args.trace else max(parts, SETUP_SAMPLES)
    started = time.monotonic()
    records = []
    setups = []
    for part in range(processes):
        left = DEADLINE_S - (time.monotonic() - started)
        command = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", repr(seconds),
                   "--part", str(part)]
        if args.trace:
            command.append("--trace")
        elif part >= parts:
            command.append("--setup-only")
        try:
            done = subprocess.run(command, env=workload_env(),
                                  capture_output=True, text=True,
                                  timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            fail(f"part {part} did not finish within {DEADLINE_S:.0f} s")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            fail(f"part {part} exited with code {done.returncode}")
        record = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(record["setup_s"])
        if part < parts:
            records.append(record)
    return records, setups


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, records, setups):
    if any(not r["query_ms"] for r in records):
        fail("a part completed no query")
    # The level follows the run's whole sample count, so every part of a
    # run reports the same percentile.
    total = sum(len(r["query_ms"]) for r in records)
    level = stats.tail_level(total, WORKLOADS[workload][0]) or 50.0

    def across_parts(value):
        return statistics.median(value(r) for r in records)

    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "query_p50_ms": metric(
            across_parts(lambda r: stats.percentile(r["query_ms"], 50.0)),
            "ms"),
        "query_tail_ms": metric(
            across_parts(lambda r: stats.percentile(r["query_ms"], level)),
            "ms"),
        "queries_per_s": metric(
            across_parts(lambda r: len(r["query_ms"]) / r["measured_s"]),
            "1/s"),
    }
    report = [f"query_tail_ms is p{level:g}; samples per part: "
              + ", ".join(str(len(r["query_ms"])) for r in records),
              "setup_s samples: " + ", ".join(f"{t:.3f}" for t in setups),
              f"peak_rss_mb {across_parts(lambda r: r['peak_rss_mb']):.1f} MB "
              "(median over parts; not gated, see README)"]
    for r in records:
        report.append(
            f"part {r['part']}: setup {r['setup_s']:.3f} s, "
            f"{len(r['query_ms'])} queries in {r['measured_s']:.2f} s, "
            f"p50 {stats.percentile(r['query_ms'], 50.0):.3f} ms, "
            f"p{level:g} {stats.percentile(r['query_ms'], level):.3f} ms, "
            f"peak RSS {r['peak_rss_mb']:.1f} MB")
    queries = [ms for r in records for ms in r["query_ms"]]
    pooled = stats.tail_level(len(queries))
    if pooled is not None:
        report.append(f"pooled query_p{pooled:g}_ms "
                      f"{stats.percentile(queries, pooled):.4f} ms "
                      f"({len(queries)} samples)")
    interactive = [ms for r in records for ms in r["interactive_ms"]]
    if interactive:
        ilevel = stats.tail_level(len(interactive)) or 50.0
        report.append(f"interactive_p{ilevel:g}_ms "
                      f"{stats.percentile(interactive, ilevel):.4f} ms "
                      f"({len(interactive)} samples)")
    edits = [ms for r in records for ms in r["edit_ms"]]
    if edits:
        report.append(f"edit_p50_ms {stats.percentile(edits, 50.0):.4f} ms "
                      f"({len(edits)} samples)")
    return metrics, report


def per_layer(record):
    layer = record["layer"]
    traced = max(record["traced_queries"], 1)
    spans = record["spans"]
    self_ns = stats.self_times(spans)
    root_ms = sum(s[4] - s[3] for s in spans if s[1] == "query") / 1e6

    def self_ms(name):
        return self_ns.get(name, 0) / 1e6

    def per_query(name):
        return layer.get(name, 0.0) / traced

    service_ms = per_query("solver_nt_ms")
    wait_ms = stats.littles_law_wait_ms(layer.get("pool_depth_mean", 0.0),
                                        layer.get("pool_completed", 0.0),
                                        record["measured_s"])
    commits = max(layer.get("commits", 0.0), 1.0)
    apply_ms = layer.get("apply_ms", 0.0)
    edit_ms = apply_ms + layer.get("find_ms", 0.0)
    dp_work = layer.get("dp_work", 0.0)
    solved = layer.get("slices_solved", 0.0)
    metrics = {
        "support.speedup_vs_1t": metric(
            layer["solver_1t_ms"] / layer["solver_nt_ms"], "ratio"),
        "support.peak_rss_mb": metric(record["peak_rss_mb"], "MB"),
        "support.runtime_gap_ms": metric(
            (layer["solver_nt_ms"] - root_ms) / traced, "ms"),
        "api.pool.queue_depth_mean": metric(
            layer.get("pool_depth_mean", 0.0), "count"),
        "api.pool.wait_share": metric(
            100.0 * wait_ms / (wait_ms + service_ms), "%"),
        "api.pool.service_ms": metric(service_ms, "ms"),
        "api.pool.park_events": metric(
            layer.get("pool_park_events", 0.0), "count"),
        "api.cache.cover_hit_ratio": metric(layer["cover_hit_ratio"], "ratio"),
        "cover.build_ms": metric(self_ms("cover") / traced, "ms"),
        "cover.builds": metric(per_query("cover_builds"), "count"),
        "cover.slices": metric(per_query("cover_slices"), "count"),
        "treedecomp.ms": metric(self_ms("treedecomp") / traced, "ms"),
        "treedecomp.decompositions": metric(
            per_query("decompositions"), "count"),
        "treedecomp.width_max": metric(layer["width_max"], "count"),
        "iso.dp_ms": metric(self_ms("iso.dp") / traced, "ms"),
        "iso.dp_work": metric(dp_work / traced, "count"),
        "iso.ns_per_work": metric(
            self_ns.get("iso.dp", 0) / dp_work if dp_work else 0.0, "ns"),
        "iso.slices_solved": metric(solved / traced, "count"),
        "iso.accept_ratio": metric(
            layer.get("slices_accepting", 0.0) / solved if solved else 0.0,
            "ratio"),
        "iso.states": metric(per_query("states"), "count"),
        "iso.recover_ms": metric(self_ms("iso.recover") / traced, "ms"),
        "planar.fvg_share": metric(
            100.0 * self_ms("planar.fvg") / root_ms if root_ms else 0.0, "%"),
        "connectivity.probes": metric(per_query("probes"), "count"),
        "connectivity.cycle_runs": metric(per_query("cycle_runs"), "count"),
        "dynamic.apply_share": metric(
            100.0 * apply_ms / edit_ms if edit_ms else 0.0, "%"),
        "dynamic.slices_rebuilt": metric(
            layer.get("slices_rebuilt", 0.0) / commits, "count"),
        "dynamic.slices_reused": metric(
            layer.get("slices_reused", 0.0) / commits, "count"),
    }
    report = [
        f"traced queries: {record['traced_queries']}, replay work "
        f"mismatches: {int(layer['replay_mismatches'])}",
        f"api.pool.wait_ms {wait_ms:.4f} ms (Little's law)",
        f"planar.fvg_ms {self_ms('planar.fvg') / traced:.4f} ms",
        f"dynamic.apply_ms {apply_ms / commits:.4f} ms",
    ]
    return metrics, report


def write_trace(args, record):
    """Writes the traced run's spans next to the build, for inspection."""
    path = build_dir() / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fields": ["query", "name", "parent",
                                           "start_ns", "end_ns"],
                                "spans": record["spans"]}))
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    records, setups = run_parts(binary, args)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for r in records:
        for why in r["failures"]:
            print(f"FAILED part {r['part']}: {why}")
    if args.trace:
        metrics, report = per_layer(records[0])
        report.append(f"spans written to {write_trace(args, records[0])}")
    else:
        metrics, report = end_to_end(args.workload, records, setups)
    report.append(f"failed_ratio {failed / max(attempted, 1):.6f} "
                  f"({failed} of {attempted} checks)")
    print(f"perfbench {args.workload} seed={args.seed} "
          f"threads={records[0]['threads']} parts={len(records)}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for line in report:
        print(f"  {line}")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
