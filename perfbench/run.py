#!/usr/bin/env python3
"""The repository benchmark: builds the load generator, runs one workload,
prints every metric by name with its unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog_mixed --seed 1 \
        --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(README.md next to this file lists both). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The load
generator is built with CMake into $CARGO_TARGET_DIR (default .bench_build)
under the current directory, and all scratch files stay there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalog_mixed", "sharded_selective", "ingest_mixed")
# The load generator must finish inside the benchmark's 180 s budget.
LOADGEN_TIMEOUT_S = 170
# Strategies the planner may choose at quality_target 1.0 (the safe ones);
# anything else lands in optimizer.chosen_share.other.
SAFE_STRATEGIES = (
    "full_sort", "heap", "fagin_fa", "fagin_ta", "fagin_nra",
    "stop_after_cons", "stop_after_aggr", "probabilistic",
    "quality_switch_full", "maxscore",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "search_qps": "1/s",
    "search_p50_ms": "ms",
    "search_p99_ms": "ms",
    "write_amp": "ratio",
    "space_amp": "ratio",
    "peak_rss_mb": "MiB",
}


def per_layer_units():
    units = {
        "engine.search_ms": "ms",
        "engine.unattributed_share": "ratio",
        "engine.nested_span_queries": "count",
        "engine.shard.scatter_ms": "ms",
        "engine.shard.gather_ms": "ms",
        "engine.shard.skip_ratio": "ratio",
        "engine.shard.postings_skipped_per_query": "count",
        "optimizer.plan_ms": "ms",
        "optimizer.plan_error_ratio": "ratio",
    }
    for name in SAFE_STRATEGIES + ("other",):
        units["optimizer.chosen_share." + name] = "ratio"
    units.update({
        "topn.cursor_open_ms": "ms",
        "topn.accumulate_ms": "ms",
        "topn.heap_merge_ms": "ms",
        "topn.score_evals_per_query": "count",
        "topn.seq_reads_per_query": "count",
        "topn.random_reads_per_query": "count",
        "topn.compares_per_query": "count",
        "topn.results_per_score_eval": "ratio",
        "segment.blocks_decoded_per_query": "count",
        "segment.cursor_open_blocks_per_query": "count",
        "segment.block_skip_ratio": "ratio",
        "segment.cursor_open_us": "us",
        "segment.scan_ns_per_posting": "ns",
        "segment.advance_ns_per_call": "ns",
        "segment.shallow_advance_ns_per_call": "ns",
        "segment.scan_blocks_decoded": "count",
        "segment.advance_blocks_decoded": "count",
        "segment.shallow_advance_blocks_decoded": "count",
        "catalog.snapshot_us": "us",
        "catalog.write_docs_per_s": "1/s",
        "catalog.write_p50_ms": "ms",
        "catalog.write_p99_ms": "ms",
        "catalog.commit_ms": "ms",
        "catalog.wal.group_docs": "count",
        "catalog.wal.fsyncs_per_doc": "ratio",
        "catalog.wal.bytes_per_doc": "bytes",
        "catalog.flush_count": "count",
        "catalog.merge_count": "count",
        "catalog.flush_ms": "ms",
        "catalog.merge_ms": "ms",
        "catalog.maintenance_busy_share": "ratio",
        "catalog.bytes_written_per_doc": "bytes",
        "catalog.segments_mean": "count",
        "catalog.backpressure_waits": "count",
        "storage.sparse_cache_hit_ratio": "ratio",
        "obs.trace_overhead_share": "ratio",
    })
    return units


PER_LAYER_UNITS = per_layer_units()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then (re)builds the load generator; CMake output goes
    to stderr so the result stays the last line of stdout."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_loadgen",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench_loadgen"


def ratio(num, den):
    return num / den if den else 0.0


class Registry:
    """Before/after delta view of two MetricsRegistry JSON renders."""

    def __init__(self, before, after):
        self.before, self.after = before, after

    @staticmethod
    def _sum(render, kind, name, field):
        return sum(m[field] for m in render[kind] if m["name"] == name)

    def counter(self, name):
        return (self._sum(self.after, "counters", name, "value")
                - self._sum(self.before, "counters", name, "value"))

    def histogram(self, name, field):
        return (self._sum(self.after, "histograms", name, field)
                - self._sum(self.before, "histograms", name, field))


def window_median(section, field):
    """Median over the load generator's equal sub-windows of one phase."""
    return statistics.median(w[field] for w in section["windows"])


def end_to_end(raw):
    search, writer, space = raw["search"], raw["writer"], raw["space"]
    lat = search["latency_ms"]
    reg = Registry(writer["registry_before"], writer["registry_after"])
    written = (reg.counter("moa_wal_appended_bytes_total")
               + reg.counter("moa_catalog_bytes_written_total"))
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "search_qps": window_median(search, "rate"),
        "search_p50_ms": window_median(search, "p50"),
        "search_p99_ms": window_median(search, "p99"),
        "write_amp": ratio(written, writer["user_bytes"]),
        "space_amp": ratio(space["dir_bytes"], space["live_user_bytes"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    samples = {
        "setup_s": len(raw["setup_s"]),
        "search_p50_ms": lat["count"], "search_p99_ms": lat["count"],
    }
    return values, samples


def per_layer(raw):
    search, trace, writer = raw["search"], raw["trace"], raw["writer"]
    cost, n = search["cost"], search["completed"]
    traced = trace["traced"]
    stage = trace["stage_ms"]
    cp, pp = raw["cursor_probe"], raw["plan_probe"]
    wreg = Registry(writer["registry_before"], writer["registry_after"])
    rreg = Registry(search["registry_before"], search["registry_after"])
    docs = writer["docs_acked"]
    maint_ms = (wreg.histogram("moa_catalog_flush_ms", "sum")
                + wreg.histogram("moa_catalog_merge_ms", "sum"))
    hits = rreg.counter("moa_sparse_cache_hits_total")
    misses = rreg.counter("moa_sparse_cache_misses_total")
    untraced = raw["untraced"]
    v = {
        "engine.search_ms": ratio(trace["search_ms"], traced),
        "engine.unattributed_share":
            1.0 - ratio(sum(stage.values()), trace["search_ms"]),
        "engine.nested_span_queries": trace["overlapping"],
        "engine.shard.scatter_ms": ratio(stage["shard_scatter"], traced),
        "engine.shard.gather_ms": ratio(stage["shard_gather"], traced),
        "engine.shard.skip_ratio": ratio(
            cost["shards_skipped"],
            cost["shards_visited"] + cost["shards_skipped"]),
        "engine.shard.postings_skipped_per_query":
            ratio(cost["shard_postings_skipped"], n),
        "optimizer.plan_ms": ratio(pp["plan_ms"], pp["queries"]),
        "optimizer.plan_error_ratio":
            ratio(trace["observed_scalar"], trace["predicted_scalar"]),
    }
    chosen = dict(search["strategies"])
    for name in SAFE_STRATEGIES:
        v["optimizer.chosen_share." + name] = ratio(chosen.pop(name, 0), n)
    v["optimizer.chosen_share.other"] = ratio(sum(chosen.values()), n)
    v.update({
        "topn.cursor_open_ms": ratio(stage["cursor_open"], traced),
        "topn.accumulate_ms": ratio(stage["accumulate"], traced),
        "topn.heap_merge_ms": ratio(stage["heap_merge"], traced),
        "topn.score_evals_per_query": ratio(cost["score_evals"], n),
        "topn.seq_reads_per_query": ratio(cost["sequential_reads"], n),
        "topn.random_reads_per_query": ratio(cost["random_reads"], n),
        "topn.compares_per_query": ratio(cost["compares"], n),
        "topn.results_per_score_eval":
            ratio(search["results"], cost["score_evals"]),
        "segment.blocks_decoded_per_query": ratio(cost["blocks_decoded"], n),
        "segment.cursor_open_blocks_per_query": ratio(
            trace["stage_cost"]["cursor_open"]["blocks_decoded"], traced),
        "segment.block_skip_ratio": ratio(
            cost["blocks_skipped"],
            cost["blocks_decoded"] + cost["blocks_skipped"]),
        "segment.cursor_open_us": ratio(cp["open_us"], cp["cursors"]),
        "segment.scan_ns_per_posting": ratio(cp["scan_ns"], cp["postings"]),
        "segment.advance_ns_per_call":
            ratio(cp["advance_ns"], cp["advance_calls"]),
        "segment.shallow_advance_ns_per_call":
            ratio(cp["shallow_ns"], cp["shallow_calls"]),
        "segment.scan_blocks_decoded": cp["scan_blocks"],
        "segment.advance_blocks_decoded": cp["advance_blocks"],
        "segment.shallow_advance_blocks_decoded": cp["shallow_blocks"],
        "catalog.snapshot_us": trace["snapshot_us"]["mean"],
        "catalog.write_docs_per_s": window_median(writer, "rate"),
        "catalog.write_p50_ms": window_median(writer, "p50"),
        "catalog.write_p99_ms": window_median(writer, "p99"),
        "catalog.commit_ms": writer["commit_ms"]["mean"],
        "catalog.wal.group_docs": ratio(
            wreg.counter("moa_wal_appended_records_total"),
            wreg.counter("moa_wal_group_commit_total")),
        "catalog.wal.fsyncs_per_doc":
            ratio(wreg.counter("moa_wal_fsync_total"), docs),
        "catalog.wal.bytes_per_doc":
            ratio(wreg.counter("moa_wal_appended_bytes_total"), docs),
        "catalog.flush_count": wreg.counter("moa_catalog_flush_total"),
        "catalog.merge_count": wreg.counter("moa_catalog_merge_total"),
        "catalog.flush_ms": ratio(
            wreg.histogram("moa_catalog_flush_ms", "sum"),
            wreg.histogram("moa_catalog_flush_ms", "count")),
        "catalog.merge_ms": ratio(
            wreg.histogram("moa_catalog_merge_ms", "sum"),
            wreg.histogram("moa_catalog_merge_ms", "count")),
        "catalog.maintenance_busy_share":
            ratio(maint_ms, writer["seconds"] * 1e3),
        "catalog.bytes_written_per_doc":
            ratio(wreg.counter("moa_catalog_bytes_written_total"), docs),
        "catalog.segments_mean": trace["segments"]["mean"],
        "catalog.backpressure_waits":
            wreg.counter("moa_bg_backpressure_total"),
        "storage.sparse_cache_hit_ratio": ratio(hits, hits + misses),
        # Mean Search wall time, untraced vs traced: both windows do the
        # same bench work, and the bench's span bookkeeping is outside the
        # timed call.
        "obs.trace_overhead_share": 1.0 - ratio(
            untraced["latency_ms"]["mean"], search["latency_ms"]["mean"]),
    })
    return v


def verdict(raw):
    """(correct, attempted, failed): gates, requests and durability."""
    gates = [raw["gate"], raw["durability"]["sample"]]
    loads = [raw["search"], raw["writer"]]
    if "traced_gate" in raw:
        gates += [raw["traced_gate"],
                  {"checked": raw["plan_probe"]["queries"],
                   "failed": raw["plan_probe"]["failed"]}]
        loads.append(raw["untraced"])
    dur = raw["durability"]
    durable = dur["maintenance_ok"] and \
        dur["expected_live"] == dur["live_after_reopen"]
    attempted = sum(g["checked"] for g in gates) + \
        sum(x["attempted"] for x in loads) + 1
    failed = sum(g["failed"] for g in gates) + \
        sum(x["failed"] for x in loads) + (0 if durable else 1)
    return failed == 0, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = Path.cwd() / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    started = time.monotonic()
    try:
        loadgen = build(build_dir)
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed: {e}")
    log(f"build: {time.monotonic() - started:.1f} s")

    work = build_dir / "work" / args.workload
    spans = build_dir / "spans" / f"{args.workload}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(loadgen), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(work)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                              timeout=LOADGEN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: load generator failed: {e}")
    raw = json.loads(proc.stdout)

    if args.trace:
        values, samples = per_layer(raw), {}
        units = PER_LAYER_UNITS
    else:
        values, samples = end_to_end(raw)
        units = END_TO_END_UNITS
    correct, attempted, failed = verdict(raw)

    print(f"workload {args.workload} seed {args.seed} cpus {raw['cpus']} "
          f"trace {args.trace} distinct_queries {raw['distinct_queries']}")
    print(f"writer lag p50 {raw['writer']['lag_ms']['p50']:.3f} ms "
          f"p99 {raw['writer']['lag_ms']['p99']:.3f} ms "
          f"max {raw['writer']['lag_ms']['max']:.3f} ms")
    if args.trace:
        print(f"spans written to {spans}")
    for name, unit in units.items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name} = {values[name]:.6g} {unit}{n}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
