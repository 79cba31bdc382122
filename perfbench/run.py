#!/usr/bin/env python3
"""Wall-clock benchmark of HyperFile on the in-process async deployment.

Run from the repository root::

    python3 perfbench/run.py --workload soak --seed 1 --seconds 20 --trace 0

One closed-loop client runs one operation at a time against a 3-site
``AsyncCluster`` (one event-loop thread for every site, plus the client
thread), for ``--seconds`` seconds of whole rounds.  Every query result
is checked against the benchmark's own oracle (``oracle.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1`` (see README.md).  The line
before it, ``detail {...}``, carries sample counts and diagnostics.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Hard backstop for one query; a healthy query takes well under 2 s.
QUERY_TIMEOUT_S = 60.0
#: The pointer graph is the generator's default one for every seed (the
#: paper kept one database); ``--seed`` draws key values and operations.
GRAPH_SEED = 42


def nearest_rank(sorted_values, q):
    """The ``q`` percentile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def stat_delta(before, after):
    """Counter increase between two ``total_stats()`` snapshots."""
    out = {}
    for name, value in vars(after).items():
        if isinstance(value, dict):
            old = getattr(before, name)
            out[name] = {k: v - old.get(k, 0) for k, v in value.items()}
        else:
            out[name] = value - getattr(before, name)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no HyperFile sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    detail, result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(workload, seed: int, seconds: float, trace: bool):
    from repro.net.asyncio_cluster import AsyncCluster
    from repro.workload import WorkloadSpec, build_graph, materialize

    # Set-up, the first and so cold one in this process: build the graph,
    # start the cluster, load the database (and place its replicas).
    t_setup = perf_counter()
    graph = build_graph(n=workload.n_objects, seed=GRAPH_SEED)
    cluster = AsyncCluster(3, config=workload.config())
    try:
        db = materialize(
            WorkloadSpec(n_objects=workload.n_objects, seed=seed),
            [cluster.store(site) for site in cluster.sites],
            graph=graph,
        )
        if workload.replicated:
            cluster.replicate_all()
        setup_s = perf_counter() - t_setup
        return measure(cluster, db, workload, seed, seconds, trace, setup_s)
    finally:
        cluster.close()


def measure(cluster, db, workload, seed, seconds, trace, setup_s):
    from repro.api import credit_deficit
    from repro.core.tuples import tuple_of
    from repro.errors import HyperFileError

    from oracle import Model
    from spans import SpanRecorder
    from workloads import QueryOp

    rng = random.Random(f"ops:{seed}")
    workload.start(rng)
    index_of = {oid.key(): i for i, oid in enumerate(db.oids)}

    def write(op):
        oid = db.oids[op.index]

        def mutate(obj):
            return obj.without(op.key_type).with_tuple(tuple_of(op.key_type, op.value, ""))

        if workload.replicated:
            return cluster.replication.apply(oid, mutate)
        store = cluster.store(db.site_of(op.index))
        updated = mutate(store.get(oid))
        store.replace(updated)
        return updated

    def credit_settled(qid) -> bool:
        """Zero cluster-wide credit deficit; a query whose contexts every
        site has already retired holds no credit anywhere."""
        deficit = credit_deficit(cluster.nodes, qid)
        if deficit is None:
            return not any(qid in node.contexts for node in cluster.nodes.values())
        return deficit == 0

    def holders_agree(op, updated) -> bool:
        oid = db.oids[op.index]
        holders = cluster.replication.directory.sites_of(oid)
        return len(holders) == 2 and all(cluster.store(s).get(oid) == updated for s in holders)

    log = []  # (op, result indices / True for a write; None when it failed)
    query_s, write_s = [], []
    attempted = failed = bad_outcomes = bad_writes = 0
    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        recorder.install()
    before = cluster.total_stats()
    t0, cpu0 = perf_counter(), process_time()
    end = t0 + seconds
    while perf_counter() < end:
        for op in workload.round(rng):
            attempted += 1
            start = perf_counter()
            if isinstance(op, QueryOp):
                try:
                    outcome = cluster.run_query(op.text, [db.oids[op.start]], timeout_s=QUERY_TIMEOUT_S)
                except HyperFileError:
                    failed += 1
                    log.append((op, None))
                    continue
                query_s.append(perf_counter() - start)
                if outcome.result.partial or not credit_settled(outcome.qid):
                    bad_outcomes += 1
                log.append((op, {index_of[key] for key in outcome.result.oid_keys()}))
            else:
                try:
                    updated = write(op)
                except HyperFileError:
                    failed += 1
                    log.append((op, None))
                    continue
                write_s.append(perf_counter() - start)
                if workload.replicated and not holders_agree(op, updated):
                    bad_writes += 1
                log.append((op, True))
    elapsed, cpu = perf_counter() - t0, process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.uninstall()
    balanced, after = _await_balance(cluster)
    contexts = sum(len(cluster.node(site).contexts) for site in cluster.sites)

    # Every result against the oracle, replaying the writes in order.
    model = Model.from_generator(db.graph, db.key_values)
    mismatches = 0
    for op, got in log:
        if got is None:
            continue
        if isinstance(op, QueryOp):
            if got != model.answer(op.family, op.k, [op.start], op.key_type, op.value):
                mismatches += 1
        else:
            model.set_key(op.key_type, op.index, op.value)

    correct = failed == 0 and mismatches == 0 and bad_outcomes == 0 and bad_writes == 0 and balanced
    queries, writes = len(query_s), len(write_s)
    ops = queries + writes
    lat = sorted(query_s)
    tail, beyond = nearest_rank(lat, workload.tail_percentile)
    tenth = max(queries // 10, 1)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "queries": queries,
        "writes": writes,
        "elapsed_s": round(elapsed, 4),
        "tail_percentile": workload.tail_percentile,
        "samples_beyond_tail": beyond,
        "p50_ms_per_tenth": [
            round(1000 * statistics.median(query_s[i * tenth : (i + 1) * tenth] or [0.0]), 3)
            for i in range(10)
        ],
        "contexts_resident": contexts,
        "mismatches": mismatches,
        "bad_outcomes": bad_outcomes,
        "bad_writes": bad_writes,
        "balanced": balanced,
    }
    if recorder is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops / elapsed, "1/s"),
            "p50_ms": (1000 * statistics.median(lat), "ms"),
            "tail_ms": (1000 * tail, "ms"),
            "write_p50_ms": (1000 * statistics.median(write_s), "ms"),
            "cpu_ms_per_op": (1000 * cpu / ops, "ms"),
            "rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(recorder, stat_delta(before, after), query_s, contexts)
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{workload.name}.tsv.gz", t0)
        detail["spans"] = recorder.span_count
        detail["ops_per_s_traced"] = ops / elapsed
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return detail, result


def _await_balance(cluster, timeout_s: float = 5.0):
    """Wait until every sent message has been received; (balanced, stats)."""
    deadline = perf_counter() + timeout_s
    while True:
        stats = cluster.total_stats()
        balanced = stats.total_sent == stats.total_received and stats.bytes_sent == stats.bytes_received
        if balanced or perf_counter() >= deadline:
            return balanced, stats
        time.sleep(0.01)


def layer_metrics(recorder, delta, query_s, contexts):
    """Per-layer figures from the spans and the counter deltas."""
    spans = recorder.totals()
    queries = len(query_s)

    def self_s(*names):
        return sum(spans.get(name, {}).get("self", 0.0) for name in names)

    def per_call_ms(name):
        entry = spans.get(name)
        return 1000 * entry["duration"] / entry["count"] if entry and entry["count"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    tenth = max(queries // 10, 1)
    frames = spans.get("net.encode", {}).get("count", 0)
    sent = delta["messages_sent"]
    return {
        "server.contexts_resident": (contexts, "count"),
        "server.has_work_ms_per_query": (1000 * self_s("server.has_work") / queries, "ms"),
        "server.self_ms_per_query": (1000 * self_s("server.on_message", "server.step") / queries, "ms"),
        "server.late_over_early": (
            statistics.median(query_s[-tenth:]) / statistics.median(query_s[:tenth]),
            "ratio",
        ),
        "server.duplicate_requests_per_query": (delta["duplicate_requests"] / queries, "count"),
        "core.compile_us_per_query": (1e6 * self_s("core.compile") / queries, "us"),
        "engine.objects_per_s": (ratio(delta["objects_processed"], self_s("engine.step")), "1/s"),
        "engine.objects_per_query": (delta["objects_processed"] / queries, "count"),
        "net.messages_per_query": (sum(sent.values()) / queries, "count"),
        "net.bytes_per_query": (delta["bytes_sent"] / queries, "B"),
        "net.codec_us_per_frame": (ratio(1e6 * self_s("net.encode", "net.decode"), frames), "us"),
        "net.items_per_batch": (ratio(delta["batched_items"], sent.get("BatchedQuery", 0)), "count"),
        "cache.query_hit_ratio": (delta["query_cache_hits"] / queries, "ratio"),
        "cache.fragment_hit_ratio": (
            ratio(delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
            "ratio",
        ),
        "cache.sends_suppressed_per_query": (
            (delta["sends_suppressed"] + delta["sends_suppressed_bloom"]) / queries,
            "count",
        ),
        "replication.apply_ms": (per_call_ms("replication.apply"), "ms"),
        "storage.replace_ms": (per_call_ms("storage.replace"), "ms"),
    }


if __name__ == "__main__":
    sys.exit(main())
