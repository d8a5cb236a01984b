#!/usr/bin/env python3
"""The repository benchmark: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, run from the repository root.

``--trace 0`` measures the workload for ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` replays it serially with spans around
each layer call and prints the per-layer metrics.  Every operation's
output is checked; a wrong output counts as a failed operation.  The
last line of standard output is the result object.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    ROOT, SETUP_REPEATS, SRC, WORK_ROOT, Reference, emit, environment, median, metric,
    peak_rss_mb,
)
from tracing import OP_SPAN, Tracer  # noqa: E402

WORKLOADS = {
    "generate-kron-shards": ("generation", "GenerateKronShards"),
    "stream-skg-degrees": ("generation", "StreamSkgDegrees"),
    "validate-kron-shards": ("validation", "ValidateKronShards"),
    "serve-mixed": ("serving", "ServeMixed"),
}

END_TO_END = {
    "edges_per_s": "edges/s",
    "latency_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Spans whose self time per traced operation is reported as ``<span>_s``.
SPANS = (
    "plan.build",
    "engine.execute",
    "models.tile",
    "sinks.encode_write",
    "sinks.degree_consume",
    "checkpoint.close",
    "checkpoint.commit",
    "checkpoint.manifest",
    "validate.verify",
    "validate.checksum",
    "validate.read",
    "validate.triangle",
    "catalog.analytic",
    "catalog.empirical",
    "catalog.diff",
    "catalog.load",
    "catalog.checksum",
    "catalog.encode",
    "catalog.store",
    "net.encode",
    "net.decode",
)

#: Per-layer metrics a workload reports itself; zero where it does not
#: exercise the layer.
REPORTED = {
    "models.tiles": "count",
    "models.entries": "count",
    "models.entries_per_s": "entries/s",
    "sinks.bytes": "B",
    "sinks.bytes_per_edge": "B/edge",
    "checkpoint.manifest_writes": "count",
    "engine.worker_utilization": "ratio",
    "engine.queue_depth": "count",
    "engine.straggler_gap_s": "s",
    "engine.tiles": "count",
    "engine.peak_tile_entries": "count",
    "engine.overhead_s": "s",
    "engine.rank_max_over_median": "ratio",
    "validate.triangle_edges_per_s": "edges/s",
    "net.bytes_per_edge": "B/edge",
    "serve.requests": "count",
    "serve.design_cache_hits": "count",
    "serve.design_computes": "count",
    "serve.http_errors": "count",
    "serve.rejected_busy": "count",
    "serve.timeouts": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.request_p50_ms": "ms",
    "serve.request_p99_ms": "ms",
    "serve.client_gap_ms": "ms",
    "trace.ops": "count",
    "trace.op_wall_s": "s",
    "trace.harness_s": "s",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_pct": "%",
    "fail_ratio": "ratio",
}

PER_LAYER = {**{f"{span}_s": "s" for span in SPANS}, **REPORTED}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: tiny inputs, and planted faults that must show up
    # as failed operations.
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument(
        "--fault", choices=("none", "shard-byte", "etag", "kill-server"), default="none"
    )
    return p.parse_args(argv)


def per_layer_metrics(tracer, layers, plain, spanned, log) -> dict:
    """Per-layer self times per traced operation, plus the accounting
    check (self times against independently timed operation walls) and
    the tracing overhead (traced against untraced replays)."""
    ops = max(1, len(tracer.op_walls))
    self_times = tracer.self_times()
    out = {f"{span}_s": metric(self_times.get(span, 0.0) / ops, "s") for span in SPANS}
    tile_s = self_times.get("models.tile", 0.0)
    entries = tracer.counts.get("models.entries", 0.0)
    out["models.tiles"] = metric(tracer.counts.get("models.tiles", 0.0) / ops, "count")
    out["models.entries"] = metric(entries / ops, "count")
    out["models.entries_per_s"] = metric(entries / tile_s if tile_s else 0.0, "entries/s")
    wall = sum(tracer.op_walls)
    out["trace.ops"] = metric(len(tracer.op_walls), "count")
    out["trace.op_wall_s"] = metric(wall / ops, "s")
    out["trace.harness_s"] = metric(self_times.get(OP_SPAN, 0.0) / ops, "s")
    out["trace.accounted_ratio"] = metric(sum(self_times.values()) / wall if wall else 0.0, "ratio")
    out["trace.overhead_pct"] = metric(100.0 * (median(spanned) / median(plain) - 1.0), "%")
    out["fail_ratio"] = metric(log.failed / max(1, log.attempted), "ratio")
    out.update(layers)
    for name, unit in PER_LAYER.items():
        out.setdefault(name, metric(0, unit))
    return {name: out[name] for name in PER_LAYER}


def print_layer_table(tracer, metrics):
    ops = max(1, len(tracer.op_walls))
    counts = tracer.span_counts()
    print(f"traced operations: {len(tracer.op_walls)}")
    print(f"{'span':<26}{'self s/op':>12}{'spans/op':>10}")
    for name, total in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        print(f"{name:<26}{total / ops:>12.6f}{counts[name] / ops:>10.1f}")
    for key in ("trace.op_wall_s", "trace.accounted_ratio", "trace.overhead_pct"):
        print(f"{key}: {metrics[key]['value']:.6g} {metrics[key]['unit']}")


def import_seconds(module_name: str, reference) -> float:
    """Median, over :data:`SETUP_REPEATS` fresh interpreters, of the time
    to import a workload module and through it the program (scaled, when
    a reference is given).  One import in this process would be a single
    noisy sample of ``setup_s``'s largest part."""
    code = (
        f"import sys, time; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        f"t = time.perf_counter(); import {module_name}; print(time.perf_counter() - t)"
    )
    times = []
    if reference is not None:
        reference.bracket()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        elapsed = float(out.stdout.split()[-1])
        times.append(reference.scale(elapsed) if reference is not None else elapsed)
    return median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    module_name, class_name = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = getattr(module, class_name)(args, work)
    detail = {}
    # The host's speed, timed next to every measured operation and set-up
    # (see common.Reference); started before the program's worker pool.
    reference = None if args.trace else Reference(*workload.REFERENCE)
    try:
        try:
            setup_s = workload.setup(reference)
            if args.trace:
                tracer = Tracer()
                log, layers, plain, spanned = workload.trace(args.seconds, tracer)
                metrics = per_layer_metrics(tracer, layers, plain, spanned, log)
                print_layer_table(tracer, metrics)
                tracer.write(WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json")
            else:
                log, metrics, detail = workload.measure(args.seconds, reference)
        finally:
            close = getattr(workload, "close", None)
            if close is not None:
                close()
            # Read before the reference pool's processes are reaped, so
            # that only the program's own children count.
            rss_mb = peak_rss_mb()
            shutil.rmtree(work, ignore_errors=True)
        # Timed after the peak is read: the import children must not count.
        setup_s += import_seconds(module_name, reference)
    finally:
        if reference is not None:
            reference.close()
    if not args.trace:
        metrics["setup_s"] = metric(setup_s, "s")
        metrics["peak_rss_mb"] = metric(rss_mb, "MB")
        metrics = {name: metrics[name] for name in END_TO_END}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "fault": args.fault,
        "setup_s": setup_s,
        "fail_ratio": log.failed / max(1, log.attempted),
        "detail": detail,
        "errors": log.errors[:5],
        "env": environment(),
    }
    emit(
        record,
        {
            "correct": log.failed == 0,
            "attempted": log.attempted,
            "failed": log.failed,
            "metrics": metrics,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
