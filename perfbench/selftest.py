#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes: ``python3 perfbench/selftest.py``.

Checks that

* ``BENCHMARK.json`` names the same workloads and metrics, with the same
  units, as ``perfbench/run.py`` prints;
* every workload prints every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``) with its unit, with no failed
  operation, and that the layers each workload exercises have spans
  whose self times add up to the traced operation wall time;
* planted faults count as failed operations instead of passing: one
  flipped byte in a shard, a tampered ETag, and a server killed mid-run;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files the command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from common import ROOT, WORK_ROOT  # noqa: E402

#: Spans each workload must produce (self time above zero).
EXERCISED = {
    "generate-kron-shards": (
        "plan.build", "engine.execute", "models.tile", "sinks.encode_write",
        "checkpoint.close", "checkpoint.commit", "checkpoint.manifest",
    ),
    "stream-skg-degrees": (
        "plan.build", "engine.execute", "models.tile", "sinks.degree_consume",
    ),
    "validate-kron-shards": (
        "validate.verify", "validate.checksum", "validate.read", "validate.triangle",
        "catalog.empirical", "catalog.diff",
    ),
    "serve-mixed": (
        "catalog.load", "catalog.checksum", "catalog.encode", "catalog.analytic",
        "catalog.store", "models.tile", "net.encode", "net.decode",
    ),
}

FAULTS = [
    ("generate-kron-shards", "shard-byte"),
    ("validate-kron-shards", "shard-byte"),
    ("serve-mixed", "etag"),
    ("serve-mixed", "kill-server"),
]

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def bench(workload, *, trace=0, fault="none", cwd=ROOT):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--fault", fault,
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_manifest():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in doc["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")
    expect({m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end-to-end metrics and units match run.py")
    expect({m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per-layer metrics and units match run.py")


def check_metrics(workload, trace, names):
    code, result, err = bench(workload, trace=trace)
    label = f"{workload} --trace {trace}"
    expect(code == 0 and result is not None, f"{label}: exits 0 with a result line {err[-300:]}")
    if result is None:
        return None
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: no failed operation ({result['attempted']} attempted)")
    metrics = result["metrics"]
    expect(list(metrics) == list(names), f"{label}: prints exactly the listed metrics")
    expect(all(metrics.get(n, {}).get("unit") == u for n, u in names.items()),
           f"{label}: every metric carries its unit")
    expect(all(isinstance(m.get("value"), (int, float)) for m in metrics.values()),
           f"{label}: every value is a number")
    return metrics


def main() -> int:
    check_manifest()
    for workload in run.WORKLOADS:
        metrics = check_metrics(workload, 0, run.END_TO_END)
        if metrics is not None:
            expect(all(m["value"] > 0 for m in metrics.values()),
                   f"{workload}: every end-to-end metric is above zero")
        layers = check_metrics(workload, 1, run.PER_LAYER)
        if layers is not None:
            quiet = [s for s in EXERCISED[workload] if layers[f"{s}_s"]["value"] <= 0]
            expect(not quiet, f"{workload}: exercised layers have spans {quiet}")
            ratio = layers["trace.accounted_ratio"]["value"]
            expect(0.95 <= ratio <= 1.0 + 1e-9,
                   f"{workload}: self times add up to the op wall time ({ratio:.4f})")
            if workload == "validate-kron-shards":
                expect(layers["models.tile_s"]["value"] == 0,
                       f"{workload}: no generation inside the operation")
    for workload, fault in FAULTS:
        code, result, err = bench(workload, fault=fault)
        expect(code == 0 and result is not None and result["failed"] > 0
               and not result["correct"],
               f"{workload} with planted fault {fault}: counted as failed "
               f"({None if result is None else result['failed']} failed)")
    bare = WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, result, _ = bench("stream-skg-degrees", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None, "without the program: exits non-zero, no result")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
