"""Workload ``validate-kron-shards``: the read and validate side.

Set-up writes the shards of a 62k-edge design once and computes its
analytic record with triangle participation (``analytic_properties``
streams the generated graph for that, so it stays out of the
operation).  Each operation runs ``verify_shards`` (checksums and the
streamed degree check), ``empirical_properties`` on the shards, and
``diff_properties`` against the set-up record: the work of
``check_against_catalog`` minus its analytic recompute.  There is no
generation inside an operation; the streamed triangle pass of
``repro.validate.triangle_stream`` over the stored shards takes most of
its time.
"""

from __future__ import annotations

import importlib

from common import OpLog, batch_metrics, fresh_dir, metric, run_for, timed_setup
from tracing import Tracer, replay_pairs

from repro.catalog import analytic_properties, diff_properties, empirical_properties
from repro.design import PowerLawDesign
from repro.engine import RunConfig
from repro.models import DeterministicKronModel
from repro.parallel.stream import generate_to_disk, verify_shards

N_RANKS = 8
BUDGET = 2**20
#: A 62k-edge design keeps an operation near 0.2 s (see generation.py).
SIZES = {
    "full": ([4, 5, 9, 16], "center"),
    "tiny": ([3, 4, 5, 9], "center"),
}

_stream_mod = importlib.import_module("repro.parallel.stream")
_triangle_mod = importlib.import_module("repro.validate.triangle_stream")

TRACE_TARGETS = [
    (_stream_mod, "verify_shard_record", "validate.checksum"),
    (_stream_mod, "read_streamed_degree_distribution", "validate.read"),
    (_triangle_mod, "triangle_stream", "validate.triangle"),
    # Reads zero when the operation generates nothing, as it should.
    (DeterministicKronModel, "tile_iter", "models.tile", "models"),
]


class ValidateKronShards:
    """The ``validate-kron-shards`` workload."""

    #: ``triangle_stream``'s wedge loop: NumPy calls on short arrays.
    REFERENCE = ("small", False)

    def __init__(self, args, work):
        sizes, loop = SIZES[args.size]
        self.design = PowerLawDesign(sizes, loop)
        self.shards = work / "shards"
        self.fault = args.fault

    def _make(self):
        generate_to_disk(
            self.design,
            N_RANKS,
            fresh_dir(self.shards),
            config=RunConfig(memory_budget_entries=BUDGET),
        )
        return analytic_properties(self.design, include_participation=True)

    def setup(self, speed):
        self.predicted, setup_s = timed_setup(self._make, speed)
        if self.fault == "shard-byte":
            shard = self.shards / "edges.0.tsv"
            data = bytearray(shard.read_bytes())
            data[len(data) // 2] ^= 0x01
            shard.write_bytes(bytes(data))
        return setup_s

    def _validate(self, tracer: Tracer | None = None):
        if tracer is None:
            verification = verify_shards(self.shards)
            return verification, diff_properties(self.predicted, empirical_properties(self.shards))
        with tracer.span("validate.verify"):
            verification = verify_shards(self.shards)
        with tracer.span("catalog.empirical"):
            measured = empirical_properties(self.shards)
        with tracer.span("catalog.diff"):
            diff = diff_properties(self.predicted, measured)
        return verification, diff

    @staticmethod
    def _check(output) -> str | None:
        verification, diff = output
        if not verification.passed:
            return "verify_shards failed: " + "; ".join(verification.failures)
        if not diff.same_key or diff.mismatches:
            return "catalog diff: " + diff.to_text()
        return None

    def measure(self, seconds, reference):
        log = OpLog()
        run_for(
            seconds, lambda i: self._validate(), lambda i, out: self._check(out), log, reference
        )
        metrics, detail = batch_metrics(log, self.design.num_edges, reference)
        return log, metrics, detail

    def trace(self, seconds, tracer: Tracer):
        log = OpLog()
        plain, spanned, outputs = replay_pairs(
            seconds, self._validate, self._validate, tracer, TRACE_TARGETS
        )
        for wall, output in zip(spanned, outputs):
            error = self._check(output)
            log.add(wall, error is None, error)
        # One triangle pass over the stored shards per operation.
        triangle_s = tracer.self_times().get("validate.triangle", 0.0)
        passes = tracer.span_counts().get("validate.triangle", 0)
        layers = {
            "validate.triangle_edges_per_s": metric(
                passes * self.design.num_edges / triangle_s if triangle_s else 0.0,
                "edges/s",
            )
        }
        return log, layers, plain, spanned
