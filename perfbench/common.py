"""Shared pieces of the benchmark: timing loops, statistics, the result
line, and the run environment record."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; named in the root ``.gitignore``.
WORK_ROOT = ROOT / ".perfbench-work"

#: Set-up is repeated this many times per run and its median reported,
#: so that one slow set-up does not move ``setup_s``.
SETUP_REPEATS = 5

#: Time one unit of reference work takes on a quiet reference box
#: (2 vCPUs, Python 3.11, NumPy 2.4), by kind of work and whether it runs
#: on one process or on ``nproc`` processes at once.  Operation times are
#: reported scaled to this speed (see :class:`Reference`).
NOMINAL_S = {("bulk", False): 0.040, ("bulk", True): 0.055, ("small", False): 0.030}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest of its
    finished children (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def bulk_work(_=None) -> int:
    """A fixed unit of work on whole arrays: NumPy sorting and counting,
    integer-to-text encoding and parsing, a plain Python loop and a
    hash, the kinds of work generation and serving do."""
    rng = np.random.default_rng(0)
    values = np.sort(rng.integers(0, 1 << 20, 300_000))
    counts = np.bincount(values >> 4)
    text = "\n".join(map(str, values[:60_000].tolist()))
    parsed = np.array(text.split(), dtype=np.int64)
    buckets: dict[int, int] = {}
    for v in values[:40_000].tolist():
        buckets[v & 1023] = buckets.get(v & 1023, 0) + 1
    hashlib.sha256(values.tobytes()).digest()
    return int(counts.max()) + int(parsed[-1]) + len(buckets)


_rng = np.random.default_rng(3)
#: Short sorted neighbour lists for :func:`small_work`.
_LISTS = [np.sort(_rng.integers(0, 4096, int(n))) for n in _rng.integers(2, 40, 400)]


def small_work(_=None) -> int:
    """A fixed unit of work made of many NumPy calls on short arrays
    from a Python loop (masking, ``searchsorted``, fancy indexing), the
    shape of a streamed triangle count's wedge-closing loop."""
    hits = 0
    counts = np.zeros(4096, dtype=np.int64)
    for k in range(10):
        for i, ns in enumerate(_LISTS):
            other = _LISTS[(i * 7 + k) % len(_LISTS)]
            ws = ns[ns > ns[0]]
            if not len(ws):
                continue
            pos = np.searchsorted(other, ws)
            pos[pos >= len(other)] = len(other) - 1
            closed = ws[other[pos] == ws]
            counts[closed] += 1
            hits += len(closed)
    return hits


REFERENCE_WORK = {"bulk": bulk_work, "small": small_work}


class Reference:
    """The speed the host gives this run, measured next to the program.

    On a shared host the processor runs this benchmark up to 2x slower
    for minutes at a time, so raw times of one run say as much about the
    other tenants as about the program.  Each timed operation is
    therefore bracketed by timings of a fixed unit of reference work
    (which the program's code cannot change) of the same kind as the
    operation (:data:`REFERENCE_WORK`), and an operation's *scaled* time is
    its wall time times ``nominal / reference time``: what it would have
    taken at the reference box's speed.  A program that gets 20% faster
    reads 20% faster, whatever the host was doing.

    ``parallel`` runs the reference on ``nproc`` processes at once, for
    workloads that keep every processor busy; the pool is this
    benchmark's own, started before the program's, and idle while an
    operation runs."""

    def __init__(self, kind: str, parallel: bool):
        self.kind = kind
        self.parallel = parallel
        self.work = REFERENCE_WORK[kind]
        self.nominal = NOMINAL_S[kind, parallel]
        self.pool = None
        self.times: list[float] = []
        if parallel:
            self.pool = ProcessPoolExecutor(nproc(), mp_context=multiprocessing.get_context("fork"))
        self.time()  # starts the pool's processes; not recorded
        self.times.clear()
        self.last = self.time()

    def time(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        if self.pool is None:
            self.work()
        else:
            list(self.pool.map(self.work, range(nproc())))
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed

    def bracket(self) -> float:
        """Time the reference work again; return the mean of this timing
        and the previous one, the host's speed over what ran between."""
        previous, self.last = self.last, self.time()
        return (previous + self.last) / 2

    def scale(self, seconds: float) -> float:
        """``seconds`` that just ran, scaled to the reference box's speed."""
        return seconds * self.nominal / self.bracket()

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None


@dataclass
class OpLog:
    """Outcome of the measured phase: one entry per attempted operation,
    with its wall time and, when a :class:`Reference` was used, the mean
    of the reference timings on either side of it."""

    seconds: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    references: list = field(default_factory=list)

    def add(self, elapsed: float, ok: bool, error: str | None = None, reference=None) -> None:
        self.seconds.append(elapsed)
        self.ok.append(ok)
        self.references.append(reference)
        if not ok and error and len(self.errors) < 20:
            self.errors.append(error)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def run_for(seconds: float, op, check, log: OpLog, reference: Reference) -> None:
    """Closed loop: run ``op(i)`` until ``seconds`` have passed (at least
    once), with a reference timing after each operation.  Only ``op`` is
    timed; ``check(i, output)`` returns an error string or ``None`` and
    runs outside the timing."""
    start = time.perf_counter()
    reference.bracket()  # the timing before the first operation
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        # Garbage from the previous operation is collected here, not
        # inside the next one's timing.
        gc.collect()
        t0 = time.perf_counter()
        try:
            output, error = op(i), None
        except Exception as exc:  # a failed operation is counted, not fatal
            output, error = None, f"op {i}: {exc!r}"
        elapsed = time.perf_counter() - t0
        bracket = reference.bracket()
        if error is None:
            try:
                error = check(i, output)
            except Exception as exc:
                error = f"check {i}: {exc!r}"
        log.add(elapsed, error is None, error, bracket)
        i += 1


def batch_metrics(log: OpLog, edges: int, reference: Reference):
    """End-to-end metrics of a workload made of many short operations:
    the mean time of its correct operations, scaled by the reference
    timings around them (total operation time over total reference
    time, times ``nominal``).  Over the runs made while tuning this
    benchmark, that ratio of totals repeated from run to run better than
    the median or the fastest of the per-operation ratios, and far better
    than any raw statistic.  Raw wall times stay in the run record."""
    good = [s for s, ok in zip(log.seconds, log.ok) if ok]
    brackets = [r for r, ok in zip(log.references, log.ok) if ok]
    scaled = reference.nominal * sum(good) / sum(brackets) if good else 0.0
    return {
        "edges_per_s": metric(edges / scaled if good else 0.0, "edges/s"),
        "latency_ms": metric(scaled * 1e3, "ms"),
    }, {
        "ops": log.attempted,
        "op_s": log.seconds,
        "median_op_ms": median(good) * 1e3 if good else None,
        "min_op_ms": min(good) * 1e3 if good else None,
        "median_reference_ms": median(reference.times) * 1e3,
        "reference_nominal_ms": reference.nominal * 1e3,
        "reference_kind": reference.kind,
        "reference_parallel": reference.parallel,
        "edges_per_op": edges,
    }


def timed_setup(make, reference: Reference | None, teardown=None):
    """Run ``make()`` :data:`SETUP_REPEATS` times; keep the last result,
    tear the earlier ones down (untimed), and return ``(state, median
    seconds)``, of scaled times when a ``reference`` is given."""
    times = []
    state = None
    if reference is not None:
        reference.bracket()
    for _ in range(SETUP_REPEATS):
        if state is not None and teardown is not None:
            teardown(state)
        t0 = time.perf_counter()
        state = make()
        elapsed = time.perf_counter() - t0
        times.append(reference.scale(elapsed) if reference is not None else elapsed)
    return state, median(times)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _git_rev() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over the program's source files, so a result names the
    code it measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()


def environment() -> dict:
    import importlib.util

    import numpy

    return {
        "git_rev": _git_rev(),
        "src_digest": _src_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(record: dict, result: dict) -> None:
    """Print the run record, then the result line (always last)."""
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps(result))
    sys.stdout.flush()
