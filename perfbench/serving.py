"""Workload ``serve-mixed``: one ``repro-graph serve`` subprocess, driven
closed-loop over two connections from this process.

Connection A sends warm ``GET /v1/design/{digest}`` over a seeded set of
preloaded digests; a seeded share carries ``If-None-Match`` (most with
the right ETag, expecting 304, some with another design's ETag,
expecting 200).  Connection B alternates seeded ``GET /v1/tiles`` ranges
of the ``generate-kron-shards`` design with cold ``POST /v1/design`` of
seeded Kronecker designs (10^6 to 10^30 edges, star sizes from the
paper's Fig. 4-7 lists) whose digests are not cached yet.  SKG designs
are left out of the POSTs: their cold compute is unbounded.

Warm reads, cold catalog writes and tile streaming share the server's
one event loop and interpreter lock, so a warm-path gain that slows
streams or cold computes shows here.

The traced run sends the same mix serially to a server embedded in this
process and spans the program's own catalog, net and model calls there
(:data:`TRACE_TARGETS`).
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

from common import ROOT, SRC, OpLog, fresh_dir, median, metric, percentile, timed_setup
from tracing import Tracer

from repro.catalog import CatalogCache, DesignProperties, analytic_properties, key_digest
from repro.design import PowerLawDesign
from repro.engine import iter_task_tiles, plan_from_design
from repro.errors import ReproError
from repro.models import DeterministicKronModel
from repro.paper import FIG7_SIZES
from repro.serve import ServeClient, ServerConfig, start_in_thread

N_RANKS = 8
SIZES = {
    # tile design, tile budget, warm designs, star counts
    "full": (([3, 4, 5, 9, 16, 4], "center"), 2**16, 14, (3, 9)),
    "tiny": (([3, 4, 5], "center"), 64, 3, (3, 5)),
}
EDGE_RANGE = (10**6, 10**30)
BOOT_TIMEOUT_S = 60.0
#: Load runs in windows this long, with the host's speed measured
#: between them (see ``common.Reference``).
WINDOW_S = 1.0
#: Longest wait at a window boundary; a client stuck longer than this
#: ends the load.
GATE_TIMEOUT_S = 60.0
#: Share of conditional warm GETs that carry another design's ETag.
WRONG_ETAG_SHARE = 0.25

_app_mod = importlib.import_module("repro.serve.app")
_client_mod = importlib.import_module("repro.serve.client")
_catalog_mod = importlib.import_module("repro.catalog")
_execute_mod = importlib.import_module("repro.engine.execute")

#: The program's calls wrapped with spans while the traced blocks run
#: against the embedded server; the server's own request handling is
#: what gets traced.
TRACE_TARGETS = [
    (CatalogCache, "load", "catalog.load"),
    (CatalogCache, "store", "catalog.store"),
    (_catalog_mod, "analytic_properties", "catalog.analytic"),
    (DesignProperties, "checksum", "catalog.checksum"),
    (DesignProperties, "to_doc", "catalog.encode"),
    (_app_mod, "send_json", "catalog.encode"),
    (DeterministicKronModel, "tile_iter", "models.tile", "models"),
    (_execute_mod, "_transform_tile", "models.tile"),
    (_app_mod, "encode_frame", "net.encode"),
    (_app_mod, "encode_tile_payload", "net.encode"),
    (_client_mod, "assemble_tile_stream", "net.decode"),
]


def _digest_rows_cols(rows, cols) -> str:
    h = hashlib.sha256()
    h.update(rows.tobytes())
    h.update(cols.tobytes())
    return h.hexdigest()


def _range_digest(tile_digests) -> str:
    return hashlib.sha256("".join(tile_digests).encode()).hexdigest()


class DesignDraws:
    """Kronecker design specs with distinct digests, drawn lazily from a
    seeded RNG: each is a sorted draw of star sizes from the paper's
    Fig. 4-7 lists.

    The star count ``k`` cycles through ``star_counts`` and a draw is
    kept only when its degree distribution has all ``2**k`` distinct
    degrees, so the record sizes, and with them the cost of a request,
    are the same mix for every seed.  When no new design turns up in
    :data:`MAX_DRAW_ATTEMPTS` draws, :meth:`next` raises: the caller
    counts that as a failure rather than changing its traffic."""

    MAX_DRAW_ATTEMPTS = 5000

    def __init__(self, rng: random.Random, star_counts, seen: set):
        self.rng = rng
        self.star_counts = star_counts
        self.seen = seen
        self.drawn = 0

    def next(self):
        low, high = self.star_counts
        k = low + self.drawn % (high - low + 1)
        for _ in range(self.MAX_DRAW_ATTEMPTS):
            sizes = sorted(self.rng.sample(FIG7_SIZES, k))
            loop = self.rng.choice(["none", "center", "leaf"])
            design = PowerLawDesign(sizes, loop)
            if not EDGE_RANGE[0] <= design.num_edges <= EDGE_RANGE[1]:
                continue
            if len(design.degree_distribution.to_dict()) != 2**k:
                continue
            digest = key_digest(design)
            if digest in self.seen:
                continue
            self.seen.add(digest)
            self.drawn += 1
            return {"star_sizes": sizes, "self_loop": loop}, design, digest
        raise RuntimeError(f"no new {k}-star design in {self.MAX_DRAW_ATTEMPTS} draws")

    def take(self, count: int):
        return [self.next() for _ in range(count)]


class ServerProcess:
    """``python -m repro.cli serve`` as a child process."""

    def __init__(self, cache_dir, tile_budget):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--cache-dir", str(cache_dir),
                "--ranks", str(N_RANKS),
                "--memory-budget", str(tile_budget),
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.url = None
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving on "):
                self.url = line.split("serving on ", 1)[1].strip()
                break
        if self.url is None:
            self.stop()
            raise RuntimeError("server did not report its address")

    def kill(self):
        self.proc.kill()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


@dataclass
class _Setup:
    server: ServerProcess
    tile_digest: str
    #: Per rank, per tile: (nnz, rows/cols digest) of local tiles.
    tile_refs: list
    #: (rank, start, stop) tile ranges in their seeded order.
    ranges: list
    #: digest -> (ETag, record document) of the local analytic record;
    #: cold designs are added by their checks, outside the timing.
    refs: dict


class ServeMixed:
    """The ``serve-mixed`` workload."""

    #: The server and both clients keep every processor busy.
    REFERENCE = ("bulk", True)

    def __init__(self, args, work):
        (sizes, loop), self.tile_budget, n_warm, self.star_counts = SIZES[args.size]
        self.tile_design = PowerLawDesign(sizes, loop)
        self.tile_spec = {"star_sizes": sizes, "self_loop": loop}
        self.work = work
        self.fault = args.fault
        rng = random.Random(args.seed)
        self.warm_specs = DesignDraws(rng, self.star_counts, {key_digest(self.tile_design)}).take(
            n_warm
        )
        self.share_304 = rng.uniform(0.24, 0.26)
        self.range_seed = rng.getrandbits(32)
        self.seed_a = rng.getrandbits(32)
        self.seed_cold = rng.getrandbits(32)
        self.seed_replay = rng.getrandbits(32)
        self.tile_plan = plan_from_design(
            self.tile_design, N_RANKS, memory_budget_entries=self.tile_budget
        )
        self.state = None

    def _cold_draws(self) -> DesignDraws:
        """The seeded stream of cold designs, for one server's fresh cache."""
        seen = {key_digest(self.tile_design)} | {d for _, _, d in self.warm_specs}
        return DesignDraws(random.Random(self.seed_cold), self.star_counts, seen)

    # -- set-up ---------------------------------------------------------------
    def _tile_reference(self):
        """Per rank, per tile: (nnz, rows/cols digest) from local tiles."""
        plan = self.tile_plan
        return [
            [(len(rows), _digest_rows_cols(rows, cols)) for rows, cols, _ in iter_task_tiles(plan, task)]
            for task in plan.tasks
        ]

    def _make(self):
        # The previous set-up's server is stopped before this runs.
        server = ServerProcess(fresh_dir(self.work / "cache"), self.tile_budget)
        try:
            refs = {}
            for _spec, design, digest in self.warm_specs:
                refs[digest] = _reference(design)
            if self.fault == "etag":
                digest = self.warm_specs[0][2]
                refs[digest] = ('"sha256:' + "0" * 64 + '"', refs[digest][1])
            tile_refs = self._tile_reference()
            # Every two-tile range of every rank, in a seeded order: a
            # run cycles through them, so each seed streams the same mix.
            ranges = [
                (rank, start, min(len(tiles), start + 2))
                for rank, tiles in enumerate(tile_refs)
                for start in range(max(1, len(tiles) - 1))
            ]
            random.Random(self.range_seed).shuffle(ranges)
            tile_digest = self._preload(server.url)
        except BaseException:
            server.stop()
            raise
        return _Setup(server, tile_digest, tile_refs, ranges, refs)

    def _preload(self, url) -> str:
        """POST the tile design and the warm designs; returns the tile
        design's digest."""
        with ServeClient(url) as client:
            tile_digest = client.post_design(self.tile_spec)["digest"]
            for spec, _design, digest in self.warm_specs:
                if client.post_design(spec)["digest"] != digest:
                    raise RuntimeError("server digest differs from the local one")
        return tile_digest

    def setup(self, speed):
        self.state, setup_s = timed_setup(self._make, speed, lambda s: s.server.stop())
        return setup_s

    def close(self):
        if self.state is not None:
            self.state.server.stop()

    # -- requests and their checks ----------------------------------------------
    # A request is ("warm", digest, sent ETag or None), ("tiles", (rank,
    # start, stop)) or ("post", spec, design, digest).
    def _warm_request(self, rng, digest):
        """A warm GET; a seeded share is conditional, a quarter of those
        on another design's ETag."""
        refs = self.state.refs
        sent = None
        if rng.random() < self.share_304:
            sent = refs[digest][0]
            if rng.random() < WRONG_ETAG_SHARE:
                others = [d for _, _, d in self.warm_specs if d != digest]
                sent = refs[rng.choice(others)][0]
        return ("warm", digest, sent)

    def _send(self, client, request):
        kind = request[0]
        if kind == "warm":
            return client.get_design(request[1], etag=request[2])
        if kind == "tiles":
            rank, start, stop = request[1]
            return client.fetch_tiles(
                self.state.tile_digest, rank, start=start, stop=stop,
                ranks=N_RANKS, budget=self.tile_budget,
            )
        return client.post_design(request[1])

    def _check(self, request, reply, seen) -> str | None:
        kind = request[0]
        if kind == "warm":
            return self._check_design(request[1], request[2], reply, seen)
        if kind == "tiles":
            return self._check_tiles(request[1], reply.tiles, reply.rows, reply.cols)
        return self._check_post(request[2], request[3], reply)

    def _check_design(self, digest, sent_etag, reply, seen) -> str | None:
        etag, doc = self.state.refs[digest]
        if reply.etag != etag:
            return f"{digest}: ETag {reply.etag} != reference {etag}"
        if reply.status == 304:
            return None if sent_etag == etag else f"{digest}: 304 on a non-matching ETag"
        if sent_etag == etag:
            return f"{digest}: {reply.status} on a matching ETag"
        record = reply.doc["record"]
        if reply.doc["digest"] != digest or record != doc:
            return f"{digest}: record differs from the local analytic record"
        if digest not in seen:
            seen.add(digest)
            if f'"{DesignProperties.from_doc(record).checksum()}"' != etag:
                return f"{digest}: record checksum differs"
        return None

    def _check_post(self, design, digest, doc) -> str | None:
        refs = self.state.refs
        if digest not in refs:
            refs[digest] = _reference(design)
        etag, ref = refs[digest]
        if doc["digest"] != digest or doc["cached"]:
            return f"{digest}: POST answered digest {doc['digest']} cached={doc['cached']}"
        if doc["record"] != ref or f'"{DesignProperties.from_doc(doc["record"]).checksum()}"' != etag:
            return f"{digest}: POST record differs from the local analytic record"
        return None

    def _check_tiles(self, rng_range, tiles, rows, cols) -> str | None:
        rank, start, stop = rng_range
        expected = self.state.tile_refs[rank][start:stop]
        if [n for _, n in tiles] != [n for n, _ in expected]:
            return f"tiles rank {rank} [{start},{stop}): sizes differ"
        if [i for i, _ in tiles] != list(range(start, stop)):
            return f"tiles rank {rank} [{start},{stop}): indices differ"
        got, offset = [], 0
        for _, n in tiles:
            got.append(_digest_rows_cols(rows[offset:offset + n], cols[offset:offset + n]))
            offset += n
        if _range_digest(got) != _range_digest([d for _, d in expected]):
            return f"tiles rank {rank} [{start},{stop}): rows/cols digest differs"
        return None

    # -- the closed loop --------------------------------------------------------
    def _load(self, seconds, reference=None):
        """Both connections, closed loop, for ``seconds`` of load, in
        windows of about :data:`WINDOW_S` (one window without a
        ``reference``).  Within a window each client only sends and times
        requests and keeps the replies.  At the window's end both stop;
        then each checks its replies, and only when both are done is the
        reference work timed, so neither a check nor the reference runs
        beside a timed request.  Returns the three logs, the window of
        every connection-A entry, ``(edges, seconds, window)`` of every
        correct tile request, each window's factor from wall to scaled
        time (1 with no reference) and the load wall time."""
        s = self.state
        url = s.server.url
        a_log, b_tiles, b_posts = OpLog(), OpLog(), OpLog()
        a_windows, tile_edges, seen = [], [], set()
        windows = max(1, round(seconds / WINDOW_S)) if reference is not None else 1
        window_s = seconds / windows
        stop_at = [0.0]
        gate = threading.Barrier(3, timeout=GATE_TIMEOUT_S)

        rng_a = random.Random(self.seed_a)
        order = [d for _, _, d in self.warm_specs] * 8
        rng_a.shuffle(order)
        a_requests = (self._warm_request(rng_a, order[t % len(order)]) for t in itertools.count())

        def b_requests():
            cold = self._cold_draws()
            for turn in itertools.count(1):
                if turn % 2:
                    yield ("tiles", s.ranges[(turn // 2) % len(s.ranges)])
                    continue
                try:
                    draw = cold.next()
                except RuntimeError as exc:
                    # No more cold designs: the mix can no longer be
                    # sent, which fails the run.
                    b_posts.add(0.0, False, repr(exc))
                    return
                yield ("post",) + draw

        def judge(request, elapsed, reply, w):
            if isinstance(reply, Exception):  # refused, torn or timed out
                error = repr(reply)
            else:
                try:
                    error = self._check(request, reply, seen)
                except Exception as exc:  # a malformed reply fails its check
                    error = f"check: {exc!r}"
            kind = request[0]
            log = a_log if kind == "warm" else b_tiles if kind == "tiles" else b_posts
            log.add(elapsed, error is None, error)
            if kind == "warm":
                a_windows.append(w)
            elif kind == "tiles" and error is None:
                tile_edges.append((reply.nnz, elapsed, w))

        def connection(requests):
            try:
                with ServeClient(url) as client:
                    for w in range(windows):
                        gate.wait()
                        sent = []
                        while time.perf_counter() < stop_at[0]:
                            request = next(requests, None)
                            if request is None:
                                break
                            t0 = time.perf_counter()
                            try:
                                reply = self._send(client, request)
                            except Exception as exc:  # judged with the replies
                                reply = exc
                            sent.append((request, time.perf_counter() - t0, reply))
                        gate.wait()
                        for request, elapsed, reply in sent:
                            judge(request, elapsed, reply, w)
                        gate.wait()
            except threading.BrokenBarrierError:
                return

        threads = [
            threading.Thread(target=connection, args=(a_requests,)),
            threading.Thread(target=connection, args=(b_requests(),)),
        ]
        for t in threads:
            t.start()
        factors = []
        if reference is not None:
            reference.bracket()
        wall = 0.0
        try:
            for w in range(windows):
                # The deadline is set before the gate releases the clients.
                started = time.perf_counter()
                stop_at[0] = started + window_s
                gate.wait()
                if self.fault == "kill-server" and w == windows // 2:
                    time.sleep(window_s / 2)
                    s.server.kill()
                gate.wait()  # both clients stopped sending
                wall += time.perf_counter() - started
                gate.wait()  # both clients checked their replies
                factors.append(1.0 if reference is None else reference.scale(1.0))
        except BaseException as exc:
            # Releases the clients; a broken gate (a client stuck past
            # the timeout) just ends the load early.
            gate.abort()
            if not isinstance(exc, threading.BrokenBarrierError):
                raise
        finally:
            for t in threads:
                t.join()
        # Windows a broken gate cut short are scaled like the last one.
        factors += [factors[-1] if factors else 1.0] * (windows - len(factors))
        return a_log, a_windows, b_tiles, b_posts, tile_edges, factors, wall

    def _server_metrics(self):
        try:
            with ServeClient(self.state.server.url) as client:
                return client.metrics()
        except ReproError:
            return None

    def measure(self, seconds, reference):
        a_log, a_windows, b_tiles, b_posts, tiles, factor, wall = self._load(seconds, reference)
        log = _merge(a_log, b_tiles, b_posts)
        # A request's time is scaled by the reference timings on either
        # side of its window.  Both metrics are means, like the batch
        # workloads': over the runs made while tuning this benchmark the
        # mean scaled latency repeated better than the median (which
        # hops between requests that overlap a tile stream and those
        # that do not).
        good_a = [(sec, w) for sec, ok, w in zip(a_log.seconds, a_log.ok, a_windows) if ok]
        latency = sum(sec * factor[w] for sec, w in good_a) / len(good_a) if good_a else 0.0
        tile_scaled_s = sum(sec * factor[w] for _, sec, w in tiles)
        tile_rate = sum(n for n, _, _ in tiles) / tile_scaled_s if tiles else 0.0
        raw_a = [sec for sec, _ in good_a]
        tile_s = sum(sec for _, sec, _ in tiles)
        posts = [sec for sec, ok in zip(b_posts.seconds, b_posts.ok) if ok]
        detail = {
            "design_rps": len(good_a) / wall,
            "design_mean_ms": sum(raw_a) / len(raw_a) * 1e3 if raw_a else None,
            "design_p50_ms": median(raw_a) * 1e3,
            "design_p99_ms": percentile(raw_a, 0.99) * 1e3,
            "design_samples": len(good_a),
            "post_p50_ms": median(posts) * 1e3,
            "post_samples": len(posts),
            "tile_edges_per_s": sum(n for n, _, _ in tiles) / tile_s if tile_s else 0.0,
            "tile_requests": b_tiles.attempted,
            "share_304": self.share_304,
            "windows": len(factor),
            "median_reference_ms": median(reference.times) * 1e3,
            "reference_nominal_ms": reference.nominal * 1e3,
            "reference_kind": reference.kind,
            "reference_parallel": reference.parallel,
        }
        return log, {
            "edges_per_s": metric(tile_rate, "edges/s"),
            "latency_ms": metric(latency * 1e3, "ms"),
        }, detail

    # -- traced run -------------------------------------------------------------
    def trace(self, seconds, tracer: Tracer):
        """Half the time: the closed loop against the server subprocess,
        for the server's own counters.  The other half: the same request
        mix sent serially, one request in flight, to a server embedded in
        this process, alternating blocks without and with spans around
        the program's catalog, net and model calls."""
        before = self._server_metrics()
        a_log, _, b_tiles, b_posts, tiles, _, _ = self._load(seconds / 2)
        after = self._server_metrics()
        log = _merge(a_log, b_tiles, b_posts)
        good_a = [sec for sec, ok in zip(a_log.seconds, a_log.ok) if ok]
        edges = sum(n for n, _, _ in tiles)
        layers = serve_deltas(before, after, a_log.attempted, median(good_a) * 1e3, edges)

        per_b = max(1, round(a_log.attempted / max(1, b_tiles.attempted + b_posts.attempted)))
        handle = start_in_thread(
            ServerConfig(
                cache_dir=str(fresh_dir(self.work / "traced-cache")),
                ranks=N_RANKS,
                memory_budget_entries=self.tile_budget,
            )
        )
        try:
            self._preload(handle.base_url)
            plain, spanned = self._replay(handle.base_url, seconds / 2, per_b, tracer, log)
        finally:
            handle.stop()
        return log, layers, plain, spanned

    def _replay(self, url, seconds, per_b, tracer, log):
        """Alternate untraced and traced blocks of the request mix until
        ``seconds`` have passed; returns both lists of block walls.  A
        pair of blocks shares its warm GETs and tile ranges; each block
        POSTs designs of its own (same star counts), so every POST is
        cold.  Replies are checked after their block, unwrapped."""
        s = self.state
        rng = random.Random(self.seed_replay)
        warm_digests = [d for _, _, d in self.warm_specs]
        cold = self._cold_draws()
        span_count = self.star_counts[1] - self.star_counts[0] + 1
        plain, spanned, seen = [], [], set()
        start = time.perf_counter()
        with ServeClient(url) as client:
            while not plain or time.perf_counter() - start < seconds:
                # One tile range and one POST per B turn pair; a block
                # holds one POST of every star count.
                skeleton = []
                for _ in range(span_count):
                    for _ in range(per_b):
                        skeleton.append(self._warm_request(rng, rng.choice(warm_digests)))
                    skeleton.append(("tiles", rng.choice(s.ranges)))
                    for _ in range(per_b):
                        skeleton.append(self._warm_request(rng, rng.choice(warm_digests)))
                    skeleton.append(None)
                for traced in (False, True):
                    requests = [r if r is not None else ("post",) + cold.next() for r in skeleton]
                    results = []
                    with tracer.patched(TRACE_TARGETS) if traced else nullcontext():
                        for request in requests:
                            t0 = time.perf_counter()
                            try:
                                with tracer.operation() if traced else nullcontext():
                                    reply = self._send(client, request)
                            except Exception as exc:  # a failed request is counted
                                reply = exc
                            results.append((request, time.perf_counter() - t0, reply))
                    (spanned if traced else plain).append(sum(r[1] for r in results))
                    for request, elapsed, reply in results:
                        if isinstance(reply, Exception):
                            error = repr(reply)
                        else:
                            try:
                                error = self._check(request, reply, seen)
                            except Exception as exc:  # a malformed reply fails its check
                                error = f"check: {exc!r}"
                        log.add(elapsed, error is None, error)
        return plain, spanned


def _reference(design):
    """(ETag, record document) of the local analytic record."""
    record = analytic_properties(design)
    return f'"{record.checksum()}"', record.to_doc()


def _merge(*logs) -> OpLog:
    merged = OpLog()
    for part in logs:
        for sec, ok in zip(part.seconds, part.ok):
            merged.add(sec, ok)
        merged.errors.extend(part.errors[:5])
    return merged


#: Server counters reported as deltas over the measured phase.
SERVE_COUNTERS = (
    "serve.requests",
    "serve.design_cache_hits",
    "serve.design_computes",
    "serve.http_errors",
    "serve.rejected_busy",
    "serve.timeouts",
)


def _histogram_quantile(before, after, q) -> float:
    """Quantile of the observations between two snapshots of one
    cumulative-bucket histogram, interpolated linearly in its bucket."""
    bounds = []
    for key, count in after["buckets"].items():
        upper = float("inf") if key == "le_inf" else float(key[3:])
        prior = before["buckets"].get(key, 0) if before else 0
        bounds.append((upper, count - prior))
    total = bounds[-1][1]
    if total <= 0:
        return 0.0
    target = q * total
    lower, below = 0.0, 0
    for upper, cumulative in bounds:
        if cumulative >= target:
            if upper == float("inf"):
                return lower
            inside = cumulative - below
            return lower + (upper - lower) * (target - below) / inside if inside else lower
        lower, below = upper, cumulative
    return lower


def serve_deltas(before, after, warm_gets, client_p50_ms, tile_edges) -> dict:
    """``serve.*`` per-layer metrics from two ``/v1/metrics`` snapshots
    (none when the server could not be asked; they then read zero)."""
    layers = {}
    if before is None or after is None:
        return layers
    for name in SERVE_COUNTERS:
        layers[name] = metric(
            after["counters"].get(name, 0) - before["counters"].get(name, 0), "count"
        )
    hist_after = after["histograms"].get("serve.request_s")
    hist_before = before["histograms"].get("serve.request_s")
    p50 = _histogram_quantile(hist_before, hist_after, 0.50) * 1e3 if hist_after else 0.0
    p99 = _histogram_quantile(hist_before, hist_after, 0.99) * 1e3 if hist_after else 0.0
    hits = layers["serve.design_cache_hits"]["value"]
    layers["serve.cache_hit_ratio"] = metric(hits / warm_gets if warm_gets else 0.0, "ratio")
    layers["serve.request_p50_ms"] = metric(p50, "ms")
    layers["serve.request_p99_ms"] = metric(p99, "ms")
    layers["serve.client_gap_ms"] = metric(client_p50_ms - p50, "ms")
    streamed = after["counters"].get("serve.bytes_streamed", 0) - before["counters"].get(
        "serve.bytes_streamed", 0
    )
    layers["net.bytes_per_edge"] = metric(streamed / tile_edges if tile_edges else 0.0, "B/edge")
    return layers
