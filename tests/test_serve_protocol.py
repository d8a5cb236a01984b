"""Protocol conformance suite for the graph service (repro.serve).

Exercises the failure surface the server promises: malformed requests,
unknown digests, invalid tile ranges, oversized asks, saturation,
single-flight cold computes, ETag revalidation, and mid-stream client
disconnects leaving nothing behind.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.errors import ServeError, ServeProtocolError
from repro.net.codec import (
    FRAME_ABORT,
    FRAME_COMMIT,
    FRAME_OPEN,
    FRAME_RESULT,
    FRAME_TILE,
    encode_control_payload,
    encode_frame,
)
from repro.parallel.shm import shm_segment_names
from repro.runtime import MetricsRegistry
from repro.serve import (
    FrameAssembler,
    ServeClient,
    ServerConfig,
    TileStream,
    start_in_thread,
)

SPEC = {"star_sizes": [3, 4, 5], "self_loop": "center", "model": "kron"}


@pytest.fixture
def server(tmp_path):
    metrics = MetricsRegistry()
    handle = start_in_thread(
        ServerConfig(
            cache_dir=str(tmp_path / "cache"),
            ranks=2,
            max_tiles_per_request=64,
            max_body_bytes=4096,
            request_timeout_s=10.0,
        ),
        metrics=metrics,
    )
    handle.metrics = metrics
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServeClient(server.base_url) as c:
        yield c


def _raw_request(port, payload: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


class TestMalformedRequests:
    def test_malformed_json_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request(
            "POST",
            "/v1/design",
            body=b"{this is not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        assert "not JSON" in json.loads(response.read())["error"]
        conn.close()

    def test_non_object_spec_is_422(self, client):
        with pytest.raises(ServeError) as err:
            client.post_design([1, 2, 3])
        assert err.value.status == 422

    def test_invalid_star_sizes_is_422(self, client):
        with pytest.raises(ServeError) as err:
            client.post_design({"star_sizes": ["three"]})
        assert err.value.status == 422

    def test_unknown_spec_field_is_422(self, client):
        with pytest.raises(ServeError) as err:
            client.post_design({**SPEC, "frobnicate": 1})
        assert err.value.status == 422

    def test_unknown_model_is_422(self, client):
        with pytest.raises(ServeError) as err:
            client.post_design({**SPEC, "model": "erdos"})
        assert err.value.status == 422

    def test_skg_past_int64_is_422(self, client):
        # Ten 100-leaf stars need 67 SKG levels: ids would wrap int64.
        with pytest.raises(ServeError) as err:
            client.post_design({"star_sizes": [100] * 10, "model": "skg"})
        assert err.value.status == 422
        assert "analytic_properties" in str(err.value)

    def test_kron_tiles_past_int64_is_422(self, client):
        # 101**10 (about 1.1e20) vertices: the design record is fine,
        # but its vertex ids cannot be generated in int64.
        digest = client.post_design({**SPEC, "star_sizes": [100] * 10})["digest"]
        status, _, body = client._request(
            "GET", f"/v1/tiles/{digest}/0?budget={10**15}&stop=1"
        )
        assert status == 422
        assert b"analytic_properties" in body

    def test_garbage_request_line_is_400(self, server):
        raw = _raw_request(server.port, b"COMPLETE NONSENSE\r\n\r\n")
        assert b"400" in raw.split(b"\r\n", 1)[0]

    def test_oversized_body_is_413(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/v1/design", body=b"x" * 8192)
        response = conn.getresponse()
        assert response.status == 413
        conn.close()

    def test_unknown_path_is_404(self, client):
        status, _, body = client._request("GET", "/v2/everything")
        assert status == 404

    def test_wrong_method_is_405(self, client):
        status, _, _ = client._request("DELETE", "/v1/health")
        assert status == 405


class TestUnknownDigests:
    def test_design_get_unknown_digest_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.get_design("sha256:" + "0" * 64)
        assert err.value.status == 404

    def test_tiles_unknown_digest_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.fetch_tiles("sha256:" + "0" * 64, 0)
        assert err.value.status == 404

    def test_malformed_digest_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.get_design("not-a-digest!")
        assert err.value.status == 404


class TestBadRanges:
    @pytest.fixture
    def digest(self, client):
        return client.post_design(SPEC)["digest"]

    def test_non_integer_rank_is_422(self, client, digest):
        status, _, _ = client._request("GET", f"/v1/tiles/{digest}/zero")
        assert status == 422

    def test_rank_out_of_range_is_422(self, client, digest):
        for rank in (-1, 2, 99):
            with pytest.raises(ServeError) as err:
                client.fetch_tiles(digest, rank, ranks=2)
            assert err.value.status == 422

    def test_negative_start_is_422(self, client, digest):
        with pytest.raises(ServeError) as err:
            client.fetch_tiles(digest, 0, start=-1)
        assert err.value.status == 422

    def test_empty_range_is_422(self, client, digest):
        with pytest.raises(ServeError) as err:
            client.fetch_tiles(digest, 0, start=5, stop=5)
        assert err.value.status == 422

    def test_non_integer_query_param_is_422(self, client, digest):
        status, _, _ = client._request(
            "GET", f"/v1/tiles/{digest}/0?start=soon"
        )
        assert status == 422

    def test_bad_ranks_param_is_422(self, client, digest):
        with pytest.raises(ServeError) as err:
            client.fetch_tiles(digest, 0, ranks=0)
        assert err.value.status == 422

    def test_oversized_explicit_range_is_413(self, client, digest):
        # The fixture server caps max_tiles_per_request at 64.
        with pytest.raises(ServeError) as err:
            client.fetch_tiles(digest, 0, start=0, stop=1000)
        assert err.value.status == 413


class TestSingleFlight:
    def test_concurrent_identical_cold_requests_compute_once(
        self, server, monkeypatch
    ):
        import repro.serve.app as app_module

        gate = threading.Event()
        calls = []
        original = app_module._compute_analytic

        def gated(catalog, subject, include_participation):
            calls.append(1)
            assert gate.wait(timeout=30)
            return original(catalog, subject, include_participation)

        monkeypatch.setattr(app_module, "_compute_analytic", gated)

        results = {}

        def _post(slot):
            with ServeClient(server.base_url) as c:
                results[slot] = c.post_design(SPEC)

        threads = [
            threading.Thread(target=_post, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        # Both requests must be parked on the same in-flight compute.
        deadline = time.monotonic() + 10
        while len(calls) < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # give the second request time to coalesce
        gate.set()
        for thread in threads:
            thread.join(timeout=30)

        assert len(results) == 2
        assert results[0]["digest"] == results[1]["digest"]
        assert results[0]["record"] == results[1]["record"]
        assert len(calls) == 1, "cold compute ran more than once"
        computes = server.metrics.counter("serve.design_computes").snapshot()
        assert computes == 1


class TestSaturation:
    def test_429_when_concurrency_exhausted(self, tmp_path, monkeypatch):
        import repro.serve.app as app_module

        metrics = MetricsRegistry()
        gate = threading.Event()
        handle = start_in_thread(
            ServerConfig(cache_dir=str(tmp_path / "c"), max_concurrency=1),
            metrics=metrics,
        )
        try:
            original = app_module._compute_analytic

            def gated(catalog, subject, include_participation):
                assert gate.wait(timeout=30)
                return original(catalog, subject, include_participation)

            monkeypatch.setattr(app_module, "_compute_analytic", gated)

            holder_result = {}

            def _hold():
                with ServeClient(handle.base_url) as c:
                    holder_result["reply"] = c.post_design(SPEC)

            holder = threading.Thread(target=_hold)
            holder.start()
            deadline = time.monotonic() + 10
            gauge = metrics.gauge("serve.active_requests")
            while gauge.snapshot() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gauge.snapshot() == 1

            with ServeClient(handle.base_url) as c:
                with pytest.raises(ServeError) as err:
                    c.health()
            assert err.value.status == 429
            assert metrics.counter("serve.rejected_busy").snapshot() == 1

            gate.set()
            holder.join(timeout=30)
            assert holder_result["reply"]["digest"].startswith("sha256:")
        finally:
            gate.set()
            handle.stop()


class TestDisconnect:
    def test_mid_stream_disconnect_leaves_nothing_behind(self, server, client):
        digest = client.post_design(SPEC)["digest"]
        # Sanity: a full fetch works (many tiles, via a tiny budget).
        full = client.fetch_tiles(digest, 0, ranks=2, budget=100)
        assert len(full.tiles) > 1

        # Now open the same stream raw and slam the socket shut after
        # the first bytes arrive.
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(
                f"GET /v1/tiles/{digest}/0?ranks=2&budget=100 HTTP/1.1\r\n"
                f"Host: localhost\r\n\r\n".encode()
            )
            assert sock.recv(64)  # the response headers started
            # SO_LINGER with zero timeout makes close() send RST — a
            # real mid-stream disconnect, not a polite FIN handshake.
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",
            )

        deadline = time.monotonic() + 10
        open_streams = server.metrics.gauge("serve.open_streams")
        active = server.metrics.gauge("serve.active_requests")
        while (
            open_streams.snapshot() > 0 or active.snapshot() > 0
        ) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert open_streams.snapshot() == 0
        assert active.snapshot() == 0
        assert shm_segment_names() == ()
        # The server is still perfectly healthy for the next client.
        assert client.health()["status"] == "ok"
        again = client.fetch_tiles(digest, 0, ranks=2, budget=100)
        assert again.rows.tobytes() == full.rows.tobytes()


class TestCaching:
    def test_etag_revalidation_304(self, client):
        reply = client.post_design(SPEC)
        served = client.get_design(reply["digest"])
        assert served.etag is not None
        assert served.doc["cached"] is True
        again = client.get_design(reply["digest"], etag=served.etag)
        assert again.status == 304
        assert again.doc is None

    def test_warm_get_never_computes(self, server, client):
        digest = client.post_design(SPEC)["digest"]
        before = server.metrics.counter("serve.design_computes").snapshot()
        for _ in range(5):
            assert client.get_design(digest).doc["cached"] is True
        after = server.metrics.counter("serve.design_computes").snapshot()
        assert after == before


class TestStreamStateMachine:
    """Client-side protocol enforcement, no server involved."""

    def _frames(self, *frames) -> bytes:
        return b"".join(frames)

    def test_torn_trailing_frame_raises(self):
        assembler = FrameAssembler()
        frame = encode_frame(FRAME_OPEN, encode_control_payload({"start": 0}))
        assembler.feed(frame[: len(frame) - 3])
        with pytest.raises(ServeProtocolError):
            assembler.finish()

    def test_byte_at_a_time_reassembly(self):
        frame = encode_frame(FRAME_OPEN, encode_control_payload({"start": 0}))
        assembler = FrameAssembler()
        out = []
        for i in range(len(frame)):
            out.extend(assembler.feed(frame[i : i + 1]))
        assert len(out) == 1
        assert out[0].frame_type == FRAME_OPEN

    def test_frame_before_open_raises(self):
        stream = TileStream()
        (frame,) = FrameAssembler().feed(
            encode_frame(FRAME_COMMIT, encode_control_payload({}))
        )
        with pytest.raises(ServeProtocolError, match="before OPEN"):
            stream.accept(frame)

    def test_abort_frame_raises(self):
        stream = TileStream()
        frames = FrameAssembler().feed(
            self._frames(
                encode_frame(FRAME_OPEN, encode_control_payload({"start": 0})),
                encode_frame(
                    FRAME_ABORT, encode_control_payload({"error": "boom"})
                ),
            )
        )
        stream.accept(frames[0])
        with pytest.raises(ServeProtocolError, match="boom"):
            stream.accept(frames[1])

    def test_non_contiguous_tile_indices_raise(self):
        import numpy as np

        from repro.net.codec import encode_tile_payload

        tile = encode_tile_payload(
            np.array([0]), np.array([0]), np.array([1])
        )
        frames = FrameAssembler().feed(
            self._frames(
                encode_frame(FRAME_OPEN, encode_control_payload({"start": 0})),
                encode_frame(FRAME_TILE, tile, rank=0, tile_index=0),
                encode_frame(FRAME_TILE, tile, rank=0, tile_index=2),
            )
        )
        stream = TileStream()
        stream.accept(frames[0])
        stream.accept(frames[1])
        with pytest.raises(ServeProtocolError, match="non-contiguous"):
            stream.accept(frames[2])

    def test_commit_stats_mismatch_raises(self):
        frames = FrameAssembler().feed(
            self._frames(
                encode_frame(FRAME_OPEN, encode_control_payload({"start": 0})),
                encode_frame(
                    FRAME_COMMIT,
                    encode_control_payload({"tiles": 7, "nnz": 0}),
                ),
            )
        )
        stream = TileStream()
        stream.accept(frames[0])
        with pytest.raises(ServeProtocolError, match="COMMIT claims"):
            stream.accept(frames[1])

    def test_truncated_stream_raises_at_result(self):
        stream = TileStream()
        for frame in FrameAssembler().feed(
            encode_frame(FRAME_OPEN, encode_control_payload({"start": 0}))
        ):
            stream.accept(frame)
        with pytest.raises(ServeProtocolError, match="truncated"):
            stream.result()

    def test_result_before_commit_raises(self):
        frames = FrameAssembler().feed(
            self._frames(
                encode_frame(FRAME_OPEN, encode_control_payload({"start": 0})),
                encode_frame(FRAME_RESULT, encode_control_payload({})),
            )
        )
        stream = TileStream()
        stream.accept(frames[0])
        with pytest.raises(ServeProtocolError, match="before COMMIT"):
            stream.accept(frames[1])
