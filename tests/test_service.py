"""End-to-end tests for the analysis service (`repro serve`).

The server runs in-process on a background thread with its own event
loop; clients talk real HTTP over a loopback socket.  The scenarios
mirror the service's core claims (docs/SERVICE.md): in-flight dedupe
(identical concurrent requests share one computation), backpressure
(bounded queue, 429 + Retry-After), crash convergence (a worker killed
mid-job via REPRO_FAULTS still produces the fault-free bytes), and
bit-identical results vs the one-shot CLI path.
"""

import asyncio
import threading
import time

import pytest

from repro.errors import ConfigurationError, JobNotFound, QueueFull
from repro.experiments import ExperimentContext
from repro.pipeline import FailureMemo, FaultKind
from repro.service import JobRegistry, JobSpec, Scheduler, ServiceClient, ServiceServer
from repro.workload_spec import named_suite

#: Small, fast, deterministic job used throughout: the VM kernel suite
#: at a tiny scale with a short history grid.
SMALL_REQUEST = {
    "experiments": ["fig3"],
    "suite": "kernels",
    "scale": 0.05,
    "history_lengths": [0, 2, 4],
}


class _ServerHarness:
    """Scheduler + server on a daemon thread; clients use real sockets."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.server = ServiceServer(scheduler, port=0)
        self._started = threading.Event()
        self._stop = None
        self._loop = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._stop = asyncio.Event()

        async def main():
            await self.server.start()
            self._started.set()
            await self._stop.wait()
            await self.server.stop()

        try:
            self._loop.run_until_complete(main())
        finally:
            self._started.set()  # unblock a waiter even on startup failure
            self._loop.close()

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(timeout=30), "server did not start"
        assert self.server.port, "server failed to bind"
        return self

    def __exit__(self, *exc_info):
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    @property
    def client(self):
        return ServiceClient("127.0.0.1", self.server.port)


def expected_fig3(scale=0.05, histories=(0, 2, 4)):
    """The fault-free one-shot rendering the service must reproduce."""
    context = ExperimentContext(
        suite=named_suite("kernels", scale=scale),
        history_lengths=histories,
        cache_dir=None,
    )
    return context.render("fig3")


# -- job model ------------------------------------------------------------


class TestJobSpec:
    def test_content_key_is_stable_and_engine_free(self):
        a = JobSpec.from_request(dict(SMALL_REQUEST))
        b = JobSpec.from_request({**SMALL_REQUEST, "engine": "reference"})
        c = JobSpec.from_request({**SMALL_REQUEST, "scale": 0.1})
        assert a.content_key() == b.content_key()
        assert a.content_key() != c.content_key()

    def test_experiments_sugar_equals_render_targets(self):
        sugar = JobSpec.from_request(dict(SMALL_REQUEST))
        explicit = JobSpec.from_request(
            {**{k: v for k, v in SMALL_REQUEST.items() if k != "experiments"},
             "targets": ["render:fig3"]}
        )
        assert sugar.content_key() == explicit.content_key()

    def test_rejects_unknown_fields_targets_and_bad_scale(self):
        with pytest.raises(ConfigurationError, match="unknown request field"):
            JobSpec.from_request({"targets": ["sweep"], "bogus": 1})
        with pytest.raises(ConfigurationError, match="unknown target"):
            JobSpec.from_request({"targets": ["not-a-thing"]})
        with pytest.raises(ConfigurationError, match="needs 'targets'"):
            JobSpec.from_request({"scale": 1.0})
        with pytest.raises(ConfigurationError, match="invalid scale"):
            JobSpec.from_request({"targets": ["sweep"], "scale": "big"})


class TestJobRegistry:
    def test_dedupe_and_backpressure(self):
        registry = JobRegistry(queue_limit=1)
        spec = JobSpec.from_request(dict(SMALL_REQUEST))
        job, created = registry.submit(spec)
        assert created
        again, created_again = registry.submit(spec)
        assert again is job and not created_again
        assert job.subscribers == 2
        # The queue is full (one queued job) — a *different* spec is
        # rejected, while the duplicate above was absorbed for free.
        other = JobSpec.from_request({**SMALL_REQUEST, "scale": 0.06})
        with pytest.raises(QueueFull) as excinfo:
            registry.submit(other)
        assert excinfo.value.retry_after > 0

    def test_get_unknown_raises(self):
        with pytest.raises(JobNotFound):
            JobRegistry().get("nope")


class TestFailureMemo:
    def test_record_get_forget_snapshot(self):
        memo = FailureMemo()
        assert memo.get("d1") is None and len(memo) == 0
        memo.record("d1", FaultKind.NODE_ERROR, "boom\nand detail")
        kind, error = memo.get("d1")
        assert kind is FaultKind.NODE_ERROR and "boom" in error
        snapshot = memo.snapshot()
        assert snapshot["d1"]["kind"] == "node-error"
        assert "\n" not in snapshot["d1"]["error"]
        memo.forget("d1")
        assert memo.get("d1") is None


# -- end-to-end -----------------------------------------------------------


class TestServiceEndToEnd:
    def test_concurrent_duplicates_share_one_computation(self, tmp_path):
        scheduler = Scheduler(tmp_path / "cache", workers=1, max_running=2,
                              queue_limit=4, retries=2)
        with _ServerHarness(scheduler) as harness:
            client = harness.client
            results = []

            def submit():
                results.append(client.submit(dict(SMALL_REQUEST)))

            threads = [threading.Thread(target=submit) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert len({r["id"] for r in results}) == 1, "requests did not dedupe"
            assert sorted(r["created_job"] for r in results) == [False, True]
            job_id = results[0]["id"]
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done"
            assert final["subscribers"] == 2

            # Exactly one computation: every computed node event is
            # unique (no node ran twice for the two submissions).
            events = list(client.events(job_id))
            assert events[-1]["event"] == "job" and events[-1]["state"] == "done"
            computed = [e["key"] for e in events
                        if e.get("event") == "node" and e["status"] == "computed"]
            assert len(computed) == len(set(computed))

            # Bit-identical to the one-shot pipeline path.
            rendered = final["results"]["render:fig3"]["rendered"]
            assert rendered == expected_fig3().rendered

    def test_second_submission_after_done_reuses_results(self, tmp_path):
        scheduler = Scheduler(tmp_path / "cache", workers=1, retries=2)
        with _ServerHarness(scheduler) as harness:
            client = harness.client
            first = client.submit(dict(SMALL_REQUEST))
            done = client.wait(first["id"], timeout=120)
            assert done["state"] == "done"
            again = client.submit(dict(SMALL_REQUEST))
            assert again["id"] == first["id"]
            assert not again["created_job"]
            assert again["state"] == "done"
            assert again["results"] == done["results"]

    def test_backpressure_responds_429_with_retry_after(self, tmp_path):
        scheduler = Scheduler(tmp_path / "cache", workers=1, max_running=1,
                              queue_limit=1)
        # Wedge the single runner before it marks jobs running, so the
        # first job pins the queue deterministically.
        gate = threading.Event()
        real_run = scheduler._run_job
        scheduler._run_job = lambda job: (gate.wait(30), real_run(job))
        with _ServerHarness(scheduler) as harness:
            client = harness.client
            first = client.submit(dict(SMALL_REQUEST))
            assert first["state"] == "queued"
            # Duplicate of the queued job: dedupe beats backpressure.
            assert not client.submit(dict(SMALL_REQUEST))["created_job"]
            # New work is rejected with the backoff hint.
            with pytest.raises(QueueFull) as excinfo:
                client.submit({**SMALL_REQUEST, "scale": 0.06})
            assert excinfo.value.retry_after >= 1
            gate.set()
            assert client.wait(first["id"], timeout=120)["state"] == "done"

    def test_worker_crash_converges_to_fault_free_bytes(self, tmp_path, monkeypatch):
        # Kill the worker process on the first attempt of one sweep
        # node: the pool rebuilds, the retry recomputes, and the final
        # bytes match a fault-free run (docs/FAULTS.md semantics, now
        # under the service scheduler).  The fault-free baseline must be
        # computed before the fault env is set: it runs inline in this
        # process and would otherwise hit the crash site itself.
        expected = expected_fig3().rendered
        monkeypatch.setenv("REPRO_FAULTS", "seed=3,crash=1@sweep:vm/sieve#a1")
        scheduler = Scheduler(tmp_path / "cache", workers=2, max_running=1,
                              retries=3)
        with _ServerHarness(scheduler) as harness:
            client = harness.client
            job = client.submit(dict(SMALL_REQUEST))
            final = client.wait(job["id"], timeout=180)
            assert final["state"] == "done", final.get("error")
            events = list(client.events(job["id"]))
            crashed = [e for e in events if e.get("event") == "node"
                       and "worker-crash" in e.get("faults", [])]
            assert crashed, "fault injection never fired"
            assert all(e["attempts"] >= 2 for e in crashed)
            rendered = final["results"]["render:fig3"]["rendered"]
            assert rendered == expected

    def test_http_validation_and_404(self, tmp_path):
        scheduler = Scheduler(tmp_path / "cache", workers=1)
        with _ServerHarness(scheduler) as harness:
            client = harness.client
            assert client.health()["status"] == "ok"
            with pytest.raises(ConfigurationError, match="unknown target"):
                client.submit({"targets": ["not-a-thing"]})
            with pytest.raises(JobNotFound):
                client.job("f" * 64)
            assert client.jobs() == []


def raw_exchange(port, payload, *, hold_open=False, timeout=30):
    """Send raw bytes, return (status code, raw response, seconds waited).

    With ``hold_open`` the client never finishes its request: it sends
    ``payload`` and then waits for the server to answer anyway.
    """
    import socket

    start = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        if not hold_open:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    response = b"".join(chunks)
    status = int(response.split(b" ", 2)[1]) if response else None
    return status, response, time.monotonic() - start


class TestHostileRequests:
    """Broken or hostile HTTP input ends in a 4xx, never a dropped
    connection or a socket held open forever."""

    def test_negative_content_length_is_400(self, tmp_path):
        with _ServerHarness(Scheduler(tmp_path / "cache", workers=1)) as harness:
            status, response, _ = raw_exchange(
                harness.server.port,
                b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            )
            assert status == 400
            assert b"bad Content-Length" in response
            # The server is still healthy afterwards.
            assert harness.client.health()["status"] == "ok"

    def test_headers_that_never_end_time_out_with_408(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.server.REQUEST_TIMEOUT", 0.5)
        scheduler = Scheduler(tmp_path / "cache", workers=1)
        with _ServerHarness(scheduler) as harness:
            status, response, waited = raw_exchange(
                harness.server.port,
                b"GET /healthz HTTP/1.1\r\nX-Slow: 1\r\n",
                hold_open=True,
            )
            assert status == 408
            assert 0.4 < waited < 20
            assert harness.client.health()["status"] == "ok"

    def test_silent_client_times_out_with_408(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.server.REQUEST_TIMEOUT", 0.5)
        scheduler = Scheduler(tmp_path / "cache", workers=1)
        with _ServerHarness(scheduler) as harness:
            status, _, _ = raw_exchange(harness.server.port, b"", hold_open=True)
            assert status == 408

    def test_too_many_headers_is_431(self, tmp_path):
        from repro.service.server import MAX_HEADERS

        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS + 1))
        with _ServerHarness(Scheduler(tmp_path / "cache", workers=1)) as harness:
            status, _, _ = raw_exchange(
                harness.server.port,
                b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n",
            )
            assert status == 431
            # Exactly the cap is still fine.
            ok = b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS))
            status, _, _ = raw_exchange(
                harness.server.port, b"GET /healthz HTTP/1.1\r\n" + ok + b"\r\n"
            )
            assert status == 200

    def test_overlong_header_line_is_431(self):
        # Driven on a bare StreamReader: over a socket the server's close
        # races the client's unsent bytes into a reset.
        from repro.service.server import _HttpError, _read_line

        async def status_of(data):
            reader = asyncio.StreamReader(limit=64)
            reader.feed_data(data)
            reader.feed_eof()
            try:
                await _read_line(reader)
            except _HttpError as exc:
                return exc.status
            return None

        assert asyncio.run(status_of(b"X-Big: " + b"a" * 100 + b"\r\n")) == 431
        assert asyncio.run(status_of(b"X-Ok: a\r\n")) is None


class TestGcCoordination:
    def test_gc_fails_fast_while_served(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        scheduler = Scheduler(cache, workers=1)
        with _ServerHarness(scheduler) as harness:
            client = harness.client
            client.wait(client.submit(dict(SMALL_REQUEST))["id"], timeout=120)
            code = main([
                "artifacts", "gc", "--cache-dir", str(cache),
                "--lock-timeout", "0.1",
            ])
            err = capsys.readouterr().err
            assert code == 1
            assert "store busy" in err and "serve pid" in err
        # Server gone: the same gc succeeds.
        code = main(["artifacts", "gc", "--cache-dir", str(cache), "--dry-run"])
        assert code == 0
        assert "gc:" in capsys.readouterr().out

    def test_second_scheduler_refuses_served_cache(self, tmp_path):
        from repro.errors import ServiceError

        cache = tmp_path / "cache"
        with Scheduler(cache, workers=1):
            rival = Scheduler(cache, workers=1)
            with pytest.raises(ServiceError, match="already served"):
                rival.start()
            rival.close()


class TestSubmitCli:
    def test_submit_output_matches_run_byte_for_byte(self, tmp_path, capsys):
        from repro.cli import main

        one_shot = main([
            "run", "fig3", "--suite", "kernels", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "oneshot-cache"),
        ])
        assert one_shot == 0
        expected_stdout = capsys.readouterr().out

        scheduler = Scheduler(tmp_path / "serve-cache", workers=1,
                              max_running=1, retries=2)
        with _ServerHarness(scheduler) as harness:
            code = main([
                "submit", "fig3", "--suite", "kernels", "--scale", "0.05",
                "--port", str(harness.server.port), "--follow",
            ])
            captured = capsys.readouterr()
            assert code == 0
            assert captured.out == expected_stdout
            assert "job " in captured.err  # progress goes to stderr only


class TestServeLockLifecycle:
    def test_serve_info_written_and_cleared(self, tmp_path):
        from repro.pipeline import ArtifactStore

        cache = tmp_path / "cache"
        store = ArtifactStore(cache)
        scheduler = Scheduler(cache, workers=1)
        scheduler.start(address="127.0.0.1:12345")
        try:
            info = store.read_serve_info()
            assert info is not None
            assert info["address"] == "127.0.0.1:12345"
            assert isinstance(info["pid"], int)
        finally:
            scheduler.close()
        assert store.read_serve_info() is None
        # Lock released: immediate acquisition succeeds.
        store.serve_lock.acquire(timeout=0)
        store.serve_lock.release()
