"""Asyncio HTTP/JSON front end for the analysis service.

A deliberately small HTTP/1.1 server on stdlib ``asyncio`` streams —
no framework, no new dependencies.  Every response closes the
connection (``Connection: close``), which keeps the protocol layer
trivial and lets the progress stream be a plain unframed NDJSON body.

Endpoints (see ``docs/SERVICE.md``):

* ``GET  /healthz``           — liveness + scheduler stats.
* ``GET  /jobs``              — all jobs, submission order.
* ``POST /jobs``              — submit a request document; ``201`` on a
  new job, ``200`` when deduped onto an existing one, ``400`` on a
  validation error, ``429`` + ``Retry-After`` under backpressure.
* ``GET  /jobs/<id>``         — one job (results included when done).
* ``GET  /jobs/<id>/events``  — NDJSON per-node progress stream (the
  run-report node schema), ending with a terminal ``job`` event.

Blocking work — request validation (which plans against the workload
universe) and job execution — happens on threads via
``asyncio.to_thread`` / the scheduler's runner pool; handler
coroutines only await.  The lint rule **W303** (``repro lint``) keeps
this file honest: no ``time.sleep``, sync file I/O or ``subprocess``
inside ``async def``.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any

from ..errors import ConfigurationError, JobNotFound, QueueFull, ReproError
from .jobs import Job
from .scheduler import Scheduler

__all__ = ["ServiceServer"]

logger = logging.getLogger(__name__)

#: How often the event streamer re-checks a job's event list (seconds).
EVENT_POLL_INTERVAL = 0.05

#: Request bodies above this are rejected (a request document is small;
#: anything bigger is a mistake or abuse).
MAX_BODY_BYTES = 1 << 20

#: Header lines above this count are rejected with 431.
MAX_HEADERS = 64

#: Seconds a client gets to send its whole request (line, headers and
#: body); a slower one is answered 408, so a connection whose headers
#: never end cannot be held open forever.
REQUEST_TIMEOUT = 10.0


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


_STATUS_TEXT = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


def _render_response(status: int, body: bytes, *, content_type: str,
                     extra: dict[str, str] | None = None) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _json_response(status: int, payload: Any,
                   extra: dict[str, str] | None = None) -> bytes:
    body = (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()
    return _render_response(status, body, content_type="application/json",
                            extra=extra)


async def _read_line(reader: asyncio.StreamReader) -> str:
    """One request/header line; a line over the stream limit is a 431."""
    try:
        return (await reader.readline()).decode("latin-1")
    except ValueError:  # asyncio.LimitOverrunError surfaces as ValueError
        raise _HttpError(431, "request line or header too long") from None


class ServiceServer:
    """The HTTP front end over one :class:`Scheduler`.

    ``port=0`` binds an ephemeral port (tests); :attr:`port` reports
    the actual one after :meth:`start`.
    """

    def __init__(self, scheduler: Scheduler, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind, start accepting, and announce the bound address."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break
        await asyncio.to_thread(
            self.scheduler.announce, f"{self.host}:{self.port}"
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.to_thread(self.scheduler.close)

    # -- request plumbing ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception:  # noqa: BLE001 - connection isolation boundary
            logger.exception("unhandled error serving request")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        try:
            method, path, body = await self._read_request(reader)
        except _HttpError as exc:
            writer.write(_json_response(
                exc.status, {"error": str(exc)}, extra=exc.headers))
            await writer.drain()
            return
        try:
            await self._route(method, path, body, writer)
        except _HttpError as exc:
            writer.write(_json_response(
                exc.status, {"error": str(exc)}, extra=exc.headers))
        except ReproError as exc:
            writer.write(_json_response(400, {"error": str(exc)}))
        except Exception as exc:  # noqa: BLE001 - must answer something
            logger.exception("handler failed for %s %s", method, path)
            writer.write(_json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}))
        await writer.drain()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        try:
            async with asyncio.timeout(REQUEST_TIMEOUT):
                return await self._read_request_unbounded(reader)
        except TimeoutError:
            raise _HttpError(
                408, f"request not received within {REQUEST_TIMEOUT:g}s"
            ) from None

    async def _read_request_unbounded(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        request_line = (await _read_line(reader)).strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, path, _version = parts
        content_length = 0
        for _ in range(MAX_HEADERS + 1):
            line = (await _read_line(reader)).strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length") from None
                if content_length < 0:
                    raise _HttpError(400, "bad Content-Length")
        else:
            raise _HttpError(431, f"more than {MAX_HEADERS} header lines")
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            stats = await asyncio.to_thread(self.scheduler.stats)
            writer.write(_json_response(200, {"status": "ok", **stats}))
            return
        if path == "/jobs" and method == "GET":
            jobs = await asyncio.to_thread(self.scheduler.registry.jobs)
            writer.write(_json_response(
                200, {"jobs": [j.to_dict(include_spec=False) for j in jobs]}))
            return
        if path == "/jobs" and method == "POST":
            await self._submit(body, writer)
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = await self._job_or_404(job_id)
            if tail == "" and method == "GET":
                writer.write(_json_response(200, job.to_dict()))
                return
            if tail == "events" and method == "GET":
                await self._stream_events(job, writer)
                return
        raise _HttpError(
            405 if path in ("/jobs", "/healthz") else 404,
            f"no route for {method} {path}",
        )

    async def _job_or_404(self, job_id: str) -> Job:
        try:
            return await asyncio.to_thread(self.scheduler.registry.get, job_id)
        except JobNotFound as exc:
            raise _HttpError(404, str(exc)) from None

    # -- handlers --------------------------------------------------------

    async def _submit(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            request = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from None
        try:
            # Validation plans against the workload universe — real
            # (if light) CPU work, so off the event loop it goes.
            job, created = await asyncio.to_thread(self.scheduler.submit, request)
        except QueueFull as exc:
            raise _HttpError(
                429, str(exc),
                headers={"Retry-After": f"{max(1, round(exc.retry_after))}"},
            ) from None
        except ConfigurationError as exc:
            raise _HttpError(400, str(exc)) from None
        payload = job.to_dict()
        payload["created_job"] = created
        writer.write(_json_response(201 if created else 200, payload))

    async def _stream_events(self, job: Job,
                             writer: asyncio.StreamWriter) -> None:
        """NDJSON progress stream: replay, then follow until terminal.

        ``job.events`` is append-only, so an index is a stable cursor;
        the terminal ``job`` marker event the scheduler appends ends
        the stream without a timeout.
        """
        writer.write((
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        ).encode())
        cursor = 0
        while True:
            events = job.events
            while cursor < len(events):
                event = events[cursor]
                cursor += 1
                writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
                if event.get("event") == "job":
                    await writer.drain()
                    return
            await writer.drain()
            await asyncio.sleep(EVENT_POLL_INTERVAL)
