"""The asyncio front end: a JSON-lines solver service over TCP.

:class:`SolverServer` accepts connections with ``asyncio.start_server``
and speaks :mod:`repro.server.protocol`; the actual solving happens in
the :class:`~repro.server.pool.WorkerPool`, whose callback threads are
bridged onto the event loop with ``call_soon_threadsafe`` — the loop
never blocks on a solve.  Each connection gets an outbox queue drained
by a writer task, so events stay strictly ordered per connection even
when many jobs finish at once.  The server sends only replies and job
events: a ``stats`` request gets one snapshot, and nothing is pushed
unasked.

Disconnect semantics: jobs submitted on a connection that drops are
cooperatively cancelled — an unattended client must not keep burning
worker CPU.  Submit on a second connection if you want fire-and-forget.

:class:`ServerClient` is the matching stdlib-only client (used by the
end-to-end tests and ``benchmarks/bench_server.py``): submit returns
the server-assigned job id, ``wait_result`` demultiplexes the event
stream per job.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Set

from . import protocol
from .pool import WorkerPool


class SolverServer:
    """Serve solving jobs over newline-delimited JSON.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  :meth:`start` builds the pool — and with it the
    persistent conversion cache at ``cache_dir`` — which every
    connection shares; :meth:`close` stops listening, ends every open
    connection (cancelling its live jobs) and then shuts the pool down.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self._pool_args = (jobs, cache_dir)
        self.pool: Optional[WorkerPool] = None
        self._server: Optional[asyncio.AbstractServer] = None
        # One task per open connection, so close() can end them before
        # the pool they cancel jobs on goes away.
        self._connections: Set[asyncio.Task] = set()

    async def start(self) -> None:
        if self.pool is None:
            jobs, cache_dir = self._pool_args
            self.pool = WorkerPool(jobs=jobs, cache_dir=cache_dir)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            # Before wait_closed(): from Python 3.12.1 it waits for every
            # connection to end.
            connections = list(self._connections)
            for task in connections:
                task.cancel()
            await asyncio.gather(*connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        if self.pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.pool.close
            )
            self.pool = None

    async def __aenter__(self) -> "SolverServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- per-connection machinery --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        outbox: asyncio.Queue = asyncio.Queue()
        live_jobs: Set[int] = set()
        writer_task = asyncio.ensure_future(self._drain(outbox, writer))
        connection = asyncio.current_task()
        self._connections.add(connection)

        def post(message: Dict[str, object]) -> None:
            """Queue an event from any thread, loop-safely."""
            loop.call_soon_threadsafe(outbox.put_nowait, message)

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    self._handle_request(line, post, live_jobs)
                except protocol.ProtocolError as exc:
                    post(protocol.event("error", error=str(exc)))
        except (ConnectionResetError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            # A cancel is close() ending the connection.  Return normally:
            # Python 3.11's start_server reports a cancelled handler task
            # as an unhandled exception.
            pass
        finally:
            self._connections.discard(connection)
            for job_id in list(live_jobs):
                self.pool.cancel(job_id)
            writer_task.cancel()
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _handle_request(self, line: bytes, post, live_jobs: Set[int]) -> None:
        message = protocol.decode_line(line)
        op = protocol.parse_request(message)
        if op == "ping":
            post(protocol.event("pong"))
            return
        if op == "stats":
            post(protocol.event("stats", **self._stats_snapshot()))
            return
        if op == "cancel":
            ok = self.pool.cancel(message["job"])
            post(protocol.event("cancelling" if ok else "error",
                                job=message["job"],
                                **({} if ok else {"error": "unknown or finished job"})))
            return
        # submit
        spec = protocol.job_spec_from_request(message)

        def on_event(kind: str, payload, _spec=spec) -> None:
            # Runs on the pool's reader thread; `post` hops to the loop.
            job_id = _spec.job_id
            if kind == "progress":
                post(protocol.event("progress", job=job_id, **payload))
                return
            live_jobs.discard(job_id)
            if kind == "error":
                post(protocol.event("error", job=job_id, error=payload))
            else:
                body = {k: v for k, v in payload.items() if k != "job_id"}
                post(protocol.event("result", job=job_id, **body))

        job_id = self.pool.submit(spec, on_event=on_event)
        live_jobs.add(job_id)
        post(protocol.event("accepted", job=job_id, req=message.get("req")))

    def _stats_snapshot(self) -> Dict[str, object]:
        """Pool counters + merged metrics, as one ``stats`` event body."""
        stats = dict(self.pool.stats())
        stats["cache_dir"] = self.pool.cache_dir
        return stats

    @staticmethod
    async def _drain(
        outbox: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            message = await outbox.get()
            writer.write(protocol.encode(message))
            await writer.drain()


class ServerClient:
    """A minimal asyncio client for the JSON-lines protocol."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._buffer = []  # events read while waiting for something else
        self._next_req = 1

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServerClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "ServerClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _send(self, message: Dict[str, object]) -> None:
        self._writer.write(protocol.encode(message))
        await self._writer.drain()

    async def _next_event(self) -> Dict[str, object]:
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode_line(line)

    async def _read_until(self, predicate) -> Dict[str, object]:
        """Return the first (buffered or fresh) event matching, buffering
        whatever else arrives in the meantime."""
        for i, ev in enumerate(self._buffer):
            if predicate(ev):
                return self._buffer.pop(i)
        while True:
            ev = await self._next_event()
            if predicate(ev):
                return ev
            self._buffer.append(ev)

    async def submit(self, fmt: str, text: str, **options) -> int:
        """Submit a job; returns the server-assigned job id."""
        req = self._next_req
        self._next_req += 1
        message = {"op": "submit", "req": req, "fmt": fmt, "text": text}
        message.update(options)
        await self._send(message)
        ev = await self._read_until(
            lambda e: (e.get("event") == "accepted" and e.get("req") == req)
            or (e.get("event") == "error" and "job" not in e)
        )
        if ev["event"] == "error":
            raise protocol.ProtocolError(ev.get("error", "submit rejected"))
        return ev["job"]

    async def wait_result(
        self, job_id: int, timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """Wait for the job's terminal event (``result`` or ``error``)."""
        coro = self._read_until(
            lambda e: e.get("event") in ("result", "error")
            and e.get("job") == job_id
        )
        if timeout is not None:
            return await asyncio.wait_for(coro, timeout)
        return await coro

    async def progress(self, job_id: int) -> Dict[str, object]:
        """Wait for the job's next ``progress`` event."""
        return await self._read_until(
            lambda e: e.get("event") == "progress" and e.get("job") == job_id
        )

    async def cancel(self, job_id: int) -> None:
        await self._send({"op": "cancel", "job": job_id})

    async def ping(self) -> None:
        await self._send({"op": "ping"})
        await self._read_until(lambda e: e.get("event") == "pong")

    async def stats(self) -> Dict[str, object]:
        """One stats snapshot."""
        await self._send({"op": "stats"})
        return await self._read_until(lambda e: e.get("event") == "stats")

