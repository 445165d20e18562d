"""End-to-end solver service: the JSON-lines protocol over a real
asyncio server, against real worker processes.

The acceptance path: a client submits a mix of ANF and DIMACS jobs over
the socket and the verdicts match in-process solving; a mid-flight
cancel stops the worker within one conflict; a second server
started on the same cache directory reports disk hits and reproduces
the CNF bit-for-bit.
"""

import asyncio
import random
import time

import pytest

from repro.server import protocol
from repro.server.app import ServerClient, SolverServer
from repro.server.jobs import JobSpec, execute_job

ANF_SAT = "x0*x1 + x2 + 1\nx1*x2 + x0\nx0 + x1 + x2 + 1\n"
ANF_UNSAT = "x0\nx0 + 1\n"
DIMACS_SAT = "p cnf 3 2\n1 -2 0\n2 3 0\n"
DIMACS_UNSAT = "p cnf 1 2\n1 0\n-1 0\n"


def _hard_instance(n=200, ratio=4.26, seed=7):
    rng = random.Random(seed)
    m = int(n * ratio)
    lines = ["p cnf {} {}".format(n, m)]
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        lines.append(
            " ".join(str(v if rng.random() < 0.5 else -v) for v in vs) + " 0"
        )
    return "\n".join(lines) + "\n"


def test_mixed_jobs_match_in_process_solving(tmp_path):
    jobs = [
        ("anf", ANF_SAT),
        ("anf", ANF_UNSAT),
        ("dimacs", DIMACS_SAT),
        ("dimacs", DIMACS_UNSAT),
        ("anf", ANF_SAT),
        ("dimacs", DIMACS_SAT),
    ]
    # The ground truth, computed in-process through the same pipeline.
    expected = [
        execute_job(JobSpec(job_id=1, fmt=fmt, text=text))["verdict"]
        for fmt, text in jobs
    ]

    async def run():
        async with SolverServer(jobs=2, cache_dir=str(tmp_path)) as server:
            async with await ServerClient.connect(
                server.host, server.port
            ) as client:
                ids = [
                    await client.submit(fmt, text) for fmt, text in jobs
                ]
                return [
                    (await client.wait_result(job, timeout=120))["verdict"]
                    for job in ids
                ]

    verdicts = asyncio.run(run())
    assert verdicts == expected


def test_mid_flight_cancel_stops_within_a_slice():
    hard = _hard_instance()

    async def run():
        async with SolverServer(jobs=1) as server:
            async with await ServerClient.connect(
                server.host, server.port
            ) as client:
                job = await client.submit("dimacs", hard, preprocess=False)
                # Wait until the worker reports it is actually solving.
                ev = await client.progress(job)
                while ev.get("stage") != "solving":
                    ev = await client.progress(job)
                await client.cancel(job)
                t0 = time.monotonic()
                result = await client.wait_result(job, timeout=30)
                return result, time.monotonic() - t0

    result, elapsed = asyncio.run(run())
    assert result["verdict"] == "cancelled"
    assert elapsed < 5.0


def test_warm_server_restart_reports_disk_hits_bit_for_bit(tmp_path):
    async def run_server_once():
        async with SolverServer(jobs=1, cache_dir=str(tmp_path)) as server:
            async with await ServerClient.connect(
                server.host, server.port
            ) as client:
                job = await client.submit("anf", ANF_SAT)
                return await client.wait_result(job, timeout=120)

    cold = asyncio.run(run_server_once())
    warm = asyncio.run(run_server_once())  # brand-new server, same cache dir
    assert cold["verdict"] == warm["verdict"] == "sat"
    assert warm["stats"]["conversion_disk_hits"] > 0
    assert warm["cnf_sha256"] == cold["cnf_sha256"]


def test_ping_stats_and_protocol_errors(tmp_path):
    async def run():
        async with SolverServer(jobs=1, cache_dir=str(tmp_path)) as server:
            async with await ServerClient.connect(
                server.host, server.port
            ) as client:
                await client.ping()
                stats = await client.stats()
                assert stats["workers"] == 1
                assert stats["cache_dir"] == str(tmp_path)

                # Unknown op → protocol-level error, connection stays up.
                client._writer.write(b'{"op": "frobnicate"}\n')
                await client._writer.drain()
                ev = await client._read_until(
                    lambda e: e.get("event") == "error" and "job" not in e
                )
                assert "frobnicate" in ev["error"]

                # Bad JSON → protocol-level error, connection stays up.
                client._writer.write(b"this is not json\n")
                await client._writer.drain()
                ev = await client._read_until(
                    lambda e: e.get("event") == "error" and "job" not in e
                )
                assert "JSON" in ev["error"]

                # Bad submit (unknown format) → rejected before queueing.
                with pytest.raises(protocol.ProtocolError):
                    await client.submit("cnf", DIMACS_SAT)

                # The connection still works after all of that.
                job = await client.submit(
                    "dimacs", DIMACS_SAT, preprocess=False
                )
                result = await client.wait_result(job, timeout=60)
                assert result["verdict"] == "sat"

    asyncio.run(run())


def test_disconnect_cancels_live_jobs():
    hard = _hard_instance()

    async def run():
        async with SolverServer(jobs=1) as server:
            client = await ServerClient.connect(server.host, server.port)
            job = await client.submit("dimacs", hard, preprocess=False)
            ev = await client.progress(job)
            while ev.get("stage") != "solving":
                ev = await client.progress(job)
            await client.close()  # drop the connection mid-solve
            pool = server.pool
            deadline = time.monotonic() + 15
            while pool.stats()["running"] > 0:
                assert time.monotonic() < deadline, (
                    "disconnect did not cancel the running job"
                )
                await asyncio.sleep(0.1)

    asyncio.run(run())


def test_two_clients_share_one_pool(tmp_path):
    async def run():
        async with SolverServer(jobs=2, cache_dir=str(tmp_path)) as server:
            a = await ServerClient.connect(server.host, server.port)
            b = await ServerClient.connect(server.host, server.port)
            async with a, b:
                ja = await a.submit("dimacs", DIMACS_SAT, preprocess=False)
                jb = await b.submit("dimacs", DIMACS_UNSAT, preprocess=False)
                ra = await a.wait_result(ja, timeout=60)
                rb = await b.wait_result(jb, timeout=60)
                assert ra["verdict"] == "sat"
                assert rb["verdict"] == "unsat"
                assert ja != jb  # pool-global ids

    asyncio.run(run())
