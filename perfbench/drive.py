"""The generator: one process, one asyncio loop, one TCP connection.

``open_loop`` sends each read at its scheduled instant whether or not
earlier reads have answered; ``decode_stream`` runs one closed-loop token
stream (append, wait for the acknowledgement, attend, next token).
Every op keeps its scheduled start, so latency is measured from the
schedule and a stall is charged to every request it delays.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as now

import numpy as np

from perfbench.measure import WINDOW_SECONDS, cpu_times
from repro.serve import AppendRowsMutation, AsyncAttentionClient, Tracer

__all__ = [
    "Op",
    "OpTracer",
    "ServerProcess",
    "count",
    "decode_stream",
    "open_loop",
    "run_phase",
    "set_up",
]

HERE = Path(__file__).resolve().parent
#: Patience for the answers still in flight when the schedule ends.
DRAIN_SECONDS = 20.0

CURRENT_OP = contextvars.ContextVar("perfbench_op", default=None)


class OpTracer(Tracer):
    """A client tracer that tags each ``client_request`` span with the
    generator's op index, so spans join back to the schedule."""

    def start_span(self, name, **kwargs):
        span = super().start_span(name, **kwargs)
        span.attrs["op"] = CURRENT_OP.get()
        return span


@dataclass
class Op:
    """One scheduled read (``decode``: one token, append then attend)."""

    index: int
    session: int
    due: float  # absolute perf_counter time the op was scheduled for
    started: float = math.nan
    acked: float = math.nan  # decode: append acknowledged
    done: float = math.nan
    append_error: str | None = None
    read_error: str | None = None
    output: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return self.append_error is None and self.read_error is None

    @property
    def latency(self) -> float:
        """Seconds from the scheduled start to the answer; a failed op
        is a miss (``inf``)."""
        return self.done - self.due if self.ok else math.inf

    @property
    def write_latency(self) -> float:
        if self.append_error is not None:
            return math.inf
        return self.acked - self.due


def _error_name(exc: BaseException) -> str:
    return type(exc).__name__


async def _wait_until(deadline: float) -> None:
    delay = deadline - now()
    if delay > 0:
        await asyncio.sleep(delay)


async def read(client, name: str, query: np.ndarray, op: Op) -> None:
    if math.isnan(op.started):
        op.started = now()
    CURRENT_OP.set(op.index)
    try:
        op.output = (await client.attend_many(name, query[np.newaxis]))[0]
    except Exception as exc:  # noqa: BLE001 — every failure is a miss
        op.read_error = _error_name(exc)
    op.done = now()


async def open_loop(client, plan, names, ops: list[Op]) -> None:
    """Fire every read at its scheduled time; never wait for answers."""
    tasks = []
    try:
        for op in ops:
            await _wait_until(op.due)
            tasks.append(asyncio.ensure_future(
                read(client, names[op.session], plan.queries[op.index], op)
            ))
        await _settle(tasks, ops, decode=False)
    finally:
        for task in tasks:
            task.cancel()


async def decode_stream(client, plan, names, ops: list[Op]) -> None:
    """One token stream: each token appends its row, waits for the
    acknowledgement, then attends; the next token waits for this one."""
    broken = None
    for op in ops:
        await _wait_until(op.due)
        op.started = now()
        if broken is not None:
            # The server's memory no longer matches the plan: the rest
            # of the stream is not sent and counts as misses.
            op.append_error = op.read_error = broken
            op.acked = op.done = now()
            continue
        mutation = AppendRowsMutation(
            key_rows=plan.append_keys[op.index][np.newaxis],
            value_rows=plan.append_values[op.index][np.newaxis],
        )
        try:
            await client.mutate_session(names[op.session], mutation)
        except Exception as exc:  # noqa: BLE001 — a failed append is a miss
            op.append_error = broken = _error_name(exc)
            op.read_error = "AppendFailed"
            op.acked = op.done = now()
            continue
        op.acked = now()
        await read(client, names[op.session], plan.queries[op.index], op)


async def _settle(tasks, ops: list[Op], decode: bool) -> None:
    """Wait out the drain; whatever has not answered by then is a miss."""
    if tasks:
        await asyncio.wait(tasks, timeout=DRAIN_SECONDS)
    for op in ops:
        if decode and math.isnan(op.acked):
            op.append_error = op.append_error or "Timeout"
            op.acked = now()
        if math.isnan(op.done):
            op.read_error = op.read_error or "Timeout"
            op.done = now()


async def run_phase(client, plan, names, start: float, cpu: list) -> list[Op]:
    """The timed phase; ``start`` is the absolute time of schedule 0.

    ``cpu`` receives a :func:`~perfbench.measure.cpu_times` sample at
    every window boundary of the schedule.
    """
    ops = [
        Op(index=i, session=int(plan.session[i]), due=start + float(plan.due[i]))
        for i in range(len(plan))
    ]
    windows = int(math.ceil(float(plan.due[-1]) / WINDOW_SECONDS + 1e-9))
    sampler = asyncio.ensure_future(_sample_cpu(start, windows, cpu))
    try:
        if plan.append_keys is None:
            await open_loop(client, plan, names, ops)
        else:
            await _decode(client, plan, names, ops, start)
        await sampler
    finally:
        sampler.cancel()
    return ops


async def _sample_cpu(start: float, windows: int, out: list) -> None:
    for k in range(windows + 1):
        await _wait_until(start + k * WINDOW_SECONDS)
        out.append(cpu_times())


async def _decode(client, plan, names, ops: list[Op], start: float) -> None:
    streams: dict[int, list[Op]] = {}
    for op in ops:
        streams.setdefault(op.session, []).append(op)
    tasks = [
        asyncio.ensure_future(decode_stream(client, plan, names, mine))
        for mine in streams.values()
    ]
    try:
        horizon = float(plan.due[-1]) + DRAIN_SECONDS
        await asyncio.wait(tasks, timeout=max(0.0, start + horizon - now()))
    finally:
        for task in tasks:
            task.cancel()
    await _settle([], ops, decode=True)


class ServerProcess:
    """``perfbench/server.py`` as a child process on loopback."""

    def __init__(self, trace: bool, spans_out: Path | None, max_spans: int):
        command = [
            sys.executable, str(HERE / "server.py"),
            "--trace", str(int(trace)), "--max-spans", str(max_spans),
        ]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(HERE.parent),
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 3 or line[0] != "READY":
            self.kill()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.address = (line[1], int(line[2]))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _send(self, command: str) -> str:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().strip()

    def mark(self) -> None:
        if self._send("MARK") != "MARKED":
            raise RuntimeError("server did not acknowledge MARK")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the live server process, in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> dict:
        """Drain-stop the server; returns its layer report."""
        try:
            reply = self._send("STOP")
            self.proc.stdin.close()
            self.proc.wait(timeout)
        finally:
            self.kill()
        if not reply.startswith("LAYERS "):
            raise RuntimeError(f"server stopped without a report: {reply!r}")
        return json.loads(reply[len("LAYERS "):])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


async def set_up(plan, names, counts: dict, *, trace: bool, spans_out=None,
                 max_spans=16384, tracer=None):
    """Launch a server, register every session over the wire and answer
    one warm-up query per session (paying every column sort).

    Returns ``(server, client, seconds)``; register and warm-up read
    ops are tallied into ``counts`` (see :func:`count`).
    """
    started = now()
    server = ServerProcess(trace, spans_out, max_spans)
    client = None
    try:
        client = await AsyncAttentionClient.connect(
            server.address, tracer=tracer
        )
        for s, name in enumerate(names):
            await _counted(counts, "register", client.register_session(
                name, plan.keys[s], plan.values[s]
            ))
        warm = [
            _counted(counts, "read", client.attend_many(
                name, plan.warm[s][np.newaxis]
            ))
            for s, name in enumerate(names)
        ]
        await asyncio.gather(*warm)
    except BaseException:
        if client is not None:
            await client.aclose()
        server.kill()
        raise
    return server, client, now() - started


def count(counts: dict, kind: str, error: str | None) -> None:
    """Tally one op as ``counts[kind] = [attempted, failed, {error: n}]``."""
    entry = counts.setdefault(kind, [0, 0, {}])
    entry[0] += 1
    if error is not None:
        entry[1] += 1
        entry[2][error] = entry[2].get(error, 0) + 1


async def _counted(counts, kind: str, awaitable):
    try:
        result = await awaitable
    except Exception as exc:
        count(counts, kind, _error_name(exc))
        raise
    count(counts, kind, None)
    return result
