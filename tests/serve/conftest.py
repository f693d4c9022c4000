"""Shared fixtures for the serving tests."""

from __future__ import annotations

import threading

import pytest

from repro.serve.scheduler import Scheduler


@pytest.fixture(scope="module")
def batch_log():
    """Record every dispatched batch, for replay tests.

    Wraps ``Scheduler.dispatch`` for the rest of the module and yields
    a lookup: ``batch_log(server)`` is the list of that server's
    dispatched segments as ``(session_id, [request ids], tier)``, one
    entry per session of a batch in slab order, so replaying a
    session's entries reproduces its per-segment sub-batches however
    traffic fused.  Entries are taken when the batch enters dispatch,
    before any of its futures resolve.  Module scope lets module-scoped
    servers request it too, so they dispatch under the recorder from
    their first batch; the original method is restored at teardown.
    """
    logs: dict[Scheduler, list[tuple[str, list[int], str]]] = {}
    lock = threading.Lock()
    original = Scheduler.dispatch

    def dispatch(self, batch):
        segments: dict[str, list[int]] = {}
        for request in batch:
            segments.setdefault(request.session_id, []).append(
                request.request_id
            )
        with lock:
            logs.setdefault(self, []).extend(
                (sid, ids, batch[0].tier) for sid, ids in segments.items()
            )
        return original(self, batch)

    def lookup(server) -> list[tuple[str, list[int], str]]:
        with lock:
            return list(logs.get(server.scheduler, []))

    Scheduler.dispatch = dispatch
    try:
        yield lookup
    finally:
        Scheduler.dispatch = original
