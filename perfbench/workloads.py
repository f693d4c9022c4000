"""The benchmark's workloads: inputs and arrival schedules.

Everything here is a pure function of ``(workload, seed, seconds)``: the
same arguments always give bit-identical memories, queries, appended rows
and schedules, and nothing is generated while the clock runs.  The
schedule depends on the workload only; the seed draws the data.

* ``sparse`` — 4 sessions, n=1024, d=64; Poisson arrivals of single
  queries, round-robin over the sessions.  Requests rarely overlap, so
  latency follows the idle path (batcher fill hold, socket ingress, a
  q=1 kernel).
* ``burst`` — 64 sessions, n=256, d=64; every 250 ms all 64 sessions
  send one query at the same scheduled instant.  Drives wide
  cross-session fusion and the frontend's single admission thread.
* ``decode`` — 8 streams, each its own session starting at n=512, d=128;
  every 300 ms a stream appends one key/value row and then attends one
  query, phases staggered 37.5 ms apart.  Writes run beside reads and the
  keys grow through the run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["SPECS", "Plan", "Spec", "make_plan", "session_names"]

# Rates keep the server process about a third busy (measured on 2 vCPUs:
# sparse 0.28, burst 0.24, decode 0.36 of a core), so CPU stolen by a
# busy host slows requests without tipping them into queueing.
SPARSE_RATE_QPS = 25.0
BURST_PERIOD_S = 0.25
TOKEN_PERIOD_S = 0.3
STREAM_STAGGER_S = TOKEN_PERIOD_S / 8


@dataclass(frozen=True)
class Spec:
    name: str
    sessions: int
    n: int
    d: int


SPECS = {
    "sparse": Spec("sparse", sessions=4, n=1024, d=64),
    "burst": Spec("burst", sessions=64, n=256, d=64),
    "decode": Spec("decode", sessions=8, n=512, d=128),
}


@dataclass(frozen=True)
class Plan:
    """Pre-generated inputs and schedule of one timed phase.

    ``due[i]`` is op ``i``'s scheduled start in seconds after the phase
    starts (non-decreasing); op ``i`` attends ``queries[i]`` on session
    ``session[i]``.  ``decode`` ops first append ``append_keys[i]`` /
    ``append_values[i]`` to that session.
    """

    workload: str
    seed: int
    keys: tuple
    values: tuple
    warm: np.ndarray
    due: np.ndarray
    session: np.ndarray
    queries: np.ndarray
    append_keys: np.ndarray | None = None
    append_values: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.due.shape[0])

    def memory_at(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The session memory op ``i`` attends over: the registered
        memory plus every row its stream appended up to and including
        op ``i`` (a stream's ops are in schedule order)."""
        s = int(self.session[i])
        key, value = self.keys[s], self.values[s]
        if self.append_keys is None:
            return key, value
        mine = np.flatnonzero(self.session[: i + 1] == s)
        return (
            np.concatenate([key, self.append_keys[mine]]),
            np.concatenate([value, self.append_values[mine]]),
        )


def session_names(workload: str) -> list[str]:
    return [f"{workload}-{s:02d}" for s in range(SPECS[workload].sessions)]


def _schedule(workload: str, rng, seconds: float, sessions: int):
    if workload == "sparse":
        # A Poisson process conditioned on its count: sorted uniform
        # arrival times, so every run has exactly rate * seconds reads.
        count = max(1, int(round(SPARSE_RATE_QPS * seconds)))
        due = np.sort(rng.uniform(0.0, seconds, size=count))
        return due, np.arange(count) % sessions
    if workload == "burst":
        bursts = max(1, int(seconds / BURST_PERIOD_S))
        due = np.repeat(np.arange(bursts) * BURST_PERIOD_S, sessions)
        return due, np.tile(np.arange(sessions), bursts)
    # decode: stream s emits token k at s * stagger + k * period.
    due, session = [], []
    for s in range(sessions):
        start = s * STREAM_STAGGER_S
        tokens = max(1, int(np.ceil((seconds - start) / TOKEN_PERIOD_S)))
        due.extend(start + np.arange(tokens) * TOKEN_PERIOD_S)
        session.extend([s] * tokens)
    order = np.argsort(due, kind="stable")
    return np.asarray(due)[order], np.asarray(session)[order]


def make_plan(workload: str, seed: int, seconds: float) -> Plan:
    """Inputs and schedule of one phase of ``workload``.

    The schedule is fixed per workload and the seed draws the memories,
    queries and appended rows.  ``burst`` and ``decode`` schedules are
    deterministic by definition; ``sparse`` replays one fixed Poisson
    draw, because which arrivals happen to cluster sets most of its
    latency tail, and two runs compare the program only when they
    offer it the same clusters.
    """
    spec = SPECS[workload]
    tag = zlib.crc32(workload.encode())
    due, session = _schedule(
        workload, np.random.default_rng(tag), seconds, spec.sessions
    )
    rng = np.random.default_rng([seed, tag])
    keys = tuple(rng.normal(size=(spec.n, spec.d)) for _ in range(spec.sessions))
    values = tuple(
        rng.normal(size=(spec.n, spec.d)) for _ in range(spec.sessions)
    )
    warm = rng.normal(size=(spec.sessions, spec.d))
    queries = rng.normal(size=(due.shape[0], spec.d))
    append_keys = append_values = None
    if workload == "decode":
        append_keys = rng.normal(size=(due.shape[0], spec.d))
        append_values = rng.normal(size=(due.shape[0], spec.d))
    return Plan(
        workload=workload,
        seed=seed,
        keys=keys,
        values=values,
        warm=warm,
        due=due.astype(np.float64),
        session=session.astype(np.int64),
        queries=queries,
        append_keys=append_keys,
        append_values=append_values,
    )
