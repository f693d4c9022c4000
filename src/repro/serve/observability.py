"""Unified serving observability: one clock, one metrics registry.

This module is the telemetry spine of :mod:`repro.serve`:

* :func:`now` — the single serve-path clock.  Every request stamp,
  queue-wait, and service timing in the serving stack reads this one
  monotonic high-resolution clock (``time.perf_counter``), so
  queue-wait + service arithmetic is consistent and per-request span
  durations telescope exactly to the end-to-end latency.
* :class:`MetricsRegistry` — counters, gauges, and histograms with
  labels, rendered in the Prometheus text exposition format.  A
  server's ``repro_serve_*`` families are rendered at scrape time from
  one record of its books,
  :class:`~repro.serve.service.TelemetryResult`, by
  ``TelemetryResult.publish_metrics`` (which delegates the stats and
  cache counters to ``ServerStats.publish_metrics`` and
  ``CacheStats.publish_metrics``), so the hot request path records
  nothing beyond what the stats objects already track.  A cluster
  renders each shard's record — spawn shards' included, carried in
  their telemetry frames — with that same code under a ``shard``
  label, next to its own ``repro_cluster_*`` failover and liveness
  families.
* :func:`parse_exposition` — a minimal text-format parser used by the
  round-trip test and by anything that wants to scrape the exposition
  without a Prometheus client library.
* :class:`StageProfiler` (re-exported from
  :mod:`repro.core.profiling`) — the kernel-stage profiling hook, and
  :func:`publish_profile` to turn its summary into registry metrics.

Metric naming scheme: ``repro_serve_*`` for serving-layer metrics and
``repro_kernel_*`` for kernel-stage profiling, with ``_total`` suffixes
on counters and base-unit (seconds, bytes) value names, following the
Prometheus conventions.  Label keys in use: ``shard``, ``tier``,
``outcome``, ``event``, ``reason``, ``stage``.
"""

from __future__ import annotations

import math
import re
import threading
import time

from repro.core.profiling import StageProfiler, get_hook, set_hook

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "StageProfiler",
    "get_hook",
    "now",
    "parse_exposition",
    "publish_profile",
    "set_hook",
]

#: The single serve-path clock (monotonic, high resolution).  All
#: request stamps and service timings in ``repro.serve`` go through
#: this name so the queue-wait / service / span arithmetic is always
#: on one clock.
now = time.perf_counter

#: Default histogram buckets, in seconds (upper bounds; +Inf implied).
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names, values) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Counter:
    """A monotonically increasing sample (one label combination)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        self.value += amount


class _Gauge:
    """A settable sample (one label combination)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class _Histogram:
    """Cumulative-bucket histogram (one label combination)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.sum += value
        self.count += 1

    def observe_each(self, values) -> None:
        for value in values:
            self.observe(value)


_KINDS = {"counter": _Counter, "gauge": _Gauge, "histogram": _Histogram}


class _Family:
    """One named metric with a fixed label set; children per label value."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "_children", "_lock")

    def __init__(self, name, kind, help, labelnames, buckets, lock) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: dict[tuple, object] = {}
        self._lock = lock

    def labels(self, **labels):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = _Histogram(self.buckets)
                else:
                    child = _KINDS[self.kind]()
                self._children[key] = child
        return child

    # Label-less families act as their own single child.
    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def observe_each(self, values) -> None:
        self._solo().observe_each(values)


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Families are created idempotently: asking for an existing name with
    the same kind and label set returns the same family; a conflicting
    redeclaration raises.  ``expose()`` renders the Prometheus text
    format.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def _family(self, name, kind, help, labelnames, buckets=None) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if buckets is not None:
            buckets = tuple(float(b) for b in buckets)
            if list(buckets) != sorted(set(buckets)):
                raise ValueError(f"buckets must strictly ascend, got {buckets}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (
                    family.kind != kind
                    or family.labelnames != labelnames
                    or (kind == "histogram" and family.buckets != buckets)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.labelnames}"
                    )
                return family
            family = _Family(name, kind, help, labelnames, buckets, self._lock)
            self._families[name] = family
            return family

    def counter(self, name, help="", labelnames=()) -> _Family:
        return self._family(name, "counter", help, labelnames)

    def gauge(self, name, help="", labelnames=()) -> _Family:
        return self._family(name, "gauge", help, labelnames)

    def histogram(self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS):
        return self._family(name, "histogram", help, labelnames, buckets)

    def samples(self) -> list[tuple[str, dict, float]]:
        """Every exposition sample as ``(name, labels, value)``,
        histograms expanded into ``_bucket`` / ``_sum`` / ``_count``."""
        out = []
        with self._lock:
            for family in self._families.values():
                for key, child in sorted(family._children.items()):
                    labels = dict(zip(family.labelnames, key))
                    if family.kind == "histogram":
                        running = 0
                        bounds = [*family.buckets, math.inf]
                        for bound, count in zip(bounds, child.counts):
                            running += count
                            le = "+Inf" if bound == math.inf else _format_value(bound)
                            out.append(
                                (
                                    family.name + "_bucket",
                                    {**labels, "le": le},
                                    float(running),
                                )
                            )
                        out.append((family.name + "_sum", labels, child.sum))
                        out.append(
                            (family.name + "_count", labels, float(child.count))
                        )
                    else:
                        out.append((family.name, labels, float(child.value)))
        return out

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def expose(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        lines = []
        with self._lock:
            families = list(self._families.values())
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            with self._lock:
                children = sorted(family._children.items())
            for key, child in children:
                labelstr = _render_labels(family.labelnames, key)
                if family.kind == "histogram":
                    running = 0
                    bounds = [*family.buckets, math.inf]
                    for bound, count in zip(bounds, child.counts):
                        running += count
                        le = "+Inf" if bound == math.inf else _format_value(bound)
                        bucket_labels = _render_labels(
                            (*family.labelnames, "le"), (*key, le)
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {running}"
                        )
                    lines.append(
                        f"{family.name}_sum{labelstr} {_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{labelstr} {child.count}")
                else:
                    lines.append(
                        f"{family.name}{labelstr} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse Prometheus text exposition into families of samples.

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [(sample_name, labels_dict, value), ...]}}`` where histogram
    samples keep their ``_bucket`` / ``_sum`` / ``_count`` suffixes and
    are attributed to the declaring family.  This is deliberately a
    *minimal* parser — enough to scrape this module's own exposition
    (and round-trip it in the tests) without a client library.
    """
    families: dict[str, dict] = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )["help"] = help_text
            current = name
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )["type"] = kind.strip()
            current = name
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name = match.group("name")
        labels = {}
        if match.group("labels"):
            for pair in _LABEL_PAIR_RE.finditer(match.group("labels")):
                labels[pair.group("key")] = _unescape_label(pair.group("value"))
        family = name
        if current and name.startswith(current) and name != current:
            suffix = name[len(current) :]
            if suffix in ("_bucket", "_sum", "_count"):
                family = current
        families.setdefault(
            family, {"type": "untyped", "help": "", "samples": []}
        )["samples"].append((name, labels, _parse_value(match.group("value"))))
    return families


def publish_profile(
    registry: MetricsRegistry, profiler: StageProfiler, labels=None
) -> None:
    """Publish a :class:`StageProfiler` summary as kernel metrics.

    Emits ``repro_kernel_stage_calls_total`` and
    ``repro_kernel_stage_seconds_total`` with a ``stage`` label (plus
    any ``labels`` supplied by the caller, e.g. ``shard``).
    """
    extra = dict(labels or {})
    names = tuple(extra)
    calls = registry.counter(
        "repro_kernel_stage_calls_total",
        "Kernel stage invocations recorded by the profiling hook.",
        labelnames=("stage", *names),
    )
    seconds = registry.counter(
        "repro_kernel_stage_seconds_total",
        "Cumulative wall seconds per kernel stage.",
        labelnames=("stage", *names),
    )
    for stage, row in profiler.summary().items():
        calls.labels(stage=stage, **extra).inc(row["calls"])
        seconds.labels(stage=stage, **extra).inc(row["total_seconds"])
