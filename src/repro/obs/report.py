"""Structured run reports: serialization and the pretty-printer.

A :class:`RunReport` is the frozen output of one observed run — the
span tree, counter totals, gauges, histograms, optional time series,
string notes, and process-level totals (wall, CPU, peak RSS).  It
round-trips through JSON (``python -m repro --obs=PATH`` writes one;
``python -m repro obs show PATH`` reads it back) and renders as an
indented profile for terminals.

Schema history:

- **v1** (PR 3): spans, counters, gauges, process totals.
- **v2**: adds ``histograms`` (mergeable log-bucketed distributions,
  :mod:`repro.obs.hist`), ``timeseries`` (flushed sampler ring,
  :mod:`repro.obs.sampler`), and ``notes`` (string annotations such as
  ``cli.crash``).
- **v3**: adds ``trace`` (the run's bounded event stream,
  :mod:`repro.obs.context`).  v1/v2 files load with those fields empty;
  files from a *future* version raise
  :class:`~repro.errors.ObsReportError` instead of being misread.

A v3 report saved while analyses still fanned out across processes
also carries nested worker streams under ``trace["children"]`` and
worker sampler rings under ``timeseries["workers"]``; nothing writes
those any more, so they load unchecked and are ignored.

Loading checks every field's shape before building the report, so a
malformed file — wrong types, numbers past 64 bits or the platform's
clock, a span node, histogram or trace event that is not an object, a
trace event without its ``ev`` or ``t`` — raises
:class:`~repro.errors.ObsReportError` naming the field instead of
failing later in :meth:`RunReport.render` or
:func:`~repro.obs.timeline.build_timeline`.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ObsReportError
from repro.obs.collector import SpanNode
from repro.obs.hist import Histogram, bucket_index

#: current on-disk format version
REPORT_VERSION = 3

#: integer fields must fit in 64 bits (render formats them as floats)
_INT_LIMIT = 2**63

#: histogram bucket indices whose edges are finite, nonzero floats
_BUCKETS = range(bucket_index(5e-324), bucket_index(sys.float_info.max))

#: what a malformed field raises while it is checked
_MALFORMED = (TypeError, ValueError, OverflowError, OSError, RecursionError)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _array(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _integer(value) -> int:
    if not isinstance(value, int) or abs(value) >= _INT_LIMIT:
        raise ValueError(f"expected a 64-bit integer, got {value!r:.40}")
    return value


def _number(value) -> int | float:
    if isinstance(value, float):
        return value
    return _integer(value)


def _timestamp(value) -> float:
    value = float(_number(value))
    time.localtime(value)  # raises past the platform's time_t
    return value


def _entries(value, check) -> dict:
    """An object whose every value passes ``check``."""
    out = {}
    for key, item in _object(value).items():
        try:
            out[key] = check(item)
        except _MALFORMED as exc:
            raise ValueError(f"entry {key!r}: {exc}") from None
    return out


def _span(node) -> dict:
    _object(node)
    _string(node.get("name"))
    _integer(node.get("count", 0))
    _number(node.get("wall_s", 0.0))
    _number(node.get("cpu_s", 0.0))
    for child in _array(node.get("children", [])):
        _span(child)
    return node


def _histogram(payload) -> dict:
    _object(payload)
    _integer(payload.get("count", 0))
    _integer(payload.get("zero", 0))
    for key in ("sum", "min", "max"):
        _number(payload.get(key, 0.0))
    for key, count in _object(payload.get("buckets", {})).items():
        if int(key) not in _BUCKETS:
            raise ValueError(f"bucket index {key:.40} is out of range")
        _integer(count)
    return payload


def _timeseries(payload) -> dict:
    for sample in _array(_object(payload).get("samples", [])):
        _number(_object(sample).get("rss_bytes", 0))
    return payload


def _key(obj: dict, key: str, check, default=None) -> None:
    """``check`` of ``obj[key]`` (``default`` if absent), naming ``key``."""
    try:
        check(obj.get(key, default))
    except _MALFORMED as exc:
        raise ValueError(f"{key!r}: {exc}") from None


def _stream(payload) -> dict:
    """The trace stream, with what ``build_timeline`` reads of it."""
    _object(payload)
    _string(payload.get("worker", "?"))
    for key, check in (("epoch0", _number), ("perf0", _number),
                       ("pid", _integer), ("n_dropped", _integer)):
        _key(payload, key, check, 0)
    for i, event in enumerate(_array(payload.get("events", []))):
        try:
            _key(_object(event), "ev", _string)
            _key(event, "t", _number)
            if event["ev"] == "B":
                _key(event, "name", _string)
            for key in ("span", "parent"):
                _key(event, key, _string, "")
        except _MALFORMED as exc:
            raise ValueError(f"event {i}: {exc}") from None
    return payload


#: how each report field is checked (and converted) on load
_FIELDS = {
    "command": lambda v: [_string(c) for c in _array(v)],
    "started_at": _timestamp,
    "wall_s": lambda v: float(_number(v)),
    "cpu_s": lambda v: float(_number(v)),
    "peak_rss_bytes": _integer,
    "spans": _span,
    "counters": lambda v: _entries(v, _number),
    "gauges": lambda v: _entries(v, _number),
    "histograms": lambda v: _entries(v, _histogram),
    "timeseries": _timeseries,
    "notes": lambda v: _entries(v, _string),
    "trace": _stream,
}


def _field(payload: dict, name: str, check):
    try:
        return check(payload[name])
    except _MALFORMED as exc:
        raise ObsReportError(
            f"run report field {name!r} is malformed: {exc}"
        ) from exc


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GB"  # pragma: no cover - unreachable


@dataclass
class RunReport:
    """One run's observations, serializable and renderable."""

    command: list[str] = field(default_factory=list)
    started_at: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_bytes: int = 0
    #: :meth:`repro.obs.collector.SpanNode.to_dict` of the root span
    spans: dict = field(default_factory=lambda: SpanNode("run").to_dict())
    counters: dict[str, int | float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: name -> :meth:`repro.obs.hist.Histogram.to_dict`
    histograms: dict[str, dict] = field(default_factory=dict)
    #: flushed :meth:`repro.obs.sampler.Sampler.flush` payload ({} if unsampled)
    timeseries: dict = field(default_factory=dict)
    #: string annotations (e.g. ``cli.crash``)
    notes: dict[str, str] = field(default_factory=dict)
    #: the run's event stream (:meth:`repro.obs.context.TraceLog.payload`)
    trace: dict = field(default_factory=dict)
    version: int = REPORT_VERSION

    # -- derived --------------------------------------------------------------

    @property
    def span_tree(self) -> SpanNode:
        """The span tree rebuilt as :class:`SpanNode` objects."""
        return SpanNode.from_dict(self.spans)

    @property
    def n_spans(self) -> int:
        """Distinct span nodes recorded (root excluded)."""
        return self.span_tree.n_nodes()

    @property
    def n_counters(self) -> int:
        """Distinct counters recorded."""
        return len(self.counters)

    @property
    def n_histograms(self) -> int:
        """Distinct histogram families recorded."""
        return len(self.histograms)

    def histogram(self, name: str) -> Histogram:
        """The named histogram rebuilt as a :class:`Histogram`."""
        return Histogram.from_dict(self.histograms[name])

    def span_names(self) -> list[str]:
        """Every span node's name, depth first from the root."""
        names: list[str] = []

        def walk(node: SpanNode) -> None:
            for child in node.children.values():
                names.append(child.name)
                walk(child)

        walk(self.span_tree)
        return names

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "command": list(self.command),
            "started_at": self.started_at,
            "started_iso": time.strftime(
                "%Y-%m-%dT%H:%M:%S", time.localtime(self.started_at)
            ),
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_bytes": self.peak_rss_bytes,
            "spans": self.spans,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
            "timeseries": dict(self.timeseries),
            "notes": dict(self.notes),
            "trace": dict(self.trace),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        """Rebuild a report; v1 payloads load with the v2 fields empty.

        Raises :class:`~repro.errors.ObsReportError` for payloads written
        by a future version, and for payloads that are not report-shaped
        (naming the first malformed field).
        """
        if not isinstance(payload, dict):
            raise ObsReportError(
                f"run report must be a JSON object, got {type(payload).__name__}"
            )
        version = (
            _field(payload, "version", _integer) if "version" in payload
            else REPORT_VERSION
        )
        if version > REPORT_VERSION:
            raise ObsReportError(
                f"run report has schema version {version}, but this build "
                f"reads at most version {REPORT_VERSION} — upgrade to read it"
            )
        fields = {
            name: _field(payload, name, check)
            for name, check in _FIELDS.items() if name in payload
        }
        return cls(version=version, **fields)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        try:
            payload = json.loads(text)
        # ValueError, not just JSONDecodeError: an integer past the
        # interpreter's digit limit raises the plain one
        except (ValueError, RecursionError) as exc:
            raise ObsReportError(
                f"not a run report (truncated or invalid JSON: {exc})"
            ) from exc
        return cls.from_dict(payload)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        """Load a report; failures raise a one-line ObsReportError."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ObsReportError(
                f"cannot read run report {path}: {exc.strerror or exc}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise ObsReportError(
                f"{path}: not a run report (not UTF-8 text: {exc})"
            ) from exc
        try:
            return cls.from_json(text)
        except ObsReportError as exc:
            raise ObsReportError(f"{path}: {exc}") from exc

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Indented span profile plus counter/gauge tables."""
        lines = []
        cmd = " ".join(self.command) if self.command else "(unknown command)"
        lines.append(f"obs run report — {cmd}")
        started = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(self.started_at)
        )
        lines.append(
            f"started {started}  wall {_fmt_seconds(self.wall_s)}  "
            f"cpu {_fmt_seconds(self.cpu_s)}  "
            f"peak RSS {_fmt_bytes(self.peak_rss_bytes)}"
        )
        tree = self.span_tree
        lines.append(f"spans ({tree.n_nodes()} distinct, {tree.n_entries()} entered):")

        def walk(node: SpanNode, depth: int) -> None:
            for child in node.children.values():
                label = "  " * depth + child.name
                lines.append(
                    f"  {label:<44} ×{child.count:<6} "
                    f"wall {_fmt_seconds(child.wall_s):>9}  "
                    f"cpu {_fmt_seconds(child.cpu_s):>9}"
                )
                walk(child, depth + 1)

        walk(tree, 0)
        lines.append(f"counters ({len(self.counters)}):")
        for name in sorted(self.counters):
            value = self.counters[name]
            shown = f"{value:.3f}" if isinstance(value, float) else f"{value}"
            lines.append(f"  {name:<52} {shown:>14}")
        if self.gauges:
            lines.append(f"gauges ({len(self.gauges)}):")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<52} {self.gauges[name]:>14.6g}")
        if self.histograms:
            lines.append(f"histograms ({len(self.histograms)}):")
            for name in sorted(self.histograms):
                h = self.histogram(name)
                if h.count == 0:
                    lines.append(f"  {name:<44} (empty)")
                    continue
                lines.append(
                    f"  {name:<44} n={h.count:<8} "
                    f"min={h.min:<10.4g} p50={h.quantile(0.5):<10.4g} "
                    f"p90={h.quantile(0.9):<10.4g} max={h.max:<10.4g} "
                    f"sum={h.sum:.6g}"
                )
        if self.notes:
            lines.append(f"notes ({len(self.notes)}):")
            for name in sorted(self.notes):
                lines.append(f"  {name:<52} {self.notes[name]}")
        if self.timeseries.get("samples"):
            samples = self.timeseries["samples"]
            rss = [s.get("rss_bytes", 0) for s in samples]
            lines.append(
                f"timeseries: {self.timeseries.get('n_samples', len(samples))} "
                f"samples @ {self.timeseries.get('period_s', 0)}s "
                f"({self.timeseries.get('n_dropped', 0)} dropped), "
                f"rss {_fmt_bytes(min(rss))} -> {_fmt_bytes(max(rss))}"
            )
        if self.trace:
            lines.append(
                f"trace: 1 process streams, "
                f"{len(self.trace.get('events', ()))} events — "
                f"render with `repro obs timeline`"
            )
        return "\n".join(lines)
