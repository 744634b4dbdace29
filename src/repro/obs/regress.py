"""Perf-regression gating: compare two metric records, fail on slowdown.

``benchmarks/BENCH_*.json`` files were written for five PRs before
anything *compared* them — a regression could ship silently as long as
each bench's own absolute assertions held.  This module closes the
loop: it loads two metric records (run reports or benchmark files),
lines their numeric metrics up, and classifies each relative change
against a threshold.  The CLI front-end —
``python -m repro obs diff A B --threshold 0.1`` — exits nonzero when
any metric regressed, which is what CI wires against committed
baselines.

Two on-disk layouts are understood; any other JSON is refused with
:class:`~repro.errors.ObsReportError`:

- a :class:`~repro.obs.report.RunReport` (``--obs`` output): process
  totals, ``counter.*``, ``gauge.*`` and ``hist.*`` summaries;
- the benchmark envelope written by ``benchmarks/conftest.py`` and
  pipebench (``schema``/``metrics`` keys): the curated metric map,
  as-is, each value a finite number.

Whether a change is a regression depends on the metric's *direction*:
``*_seconds`` going up is bad, ``*speedup*`` going up is good, and a
counter like ``events`` has no direction at all.  Direction is inferred
from the name (:func:`direction_of`); undirected metrics are reported
but never gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

from repro.errors import ObsReportError

#: name fragments marking a metric where smaller is better
_LOWER_BETTER = (
    "seconds", "overhead", "rss", "wall", "cpu", "_cost", "busy",
    "latency", "_bytes_read",
)

#: name fragments marking a metric where larger is better
_HIGHER_BETTER = (
    "speedup", "per_sec", "hit_rate", "throughput", "accuracy",
)

#: default relative-change gate
DEFAULT_THRESHOLD = 0.10


def direction_of(name: str) -> str:
    """``"lower"``, ``"higher"``, or ``"info"`` for a metric name."""
    n = name.lower()
    if any(tag in n for tag in _HIGHER_BETTER):
        return "higher"
    if n.endswith("_s") or any(tag in n for tag in _LOWER_BETTER):
        return "lower"
    return "info"


@dataclass(frozen=True)
class Delta:
    """One metric's change between the baseline and the candidate."""

    metric: str
    base: float
    new: float
    rel_change: float
    direction: str
    status: str  # ok | regression | improvement | info

    def describe(self) -> str:
        if math.isinf(self.rel_change):
            change = "+inf"
        else:
            change = f"{self.rel_change:+.1%}"
        return (
            f"{self.metric:<48} {self.base:>12.6g} -> {self.new:>12.6g} "
            f"{change:>9}  {self.status}"
        )


def _report_metrics(payload: dict) -> dict[str, float]:
    from repro.obs.hist import Histogram
    from repro.obs.report import RunReport

    report = RunReport.from_dict(payload)
    metrics = {
        "wall_s": report.wall_s,
        "cpu_s": report.cpu_s,
        "peak_rss_bytes": float(report.peak_rss_bytes),
    }
    for name, value in report.counters.items():
        metrics[f"counter.{name}"] = float(value)
    for name, value in report.gauges.items():
        metrics[f"gauge.{name}"] = float(value)
    for name, hd in report.histograms.items():
        h = Histogram.from_dict(hd)
        if not h.count:
            continue
        metrics[f"hist.{name}.count"] = float(h.count)
        metrics[f"hist.{name}.sum"] = h.sum
        metrics[f"hist.{name}.p50"] = h.quantile(0.5)
        metrics[f"hist.{name}.p99"] = h.quantile(0.99)
        metrics[f"hist.{name}.max"] = h.max
    return metrics


def _finite(value) -> float | None:
    """``value`` as a float if it is a finite JSON number, else None.

    Python's ``json`` parses ``NaN`` and ``Infinity``, and a gate can
    never fail on them; a bool, string, null or object is no metric.
    """
    if type(value) not in (int, float):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        return None
    return number if math.isfinite(number) else None


def load_record(path: str | Path) -> tuple[str, int, dict[str, float]]:
    """Load any supported record as ``(kind, schema version, metrics)``.

    The schema version is the run report's ``version`` or the bench
    envelope's ``schema``.  Raises :class:`~repro.errors.ObsReportError`
    with a one-line message on unreadable, truncated, or unrecognizable
    files.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ObsReportError(
            f"cannot read {path}: {exc.strerror or exc}"
        ) from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ObsReportError(
            f"{path} is not valid JSON (truncated?): {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ObsReportError(f"{path}: expected a JSON object at top level")
    if "spans" in payload and "counters" in payload:
        try:
            metrics = _report_metrics(payload)
        except ObsReportError as exc:
            raise ObsReportError(f"{path}: {exc}") from exc
        return "run-report", int(payload.get("version", 1)), metrics
    if "metrics" in payload and "schema" in payload:
        metrics, schema = payload["metrics"], payload["schema"]
        if not isinstance(metrics, dict):
            raise ObsReportError(f"{path}: 'metrics' must be an object")
        if type(schema) is not int:
            raise ObsReportError(
                f"{path}: 'schema' must be an integer, got {schema!r:.40}"
            )
        values = {}
        for name, value in metrics.items():
            number = _finite(value)
            if number is None:
                raise ObsReportError(
                    f"{path}: metric {name!r} must be a finite number, "
                    f"got {value!r:.40}"
                )
            values[name] = number
        return "bench", schema, values
    raise ObsReportError(
        f"{path}: neither a run report (spans, counters) nor a bench "
        f"record (schema, metrics)"
    )


def load_metrics(path: str | Path) -> tuple[str, dict[str, float]]:
    """Load any supported record as ``(kind, {metric: value})``.

    See :func:`load_record` for the version-aware form.
    """
    kind, _version, metrics = load_record(path)
    return kind, metrics


def missing_metrics(
    base: dict[str, float],
    new: dict[str, float],
    patterns: list[str] | None = None,
) -> tuple[list[str], list[str]]:
    """Metric names present on only one side: ``(only base, only new)``.

    :func:`compare` skips these (a gate compares like with like); the
    CLI warns about them so schema drift is visible instead of silent.
    """

    def wanted(name: str) -> bool:
        return not patterns or any(fnmatch(name, p) for p in patterns)

    only_base = sorted(n for n in set(base) - set(new) if wanted(n))
    only_new = sorted(n for n in set(new) - set(base) if wanted(n))
    return only_base, only_new


def compare(
    base: dict[str, float],
    new: dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
    patterns: list[str] | None = None,
) -> list[Delta]:
    """Classify every metric present in both records.

    ``patterns`` (fnmatch globs) restrict which metrics participate;
    metrics only present on one side are skipped — a *gate* compares
    like with like, it does not police schema drift.
    """
    deltas: list[Delta] = []
    for name in sorted(set(base) & set(new)):
        if patterns and not any(fnmatch(name, p) for p in patterns):
            continue
        b, n = base[name], new[name]
        if b == n:
            rel = 0.0
        elif b == 0.0:
            rel = math.inf if n > 0 else -math.inf
        else:
            rel = (n - b) / abs(b)
        d = direction_of(name)
        if d == "info":
            status = "info"
        elif d == "lower":
            status = ("regression" if rel > threshold
                      else "improvement" if rel < -threshold else "ok")
        else:
            status = ("regression" if rel < -threshold
                      else "improvement" if rel > threshold else "ok")
        deltas.append(Delta(name, b, n, rel, d, status))
    return deltas


def compare_files(
    base_path: str | Path,
    new_path: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
    patterns: list[str] | None = None,
) -> list[Delta]:
    """Load and compare two records (see :func:`load_metrics`)."""
    base_kind, base = load_metrics(base_path)
    new_kind, new = load_metrics(new_path)
    if base_kind != new_kind:
        raise ObsReportError(
            f"cannot compare a {base_kind} ({base_path}) against a "
            f"{new_kind} ({new_path})"
        )
    return compare(base, new, threshold=threshold, patterns=patterns)


def regressions(deltas: list[Delta]) -> list[Delta]:
    """The subset of deltas that should fail a gate."""
    return [d for d in deltas if d.status == "regression"]
