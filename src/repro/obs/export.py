"""Exporters: JSONL traces and human-readable reports.

One profiled run serialises to a JSONL file, one self-describing record
per line (``type`` discriminates: ``meta``, ``span``, ``metric``,
``funnel``, ``generation``, ``sample``).  JSONL keeps the format
append-friendly and trivially greppable/joinable across runs, and the
``report`` CLI re-renders any saved trace without re-running the tuner.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Sequence, TextIO

from repro.obs.explore_log import ExploreLog, FUNNEL_STAGES
from repro.obs.trace import Span, aggregate_spans, critical_path

__all__ = [
    "export_jsonl",
    "load_jsonl",
    "render_report",
]


def _finite(value: float) -> float | str:
    """JSON has no inf/nan; encode them as strings, symmetrically decoded."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf' / '-inf' / 'nan'
    return value


def _definite(value: Any) -> Any:
    if value in ("inf", "-inf", "nan"):
        return float(value)
    return value


def _dump(record: dict[str, Any], stream: TextIO) -> None:
    stream.write(json.dumps(record, sort_keys=True, default=_finite) + "\n")


def export_jsonl(
    path: str | Path,
    spans: Sequence[Span] = (),
    metrics: Sequence[dict[str, Any]] = (),
    explore_log: ExploreLog | None = None,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Write one profiled run to ``path``; returns the path written."""
    path = Path(path)
    with path.open("w") as stream:
        _dump({"type": "meta", **(meta or {})}, stream)
        for s in spans:
            record = s.to_dict()
            record["duration_us"] = _finite(record["duration_us"])
            _dump({"type": "span", **record}, stream)
        for m in metrics:
            _dump({"type": "metric", **m}, stream)
        if explore_log is not None:
            _dump({"type": "funnel", **explore_log.funnel.to_dict()}, stream)
            for g in explore_log.generations:
                record = {k: _finite(v) for k, v in g.to_dict().items()}
                _dump({"type": "generation", **record}, stream)
            for predicted, measured in explore_log.samples:
                _dump(
                    {
                        "type": "sample",
                        "predicted_us": _finite(predicted),
                        "measured_us": _finite(measured),
                    },
                    stream,
                )
    return path


def load_jsonl(path: str | Path) -> dict[str, Any]:
    """Parse a trace written by :func:`export_jsonl` back into one dict
    with keys ``meta``, ``spans``, ``metrics``, ``funnel``,
    ``generations``, ``samples``."""
    data: dict[str, Any] = {
        "meta": {},
        "spans": [],
        "metrics": [],
        "funnel": None,
        "generations": [],
        "samples": [],
    }
    with Path(path).open() as stream:
        for line_no, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON: {exc}") from None
            kind = record.pop("type", None)
            if kind == "meta":
                data["meta"] = record
            elif kind == "span":
                record["duration_us"] = _definite(record["duration_us"])
                data["spans"].append(record)
            elif kind == "metric":
                data["metrics"].append(record)
            elif kind == "funnel":
                data["funnel"] = record
            elif kind == "generation":
                data["generations"].append(
                    {k: _definite(v) for k, v in record.items()}
                )
            elif kind == "sample":
                data["samples"].append(
                    (
                        _definite(record["predicted_us"]),
                        _definite(record["measured_us"]),
                    )
                )
            else:
                raise ValueError(f"{path}:{line_no}: unknown record type {kind!r}")
    return data


# ----------------------------------------------------------------------
# Human-readable report
# ----------------------------------------------------------------------
def _spans_from_dicts(span_dicts: Sequence[dict[str, Any]]) -> list[Span]:
    spans = []
    for d in span_dicts:
        s = Span(
            name=d["name"],
            span_id=d["span_id"],
            parent_id=d.get("parent_id"),
            start_s=0.0,
            end_s=None,
            attrs=d.get("attrs", {}),
        )
        s.end_s = d["duration_us"] / 1e6  # start_s=0 so duration round-trips
        spans.append(s)
    return spans


def _fmt_us(us: float) -> str:
    if not math.isfinite(us):
        return str(us)
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.1f}us"


def _span_section(span_dicts: Sequence[dict[str, Any]]) -> list[str]:
    spans = _spans_from_dicts(span_dicts)
    if not spans:
        return ["  (no spans recorded)"]
    lines = [
        f"  {'span':36} {'calls':>6} {'total':>10} {'self':>10} {'mean':>10} {'max':>10}"
    ]
    for st in aggregate_spans(spans):
        lines.append(
            f"  {st.name:36} {st.count:>6} {_fmt_us(st.total_us):>10} "
            f"{_fmt_us(st.self_us):>10} {_fmt_us(st.mean_us):>10} {_fmt_us(st.max_us):>10}"
        )
    return lines


def _funnel_section(funnel: dict[str, Any] | None) -> list[str]:
    if not funnel:
        return ["  (no funnel recorded)"]
    lines = []
    base = max((funnel.get(s, 0) for s in FUNNEL_STAGES), default=0)
    for stage in FUNNEL_STAGES:
        count = funnel.get(stage, 0)
        bar = "#" * int(30 * count / base) if base else ""
        lines.append(f"  {stage:12} {count:>8}  {bar}")
    return lines


def _generation_section(generations: Sequence[dict[str, Any]]) -> list[str]:
    if not generations:
        return ["  (no genetic-search generations recorded)"]
    lines = [f"  {'gen':>4} {'best':>12} {'mean':>12} {'worst':>12} {'diversity':>10}"]
    for g in generations:
        lines.append(
            f"  {g['generation']:>4} {_fmt_us(g['best_fitness']):>12} "
            f"{_fmt_us(g['mean_fitness']):>12} {_fmt_us(g['worst_fitness']):>12} "
            f"{g['diversity']:>10.2f}"
        )
    return lines


def _model_quality_section(samples: Sequence[tuple[float, float]]) -> list[str]:
    log = ExploreLog()
    for predicted, measured in samples:
        log.record_sample(predicted, measured)
    quality = log.model_quality()
    if quality.get("num_samples", 0) < 2:
        return ["  (fewer than two measured samples; rank metrics undefined)"]
    lines = [f"  measured samples:        {int(quality['num_samples'])}"]
    lines.append(f"  pairwise rank accuracy:  {quality['pairwise_accuracy']:.3f}")
    for key, value in sorted(quality.items()):
        if key.startswith("top_"):
            rate = key[len("top_"):-len("pct_recall")]
            lines.append(f"  top-{rate}% recall:          {value:.3f}")
    return lines


def _engine_section(metrics: Sequence[dict[str, Any]]) -> list[str]:
    """Cache and pool behaviour digested from the engine's counters."""
    counters = {
        m["name"]: m["value"] for m in metrics if m.get("kind") == "counter"
    }

    def rate(hits: float, misses: float) -> str:
        total = hits + misses
        if not total:
            return "n/a"
        return f"{hits / total:.1%} ({int(hits)}/{int(total)})"

    lines = []
    memo_hits = counters.get("engine.cache.hit", 0.0)
    memo_misses = counters.get("engine.cache.miss", 0.0)
    if memo_hits or memo_misses:
        lines.append(f"  memo cache hit rate:     {rate(memo_hits, memo_misses)}")
    evictions = counters.get("engine.cache.evictions", 0.0)
    if evictions:
        lines.append(
            f"  memo cache evictions:    {int(evictions)} "
            "(working set exceeds capacity; hit rate understates re-evaluation)"
        )
    cc_hits = counters.get("engine.compile_cache.hit", 0.0)
    cc_misses = counters.get("engine.compile_cache.miss", 0.0)
    if cc_hits or cc_misses:
        lines.append(f"  compile cache hit rate:  {rate(cc_hits, cc_misses)}")
    spawns = counters.get("engine.pool.spawns", 0.0)
    if spawns:
        lines.append(f"  pool spawns:             {int(spawns)}")
    tasks = counters.get("engine.pool.tasks", 0.0)
    batches = counters.get("engine.pool.batches", 0.0)
    if batches:
        lines.append(
            f"  pool batches:            {int(batches)} "
            f"(mean {tasks / batches:.1f} tasks/batch)"
        )
    checked = counters.get("engine.divergence.checked", 0.0)
    if checked:
        mismatched = counters.get("engine.divergence.mismatched", 0.0)
        lines.append(
            f"  divergence watchdog:     {int(mismatched)} mismatch(es) "
            f"in {int(checked)} sampled re-evaluations"
        )
    retries = counters.get("engine.fault.retries", 0.0)
    respawns = counters.get("engine.fault.respawns", 0.0)
    quarantined = counters.get("engine.fault.quarantined", 0.0)
    if retries or respawns or quarantined:
        lines.append(
            f"  fault tolerance:         {int(retries)} retried task(s), "
            f"{int(respawns)} pool respawn(s), "
            f"{int(quarantined)} quarantined inline"
        )
    skipped = counters.get("engine.compile_cache.skipped_lines", 0.0)
    if skipped:
        lines.append(
            f"  compile cache damage:    {int(skipped)} unreadable line(s) skipped"
        )
    if not lines:
        return ["  (no engine cache/pool activity recorded)"]
    return lines


def _critical_path_section(span_dicts: Sequence[dict[str, Any]]) -> list[str]:
    """The heaviest-child chain through the span tree: which stages
    actually bound this run's wall time."""
    path = critical_path(_spans_from_dicts(span_dicts))
    if not path:
        return ["  (no spans recorded)"]
    lines = []
    for depth, entry in enumerate(path):
        lane = f" [lane {entry['lane']}]" if "lane" in entry else ""
        lines.append(
            f"  {'  ' * depth}{entry['name']}{lane}: "
            f"{_fmt_us(entry['duration_us'])} "
            f"(self {_fmt_us(entry['self_us'])})"
        )
    return lines


def _metrics_section(metrics: Sequence[dict[str, Any]]) -> list[str]:
    if not metrics:
        return ["  (no metrics recorded)"]
    lines = []
    for m in metrics:
        if m["kind"] == "histogram":
            mean = m.get("mean", 0.0)
            lines.append(
                f"  {m['name']:36} n={m['count']:<7} mean={_fmt_us(mean):>9} "
                f"max={_fmt_us(m['max']) if m.get('max') is not None else '-':>9}"
            )
        else:
            lines.append(f"  {m['name']:36} {m['value']:g}")
    return lines


def render_report(data: dict[str, Any]) -> str:
    """Render one loaded (or freshly collected) trace as a plain-text
    report: per-stage timings, mapping funnel, GA convergence, model
    quality, and the metric snapshot."""
    meta = data.get("meta", {})
    title_bits = [str(meta[k]) for k in ("operator", "hardware") if meta.get(k)]
    title = " on ".join(title_bits) if title_bits else "profiled run"
    lines = [f"== AMOS profile: {title} =="]
    if meta.get("latency_us") is not None:
        lines.append(f"   best simulated latency: {_fmt_us(meta['latency_us'])}")
    if meta.get("num_mappings") is not None:
        lines.append(f"   valid mappings explored: {meta['num_mappings']}")
    lines.append("")
    lines.append("-- span timings (wall time per pipeline stage) --")
    lines.extend(_span_section(data.get("spans", [])))
    lines.append("")
    lines.append("-- critical path (heaviest span chain) --")
    lines.extend(_critical_path_section(data.get("spans", [])))
    lines.append("")
    lines.append("-- mapping funnel (Table 6-style counts) --")
    lines.extend(_funnel_section(data.get("funnel")))
    lines.append("")
    lines.append("-- genetic search convergence --")
    lines.extend(_generation_section(data.get("generations", [])))
    lines.append("")
    lines.append("-- model vs simulator (Fig 5-style rank quality) --")
    lines.extend(_model_quality_section(data.get("samples", [])))
    lines.append("")
    lines.append("-- engine caches & pool --")
    lines.extend(_engine_section(data.get("metrics", [])))
    lines.append("")
    lines.append("-- metrics --")
    lines.extend(_metrics_section(data.get("metrics", [])))
    return "\n".join(lines)
