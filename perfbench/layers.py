"""Per-layer metrics and the traced-run report.

Span-derived numbers come from the SUT's traced run (see
``perfbench/tracing.py``); the rest (cache ratios, WAL growth, store
size, generator lateness, failures) are measured in every run and
printed with the traced one.  ``LAYER_METRICS`` is the list
``BENCHMARK.json`` publishes under ``per_layer``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional

from perfbench.tracing import REFINE_OPS, summarise

#: Figure 8's refinement operations, as traced (``refine.<op>``); the
#: federation's stages after them run only in ``crisis_live``.
REFINE = REFINE_OPS[:6]

#: The ``repro.perf`` caches registered in ``all_cache_stats()``.
CACHES = ("wkt_parse", "spatial_predicate", "spatial_binary", "spatial_union_agg")

#: Acquisitions the ``*_end_ms`` metrics take their median over.
END_WINDOW = 16

#: (name, unit, better) of every per-layer metric.
LAYER_METRICS = (
    [
        ("acq_p50_s", "s", "lower"),
        ("acq_p90_s", "s", "lower"),
        ("acq_end_p50_s", "s", "lower"),
        ("notify_p50_s", "s", "lower"),
        ("hotspots_p90_ms", "ms", "lower"),
        ("stsparql_p50_ms", "ms", "lower"),
        ("stsparql_p90_ms", "ms", "lower"),
        ("monitor.scan_ms", "ms", "lower"),
        ("monitor.dispatch_ms", "ms", "lower"),
        ("chain.process_ms", "ms", "lower"),
        ("arraydb.execute_ms", "ms", "lower"),
        ("arraydb.execute_count", "count", "lower"),
        ("vault.load_ms", "ms", "lower"),
    ]
    + [
        (f"refine.{op}{suffix}", "ms", "lower")
        for op in REFINE
        for suffix in ("_ms", "_end_ms")
    ]
    + [
        ("stsparql.update_ms", "ms", "lower"),
        ("stsparql.select_ms", "ms", "lower"),
        ("stsparql.queries_per_acq", "count", "lower"),
        ("stsparql.rows_per_select", "count", "lower"),
    ]
    + [(f"cache.{name}.hit_ratio", "ratio", "higher") for name in CACHES]
    + [
        ("durable.commit_ms", "ms", "lower"),
        ("durable.save_state_ms", "ms", "lower"),
        ("durable.checkpoint_ms", "ms", "lower"),
        ("durable.checkpoints", "count", "lower"),
        ("durable.wal_bytes_per_acq", "B", "lower"),
        ("subscribe.process_commit_ms", "ms", "lower"),
        ("subscribe.notifications_per_acq", "count", "higher"),
        ("state.publish_ms", "ms", "lower"),
        ("hotspots.query_ms", "ms", "lower"),
        ("hotspots.features_per_response", "count", "lower"),
        ("hotspots.bytes_per_response", "B", "lower"),
        ("hotspots.repeat_share", "ratio", "higher"),
        ("http.overhead_ms", "ms", "lower"),
        ("gen.late_ms", "ms", "lower"),
        ("gen.backlog_end", "count", "lower"),
        ("gen.behind", "count", "lower"),
        ("sse.deliver_ms", "ms", "lower"),
        ("read_slo_miss_ratio", "ratio", "lower"),
        ("failed_ratio", "ratio", "lower"),
        ("store.triples_start", "count", "higher"),
        ("store.triples_end", "count", "higher"),
        ("store.hotspots_start", "count", "higher"),
        ("store.hotspots_end", "count", "higher"),
        ("trace.acq_coverage", "ratio", "higher"),
        ("trace.read_coverage", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("wall.acq_p50_s", "s", "lower"),
        ("wall.acq_end_p50_s", "s", "lower"),
        ("wall.hotspots_p50_ms", "ms", "lower"),
        ("wall.notify_p50_s", "s", "lower"),
        ("probe.ms", "ms", "lower"),
    ]
)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class Spans:
    """The traced run's spans, indexed by acquisition."""

    def __init__(self, spans, records) -> None:
        self.spans = spans
        self.tags = [r["timestamp"] for r in records]
        self.windows = {
            r["timestamp"]: (r["dispatched"], r["published"]) for r in records
        }
        self.by_tag: Dict[str, List] = {tag: [] for tag in self.tags}
        for span in spans:
            if span[5] in self.by_tag:
                self.by_tag[span[5]].append(span)

    def named(self, name: str) -> List:
        return [s for s in self.spans if s[1] == name]

    def per_acq(self, name: str, tags=None) -> List[float]:
        """Busy ms of ``name`` per acquisition."""
        return [
            1000.0
            * sum(s[3] - s[2] for s in self.by_tag[tag] if s[1] == name)
            for tag in (self.tags if tags is None else tags)
        ]

    def count_per_acq(self, prefix: str) -> List[float]:
        return [
            sum(1 for s in self.by_tag[tag] if s[1].startswith(prefix))
            for tag in self.tags
        ]

    def per_call_ms(self, name: str) -> List[float]:
        return [1000.0 * (s[3] - s[2]) for s in self.named(name)]

    def covered(self) -> float:
        """Seconds of dispatch→publish covered by top-level spans."""
        total = 0.0
        for tag, spans in self.by_tag.items():
            begin, end = self.windows[tag]
            for span in spans:
                if span[4] == 0:
                    total += max(0.0, min(span[3], end) - max(span[2], begin))
        return total


def layer_metrics(ctx: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric this run can give (span metrics only when
    the SUT was traced)."""
    report = ctx["report"]
    records = ctx["records"]
    responses = ctx["responses"]
    out: Dict[str, float] = dict(ctx["tails"])
    for name in CACHES:
        stats = report["caches"].get(name, {"hits": 0, "misses": 0})
        lookups = stats["hits"] + stats["misses"]
        out[f"cache.{name}.hit_ratio"] = (
            stats["hits"] / lookups if lookups else 0.0
        )
    out["durable.wal_bytes_per_acq"] = report["wal_bytes"] / len(records)
    hotspot_reads = [r for r in responses if r.read.kind == "hotspots"]
    out["hotspots.bytes_per_response"] = _mean(
        [r.bytes for r in hotspot_reads]
    )
    seen = set()
    repeats = 0
    for response in sorted(hotspot_reads, key=lambda r: r.sent):
        key = (response.sequence, response.read.key)
        repeats += key in seen
        seen.add(key)
    out["hotspots.repeat_share"] = repeats / max(1, len(hotspot_reads))
    out["gen.late_ms"] = ctx["late_ms"]
    out["gen.backlog_end"] = float(ctx["backlog"])
    out["gen.behind"] = 1.0 if ctx["behind"] else 0.0
    out["sse.deliver_ms"] = _median(ctx["deliver_ms"])
    out["read_slo_miss_ratio"] = ctx["slo_miss_ratio"]
    out["failed_ratio"] = ctx["failed_ratio"]
    for edge, size in (("start", ctx["size_start"]), ("end", ctx["size_end"])):
        out[f"store.triples_{edge}"] = float(size["triples"])
        out[f"store.hotspots_{edge}"] = float(size["hotspots"])
    if "spans" not in report:
        return out

    spans = Spans(report["spans"], records)
    out["monitor.scan_ms"] = _mean(spans.per_call_ms("monitor.scan"))
    out["monitor.dispatch_ms"] = _mean(spans.per_call_ms("monitor.dispatch"))
    for name in (
        "chain.process",
        "arraydb.execute",
        "vault.load",
        "stsparql.update",
        "durable.commit",
        "durable.save_state",
        "subscribe.process_commit",
        "state.publish",
    ):
        out[f"{name}_ms"] = _median(spans.per_acq(name))
    out["arraydb.execute_count"] = _median(spans.count_per_acq("arraydb.execute"))
    end_tags = spans.tags[-END_WINDOW:]
    for op in REFINE:
        out[f"refine.{op}_ms"] = _median(spans.per_acq(f"refine.{op}"))
        out[f"refine.{op}_end_ms"] = _median(
            spans.per_acq(f"refine.{op}", end_tags)
        )
    selects = spans.named("stsparql.select")
    out["stsparql.select_ms"] = _median(spans.per_call_ms("stsparql.select"))
    out["stsparql.queries_per_acq"] = _median(spans.count_per_acq("stsparql."))
    out["stsparql.rows_per_select"] = _mean([s[6] for s in selects])
    checkpoints = spans.per_call_ms("durable.checkpoint")
    out["durable.checkpoint_ms"] = _mean(checkpoints)
    out["durable.checkpoints"] = float(len(checkpoints))
    out["subscribe.notifications_per_acq"] = _mean(
        [s[6] for s in spans.named("subscribe.process_commit")]
    )
    queries = spans.named("hotspots.query")
    out["hotspots.query_ms"] = _median(spans.per_call_ms("hotspots.query"))
    out["hotspots.features_per_response"] = _mean([s[6] for s in queries])
    client = [1000.0 * r.latency for r in hotspot_reads]
    out["http.overhead_ms"] = _median(client) - out["hotspots.query_ms"]
    served = sum(r.latency for r in responses)
    read_busy = sum(
        s[3] - s[2]
        for s in queries + selects
        if s[4] == 0 and s[5] not in spans.by_tag
    )
    out["trace.read_coverage"] = read_busy / served if served else 0.0
    in_service = sum(r["published"] - r["dispatched"] for r in records)
    out["trace.acq_coverage"] = spans.covered() / in_service
    acq_spans = sum(len(v) for v in spans.by_tag.values())
    out["trace.overhead_ratio"] = report["span_cost_s"] * acq_spans / in_service
    return out


def trace_report(
    ctx: Dict[str, Any],
    layers: Dict[str, float],
    untraced: Optional[Dict[str, Any]] = None,
) -> str:
    """The per-layer table of a traced run: calls, busy and self time
    per layer, each layer's self time as a share of summed acquisition
    time, what the named layers cover, and the tracing overhead."""
    report = ctx["report"]
    records = ctx["records"]
    spans = Spans(report["spans"], records)
    in_service = sum(r["published"] - r["dispatched"] for r in records)
    acq_table = summarise([s for v in spans.by_tag.values() for s in v])
    all_table = summarise(report["spans"])
    lines = [
        f"traced run: {len(records)} acquisitions, "
        f"{in_service:.2f} s dispatch->publish in total",
        f"{'layer':<28}{'calls':>8}{'busy ms':>12}{'self ms':>12}"
        f"{'acq self %':>12}",
    ]
    for name in sorted(all_table, key=lambda n: -all_table[n]["self"]):
        row = all_table[name]
        acq_self = acq_table.get(name, {"self": 0.0})["self"]
        lines.append(
            f"{name:<28}{row['count']:>8}{1000 * row['busy']:>12.1f}"
            f"{1000 * row['self']:>12.1f}"
            f"{100 * acq_self / in_service:>11.1f}%"
        )
    lines.append(
        f"named layers cover {100 * layers['trace.acq_coverage']:.1f}% of "
        f"acquisition time and {100 * layers['trace.read_coverage']:.1f}% "
        "of read latency"
    )
    lines.append(
        f"tracing overhead (wrapper cost x spans): "
        f"{100 * layers['trace.overhead_ratio']:.2f}% of acquisition time"
    )
    if untraced:
        latencies = ctx["latencies"]
        lines.append(
            "tracing overhead (this run against the untraced run of the "
            f"same seed): acq_per_min {untraced['acq_per_min']:.2f} -> "
            f"{60.0 * len(latencies) / sum(latencies):.2f}"
        )
    return "\n".join(lines)
