"""Rendering for the service CLI verbs: job tables, the metrics status
view, sweep-outcome summaries.

The service streams JSON; these helpers turn the client-side views into
the same aligned plain-text tables every other ``repro`` report uses.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from ..hw.config import GB, MIB
from .report import render_table


def render_jobs(jobs: Sequence[Mapping[str, object]]) -> str:
    """The ``repro jobs`` table: one row per tracked job."""
    if not jobs:
        return "no jobs tracked (submit one with 'repro submit')"
    rows = []
    for j in jobs:
        rows.append([
            str(j.get("id", "?")),
            str(j.get("kind", "?")),
            str(j.get("state", "?")),
            f"{j.get('done', 0)}/{j.get('total', 0)}",
            int(j.get("simulations", 0)),  # type: ignore[arg-type]
            int(j.get("hits", 0)),  # type: ignore[arg-type]
            int(j.get("coalesced", 0)),  # type: ignore[arg-type]
            float(j.get("elapsed_s", 0.0)),  # type: ignore[arg-type]
            str(j.get("error") or j.get("summary", "")),
        ])
    return render_table(
        ["job", "kind", "state", "points", "sims", "hits", "coal",
         "elapsed s", "summary"],
        rows,
        title=f"Jobs: {len(rows)}",
    )


def _histogram_percentile_lines(snapshot: object, label: str,
                                header: str) -> List[str]:
    """p50/p90/p99 lines for one dimension of a histogram snapshot;
    empty when nothing has been observed."""
    if not isinstance(snapshot, Mapping) or not snapshot.get("series"):
        return []
    # Imported here: loading repro.service at module level would put
    # asyncio and both daemons on every CLI verb's import path.
    from ..service.metrics import HistogramFamily
    try:
        merged = HistogramFamily.merged_by(snapshot, label)
    except (ValueError, KeyError):
        return []
    lines = [header]
    for name in sorted(merged):
        hist = merged[name]
        lines.append(
            f"    {name:16s} p50 {hist.quantile(0.5):.4f}  "
            f"p90 {hist.quantile(0.9):.4f}  "
            f"p99 {hist.quantile(0.99):.4f}  ({hist.count} observed)")
    return lines


def render_metrics(msg: Mapping[str, object]) -> str:
    """The ``repro metrics`` report for either endpoint role: the one
    status view of a shard (queue, dedup, pool, store) or a gateway
    (hash ring, shard table).

    Every counter line is grep-friendly (``label: value``) so smoke
    tests and shell dashboards can scrape it without JSON tooling; the
    raw message is one ``--json`` flag away.
    """
    rates = dict(msg.get("rates") or {})  # type: ignore[arg-type]
    jobs = dict(msg.get("jobs") or {})  # type: ignore[arg-type]
    window = float(rates.get("window_s", 60.0))  # type: ignore[arg-type]
    role = str(msg.get("role", "shard"))
    lines = [
        f"Metrics: {role} (protocol v{msg.get('protocol', '?')}, "
        f"uptime {float(msg.get('uptime_s', 0.0)):.1f} s)",  # type: ignore[arg-type]
        f"  address:         {msg.get('host', '?')}:{msg.get('port', '?')}",
        f"  jobs:            "
        + (", ".join(f"{n} {state}" for state, n in sorted(jobs.items()))
           or "none"),
        f"  points streamed: {msg.get('points_streamed', 0)}",
    ]
    if role == "gateway":
        lines += [
            f"  points/s:        {rates.get('points_per_s', 0.0)} "
            f"(over {window:.0f} s)",
            f"  requeued total:  {msg.get('requeued_total', 0)}",
            f"  hash ring:       {msg.get('replicas', '?')} virtual node(s) "
            "per shard",
            f"  shards healthy:  {msg.get('shards_healthy', 0)}/"
            f"{msg.get('shards_total', 0)}",
        ]
        lines += _histogram_percentile_lines(
            msg.get("latency"), "op", "  latency by op (seconds):")
        shards = [dict(s) for s in msg.get("shards", [])]  # type: ignore[union-attr]
        rows = [[
            str(s.get("id", "?")),
            "up" if s.get("healthy") else "DOWN",
            f"v{s.get('protocol')}" if s.get("protocol") is not None else "?",
            int(s.get("deaths", 0)),
            int(s.get("requeued", 0)),
            str(s.get("error") or ""),
        ] for s in shards]
        if rows:
            lines.append(render_table(
                ["shard", "health", "proto", "deaths", "requeued",
                 "last error"],
                rows,
                title="Shards",
            ))
        return "\n".join(lines)
    store = msg.get("store")
    pool = dict(msg.get("pool") or {})  # type: ignore[arg-type]
    queue_clients = dict(msg.get("queue_clients") or {})  # type: ignore[arg-type]
    lines += [
        f"  simulations:     {msg.get('simulations', 0)}",
        f"  sims/s:          {rates.get('sims_per_s', 0.0)} "
        f"(over {window:.0f} s)",
        f"  analytic/s:      {rates.get('analytic_evals_per_s', 0.0)}",
        f"  warm hits:       {msg.get('hits_total', 0)}",
        f"  coalesced:       {msg.get('coalesced_total', 0)}",
        f"  shed:            {msg.get('shed_total', 0)}",
        f"  queue depth:     {msg.get('queue_depth', 0)}/"
        f"{msg.get('max_pending', '?')} "
        f"(+{msg.get('in_flight', 0)} in flight)",
    ]
    for client, depth in queue_clients.items():
        lines.append(f"    {client:30s} {depth} queued")
    lines.append(
        f"  pool:            {pool.get('jobs', 1)} worker(s), "
        f"{pool.get('batches', 0)} batches / "
        f"{pool.get('payloads', 0)} payloads"
        + (" [broken: serial fallback]" if pool.get("broken") else ""))
    lines += _histogram_percentile_lines(
        msg.get("latency"), "op", "  latency by op (seconds):")
    lines += _histogram_percentile_lines(
        msg.get("phases"), "phase", "  phase timings (seconds):")
    if store is None:
        lines.append("  store:           disabled")
    else:
        store = dict(store)  # type: ignore[arg-type]
        lines.append(
            f"  store:           {store.get('directory', '?')} "
            f"(schema v{store.get('schema_version', '?')})")
        lines.append(
            f"  store entries:   {store.get('entries', 0)}")
        skipped = []
        for name in ("stale", "duplicates", "corrupt"):
            if store.get(name):
                skipped.append(f"{store[name]} {name}")
        if skipped:
            lines.append(f"  store skipped:   {', '.join(skipped)}"
                         + ("  <-- corrupt records growing; check disk"
                            if store.get("corrupt") else ""))
    return "\n".join(lines)


def sweep_outcome_rows(points: Sequence[object]) -> List[List[object]]:
    """Table rows for streamed sweep points (mirrors ``repro sweep``)."""
    rows: List[List[object]] = []
    for p in points:
        r = p.result  # type: ignore[attr-defined]
        rows.append([
            p.workload,  # type: ignore[attr-defined]
            p.config,  # type: ignore[attr-defined]
            p.sram_bytes / MIB,  # type: ignore[attr-defined]
            p.bandwidth_bytes_per_s / GB,  # type: ignore[attr-defined]
            r.dram_bytes / 1e6,
            r.throughput_gmacs,
            "mem" if r.memory_bound else "compute",
        ])
    return rows


def summarize_sweep_outcome(outcome: object) -> str:
    """Grep-friendly summary of a finished sweep job.

    The first line keeps its historical ``simulations: N`` shape (CI
    smoke jobs grep it); the second line exists for the fabric smoke
    test — ``simulations re-run: 0`` on a warm resubmit is the "requeue
    duplicated nothing" assertion, and ``requeued: N`` says how many
    points were re-hashed off dead shards (always 0 on a lone daemon).
    """
    requeued = int(getattr(outcome, "requeued", 0))
    return (f"job {outcome.job_id}: "  # type: ignore[attr-defined]
            f"{len(outcome.points)} points  "  # type: ignore[attr-defined]
            f"simulations: {outcome.simulations}  "  # type: ignore[attr-defined]
            f"warm hits: {outcome.hits}  "  # type: ignore[attr-defined]
            f"coalesced: {outcome.coalesced}  "  # type: ignore[attr-defined]
            f"requeued: {requeued}  "
            f"elapsed: {outcome.elapsed_s:.3f}s"  # type: ignore[attr-defined]
            "\n"
            f"simulations re-run: {outcome.simulations}")  # type: ignore[attr-defined]
