"""CHORD occupancy timeline rendering.

The buffer records ``(op_index, used_bytes)`` after every event; this
module renders that history as an ASCII occupancy chart and produces the
per-tensor traffic audit — the observability layer a user of the real
hardware's performance counters would want.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .buffer import ChordBuffer


def occupancy_series(chord: ChordBuffer, buckets: int = 60) -> List[Tuple[int, int]]:
    """Downsample the event history to ``buckets`` (op_index, max used)."""
    if not chord.history:
        return []
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    n = len(chord.history)
    step = max(1, -(-n // buckets))  # ceil division: at most ``buckets`` points
    out: List[Tuple[int, int]] = []
    for i in range(0, n, step):
        window = chord.history[i: i + step]
        out.append((window[0][0], max(u for _, u in window)))
    return out


def render_occupancy(chord: ChordBuffer, width: int = 60, height: int = 10) -> str:
    """ASCII occupancy-over-time chart (one column per time bucket)."""
    series = occupancy_series(chord, buckets=width)
    if not series:
        return "(no CHORD events recorded)"
    cap = chord.capacity_bytes
    cols = [min(height, round(height * u / cap)) for _, u in series]
    lines: List[str] = []
    for level in range(height, 0, -1):
        row = "".join("#" if c >= level else " " for c in cols)
        pct = 100 * level / height
        lines.append(f"{pct:5.0f}% |{row}|")
    lines.append("       " + "-" * (len(cols) + 2))
    first, last = series[0][0], series[-1][0]
    lines.append(f"       op {first} .. op {last}  (capacity {cap} B)")
    return "\n".join(lines)


def traffic_audit(chord: ChordBuffer, top: int = 15) -> str:
    """Per-tensor DRAM attribution, heaviest offenders first."""
    from ..analysis.report import render_table  # chord sits below analysis

    rows = []
    for name, rec in chord.per_tensor.items():
        dram = rec["miss"] + rec["spill"] + rec["writeback"]
        total = rec["hit"] + rec["miss"]
        hit_rate = rec["hit"] / total if total else 1.0
        rows.append((dram, [
            name, rec["hit"] / 1e6, rec["miss"] / 1e6,
            rec["spill"] / 1e6, rec["writeback"] / 1e6, hit_rate,
        ]))
    rows.sort(key=lambda r: -r[0])
    return render_table(
        ["tensor", "hit MB", "miss MB", "spill MB", "writeback MB", "hit rate"],
        [r for _, r in rows[:top]],
        title="CHORD per-tensor traffic audit (heaviest DRAM first)",
    )
