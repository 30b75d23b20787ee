#!/usr/bin/env python3
"""Bench-trend gate: detect slow performance drift across the committed
history of ``BENCH_*.json`` snapshots.

``check_bench.py`` compares one fresh run against one baseline with a
generous factor (10x), which catches cliffs but is blind to drift: ten
consecutive 20% regressions each pass the snapshot gate while the
kernel quietly gets 6x slower.  This tool closes that gap by fitting a
least-squares slope to ``log(rate)`` over the last N snapshots of every
size-independent rate metric (``*_per_s``) and failing when the fitted
per-step decline exceeds a threshold.

The log-domain fit makes the slope a *relative* change per snapshot —
``exp(slope) - 1`` is the average fractional step — so one noisy
snapshot cannot dominate the verdict the way a single endpoint
comparison would.

History sources (newest last):

* ``--from-git N`` — the last N committed versions of the baseline file
  (via ``git log`` + ``git show``), the CI mode;
* ``--files A B C`` — explicit report paths, oldest first (tests, local
  archaeology).

``--fresh PATH`` appends an uncommitted report as the newest snapshot,
so CI can ask "would merging this run tip any metric into decline?".

Only snapshots taken on the newest snapshot's ``platform`` are fitted:
rates from a different host differ by its speed, not by the code, and
a slower host would read as drift on every untouched bench.

Fewer than ``--min-points`` such snapshots is a pass ("insufficient
history"), not a failure: young repos, newly-added benches and a new
host must not brick the gate.

Usage::

    python tools/bench_trend.py --from-git 12 --fresh BENCH_fresh.json
    python tools/bench_trend.py --files old.json mid.json new.json \
        [--max-decline-pct 8] [--window 8] [--min-points 3]

Exit status 0 when clean (or insufficient history); 1 with a per-metric
report otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Rate metrics are comparable across snapshots (same machine class);
#: absolute times are not, so only ``*_per_s`` trends are fitted.
RATE_SUFFIX = "_per_s"


def load_report(path: str) -> Dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "results" not in data or not isinstance(data["results"], dict):
        raise SystemExit(f"{path}: not a bench report (no 'results' object)")
    return data


def git_history_reports(path: str, limit: int) -> List[Dict]:
    """The last ``limit`` committed versions of ``path``, oldest first.

    Unparseable historical blobs (pre-schema commits) are skipped, not
    fatal: the trend only needs the snapshots that were bench reports.
    """
    try:
        shas = subprocess.run(
            ["git", "log", "--format=%H", "-n", str(limit), "--", path],
            check=True, capture_output=True, text=True,
        ).stdout.split()
    except (subprocess.CalledProcessError, OSError) as exc:
        raise SystemExit(f"git log failed for {path}: {exc}")
    reports: List[Dict] = []
    for sha in reversed(shas):  # git log is newest-first
        try:
            blob = subprocess.run(
                ["git", "show", f"{sha}:{path}"],
                check=True, capture_output=True, text=True,
            ).stdout
            data = json.loads(blob)
        except (subprocess.CalledProcessError, OSError,
                json.JSONDecodeError):
            continue
        if isinstance(data.get("results"), dict):
            reports.append(data)
    return reports


def same_platform(reports: Sequence[Dict]) -> List[Dict]:
    """The snapshots taken on the newest one's ``platform``, in order.

    A report without the field matches only others without it.
    """
    if not reports:
        return []
    newest = reports[-1].get("platform")
    return [r for r in reports if r.get("platform") == newest]


def rate_series(reports: Sequence[Dict]) -> Dict[str, List[float]]:
    """``bench.metric`` -> positive rate values in snapshot order.

    A metric absent from some snapshot simply contributes fewer points
    (benches come and go); the fit below requires ``min_points`` of
    them before it says anything.
    """
    series: Dict[str, List[float]] = {}
    for report in reports:
        for bench, metrics in sorted(report["results"].items()):
            if not isinstance(metrics, dict):
                continue
            for metric, value in sorted(metrics.items()):
                if not metric.endswith(RATE_SUFFIX):
                    continue
                if isinstance(value, (int, float)) and value > 0:
                    series.setdefault(f"{bench}.{metric}",
                                      []).append(float(value))
    return series


def fit_slope(values: Sequence[float]) -> float:
    """Least-squares slope of ``log(value)`` against snapshot index."""
    n = len(values)
    ys = [math.log(v) for v in values]
    xs = list(range(n))
    x_mean = sum(xs) / n
    y_mean = sum(ys) / n
    denom = sum((x - x_mean) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - x_mean) * (y - y_mean)
               for x, y in zip(xs, ys)) / denom


def detect_regressions(reports: Sequence[Dict],
                       window: int = 8,
                       max_decline_pct: float = 8.0,
                       min_points: int = 3,
                       ) -> Tuple[List[str], int]:
    """Fit each rate metric's trend over the trailing ``window``
    snapshots; returns (problems, metrics_checked)."""
    problems: List[str] = []
    checked = 0
    for name, values in sorted(rate_series(reports).items()):
        values = values[-max(2, window):]
        if len(values) < min_points:
            continue
        checked += 1
        slope = fit_slope(values)
        decline_pct = (1.0 - math.exp(slope)) * 100.0
        if decline_pct > max_decline_pct:
            problems.append(
                f"{name}: declining {decline_pct:.1f}% per snapshot over "
                f"the last {len(values)} (latest {values[-1]:.3g}, "
                f"oldest in window {values[0]:.3g}; allowed "
                f"{max_decline_pct:g}%)")
    return problems, checked


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--from-git", type=int, metavar="N", default=None,
                        help="use the last N committed versions of "
                             "--baseline as history")
    source.add_argument("--files", nargs="+", metavar="PATH", default=None,
                        help="explicit report paths, oldest first")
    parser.add_argument("--baseline", default="BENCH_kernels.json",
                        help="tracked report path for --from-git "
                             "(default BENCH_kernels.json)")
    parser.add_argument("--fresh", metavar="PATH", default=None,
                        help="append this uncommitted report as the "
                             "newest snapshot")
    parser.add_argument("--window", type=int, default=8,
                        help="trailing snapshots per fit (default 8)")
    parser.add_argument("--max-decline-pct", type=float, default=8.0,
                        help="allowed fitted decline per snapshot "
                             "(default 8%%)")
    parser.add_argument("--min-points", type=int, default=3,
                        help="snapshots required before a metric is "
                             "judged (default 3)")
    args = parser.parse_args(argv)
    if args.from_git is not None and args.from_git < 1:
        parser.error("--from-git must be >= 1")

    if args.files is not None:
        reports = [load_report(p) for p in args.files]
    else:
        reports = git_history_reports(args.baseline, args.from_git)
    if args.fresh is not None:
        reports.append(load_report(args.fresh))
    skipped = len(reports)
    reports = same_platform(reports)
    skipped -= len(reports)
    note = f", {skipped} from other platforms skipped" if skipped else ""

    if len(reports) < args.min_points:
        print(f"bench trend: insufficient history ({len(reports)} "
              f"snapshot(s){note}, need {args.min_points}); "
              "nothing to judge")
        return 0

    problems, checked = detect_regressions(
        reports, window=args.window,
        max_decline_pct=args.max_decline_pct,
        min_points=args.min_points)
    if problems:
        print(f"bench trend regression over {len(reports)} snapshot(s):",
              file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"bench trend ok ({checked} rate metric(s) within "
          f"{args.max_decline_pct:g}%/snapshot over {len(reports)} "
          f"snapshot(s){note})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
