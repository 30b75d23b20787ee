#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh ``repro bench`` run against the
committed baseline (``BENCH_kernels.json``) with a generous threshold.

CI runners are noisy and the committed baseline was measured at full
size while CI runs ``--quick``, so only **size-independent rate metrics**
(`*_per_s`) are compared, and a regression only fails the gate when a
fresh rate drops below ``baseline / factor`` (default 10x — a real
algorithmic regression, not scheduler jitter).  Two structural checks
ride along:

* every benchmark present in the baseline must still exist in the fresh
  report (a silently dropped bench would otherwise pass forever);
* every benchmark present only in the fresh report fails the gate
  unless ``--allow-new`` is passed — a new bench must be added to the
  committed baseline deliberately, not slip past the gate unbaselined;
* the vectorised cache kernels must still beat the scalar reference
  (``speedup`` stays above ``--min-speedup``, default 1.5 — they are
  15-19x at parity today);
* the analytic traffic model must still be dramatically faster than the
  simulated path it replaces (``analytic_over_simulated`` stays above
  ``--min-analytic-speedup``, default 100 — ~600x on a 2-vCPU VM today
  against a simulation that rebuilds the DAG; below that the hybrid
  tuner's fast path has stopped being fast);
* the batch analytic evaluator must still amortise the Python dispatch
  it exists to remove (``batch_over_pointwise`` stays above
  ``--min-batch-speedup``, default 50 — the columnar tuner path is
  pointless below that).

Both ratios are medians over the bench's alternating timing rounds (the
per-round values sit beside them as ``*_rounds``), so one noisy stretch
of the host moves one round, not the gated number.

Usage::

    python tools/check_bench.py --baseline BENCH_kernels.json \
        --fresh BENCH_fresh.json [--factor 10] [--min-speedup 1.5] \
        [--min-analytic-speedup 100] [--min-batch-speedup 50] \
        [--allow-new]

Exit status 0 when clean; 1 with a per-problem report otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

#: Rate metrics are comparable across workload sizes (quick vs full).
RATE_SUFFIX = "_per_s"


def load_report(path: str) -> Dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "results" not in data or not isinstance(data["results"], dict):
        raise SystemExit(f"{path}: not a bench report (no 'results' object)")
    return data


def compare(baseline: Dict, fresh: Dict, factor: float,
            min_speedup: float,
            min_analytic_speedup: float = 100.0,
            min_batch_speedup: float = 50.0,
            allow_new: bool = False) -> List[str]:
    problems: List[str] = []
    base_results = baseline["results"]
    fresh_results = fresh["results"]
    for name in sorted(set(fresh_results) - set(base_results)):
        # A fresh-only bench used to pass silently: nothing compared it,
        # so a typo'd rename (old name "missing", new name "new") or an
        # unbaselined bench never got a baseline at all.
        if allow_new:
            print(f"note: {name}: new benchmark not in the baseline "
                  "(allowed by --allow-new; baseline it with "
                  "'repro bench')")
        else:
            problems.append(
                f"{name}: present in the fresh report but not in the "
                "baseline — re-run 'repro bench' to baseline it, or pass "
                "--allow-new")
    for name, base in sorted(base_results.items()):
        got = fresh_results.get(name)
        if got is None:
            problems.append(f"{name}: present in baseline but missing from "
                            "the fresh report")
            continue
        for metric, base_value in sorted(base.items()):
            if not metric.endswith(RATE_SUFFIX):
                continue
            if not isinstance(base_value, (int, float)) or base_value <= 0:
                continue
            fresh_value = got.get(metric)
            if not isinstance(fresh_value, (int, float)):
                problems.append(f"{name}.{metric}: missing from the fresh "
                                "report")
                continue
            floor = base_value / factor
            if fresh_value < floor:
                problems.append(
                    f"{name}.{metric}: {fresh_value:.3g} < {floor:.3g} "
                    f"(baseline {base_value:.3g} / factor {factor:g})")
        if "speedup" in base:
            fresh_speedup = got.get("speedup", 0.0)
            if not isinstance(fresh_speedup, (int, float)) \
                    or fresh_speedup < min_speedup:
                problems.append(
                    f"{name}.speedup: {fresh_speedup!r} < required "
                    f"{min_speedup:g} (vector kernel no longer beats the "
                    "scalar reference)")
        if "analytic_over_simulated" in base:
            fresh_ratio = got.get("analytic_over_simulated", 0.0)
            if not isinstance(fresh_ratio, (int, float)) \
                    or fresh_ratio < min_analytic_speedup:
                problems.append(
                    f"{name}.analytic_over_simulated: {fresh_ratio!r} < "
                    f"required {min_analytic_speedup:g} (the analytic "
                    "model no longer meaningfully outpaces simulation)")
        if "batch_over_pointwise" in base:
            fresh_batch = got.get("batch_over_pointwise", 0.0)
            if not isinstance(fresh_batch, (int, float)) \
                    or fresh_batch < min_batch_speedup:
                problems.append(
                    f"{name}.batch_over_pointwise: {fresh_batch!r} < "
                    f"required {min_batch_speedup:g} (the batch evaluator "
                    "no longer amortises per-point dispatch)")
    return problems


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_kernels.json",
                        help="committed baseline report (default "
                             "BENCH_kernels.json)")
    parser.add_argument("--fresh", required=True,
                        help="freshly measured report to gate")
    parser.add_argument("--factor", type=float, default=10.0,
                        help="allowed rate slowdown vs baseline "
                             "(default 10x — generous on purpose)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required vector-vs-reference cache-kernel "
                             "speedup (default 1.5)")
    parser.add_argument("--min-analytic-speedup", type=float, default=100.0,
                        help="required analytic-vs-simulated evaluation "
                             "speedup (default 100)")
    parser.add_argument("--min-batch-speedup", type=float, default=50.0,
                        help="required batch-vs-point-wise analytic "
                             "evaluation speedup (default 50)")
    parser.add_argument("--allow-new", action="store_true",
                        help="report benchmarks missing from the baseline "
                             "as notes instead of failures")
    args = parser.parse_args(argv)
    if args.factor <= 1.0:
        parser.error("--factor must be > 1")

    baseline = load_report(args.baseline)
    fresh = load_report(args.fresh)
    problems = compare(baseline, fresh, args.factor, args.min_speedup,
                       args.min_analytic_speedup, args.min_batch_speedup,
                       allow_new=args.allow_new)
    if problems:
        print(f"bench regression vs {args.baseline} "
              f"(factor {args.factor:g}):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    n = sum(1 for r in baseline["results"].values()
            for m in r if m.endswith(RATE_SUFFIX))
    print(f"bench check ok ({n} rate metrics within {args.factor:g}x of "
          f"{args.baseline})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
