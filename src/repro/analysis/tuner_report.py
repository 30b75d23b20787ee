"""Rendering of autotuner results (text tables and JSON).

The text report shows the Pareto frontier with every knob spelled out,
then the searched-best-vs-fixed-CELLO comparison that extends the
Sec. VI-B narrative: how much the *searchable remainder* of the design
space is worth on top of the paper's fixed co-design point.  The JSON
form is :meth:`TuneResult.to_dict` verbatim — loadable back with
:meth:`TuneResult.from_dict` for downstream analysis.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from ..hw.config import MIB
from ..tuner.space import TunePoint
from ..tuner.tuner import TuneEval, TuneResult
from .report import render_table

#: Objective display units: name -> (header suffix, scale divisor).
_UNITS = {
    "runtime": ("us", 1e-6),
    "dram": ("MB", 1e6),
    "energy": ("uJ", 1e-6),
    "area": ("mm2", 1.0),
}


def _knob_cells(point: TunePoint) -> List[object]:
    return [
        point.config_name(),
        point.sram_bytes / MIB,
        point.line_bytes,
        point.chord_entries if point.is_cello else "-",
    ]


def _objective_cells(e: TuneEval, objectives: Sequence[str]) -> List[object]:
    return [e.objectives[n] / _UNITS.get(n, ("", 1.0))[1] for n in objectives]


def render_tune_result(tr: TuneResult) -> str:
    """Human-readable summary of one tuning run.

    It leaves out ``n_simulations``, which depends on what the result
    store already held, so a warm rerun renders the same bytes."""
    front = tr.front
    front_points = {e.point for e in front}
    headers = ["config", "SRAM MB", "line B", "entries"] + [
        f"{n} {_UNITS.get(n, ('', 1.0))[0]}".rstrip() for n in tr.objectives
    ] + ["note"]
    rows = []
    listed = []
    for e in tr.evaluations:
        if e.point in front_points:
            listed.append((e, "pareto"))
    best = tr.best
    for e, note in listed:
        tags = [note]
        if e.point == best.point:
            tags.append("best")
        if e.point == tr.incumbent.point:
            tags.append("fixed CELLO")
        if e.fidelity != "exact":
            tags.append(e.fidelity)
        rows.append(_knob_cells(e.point) + _objective_cells(e, tr.objectives)
                    + ["+".join(tags)])
    if tr.incumbent.point not in front_points:
        rows.append(
            _knob_cells(tr.incumbent.point)
            + _objective_cells(tr.incumbent, tr.objectives)
            + ["fixed CELLO (dominated)"]
        )
    table = render_table(
        headers, rows, precision=3,
        title=(
            f"Tuned {tr.workload} [{tr.strategy}]: "
            f"{len(front)} Pareto point(s) from {len(tr.evaluations)} "
            "evaluation(s)"
        ),
    )
    speedup = tr.speedup_over_incumbent()
    dram_cut = (tr.incumbent.result.dram_bytes
                / max(1, min(e.result.dram_bytes for e in tr.evaluations)))
    summary = (
        f"searched best vs fixed CELLO: {speedup:.2f}x runtime, "
        f"{dram_cut:.2f}x DRAM traffic headroom"
    )
    lines = [table, summary]
    if tr.fidelity != "exact":
        lines.append(render_fidelity_line(tr))
    return "\n".join(lines)


#: Error bound the differential harness pins the analytic model to; a
#: hybrid run whose observed error exceeds it is flagged (and the CI
#: fidelity-smoke job greps for the "within" wording).
ANALYTIC_ERROR_BOUND = 0.02


def render_fidelity_line(tr: TuneResult) -> str:
    """One greppable line summarising a reduced-fidelity run."""
    err = tr.analytic_max_rel_error
    if err is None:
        err_txt = "max analytic error n/a (no prediction re-simulated)"
    elif err <= ANALYTIC_ERROR_BOUND:
        err_txt = (f"max analytic error {err:.4%} "
                   f"(within {ANALYTIC_ERROR_BOUND:.0%} bound)")
    else:
        err_txt = (f"max analytic error {err:.4%} "
                   f"(EXCEEDS {ANALYTIC_ERROR_BOUND:.0%} bound)")
    return (
        f"fidelity: {tr.fidelity} — {tr.n_analytic} analytic-priced "
        f"evaluation(s); {err_txt}"
    )


def tune_results_json(results: Sequence[TuneResult]) -> str:
    """JSON encoding of one or more tuning runs (round-trippable)."""
    return json.dumps([tr.to_dict() for tr in results], indent=2,
                      sort_keys=True) + "\n"
