"""Compare two result files of ``python -m benchmarks.e2e run``.

One row per (end-to-end metric, workload): both medians with their
quartiles, the ratio with its base, the bound and a verdict.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from .metrics import END_TO_END, EndToEnd


@dataclasses.dataclass(frozen=True)
class Row:
    metric: str
    workload: str
    unit: str
    base: dict[str, Any]
    new: dict[str, Any]
    #: new median / base median; ``None`` when the base is 0.
    ratio: float | None
    bound: float
    #: ``improved`` | ``unchanged`` | ``regressed`` | ``unresolved``
    verdict: str


def verdict(metric: EndToEnd, base: dict[str, Any], new: dict[str, Any]) -> str:
    """Whether ``new`` is better, the same or worse than ``base``.

    Exact metrics (bound 0) are compared bit for bit.  A timed metric is
    ``unresolved`` when either side's own spread is wider than the bound,
    unless the two medians are further apart than both spreads together.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (new["value"] - base["value"])
    if metric.bound == 0.0:
        if new["value"] == base["value"]:
            return "unchanged"
        return "regressed" if worse_by > 0 else "improved"
    limit = metric.bound * abs(base["value"])
    spreads = base.get("spread", 0.0), new.get("spread", 0.0)
    if max(spreads) > metric.bound:
        apart = (spreads[0] * abs(base["value"])
                 + spreads[1] * abs(new["value"]))
        if abs(worse_by) <= max(apart, limit):
            return "unresolved"
    if worse_by > limit:
        return "regressed"
    if worse_by < -limit:
        return "improved"
    return "unchanged"


def compare(base: dict[str, Any], new: dict[str, Any]) -> list[Row]:
    """Rows for every (metric, workload) present in both result files."""
    rows = []
    for metric in END_TO_END:
        for workload in metric.workloads:
            try:
                a = base["workloads"][workload]["metrics"][metric.name]
                b = new["workloads"][workload]["metrics"][metric.name]
            except KeyError:
                continue
            ratio = b["value"] / a["value"] if a["value"] else None
            rows.append(Row(metric.name, workload, metric.unit, a, b, ratio,
                            metric.bound, verdict(metric, a, b)))
    return rows


def failed(rows: list[Row]) -> bool:
    """True on any regression; a rise in ``failed_share`` is one."""
    return any(row.verdict == "regressed" for row in rows)


def render(rows: list[Row], base_name: str, new_name: str) -> str:
    def cell(record: dict[str, Any]) -> str:
        return (f"{record['value']:.6g} [{record['q1']:.6g}, "
                f"{record['q3']:.6g}] ±{record.get('spread', 0.0):.1%}")

    header = ("metric", "workload", "unit", f"base: {base_name}",
              f"new: {new_name}", "new/base", "bound", "verdict")
    table = [header]
    for row in rows:
        table.append((
            row.metric, row.workload, row.unit, cell(row.base), cell(row.new),
            "-" if row.ratio is None else f"{row.ratio:.4f}",
            "exact" if row.bound == 0 else f"{row.bound:.0%}", row.verdict))
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                     for line in table)
