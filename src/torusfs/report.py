"""Structured audit results with deterministic JSON/CSV serialization.

Every inequality or exponent audit in the package returns an
:class:`AuditReport`.  Serialization is deterministic: keys are sorted,
floats are written with ``repr`` (shortest round-trip form), and no
timestamps or environment data enter the payload, so identical seeds
yield byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["AuditReport", "write_table_csv"]

SCHEMA = "torusfs-audit-report/1"


def _plain(obj):
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


@dataclass
class AuditReport:
    """Outcome of one audit.

    Attributes
    ----------
    name : str
        Stable identifier of the audited inequality or construction.
    params : dict
        Effective parameters (exponents, grid sizes, seeds, ...).
    constant : float
        Headline measured constant (meaning documented per audit).
    table : list of dict
        Per-scale / per-trial rows.
    passed : bool
        Whether the audit met its pass rule.
    tolerance : float or None
        The tolerance the pass rule used, when one applies.
    details : dict
        Secondary measured quantities and flags.
    """

    name: str
    params: dict
    constant: float
    table: list = field(default_factory=list)
    passed: bool = True
    tolerance: float | None = None
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tol = "" if self.tolerance is None else f" (tolerance {self.tolerance!r})"
        return f"[{status}] {self.name}: constant={self.constant!r}{tol}"

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "params": _plain(self.params),
            "constant": _plain(self.constant),
            "tolerance": _plain(self.tolerance),
            "passed": bool(self.passed),
            "details": _plain(self.details),
            "table": _plain(self.table),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _fit_slope(ks, values) -> float:
    """Least-squares slope of log2(values) against ks."""
    v = np.asarray(values, dtype=float)
    if np.any(v <= 0):
        return float("inf")
    return float(np.polyfit(np.asarray(ks, dtype=float), np.log2(v), 1)[0])


def _drift(values) -> float:
    """Relative spread max/min - 1 of positive values."""
    v = np.asarray(values, dtype=float)
    return float(v.max() / v.min() - 1.0) if v.min() > 0 else float("inf")


def _best(trials, ratio) -> float:
    """Largest ratio(trial) over the trials, from 0.0; a None ratio (zero denominator) is skipped."""
    best = 0.0
    for r in map(ratio, trials):
        if r is not None:
            best = max(best, r)
    return best


def write_table_csv(rows: list, path) -> None:
    """Write a list of dict rows with a stable, sorted column order."""
    rows = [_plain(r) for r in rows]
    cols = sorted({k for r in rows for k in r})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for r in rows:
            writer.writerow([_fmt(r.get(c, "")) for c in cols])


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, dict) and set(v) == {"re", "im"}:
        return f"{v['re']!r}+{v['im']!r}j"
    return v
