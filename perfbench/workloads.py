"""The benchmark's two workloads.

A workload turns the benchmark seed into inputs, runs one *unit* of work
(the operations a user waits on for one verdict) and checks the outputs of
the last unit against computations made apart from the program or against
properties the method must have.  ``unit()`` returns a ``UnitResult``.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import reference
from torusfs import cli, experiments
from torusfs.experiments import LacunaryConfig, RandomAtomConfig

# Library functions are called through their modules
# (``experiments.fspace_growth_experiment``, not an imported name), so that
# the tracer, which swaps module attributes, sees every call a unit makes.

# Atom-train seed of acceptance criterion 8.  At a reduced draw count the
# input-slope verdict depends on the train seed (exact replay of the
# activation draws: 5% of train seeds fail it at 12 draws, 28% at 2), so the
# train stays pinned and the benchmark seed drives the multiplier's signs.
CRITERION_SEED = 20250810
L_LIST = list(range(3, 9))
L_ARG = "3..8"  # L_LIST as the command line writes it
P, Q, T = 2.0, 2.0, 1.0


@dataclass
class UnitResult:
    attempted: int
    failed: int
    ok_s: float  # time of the operations that reached their verdict
    total_s: float  # time of the whole unit, failed operations included
    outputs: dict = field(default_factory=dict)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _fit(values) -> float:
    counts = np.arange(1, len(values) + 1)
    return float(np.polyfit(np.log2(counts), np.log2(values), 1)[0])


class MixedGrowth:
    """``experiment --name fspace-growth`` at criterion 8's parameters, 2 draws."""

    name = "mixed-growth"
    draws = 2
    workers = 2

    def __init__(self, seed: int, outdir: Path):
        self.outdir = outdir
        self.lac = LacunaryConfig(L=max(L_LIST), spacing=2, m=0.0, seed=seed)  # m = -(1/p - 1/2) = 0
        self.atoms = RandomAtomConfig(L=max(L_LIST), spacing=2, p=P, seed=CRITERION_SEED)

    def unit(self, workers: int | None = None) -> UnitResult:
        start = time.perf_counter()
        workers = workers or self.workers
        rep = experiments.fspace_growth_experiment(self.lac, self.atoms, P, Q, T, draws=self.draws, L_list=L_LIST,
                                                   workers=workers)
        cli._write_outputs(rep, self.outdir, "experiment-fspace-growth", self._effective(workers))
        dur = time.perf_counter() - start
        failed = 0 if rep.passed else 1
        return UnitResult(1, failed, dur, dur, {"report": rep})

    def _effective(self, workers: int) -> dict:
        """The configuration ``torusfs experiment`` records, with the train
        seed, which the command line cannot set apart, named as well."""
        return {"command": "experiment", "name": "fspace-growth", "p": P, "q": Q, "t": T, "m": self.lac.m,
                "spacing": self.lac.spacing, "seed": self.lac.seed, "atom_seed": self.atoms.seed, "draws": self.draws,
                "workers": workers, "L": L_ARG, "outdir": str(self.outdir)}

    def check(self, out: dict) -> list:
        rep = out["report"]
        problems = []
        ins = [row["input_norm"] for row in rep.table]
        outs = [row["output_norm"] for row in rep.table]
        in_slope, out_slope = _fit(ins), _fit(outs)
        if not (in_slope <= 1.0 / P + 0.15 and out_slope >= 1.0 / T - 0.15):
            problems.append(f"pass rule: input slope {in_slope}, output slope {out_slope}")
        if not (_close(in_slope, rep.details["input_slope"], 1e-9) and _close(out_slope, rep.details["output_slope"], 1e-9)):
            problems.append("reported slopes differ from a fit of the reported table")
        L0 = min(L_LIST)
        lac, atoms = replace(self.lac, L=L0), replace(self.atoms, L=L0)
        for row in (r for r in rep.details["draw_rows"] if r["L"] == L0):
            dense_in, dense_out = reference.fspace_draw_norms(lac, atoms, row["draw"], P, Q, T)
            if not (_close(dense_in, row["input_norm"], 1e-9) and _close(dense_out, row["output_norm"], 1e-9)):
                problems.append(f"L={L0} draw {row['draw']}: dense norms {dense_in}, {dense_out} vs {row['input_norm']}, {row['output_norm']}")
        return problems


SUITES = ("partition", "peetre", "vector-maximal", "cube-tail", "sharp-domination", "fefferman-stein",
          "khintchine", "frame", "fourier-series", "single-band", "kernel", "local-energy")
# vector-maximal exits 2 today ("radius 128.0 exceeds grid Nyquist 128.0"): the
# suite runs audit_fs_vector_inequality with its default J_list (3, 4, 5, 6) at
# n = 256.  It is counted as failed and kept out of wall_s, so the change that
# mends it moves only the failure count.
KNOWN_FAILING = "vector-maximal"
NECESSITY_RUNS = {"audit-peetre-1", "audit-cube-tail-1"}  # expected passed: false
ALLOWED_NOT_PASSED = NECESSITY_RUNS | {"audit-vector-maximal-1"}


class AuditSweep:
    """Every audit suite at its defaults, one ``audit --suite <name>`` each."""

    name = "audit-sweep"
    workers = 1

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir

    def unit(self, workers: int | None = None) -> UnitResult:
        codes, ok_s, total_s = {}, 0.0, 0.0
        for suite in SUITES:
            argv = ["audit", "--suite", suite, "--seed", str(self.seed), "--outdir", str(self.outdir)]
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes[suite] = cli.main(argv)
            dur = time.perf_counter() - start
            total_s += dur
            if suite != KNOWN_FAILING:
                ok_s += dur
        failed = sum(1 for code in codes.values() if code != 0)
        return UnitResult(len(SUITES), failed, ok_s, total_s, {"codes": codes})

    def check(self, out: dict) -> list:
        problems = [f"suite {s} exited {c}" for s, c in out["codes"].items() if c != 0 and s != KNOWN_FAILING]
        reports = {p.stem: json.loads(p.read_text()) for p in self.outdir.glob("audit-*.json")}
        not_passed = {stem for stem, rep in reports.items() if not rep["passed"]}
        if not (NECESSITY_RUNS <= not_passed <= ALLOWED_NOT_PASSED):
            problems.append(f"reports with passed: false are {sorted(not_passed)}")
        khin = reports.get("audit-khintchine-0")
        if khin is None or abs(khin["constant"] - 2.0**-0.5) > 1e-14:
            problems.append(f"khintchine (1, 1) constant at p=1 is {khin and khin['constant']}, not 2^-1/2")
        return problems


WORKLOADS = {w.name: w for w in (MixedGrowth, AuditSweep)}
