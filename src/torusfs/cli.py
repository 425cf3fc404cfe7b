"""Command-line front end.

Wires configuration (a JSON file, flags overriding file keys) to the
library: norm evaluation, symbol application, band decomposition, the
audit suites, and the growth experiments.  All outputs are files for
offline analysis: a JSON report (schema-versioned, deterministic for a
fixed seed set) plus CSV tables.  Exit code 0 means every requested audit
passed its tolerance, 1 means some audit failed, 2 means the
configuration was unusable or an audit suite raised (the other suites of
``audit --suite all`` still run and write their reports).

Importing this module loads only what parsing and ``_write_outputs``
need (argparse, json, numpy and ``torusfs.report``).  Each command and
audit suite imports the library modules it runs inside its own body when
it is called, so a command never loads a module it does not use, and no
library name is bound in this module's namespace: a caller that swaps a
library module's attributes (a test's monkeypatch, the benchmark's
tracer) is seen by every later call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .report import AuditReport, write_table_csv

__all__ = ["main", "run_config"]


_LOCATION_KEYS = {"outdir", "output", "config"}  # environmental, not semantic


def _write_outputs(report: AuditReport, outdir: Path, stem: str, effective: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    payload["effective_config"] = {
        k: v for k, v in sorted(effective.items()) if v is not None and k not in _LOCATION_KEYS
    }
    with open(outdir / f"{stem}.json", "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    rows = report.table or []
    if report.details.get("draw_rows"):
        rows = [dict(r, kind="summary") for r in rows] + [dict(r, kind="draw") for r in report.details["draw_rows"]]
    if rows:
        write_table_csv(rows, outdir / f"{stem}.csv")


def _print(report: AuditReport) -> None:
    print(report.summary())


# ---------------------------------------------------------------------------
# audit suites
# ---------------------------------------------------------------------------


def _suite_partition(cfg):
    from .littlewood_paley import build_partition, check_partition

    return [check_partition(build_partition(int(cfg.get("J", 10))), int(cfg.get("samples", 100_000)), int(cfg.get("seed", 0)))]


def _suite_peetre(cfg):
    from . import maximal

    t, d = float(cfg.get("t", 1.0)), int(cfg.get("d", 1))
    if not t > 0:  # the sigmas below divide by t
        raise ValueError("sigma and t must be positive")
    sigmas = (d / t + 0.5, d / t - 0.5)
    return maximal.audit_peetre_domination(sigmas=sigmas, t=t, d=d, seed=int(cfg.get("seed", 0)), trials=int(cfg.get("trials", 10)))


def _suite_vector_maximal(cfg):
    from . import maximal

    seed, trials = int(cfg.get("seed", 0)), int(cfg.get("trials", 10))
    return [
        maximal.audit_fs_vector_inequality(p=2.0, q=2.0, sigma=2.0, seed=seed, trials=trials),
        maximal.audit_fs_vector_inequality(p=2.0, q=2.0, sigma=0.2, seed=seed, trials=trials),
    ]


def _suite_cube_tail(cfg):
    from . import maximal

    seed, trials = int(cfg.get("seed", 0)), int(cfg.get("trials", 6))
    return [
        maximal.audit_infty_maximal(q=2.0, sigma=1.0, seed=seed, trials=trials),
        maximal.audit_infty_maximal(q=2.0, sigma=0.3, seed=seed, trials=trials),
    ]


def _suite_sharp_domination(cfg):
    from . import maximal

    return [maximal.audit_sharp_domination(q=2.0, seed=int(cfg.get("seed", 0)), trials=int(cfg.get("trials", 10)))]


def _suite_fefferman_stein(cfg):
    from . import maximal

    return maximal.audit_fefferman_stein(ps=(1.5, 2.0, 4.0), seed=int(cfg.get("seed", 0)), trials=int(cfg.get("trials", 30)))


def _suite_khintchine(cfg):
    from . import experiments

    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    reports = [experiments.khintchine_audit([1.0, 1.0], 1.0)]
    for p in (1.0, 2.0, 4.0):
        coeffs = rng.standard_normal(10)
        reports.append(experiments.khintchine_audit(coeffs, p, seed=seed))
    return reports


def _suite_frame(cfg):
    from . import spaces

    sps = [spaces.SpaceParams(s, p, q, "triebel") for s, p, q in ((0.0, 2.0, 2.0), (0.5, 1.0, 2.0), (-0.3, 3.0, 1.5))]
    return spaces.norm_equivalence_audit(int(cfg.get("trials", 20)), sps, seed=int(cfg.get("seed", 0)))


def _suite_fourier_series(cfg):
    from . import pseudo
    from .grid import Grid, GridFunction

    seed = int(cfg.get("seed", 0))
    n = int(cfg.get("n", 32))
    grid = Grid(1, n)
    rng = np.random.default_rng(seed)
    worst = None
    for _ in range(int(cfg.get("trials", 20))):
        g = GridFunction.from_samples(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        psi = GridFunction.from_spectrum(grid, np.exp(-0.05 * grid.freq_radii() ** 2).astype(complex))
        rep = pseudo.fourier_series_identity_check(g, psi)
        if worst is None or rep.constant > worst.constant:
            worst = rep
    return [worst]


def _suite_single_band(cfg):
    from . import pseudo
    from .grid import Grid
    from .littlewood_paley import build_partition

    seed, trials = int(cfg.get("seed", 0)), int(cfg.get("trials", 10))
    grid = Grid(1, int(cfg.get("n", 4096)))
    part = build_partition(9)
    return [
        pseudo.audit_single_band(pseudo.Symbol.bessel(0.0), 2.0, grid=grid, partition=part, seed=seed, trials=trials),
        pseudo.audit_single_band(pseudo.Symbol.bessel(-0.5), 2.0, grid=grid, partition=part, seed=seed, trials=trials),
        pseudo.audit_single_band(pseudo.Symbol.sin_sin(), np.inf, ks=(3, 4, 5, 6), grid=Grid(1, 512), partition=build_partition(7), seed=seed, trials=trials),
    ]


def _suite_kernel(cfg):
    from . import pseudo
    from .grid import Grid
    from .littlewood_paley import build_partition

    grid = Grid(1, int(cfg.get("n", 4096)))
    part = build_partition(9)
    return [
        pseudo.audit_kernel_bounds(pseudo.Symbol.bessel(0.0), part, grid=grid),
        pseudo.audit_kernel_bounds(pseudo.Symbol.bessel(-0.5), part, grid=grid),
    ]


def _suite_local_energy(cfg):
    from . import pseudo
    from .grid import Grid
    from .littlewood_paley import build_partition

    seed, trials = int(cfg.get("seed", 0)), int(cfg.get("trials", 10))
    return [pseudo.audit_local_energy(pseudo.Symbol.bessel(0.0), build_partition(7), Grid(1, 512), seed=seed, trials=trials)]


_SUITES = {
    "partition": _suite_partition,
    "peetre": _suite_peetre,
    "vector-maximal": _suite_vector_maximal,
    "cube-tail": _suite_cube_tail,
    "sharp-domination": _suite_sharp_domination,
    "fefferman-stein": _suite_fefferman_stein,
    "khintchine": _suite_khintchine,
    "frame": _suite_frame,
    "fourier-series": _suite_fourier_series,
    "single-band": _suite_single_band,
    "kernel": _suite_kernel,
    "local-energy": _suite_local_energy,
}

# Audit flag -> the suites that read it; any other suite refuses it.
_SUITE_OPTIONS = {
    "trials": {"peetre", "vector-maximal", "cube-tail", "sharp-domination", "fefferman-stein", "frame",
               "fourier-series", "single-band", "local-energy"},
    "n": {"fourier-series", "single-band", "kernel"},
}


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_norm(cfg) -> int:
    from . import spaces
    from .grid import load_gridfunction
    from .littlewood_paley import build_partition

    grid_fn = load_gridfunction(cfg["input"])
    space = cfg.get("space", "F")
    s, p, q = float(cfg.get("s", 0.0)), float(cfg.get("p", 2.0)), float(cfg.get("q", 2.0))
    J = int(cfg.get("J", max(3, int(np.log2(grid_fn.grid.n)) - 2)))
    part = build_partition(J)
    if space == "B":
        value = spaces.besov_norm(grid_fn, part, spaces.SpaceParams(s, p, q, "besov"), int(cfg.get("oversample", 1)))
    elif space == "F" and np.isinf(p):
        value = spaces.triebel_infty_norm(grid_fn, part, s, q)
    elif space == "F":
        value = spaces.triebel_norm(grid_fn, part, spaces.SpaceParams(s, p, q, "triebel"), int(cfg.get("oversample", 1)))
    else:
        raise ValueError(f"unknown space {space!r} (use F or B)")
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"value": value, "space": space, "s": s, "p": p, "q": q, "J": J, "input": str(cfg["input"])}
    with open(outdir / "norm.json", "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"{space}(s={s},p={p},q={q}) norm = {value!r}")
    return 0


def _cmd_apply(cfg) -> int:
    from . import pseudo
    from .grid import load_gridfunction, save_gridfunction
    from .registry import make_symbol

    f = load_gridfunction(cfg["input"])
    sym = make_symbol(cfg["symbol"], dim=f.grid.dim)
    out = pseudo.apply(sym, f)
    output = cfg.get("output") or str(Path(cfg["outdir"]) / "applied.dat")
    Path(output).parent.mkdir(parents=True, exist_ok=True)
    save_gridfunction(out, output)
    print(f"wrote {output}")
    return 0


def _cmd_decompose(cfg) -> int:
    from . import pseudo
    from .grid import Grid
    from .littlewood_paley import build_partition
    from .registry import make_symbol

    n = int(cfg.get("n", 256))
    J = int(cfg.get("J", 6))
    grid = Grid(1, n)
    sym = make_symbol(cfg["symbol"], dim=1)
    part = build_partition(J)
    dec = pseudo.decompose_paradiff(sym, part, grid)
    if sym.kind == "multiplier":
        xi = grid.axis_freqs()
        vals = sum(np.asarray(p.fn((np.zeros(n),), (xi,)), dtype=complex) for p in dec.pieces)
        ref = np.asarray(sym.fn((np.zeros(n),), (xi,)), dtype=complex)
        residual = float(np.max(np.abs(vals - ref)))
    else:
        total = dec.pieces[0].table + dec.pieces[1].table + dec.pieces[2].table
        residual = float(np.max(np.abs(total - pseudo._symbol_table(sym, grid))))
    rows = []
    for k, b in sorted(dec.bands.items()):
        rows.append({"band": k, "seminorm_00": pseudo.seminorm(b, 0, 0, check=False)})
    report = AuditReport(
        name="band-interaction-decomposition",
        params={"symbol": cfg["symbol"], "n": n, "J": J},
        constant=residual,
        table=rows,
        passed=residual < 1e-10,
        tolerance=1e-10,
        details={},
    )
    _write_outputs(report, Path(cfg["outdir"]), "decompose", cfg)
    _print(report)
    return 0 if report.passed else 1


def _cmd_audit(cfg) -> int:
    suite = cfg.get("suite", "partition")
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)} or 'all'")
    names = list(_SUITES) if suite == "all" else [suite]
    for option, readers in _SUITE_OPTIONS.items():
        if option in cfg and not readers.intersection(names):
            raise ValueError(f"--{option} is not read by suite {suite!r}; suites that read it: {', '.join(sorted(readers))}")
    if "trials" in cfg and int(cfg["trials"]) < 1:
        raise ValueError(f"trials must be >= 1, got {cfg['trials']}")
    status = 0
    raised = []
    outdir = Path(cfg["outdir"])
    for name in names:
        try:
            reports = _SUITES[name](cfg)
        except Exception as exc:  # one suite's failure must not cost the others their reports
            if not isinstance(exc, (ValueError, OSError)):
                import traceback

                traceback.print_exc()
            print(f"audit {name} raised: {exc}", file=sys.stderr)
            raised.append(name)
            continue
        for i, rep in enumerate(reports):
            stem = f"audit-{name}" if len(reports) == 1 else f"audit-{name}-{i}"
            _write_outputs(rep, outdir, stem, cfg)
            _print(rep)
            ok = rep.passed != bool(rep.details.get("outside_hypothesis"))  # a necessity run passes by failing
            if not ok:
                detail = json.dumps({"measured": rep.constant, "tolerance": rep.tolerance})
                print(f"audit {rep.name} violated its pass rule: {detail}", file=sys.stderr)
                status = 1
    if raised:
        print(f"audit: {len(raised)} of {len(names)} suites raised: {', '.join(raised)}", file=sys.stderr)
        return 2
    return status


def _parse_range(text: str):
    """Top scales from --L: a range lo..hi or a list a,b,c, ascending and nonempty."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            L_list = list(range(int(lo), int(hi) + 1))
        else:
            L_list = [int(v) for v in text.split(",")]
    except ValueError:
        L_list = []
    if not L_list or L_list != sorted(set(L_list)):
        raise ValueError(f"--L must be an ascending range lo..hi or list a,b,c of integers, got {text!r}")
    return L_list


def _cmd_experiment(cfg) -> int:
    from . import experiments

    name = cfg.get("name", "fspace-growth")
    p = float(cfg.get("p", 2.0))
    q = float(cfg.get("q", 2.0))
    t = float(cfg.get("t", 1.0))
    spacing = int(cfg.get("spacing", 2))
    seed = int(cfg.get("seed", 0))
    draws = int(cfg.get("draws", 200))
    workers = int(cfg.get("workers", 1))
    L_list = _parse_range(str(cfg.get("L", "3..6")))
    d = 1
    atoms = experiments.RandomAtomConfig(L=max(L_list), spacing=spacing, p=p, seed=seed)  # checks p > 0 before 1/p
    if name == "fspace-growth":
        m = float(cfg.get("m", -d * (1.0 / p - 0.5)))
        lac = experiments.LacunaryConfig(L=max(L_list), spacing=spacing, m=m, seed=seed)
        rep = experiments.fspace_growth_experiment(lac, atoms, p, q, t, draws=draws, L_list=L_list, workers=workers)
    elif name == "bspace-growth":
        m = float(cfg.get("m", -d * abs(0.5 - 1.0 / p)))
        lac = experiments.LacunaryConfig(L=max(L_list), spacing=spacing, m=m, seed=seed)
        rep = experiments.bspace_growth_experiment(lac, atoms, p, q, t, draws=draws, L_list=L_list, workers=workers)
    else:
        raise ValueError(f"unknown experiment {name!r}")
    _write_outputs(rep, Path(cfg["outdir"]), f"experiment-{name}", cfg)
    _print(rep)
    return 0 if rep.passed else 1


def _cmd_registry(cfg) -> int:
    from .registry import list_registry

    print(json.dumps(list_registry(), sort_keys=True, indent=2))
    return 0


def _cmd_profiles(cfg) -> int:
    from .littlewood_paley import build_partition, export_profiles_csv

    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    export_profiles_csv(build_partition(int(cfg.get("J", 8))), outdir / "partition-profiles.csv")
    print(f"wrote {outdir / 'partition-profiles.csv'}")
    return 0


def _cmd_make(cfg) -> int:
    from .grid import Grid, save_gridfunction
    from .registry import make_test_function

    grid = Grid(int(cfg.get("d", 1)), int(cfg.get("n", 256)))
    f = make_test_function(cfg["function"], grid)
    output = cfg.get("output") or str(Path(cfg["outdir"]) / "function.dat")
    Path(output).parent.mkdir(parents=True, exist_ok=True)
    save_gridfunction(f, output)
    print(f"wrote {output}")
    return 0


_COMMANDS = {
    "norm": _cmd_norm,
    "apply": _cmd_apply,
    "decompose": _cmd_decompose,
    "audit": _cmd_audit,
    "experiment": _cmd_experiment,
    "registry": _cmd_registry,
    "profiles": _cmd_profiles,
    "make": _cmd_make,
}


def run_config(cfg: dict) -> int:
    """Dispatch one effective configuration; returns the exit status."""
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    cfg.setdefault("outdir", os.environ.get("TORUSFS_OUTDIR", "."))
    return _COMMANDS[command](cfg)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="torusfs", description="dyadic function-space audits on the discrete torus")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override its keys")
        sp.add_argument("--outdir", help="output directory (default $TORUSFS_OUTDIR or .)")
        sp.add_argument("--seed", type=int)

    sp = sub.add_parser("norm", help="evaluate a function-space norm of a dumped grid function")
    common(sp)
    sp.add_argument("--input")
    sp.add_argument("--space", choices=["F", "B"])
    sp.add_argument("--s", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--q", type=float)
    sp.add_argument("--J", type=int)
    sp.add_argument("--oversample", type=int)

    sp = sub.add_parser("apply", help="apply a registry symbol to a dumped grid function")
    common(sp)
    sp.add_argument("--symbol")
    sp.add_argument("--input")
    sp.add_argument("--output")

    sp = sub.add_parser("decompose", help="band-interaction decomposition of a symbol")
    common(sp)
    sp.add_argument("--symbol")
    sp.add_argument("--n", type=int)
    sp.add_argument("--J", type=int)

    sp = sub.add_parser("audit", help="run an audit suite")
    common(sp)
    sp.add_argument("--suite", help=f"one of {sorted(_SUITES)} or 'all'")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--n", type=int)

    sp = sub.add_parser("experiment", help="run a growth experiment")
    common(sp)
    sp.add_argument("--name", choices=["fspace-growth", "bspace-growth"])
    sp.add_argument("--p", type=float)
    sp.add_argument("--q", type=float)
    sp.add_argument("--t", type=float)
    sp.add_argument("--m", type=float)
    sp.add_argument("--L", help="range like 3..8 or list 3,4,5")
    sp.add_argument("--draws", type=int)
    sp.add_argument("--spacing", type=int)
    sp.add_argument("--workers", type=int)

    sp = sub.add_parser("registry", help="list built-in symbols and test functions")
    common(sp)

    sp = sub.add_parser("profiles", help="export the partition window table as CSV")
    common(sp)
    sp.add_argument("--J", type=int)

    sp = sub.add_parser("make", help="write a registry test function to a dump file")
    common(sp)
    sp.add_argument("--function")
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--output")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg.update(json.load(fh))
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"config error: {args.config}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
            return 2
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            cfg[key] = value
    try:
        return run_config(cfg)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
