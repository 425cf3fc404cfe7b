"""Command-line front end.

Wires configuration (a JSON file, flags overriding file keys) to the
library: norm evaluation, symbol application, band decomposition, the
audit suites, and the growth experiments.  All outputs are files for
offline analysis: a JSON report (schema-versioned, deterministic for a
fixed seed set) plus CSV tables.  Exit code 0 means every requested audit
passed its tolerance, 1 means some audit failed, 2 means the
configuration was unusable or an audit suite raised (the other suites of
``audit --suite all`` still run and write their reports).

One key table, at the end of this module, declares each key a command
(``_COMMANDS``) or audit suite (``_SUITES``) reads, with its default, and
each key's type (``_TYPES``).  The subparsers, the refusal of a key that
nothing chosen reads, the conversion of config-file values and the values
each handler and runner reads are all built from it; a report's
``effective_config`` echoes the configuration as given.

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


# ---------------------------------------------------------------------------
# audit suites: each reads its keys and _AUDIT_KEYS from ``opts``
# ---------------------------------------------------------------------------


def _suite_partition(opts):
    from .littlewood_paley import build_partition, check_partition

    return [check_partition(build_partition(opts["J"]), opts["samples"], opts["seed"])]


def _suite_peetre(opts):
    from . import maximal

    t, d = opts["t"], opts["d"]
    if not t > 0:  # the sigmas below divide by t
        raise ValueError("sigma and t must be positive")
    if not t < 2 * d:
        raise ValueError(f"t must be in (0, 2d) = (0, {2 * d}): the necessity run's sigma = d/t - 1/2 must be positive")
    sigmas = (d / t + 0.5, d / t - 0.5)
    return maximal.audit_peetre_domination(sigmas=sigmas, t=t, d=d, seed=opts["seed"], trials=opts["trials"])


def _suite_vector_maximal(opts):
    from . import maximal

    seed, trials = opts["seed"], opts["trials"]
    return [
        maximal.audit_fs_vector_inequality(p=2.0, q=2.0, sigma=2.0, seed=seed, trials=trials),
        maximal.audit_fs_vector_inequality(p=2.0, q=2.0, sigma=0.2, seed=seed, trials=trials),
    ]


def _suite_cube_tail(opts):
    from . import maximal

    seed, trials = opts["seed"], opts["trials"]
    return [
        maximal.audit_infty_maximal(q=2.0, sigma=1.0, seed=seed, trials=trials),
        maximal.audit_infty_maximal(q=2.0, sigma=0.3, seed=seed, trials=trials),
    ]


def _suite_sharp_domination(opts):
    from . import maximal

    return [maximal.audit_sharp_domination(q=2.0, seed=opts["seed"], trials=opts["trials"])]


def _suite_fefferman_stein(opts):
    from . import maximal

    return maximal.audit_fefferman_stein(ps=(1.5, 2.0, 4.0), seed=opts["seed"], trials=opts["trials"])


def _suite_khintchine(opts):
    from . import experiments

    seed = opts["seed"]
    rng = np.random.default_rng(seed)
    reports = [experiments.khintchine_audit([1.0, 1.0], 1.0)]
    for p in (1.0, 2.0, 4.0):
        coeffs = rng.standard_normal(10)
        reports.append(experiments.khintchine_audit(coeffs, p, seed=seed))
    return reports


def _suite_frame(opts):
    from . import spaces

    sps = [spaces.SpaceParams(s, p, q, "triebel") for s, p, q in ((0.0, 2.0, 2.0), (0.5, 1.0, 2.0), (-0.3, 3.0, 1.5))]
    return spaces.norm_equivalence_audit(opts["trials"], sps, seed=opts["seed"])


def _suite_fourier_series(opts):
    from . import pseudo
    from .grid import Grid, GridFunction

    n = opts["n"]
    grid = Grid(1, n)
    rng = np.random.default_rng(opts["seed"])
    worst = None
    for _ in range(opts["trials"]):
        g = GridFunction.from_samples(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        psi = GridFunction.from_spectrum(grid, np.exp(-0.05 * grid.freq_radii() ** 2).astype(complex))
        rep = pseudo.fourier_series_identity_check(g, psi)
        if worst is None or rep.constant > worst.constant:
            worst = rep
    return [worst]


def _suite_single_band(opts):
    from . import pseudo
    from .grid import Grid
    from .littlewood_paley import build_partition

    seed, trials = opts["seed"], opts["trials"]
    grid = Grid(1, opts["n"])
    part = build_partition(9)
    return [
        pseudo.audit_single_band(pseudo.Symbol.bessel(0.0), 2.0, grid=grid, partition=part, seed=seed, trials=trials),
        pseudo.audit_single_band(pseudo.Symbol.bessel(-0.5), 2.0, grid=grid, partition=part, seed=seed, trials=trials),
        pseudo.audit_single_band(pseudo.Symbol.sin_sin(), np.inf, ks=(3, 4, 5, 6), grid=Grid(1, 512), partition=build_partition(7), seed=seed, trials=trials),
    ]


def _suite_kernel(opts):
    from . import pseudo
    from .grid import Grid
    from .littlewood_paley import build_partition

    grid = Grid(1, opts["n"])
    part = build_partition(9)
    return [
        pseudo.audit_kernel_bounds(pseudo.Symbol.bessel(0.0), part, grid=grid),
        pseudo.audit_kernel_bounds(pseudo.Symbol.bessel(-0.5), part, grid=grid),
    ]


def _suite_local_energy(opts):
    from . import pseudo
    from .grid import Grid
    from .littlewood_paley import build_partition

    seed, trials = opts["seed"], opts["trials"]
    return [pseudo.audit_local_energy(pseudo.Symbol.bessel(0.0), build_partition(7), Grid(1, 512), seed=seed, trials=trials)]


# ---------------------------------------------------------------------------
# command handlers: each reads its keys from ``opts`` and echoes ``cfg``
# ---------------------------------------------------------------------------


def _cmd_norm(opts, cfg) -> int:
    from . import spaces
    from .grid import load_gridfunction
    from .littlewood_paley import build_partition

    grid_fn = load_gridfunction(opts["input"])
    space, s, p, q = opts["space"], opts["s"], opts["p"], opts["q"]
    J = max(3, int(np.log2(grid_fn.grid.n)) - 2) if opts["J"] is None else opts["J"]
    part = build_partition(J)
    if space == "B":
        value = spaces.besov_norm(grid_fn, part, spaces.SpaceParams(s, p, q, "besov"), opts["oversample"])
    elif space == "F" and np.isinf(p):
        value = spaces.triebel_infty_norm(grid_fn, part, s, q)
    elif space == "F":
        value = spaces.triebel_norm(grid_fn, part, spaces.SpaceParams(s, p, q, "triebel"), opts["oversample"])
    else:
        raise ValueError(f"unknown space {space!r} (use F or B)")
    outdir = Path(opts["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"value": value, "space": space, "s": s, "p": p, "q": q, "J": J, "input": opts["input"]}
    with open(outdir / "norm.json", "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"{space}(s={s},p={p},q={q}) norm = {value!r}")
    return 0


def _cmd_apply(opts, cfg) -> int:
    from . import pseudo
    from .grid import load_gridfunction, save_gridfunction
    from .registry import make_symbol

    f = load_gridfunction(opts["input"])
    sym = make_symbol(opts["symbol"], dim=f.grid.dim)
    out = pseudo.apply(sym, f)
    output = opts["output"] or str(Path(opts["outdir"]) / "applied.dat")
    Path(output).parent.mkdir(parents=True, exist_ok=True)
    save_gridfunction(out, output)
    print(f"wrote {output}")
    return 0


def _cmd_decompose(opts, cfg) -> int:
    from . import pseudo
    from .grid import Grid
    from .littlewood_paley import build_partition
    from .registry import make_symbol

    n, J = opts["n"], opts["J"]
    grid = Grid(1, n)
    sym = make_symbol(opts["symbol"], dim=1)
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
        params={"symbol": opts["symbol"], "n": n, "J": J},
        constant=residual,
        table=rows,
        passed=residual < 1e-10,
        tolerance=1e-10,
        details={},
    )
    _write_outputs(report, Path(opts["outdir"]), "decompose", cfg)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_audit(opts, cfg) -> int:
    names = list(_SUITES) if opts["suite"] == "all" else [opts["suite"]]  # run_config has checked the name
    if opts["trials"] is not None and opts["trials"] < 1:
        raise ValueError(f"trials must be >= 1, got {opts['trials']}")
    # every value checked before any suite runs
    suite_opts = {name: _values(cfg, {**_AUDIT_KEYS, **_SUITES[name][1]}) for name in names}
    status = 0
    raised = []
    outdir = Path(opts["outdir"])
    for name in names:
        try:
            reports = _SUITES[name][0](suite_opts[name])
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
            print(rep.summary())
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


def _cmd_experiment(opts, cfg) -> int:
    from . import experiments

    name, p, seed, spacing = opts["name"], opts["p"], opts["seed"], opts["spacing"]
    L_list = _parse_range(opts["L"])
    d = 1
    atoms = experiments.RandomAtomConfig(L=max(L_list), spacing=spacing, p=p, seed=seed)  # checks p > 0 before 1/p
    if name == "fspace-growth":
        run, m = experiments.fspace_growth_experiment, -d * (1.0 / p - 0.5)
    elif name == "bspace-growth":
        run, m = experiments.bspace_growth_experiment, -d * abs(0.5 - 1.0 / p)
    else:
        raise ValueError(f"unknown experiment {name!r}")
    lac = experiments.LacunaryConfig(L=max(L_list), spacing=spacing, m=m if opts["m"] is None else opts["m"], seed=seed)
    rep = run(lac, atoms, p, opts["q"], opts["t"], draws=opts["draws"], L_list=L_list, workers=opts["workers"])
    _write_outputs(rep, Path(opts["outdir"]), f"experiment-{name}", cfg)
    print(rep.summary())
    return 0 if rep.passed else 1


def _cmd_registry(opts, cfg) -> int:
    from .registry import list_registry

    print(json.dumps(list_registry(), sort_keys=True, indent=2))
    return 0


def _cmd_profiles(opts, cfg) -> int:
    from .littlewood_paley import build_partition, export_profiles_csv

    outdir = Path(opts["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    export_profiles_csv(build_partition(opts["J"]), outdir / "partition-profiles.csv")
    print(f"wrote {outdir / 'partition-profiles.csv'}")
    return 0


def _cmd_make(opts, cfg) -> int:
    from .grid import Grid, save_gridfunction
    from .registry import make_test_function

    grid = Grid(opts["d"], opts["n"])
    f = make_test_function(opts["function"], grid)
    output = opts["output"] or str(Path(opts["outdir"]) / "function.dat")
    Path(output).parent.mkdir(parents=True, exist_ok=True)
    save_gridfunction(f, output)
    print(f"wrote {output}")
    return 0


# ---------------------------------------------------------------------------
# the key table
# ---------------------------------------------------------------------------

# The type of every int and float key; every other key is a string.  A flag parses with it, and a
# config-file value is converted with it.
_TYPES = {
    **dict.fromkeys(["seed", "J", "n", "d", "trials", "samples", "oversample", "draws", "spacing", "workers"], int),
    **dict.fromkeys(["s", "p", "q", "t", "m"], float),
}

# Suite -> (runner, {key: default}) for each key it reads besides _AUDIT_KEYS, which every suite reads.
_SUITES = {
    "partition": (_suite_partition, {"J": 10, "samples": 100_000}),
    "peetre": (_suite_peetre, {"t": 1.0, "d": 1, "trials": 10}),
    "vector-maximal": (_suite_vector_maximal, {"trials": 10}),
    "cube-tail": (_suite_cube_tail, {"trials": 6}),
    "sharp-domination": (_suite_sharp_domination, {"trials": 10}),
    "fefferman-stein": (_suite_fefferman_stein, {"trials": 30}),
    "khintchine": (_suite_khintchine, {}),
    "frame": (_suite_frame, {"trials": 20}),
    "fourier-series": (_suite_fourier_series, {"n": 32, "trials": 20}),
    "single-band": (_suite_single_band, {"trials": 10, "n": 4096}),
    "kernel": (_suite_kernel, {"n": 4096}),
    "local-energy": (_suite_local_energy, {"trials": 10}),
}
_AUDIT_KEYS = {"seed": 0, "suite": "partition"}  # audit's keys that every suite reads

# Command -> (handler, help line, {key: default}) for each key it reads, in --help order; each key is also a
# flag.  A default of ... marks a required key, None one computed from other inputs (audit's trials and n:
# each suite's own default).  Besides these, every command takes ``outdir`` and ``command``.
_COMMANDS = {
    "norm": (_cmd_norm, "evaluate a function-space norm of a dumped grid function",
             {"input": ..., "space": "F", "s": 0.0, "p": 2.0, "q": 2.0, "J": None, "oversample": 1}),
    "apply": (_cmd_apply, "apply a registry symbol to a dumped grid function",
              {"symbol": ..., "input": ..., "output": None}),
    "decompose": (_cmd_decompose, "band-interaction decomposition of a symbol", {"symbol": ..., "n": 256, "J": 6}),
    "audit": (_cmd_audit, "run an audit suite", {**_AUDIT_KEYS, "trials": None, "n": None}),
    "experiment": (_cmd_experiment, "run a growth experiment",
                   {"seed": 0, "name": "fspace-growth", "p": 2.0, "q": 2.0, "t": 1.0, "m": None, "L": "3..6",
                    "draws": 200, "spacing": 2, "workers": 1}),
    "registry": (_cmd_registry, "list built-in symbols and test functions", {}),
    "profiles": (_cmd_profiles, "export the partition window table as CSV", {"J": 8}),
    "make": (_cmd_make, "write a registry test function to a dump file",
             {"function": ..., "n": 256, "d": 1, "output": None}),
}

# Argparse keywords of a flag besides its type.
_FLAG_OPTIONS = {
    "config": {"help": "JSON config file; flags override its keys"},
    "outdir": {"help": "output directory (default $TORUSFS_OUTDIR or .)"},
    "suite": {"help": f"one of {sorted(_SUITES)} or 'all'"},
    "space": {"choices": ["F", "B"]},
    "name": {"choices": ["fspace-growth", "bspace-growth"]},
    "L": {"help": "range like 3..8 or list 3,4,5"},
}


def _values(cfg, keys: dict) -> dict:
    """Each key of ``keys`` (key -> default): its value in ``cfg`` converted to its type, else its default."""
    missing = [key for key, default in keys.items() if default is ... and key not in cfg]
    if missing:
        raise ValueError(f"--{missing[0]} is required")
    return {key: _convert(key, cfg[key]) if key in cfg else default for key, default in keys.items()}


def _convert(key: str, value):
    """``value`` as ``key``'s type; null, or a value the type refuses, is a config error."""
    type_ = _TYPES.get(key, str)
    if value is not None:
        try:
            return type_(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"config key {key!r} must be {type_.__name__}, got {json.dumps(value)}")


def _refuse_unread(cfg, kind: str, label: str, chosen, reads: dict, flags=()) -> None:
    """Raise on a key other than ``command`` and ``outdir`` that none of ``chosen`` reads.

    ``reads`` maps each command or suite (a ``kind``) to the keys it reads; a key in ``flags`` is named as its flag.
    """
    for key in sorted(cfg.keys() - {"outdir", "command"}):
        read_by = sorted(name for name, keys in reads.items() if key in keys)
        if set(read_by).isdisjoint(chosen):
            name = f"--{key}" if key in flags else f"config key {key!r}"
            listed = f"{kind}s that read it: {', '.join(read_by)}" if read_by else f"no {kind} reads it"
            raise ValueError(f"{name} is not read by {kind} {label!r}; {listed}")


def run_config(cfg: dict) -> int:
    """Dispatch one effective configuration; returns the exit status."""
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    handler, _, keys = _COMMANDS[command]
    if command == "audit":  # audit refuses keys against its chosen suites, before it converts any other value
        suite = _values(cfg, {"suite": _AUDIT_KEYS["suite"]})["suite"]
        if suite != "all" and suite not in _SUITES:
            raise ValueError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)} or 'all'")
        reads = {name: {**_AUDIT_KEYS, **table} for name, (_, table) in _SUITES.items()}
        _refuse_unread(cfg, "suite", suite, _SUITES if suite == "all" else {suite}, reads, flags=keys)
    else:
        reads = {name: set(table) for name, (_, _, table) in _COMMANDS.items()}
        reads["audit"].update(*(table for _, table in _SUITES.values()))
        _refuse_unread(cfg, "command", command, {command}, reads)
    return handler(_values(cfg, {"outdir": os.environ.get("TORUSFS_OUTDIR", "."), **keys}), cfg)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="torusfs", description="dyadic function-space audits on the discrete torus")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_line, keys) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_line)
        for key in ("config", "outdir", *keys):
            sp.add_argument(f"--{key}", type=_TYPES.get(key), **_FLAG_OPTIONS.get(key, {}))
    return ap


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args.config) if args.config else {}
        cfg.update((key, value) for key, value in vars(args).items() if key != "config" and value is not None)
        return run_config(cfg)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
