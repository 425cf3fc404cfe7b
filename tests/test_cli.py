import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusfs
from torusfs import cli, littlewood_paley
from torusfs.cli import _SUITES, main
from torusfs.grid import load_gridfunction, make_grid, save_gridfunction
from torusfs.maximal import band_limited_function
from torusfs.registry import _parse, list_registry, make_symbol, make_test_function
from torusfs.report import AuditReport


@pytest.fixture
def sample_input(tmp_path):
    grid = make_grid(1, 128)
    f = band_limited_function(grid, 20.0, np.random.default_rng(3))
    path = tmp_path / "f.dat"
    save_gridfunction(f, path)
    return path


def test_registry_snapshot(capsys):
    assert main(["registry"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert sorted(catalog["symbols"]) == [
        "bessel(m)",
        "identity",
        "oscillatory(m,rho)",
        "rademacher(L,seed)",
        "sinsin",
    ]
    assert sorted(catalog["functions"]) == [
        "atom-train(L,seed)",
        "constant(c)",
        "exponential(freq)",
        "lacunary(L)",
        "random(seed,radius)",
        "spike(radius)",
    ]


def test_registry_factories():
    assert make_symbol("bessel(-0.5)").order == -0.5
    assert make_symbol("oscillatory(0, 0.5)").kind == "multiplier"
    assert make_symbol("rademacher(5, 3)").order == 0.0
    grid = make_grid(1, 64)
    assert abs(make_test_function("constant(2)", grid).samples[0] - 2.0) < 1e-15
    f = make_test_function("exponential(3)", grid)
    assert abs(f.spectrum[3] - 1.0) < 1e-12
    with pytest.raises(ValueError):
        make_symbol("mystery(1)")
    for spec in ("bessel", "oscillatory(0)", "rademacher()"):
        with pytest.raises(ValueError):
            make_symbol(spec)
    for spec in ("atom-train", "lacunary()", "spike(inf)", "constant(nan)", "random(1,)"):
        with pytest.raises(ValueError):
            make_test_function(spec, grid)


_numbers = st.one_of(st.integers(-10**30, 10**30), st.floats(allow_nan=False, allow_infinity=False))


@settings(deadline=None, max_examples=200)
@given(st.from_regex(r"[a-zA-Z-]+", fullmatch=True), st.lists(_numbers, max_size=4), st.sampled_from(["", " "]))
def test_selector_round_trip(name, args, pad):
    text = (pad + ",").join(pad + (str(a) if isinstance(a, int) else repr(a)) for a in args)
    spec = f"{name}({text})" if args else name
    parsed_name, parsed = _parse(spec)
    assert parsed_name == name
    assert parsed == args
    assert [type(a) for a in parsed] == [type(a) for a in args]


_tokens = st.one_of(st.text(alphabet="0123456789+-.eEinfa_ "), st.sampled_from(["inf", "-inf", "nan", "1e999", ""]))


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.text(), st.lists(_tokens, max_size=3).map(lambda toks: f"spike({','.join(toks)})")))
def test_selector_parse_raises_only_value_error(spec):
    try:
        _parse(spec)
    except ValueError:
        pass


def test_make_non_finite_selector_exits_2(tmp_path, capsys):
    assert main(["make", "--function", "spike(inf)", "--n", "64", "--output", str(tmp_path / "s.dat")]) == 2
    assert "not finite" in capsys.readouterr().err


def test_norm_command_cross_check(tmp_path, sample_input):
    # F(0, 2, 2) against the plain L2 norm: inside the window overlap bracket
    assert main(["norm", "--space", "F", "--s", "0", "--p", "2", "--q", "2",
                 "--input", str(sample_input), "--outdir", str(tmp_path)]) == 0
    value = json.loads((tmp_path / "norm.json").read_text())["value"]
    l2 = load_gridfunction(sample_input).lp_norm(2.0)
    assert np.sqrt(0.5) * l2 <= value <= l2 * (1 + 1e-9)


def test_apply_command(tmp_path, sample_input):
    out = tmp_path / "g.dat"
    assert main(["apply", "--symbol", "bessel(-1)", "--input", str(sample_input), "--output", str(out)]) == 0
    f = load_gridfunction(sample_input)
    g = load_gridfunction(out)
    expected = f.spectrum * (1 + f.grid.freq_radii() ** 2) ** -0.5
    assert np.max(np.abs(g.spectrum - expected)) < 1e-12


def test_audit_exit_codes(tmp_path):
    assert main(["audit", "--suite", "partition", "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "audit-partition.json").exists()
    assert main(["audit", "--suite", "nope", "--outdir", str(tmp_path)]) == 2


def test_audit_every_suite_exits_zero(tmp_path):
    # the necessity runs are audits outside their hypotheses: they must fail
    assert main(["audit", "--suite", "all", "--trials", "2", "--seed", "1", "--outdir", str(tmp_path)]) == 0
    reports = {p.stem: json.loads(p.read_text()) for p in tmp_path.glob("audit-*.json")}
    for suite in _SUITES:
        assert any(stem == f"audit-{suite}" or stem.startswith(f"audit-{suite}-") for stem in reports), suite
    not_passed = {stem for stem, rep in reports.items() if not rep["passed"]}
    assert not_passed == {"audit-peetre-1", "audit-vector-maximal-1", "audit-cube-tail-1"}


@pytest.mark.parametrize("suite", ["vector-maximal", "cube-tail", "sharp-domination", "single-band", "local-energy"])
def test_audit_trials_option_reaches_every_trial_loop(suite, tmp_path):
    assert main(["audit", "--suite", suite, "--trials", "2", "--outdir", str(tmp_path)]) == 0
    reports = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("audit-*.json"))]
    assert reports
    assert all(rep["params"]["trials"] == 2 for rep in reports)


def _reports(outdir):
    """Every report a run wrote, without the echoed configuration."""
    reports = {}
    for path in sorted(outdir.glob("audit-*.json")):
        rep = json.loads(path.read_text())
        rep.pop("effective_config")
        reports[path.name] = rep
    return reports


@pytest.mark.parametrize("option, value", [("trials", "2"), ("n", "64")])
@pytest.mark.parametrize("suite", sorted(_SUITES))
def test_every_suite_honours_or_refuses_trials_and_n(tmp_path, capsys, suite, option, value):
    # an audit flag either changes what a suite computes or stops the run before any work
    code = main(["audit", "--suite", suite, f"--{option}", value, "--outdir", str(tmp_path / "set")])
    err = capsys.readouterr().err
    if suite not in cli._SUITE_OPTIONS[option]:
        assert code == 2
        assert err.startswith(f"config error: --{option} is not read by suite {suite!r}; suites that read it: ")
        assert not (tmp_path / "set").exists()
        return
    if code == 2:  # read, and too small for this suite's bands
        assert err.startswith(f"audit {suite} raised: ") and f"n={value}" in err
        return
    assert main(["audit", "--suite", suite, "--outdir", str(tmp_path / "default")]) == 0
    capsys.readouterr()
    changed, default = _reports(tmp_path / "set"), _reports(tmp_path / "default")
    assert sorted(changed) == sorted(default)
    assert changed != default


def test_audit_all_refuses_only_options_no_suite_reads(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_SUITES", {name: _SUITES[name] for name in ("partition", "khintchine")})
    assert main(["audit", "--suite", "all", "--n", "64", "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: --n is not read by suite 'all'")
    assert not (tmp_path / "out").exists()
    monkeypatch.setattr(cli, "_SUITES", {name: _SUITES[name] for name in ("partition", "fourier-series")})
    assert main(["audit", "--suite", "all", "--n", "64", "--outdir", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "audit-fourier-series.json").read_text())["params"]["n"] == 64


def test_audit_outside_hypothesis_passes_by_failing(tmp_path, monkeypatch):
    # a report flagged outside its hypothesis is a necessity run: detecting the failure is the pass
    def necessity(passed):
        rep = AuditReport("necessity", {}, 1.0, [], passed, 0.1, {"outside_hypothesis": True})
        return lambda cfg: [rep]

    for passed, code in ((True, 1), (False, 0)):
        monkeypatch.setattr(cli, "_SUITES", {"necessity": necessity(passed)})
        assert main(["audit", "--suite", "necessity", "--outdir", str(tmp_path / str(passed))]) == code


def test_audit_all_isolates_a_raising_suite(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise ValueError("radius 128.0 exceeds grid Nyquist 128.0")

    monkeypatch.setattr(cli, "_SUITES", {"boom": boom, "partition": _SUITES["partition"]})
    assert main(["audit", "--suite", "all", "--outdir", str(tmp_path)]) == 2
    assert (tmp_path / "audit-partition.json").exists()  # the suite after the raising one still ran
    err = capsys.readouterr().err.splitlines()
    assert "audit boom raised: radius 128.0 exceeds grid Nyquist 128.0" in err
    assert err[-1] == "audit: 1 of 2 suites raised: boom"
    # an unknown suite is rejected before any suite runs
    assert main(["audit", "--suite", "partitions", "--outdir", str(tmp_path / "none")]) == 2
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("suite", ["all", "peetre", "cube-tail", "fourier-series"])
def test_audit_rejects_trials_below_one_before_any_suite(tmp_path, capsys, suite, trials):
    # with no trials an audit would reach a verdict on nothing, or crash
    assert main(["audit", "--suite", suite, "--trials", trials, "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"config error: trials must be >= 1, got {trials}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t", [0, -1])
def test_audit_peetre_rejects_nonpositive_t_without_a_traceback(tmp_path, capsys, t):
    cfg = tmp_path / "peetre.json"
    cfg.write_text(json.dumps({"t": t}))
    assert main(["audit", "--suite", "peetre", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "audit peetre raised: sigma and t must be positive\naudit: 1 of 1 suites raised: peetre\n"
    assert not (tmp_path / "out").exists()


def test_config_file_merging_and_errors(tmp_path, sample_input):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"space": "F", "s": 0.0, "p": 2.0, "q": 2.0, "input": str(sample_input)}))
    assert main(["norm", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    # flag overrides file key
    assert main(["norm", "--config", str(cfg), "--space", "B", "--outdir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "norm.json").read_text())["space"] == "B"
    # malformed JSON: line-anchored message, exit 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": }')
    assert main(["norm", "--config", str(bad), "--outdir", str(tmp_path)]) == 2
    assert main(["norm", "--config", str(tmp_path / "missing.json")]) == 2


def test_experiment_command_and_determinism(tmp_path):
    args = ["experiment", "--name", "fspace-growth", "--p", "2", "--q", "2", "--t", "1",
            "--L", "3..5", "--spacing", "1", "--draws", "25", "--seed", "5"]
    assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
    for name in ("experiment-fspace-growth.json", "experiment-fspace-growth.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report = json.loads((tmp_path / "a" / "experiment-fspace-growth.json").read_text())
    assert len(report["table"]) == 3
    assert report["effective_config"]["seed"] == 5
    # CSV carries one row per draw plus one summary row per L
    lines = (tmp_path / "a" / "experiment-fspace-growth.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 + 3 * 25


@pytest.mark.parametrize(
    "args, message",
    [
        (["--draws", "0"], "draws must be >= 1, got 0"),
        (["--draws", "-3"], "draws must be >= 1, got -3"),
        (["--p", "0"], "p must be > 0, got 0.0"),
        (["--q", "0"], "q must be > 0, got 0.0"),
        (["--t", "0"], "t must be > 0, got 0.0"),
        (["--workers", "0"], "workers must be >= 1, got 0"),
        (["--workers", "-3"], "workers must be >= 1, got -3"),
        (["--L", "8..3"], "--L must be an ascending range lo..hi or list a,b,c of integers, got '8..3'"),
        (["--L", "5,4"], "--L must be an ascending range lo..hi or list a,b,c of integers, got '5,4'"),
        (["--p", "inf"], {"fspace-growth": "p must be finite for the p-th moment, got inf",
                          "bspace-growth": "the band-norm experiment is pinned to p = 2 (spectral evaluation)"}),
    ],
)
@pytest.mark.parametrize("name", ["fspace-growth", "bspace-growth"])
def test_experiment_rejects_bad_inputs_before_any_work(tmp_path, capsys, name, args, message):
    if isinstance(message, dict):  # a check that only one experiment makes
        message = message[name]
    assert main(["experiment", "--name", name, "--L", "3..4", "--draws", "2", *args, "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_audit_rerun_byte_identical(tmp_path):
    for sub in ("x", "y"):
        assert main(["audit", "--suite", "khintchine", "--seed", "9", "--outdir", str(tmp_path / sub)]) == 0
    names = sorted(p.name for p in (tmp_path / "x").iterdir())
    for name in names:
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


class _NoCache(dict):
    def __setitem__(self, key, value):
        pass


def _dense_build(build):
    """Reference table builder: same indices, profile evaluated at every lattice point."""

    def reference(grid, profile, lo, hi):
        idx, _ = build(grid, lambda r: np.zeros(r.shape), lo, hi)
        r = grid.freq_radii().ravel()
        order = np.argsort(r, kind="stable")  # profiles take ascending radii
        dense = np.empty(r.shape, dtype=np.result_type(profile(r[:1]), float))
        dense[order] = profile(r[order])
        return idx, dense[idx]

    return reference


def _table_driven_outputs(outdir):
    for suite in ("frame", "single-band", "local-energy"):
        assert main(["audit", "--suite", suite, "--trials", "2", "--outdir", str(outdir)]) == 0
    assert main(["audit", "--suite", "partition", "--outdir", str(outdir)]) == 0  # it draws samples, not trials
    for name, p in (("fspace-growth", "1.5"), ("bspace-growth", "2")):
        main(["experiment", "--name", name, "--p", p, "--L", "3..4", "--draws", "2", "--seed", "5",
              "--outdir", str(outdir / name)])
    return {path.relative_to(outdir): path.read_bytes() for path in sorted(outdir.rglob("*")) if path.is_file()}


def test_reports_identical_with_dense_uncached_tables(tmp_path, monkeypatch):
    littlewood_paley.clear_tables()
    cached = _table_driven_outputs(tmp_path / "cached")
    monkeypatch.setattr(littlewood_paley, "_TABLES", _NoCache())
    monkeypatch.setattr(littlewood_paley, "_build_table", _dense_build(littlewood_paley._build_table))
    dense = _table_driven_outputs(tmp_path / "dense")
    assert len(cached) > 8
    assert cached == dense


def test_decompose_command(tmp_path):
    assert main(["decompose", "--symbol", "bessel(0)", "--n", "128", "--J", "5", "--outdir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "decompose.json").read_text())
    assert report["passed"]
    assert report["constant"] < 1e-10


def test_profiles_and_make(tmp_path):
    assert main(["profiles", "--J", "4", "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "partition-profiles.csv").exists()
    out = tmp_path / "f.dat"
    assert main(["make", "--function", "lacunary(3)", "--n", str(2**12), "--output", str(out)]) == 0
    f = load_gridfunction(out)
    assert f.grid.n == 2**12


# The names ``torusfs`` re-exports, by the submodule that defines them.
_EXPORTED = {
    "grid": ["Grid", "GridFunction", "convolve", "load_gridfunction", "make_grid", "save_gridfunction", "upsample"],
    "littlewood_paley": ["LPPartition", "band_project", "build_partition", "check_partition"],
    "dyadic": ["DyadicCube"],
    "maximal": ["PeetreParams", "dyadic_sharp", "hl_maximal", "peetre_maximal", "vector_sharp"],
    "spaces": ["AtomicDecomposition", "CoeffField", "PhiTransformFamily", "SpaceParams", "atomic_decompose",
               "besov_norm", "build_phi_family", "is_infty_atom", "phi_analyze", "phi_synthesize", "sequence_norm",
               "triebel_infty_norm", "triebel_norm", "triebel_sharp_norm"],
    "pseudo": ["BandKernel", "ParadiffDecomposition", "Symbol", "apply", "band_kernel", "band_symbol",
               "boundedness_region", "decompose_paradiff", "seminorm"],
    "experiments": ["LacunaryConfig", "RandomAtomConfig", "khintchine_audit", "khintchine_constants",
                    "lacunary_test_function", "oscillatory_multiplier", "rademacher_multiplier", "random_atom_train"],
    "report": ["AuditReport"],
}

_FRESH_IMPORT = """
import importlib, json, sys
import torusfs, torusfs.cli
loaded = sorted(sys.modules)
exported = json.loads(sys.argv[1])
same = all(getattr(torusfs, name) is getattr(importlib.import_module(f"torusfs.{module}"), name)
           for module, names in exported.items() for name in names)
print(json.dumps({"loaded": loaded, "all": torusfs.__all__, "dir": dir(torusfs), "same": same}))
"""


def _fresh_python(*args, cwd=None):
    """Run a fresh interpreter on this checkout's package, as a user's shell would."""
    env = dict(os.environ, PYTHONPATH=str(Path(torusfs.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True)


def test_import_loads_no_scipy():
    # scipy, the process pool and every library module are imported where they are used, so start-up stays cheap
    out = _fresh_python("-c", _FRESH_IMPORT, json.dumps(_EXPORTED))
    assert out.returncode == 0, out.stderr
    fresh = json.loads(out.stdout)
    heavy = ("scipy", "concurrent", "multiprocessing")
    assert [m for m in fresh["loaded"] if m.split(".")[0] in heavy] == []
    # cli itself, and the report module its _write_outputs serializes with
    assert [m for m in fresh["loaded"] if m.split(".")[0] == "torusfs"] == ["torusfs", "torusfs.cli", "torusfs.report"]
    assert fresh["all"] == [name for names in _EXPORTED.values() for name in names]
    assert set(fresh["all"]) <= set(fresh["dir"])
    assert fresh["same"]


def test_readme_commands_in_fresh_interpreters(tmp_path):
    # in-process tests share one warm sys.modules, which hides an import a command forgot
    commands = [
        ["registry"],
        ["make", "--function", "random(3,20)", "--n", "256", "--output", "f.dat"],
        ["norm", "--space", "F", "--s", "0", "--p", "2", "--q", "2", "--input", "f.dat", "--outdir", "out"],
        ["apply", "--symbol", "bessel(-0.5)", "--input", "f.dat", "--output", "g.dat"],
        ["decompose", "--symbol", "sinsin", "--n", "256", "--J", "6", "--outdir", "out"],
        ["profiles", "--J", "8", "--outdir", "out"],
        ["audit", "--suite", "partition", "--outdir", "out"],
        # one draw per scale: the verdict depends on the seed, and seed 5 passes
        ["experiment", "--L", "3..4", "--draws", "1", "--seed", "5", "--workers", "2", "--outdir", "out"],
    ]
    stdout = {}
    for command in commands:
        out = _fresh_python("-m", "torusfs.cli", *command, cwd=tmp_path)
        assert out.returncode == 0, (command, out.stderr)
        stdout[command[0]] = out.stdout
    assert sorted(json.loads(stdout["registry"])) == ["functions", "symbols"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.dat", "g.dat", "out"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "audit-partition.csv", "audit-partition.json", "decompose.csv", "decompose.json",
        "experiment-fspace-growth.csv", "experiment-fspace-growth.json", "norm.json", "partition-profiles.csv",
    ]


def test_write_outputs_without_main_in_a_fresh_interpreter(tmp_path):
    # a library caller (the benchmark's growth workload) writes a report through cli without running a command
    script = """
import sys
from pathlib import Path
from torusfs import cli
from torusfs.report import AuditReport
rep = AuditReport("r", {"L": [3, 4]}, 1.5, [{"L": 3, "x": 0.5}], True, None, {"draw_rows": [{"L": 3, "draw": 0}]})
cli._write_outputs(rep, Path(sys.argv[1]), "stem", {"command": "experiment", "outdir": sys.argv[1]})
"""
    out = _fresh_python("-c", script, str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    report = json.loads((tmp_path / "out" / "stem.json").read_text())
    assert report["effective_config"] == {"command": "experiment"}
    assert (tmp_path / "out" / "stem.csv").read_text().splitlines() == ["L,draw,kind,x", "3,,summary,0.5", "3,0,draw,"]
