"""Band symbols quantized once per call in the single-band and local-energy audits.

Each audit quantizes its band pieces through ``pseudo._band_operators``,
which keeps each band's multiplier values, or for an x-dependent symbol each
band's column chunks per spectral support of the input, built from the
symbol's columns on that support alone.  The tests below pin that sharing:
the reports equal those of the unshared apply(band_symbol(...)) loop to the
bit, each shared quantity is computed once per call and again in the next
call, no table over the whole frequency lattice is built, and a bad argument
is rejected before any band work.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusfs import cli, pseudo
from torusfs.grid import Grid, GridFunction
from torusfs.littlewood_paley import LPPartition
from torusfs.pseudo import Symbol, apply, audit_local_energy, audit_single_band, band_symbol

GRID = Grid(1, 512)
PARTITION = LPPartition(J=7)


def _table_symbol(grid=GRID):
    x = grid.axis_coords()[:, None]
    xi = grid.axis_freqs()[None, :]
    return Symbol.from_table(grid, (1.0 + 0.5 * np.cos(2 * np.pi * x)) * np.exp(1j * xi / 7.0), 0.0, name="table")


SYMBOLS = {
    "sin_sin": Symbol.sin_sin,
    "table": _table_symbol,
    "bessel(0)": lambda: Symbol.bessel(0.0),
    "bessel(-0.5)": lambda: Symbol.bessel(-0.5),
}


def _unshared(a, partition, grid):
    """The reference: every probe builds its band symbol and quantizes it afresh."""
    return lambda k, g: apply(band_symbol(a, partition, k, grid), g, check=False)


def _audits(a, r, trials, seed):
    return [
        audit_single_band(a, r, ks=(3, 4, 5, 6), trials=trials, grid=GRID, partition=PARTITION, seed=seed),
        audit_local_energy(a, PARTITION, GRID, trials=trials, seed=seed),
    ]


@settings(deadline=None, max_examples=8)
@given(
    st.integers(0, 2**20),
    st.integers(1, 4),
    st.lists(st.sampled_from(sorted(SYMBOLS)), min_size=2, max_size=2, unique=True),
    st.sampled_from([2.0, 4.0, np.inf]),
)
def test_shared_band_operators_match_the_unshared_loop(seed, trials, symbols, r):
    # two symbols in turn, so that anything kept from the first call shows in the second
    for symbol in symbols:
        a = SYMBOLS[symbol]()
        shared = [rep.to_json() for rep in _audits(a, r, trials, seed)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pseudo, "_band_operators", _unshared)
            assert shared == [rep.to_json() for rep in _audits(a, r, trials, seed)], symbol


def _counting(monkeypatch, owner, name, counts):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_each_band_is_quantized_once_per_call(tmp_path, monkeypatch):
    # single-band at defaults: two Bessel symbols exact over 6 bands; sin_sin over 4 bands,
    # probed by one exponential support and one annulus support per band, each block from its own columns
    expected = {
        "single-band": {"_symbol_table": 8, "_band_columns": 8, "_columns": 8, "multiplier_values": 12},
        "local-energy": {"multiplier_values": 4},  # 12 (mu, k) pairs over bands 3..6
    }
    widths = []  # the frequency columns of every symbol table built
    table = pseudo._symbol_table

    def recorded(*args):
        out = table(*args)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(pseudo, "_symbol_table", recorded)
    counts = Counter()
    for owner, name in ((pseudo, "_symbol_table"), (pseudo, "_band_columns"), (pseudo, "_columns"),
                        (Symbol, "multiplier_values")):
        _counting(monkeypatch, owner, name, counts)
    for suite, count in expected.items():
        for _ in range(2):  # a second call quantizes everything again
            counts.clear()
            assert cli.main(["audit", "--suite", suite, "--seed", "0", "--outdir", str(tmp_path)]) == 0
            assert dict(counts) == count, suite
    assert len(widths) == 16 and max(widths) < 512  # sin_sin runs on n = 512: no n x n table


def _oscillating(grid):
    """A closed-form symbol whose x-spectrum reaches frequency 3."""
    return Symbol(
        fn=lambda x, xi: (1.0 + 0.5 * np.cos(6 * np.pi * x[0])) * np.exp(1j * xi[0] / 5.0) + 0.25j * np.sin(2 * np.pi * x[0]),
        order=0.0,
        name="oscillating",
    )


X_SYMBOLS = {"sin_sin": lambda grid: Symbol.sin_sin(), "table": _table_symbol, "oscillating": _oscillating}


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(X_SYMBOLS)), st.sampled_from([64, 128, 512]), st.data())
def test_band_columns_match_apply_of_the_band_symbol(symbol, n, data):
    # any support, in band k's window or not, and a single frequency, quantized from its own columns
    grid = Grid(1, n)
    partition = LPPartition(J=int(np.log2(n)) - 3)
    k = data.draw(st.integers(3, partition.J + 1), label="k")  # J + 1 is the closure band
    support = data.draw(st.one_of(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
                                  st.integers(0, n - 1).map(lambda i: [i])), label="support")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    spec = np.zeros(n, dtype=complex)
    spec[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    g = GridFunction.from_spectrum(grid, spec)
    a = X_SYMBOLS[symbol](grid)
    shared = pseudo._band_operators(a, partition, grid)(k, g)
    assert np.array_equal(shared.samples, apply(band_symbol(a, partition, k, grid), g, check=False).samples)


def test_x_dependent_single_band_audit_stays_small():
    # the band blocks span the probes' columns only: an n x n table at n = 512 alone takes 4 MiB
    def run():
        return audit_single_band(Symbol.sin_sin(), np.inf, ks=(3, 4, 5, 6), grid=Grid(1, 512))

    run()  # warm: imports and the radial window tables
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "audit, message",
    [
        (lambda: audit_single_band(Symbol.sin_sin(), np.inf, ks=(3,), grid=GRID), "two or more distinct bands"),
        (lambda: audit_single_band(Symbol.sin_sin(), np.inf, ks=(4, 4), grid=GRID), "two or more distinct bands"),
        (lambda: audit_single_band(Symbol.sin_sin(), np.inf, ks=(4, 2), grid=GRID), "distinct bands k >= 3"),
        (lambda: audit_single_band(Symbol.sin_sin(), 0.0, ks=(3, 4), grid=GRID), "r > 0"),
        (lambda: audit_single_band(Symbol.sin_sin(), np.inf, ks=(3, 4), trials=0, grid=GRID), "trials >= 1"),
        (lambda: audit_local_energy(Symbol.bessel(0.0), trials=0), "trials >= 1"),
        (lambda: audit_local_energy(Symbol.bessel(0.0), mu_list=(9,)), "two or more offsets"),
        (lambda: audit_local_energy(Symbol.bessel(0.0), mu_list=(1, 2), k_offsets=(3,)), "two or more offsets"),
    ],
    ids=["one-band", "repeated-band", "band-below-3", "r-zero", "single-band-trials", "local-energy-trials", "no-pair", "one-offset"],
)
def test_audits_check_their_arguments_before_any_band_work(monkeypatch, audit, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("band work started before every argument was checked")

    monkeypatch.setattr(pseudo, "band_symbol", unreachable)
    monkeypatch.setattr(pseudo, "_annulus_input", unreachable)
    with pytest.raises(ValueError, match=message):
        audit()


def test_exact_single_band_needs_no_probes():
    rep = audit_single_band(Symbol.bessel(0.0), 2.0, ks=(3, 4), trials=0, grid=GRID, partition=PARTITION)
    assert rep.details["exact"] and rep.passed
