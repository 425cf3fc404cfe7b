"""Run one workload in this process and write its measurements as JSON.

Started by ``run.py`` in a fresh interpreter whose native thread pools are
pinned to one thread.  Imports ``torusfs`` from the checkout's ``src``.

    python3 perfbench/runner.py --workload NAME --seed N --seconds S --trace 0|1 \
        --result PATH --scratch DIR

Untraced: repeats units of the workload until ``--seconds`` have passed and
records each unit's time and the calibration kernel's time between units
(``calibration.py``).  Traced: see ``run_traced``; the per-layer
figures are per traced unit.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import torusfs

    if not Path(torusfs.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"torusfs imported from {torusfs.__file__}, not from {ROOT / 'src'}")


def _peak_rss_kb() -> int:
    """This process's own peak; run.py adds what its workers hold."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# Kernel passes timed before the first unit and after each unit.  One pass
# (0.25-0.7 s) scatters more than a unit does, so its median needs many.
KERNEL_PASSES = 3


def run_untraced(work, seconds: float) -> dict:
    """Units until ``seconds`` have passed, with KERNEL_PASSES passes of the
    calibration kernel timed before the first unit and after each one."""
    import calibration

    units, kernel = [], [calibration.kernel_s() for _ in range(KERNEL_PASSES)]
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        if units:  # keep only the last outputs, so that memory stays flat
            units[-1].outputs = {}
        units.append(work.unit())
        kernel += [calibration.kernel_s() for _ in range(KERNEL_PASSES)]
    return {
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "unit_s": [u.ok_s for u in units],
        "kernel_s": kernel,
        "ref_s": calibration.REF_S,
        "problems": work.check(units[-1].outputs),
        "rss_kb": _peak_rss_kb(),
    }


def _files(outdir: Path) -> tuple:
    files = [p for p in outdir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_traced(work, seconds: float, scratch: Path) -> dict:
    """Per-layer figures from traced units, against untraced ones.

    Two untraced units at the workload's worker count come first (the first
    warms caches; the second is the reference for parallel efficiency and,
    for a growth experiment with workers, for report bytes).  Then untraced
    and traced units alternate until the time is up, so that both sides
    see the same host.  Traced units run serially, so that every call is
    seen.
    """
    import tracer

    start = time.perf_counter()
    warm = work.unit()
    reference = work.unit()
    problems = work.check(reference.outputs)
    tr = tracer.Tracer()
    untraced, traced, walls = [], [], []
    while not traced or time.perf_counter() < start + seconds:
        if traced:  # keep only the last outputs, so that memory stays flat
            untraced[-1].outputs = traced[-1].outputs = {}
        untraced.append(work.unit(workers=1))
        for p in work.outdir.glob("*"):
            p.unlink()
        tr.install()
        try:
            result, wall = tr.unit(work.unit, workers=1)
        finally:
            tr.uninstall()
        traced.append(result)
        walls.append(wall)
    files, size = _files(work.outdir)
    problems += work.check(traced[-1].outputs)
    if work.workers > 1:
        want = reference.outputs["report"].to_json()
        if untraced[-1].outputs["report"].to_json() != want or traced[-1].outputs["report"].to_json() != want:
            problems.append(f"serial reports differ from the {work.workers}-worker report")
    tr.write(scratch / f"trace-{work.name}.jsonl")

    count = len(traced)
    layers = {k: v / count for k, v in tr.layer_metrics().items()}
    busy = layers.pop("experiments.draw_busy_s")
    traced_wall = statistics.median(walls)
    untraced_wall = statistics.median(u.total_s for u in untraced)
    layer_sum = sum(v for k, v in layers.items() if k.endswith(".self_s") and k != f"{tracer.ROOT}.self_s")
    layers.update({
        "report.files_written": files,
        "report.bytes_written": size,
        "experiments.parallel_efficiency": busy / (work.workers * reference.ok_s),
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.layer_share": layer_sum * count / sum(walls),
    })
    units = [warm, reference] + untraced + traced
    return {
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "unit_s": [reference.ok_s],
        "problems": problems,
        "rss_kb": _peak_rss_kb(),
        "layers": layers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args(argv)
    _import_program()
    import workloads

    scratch = Path(args.scratch)
    work = workloads.WORKLOADS[args.workload](args.seed, scratch / "reports")
    work.outdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        out = run_traced(work, args.seconds, scratch)
    else:
        out = run_untraced(work, args.seconds)
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
