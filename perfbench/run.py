"""Benchmark entry point: set-up probes, one workload run, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Standard library only: the program is
imported only by the child interpreters this script starts, each with its
native thread pools pinned to one thread so that threads never outnumber
the host's CPUs.

1. ``setup_s``: SETUP_PROBES fresh interpreters each import ``torusfs`` and
   its command-line module, half of them before the workload run and half
   after it.  Each probe's time from launch to ready is scaled to the
   reference host speed by the calibration kernel, which the probe times
   right after its imports; the median is kept.
2. ``runner.py`` runs the workload in its own interpreter.  While it runs,
   the resident memory of the runner and of its live worker processes is
   summed every RSS_POLL_S seconds; ``peak_rss_mb`` is the largest sum, or
   the runner's own peak if that is larger.
3. ``wall_s`` is the run's median unit time scaled to the reference host
   speed: times ``REF_S`` over the median pass of the calibration kernel,
   which the runner times before the first unit and after each one.
4. Every metric is printed by name with its unit, then, as the last line,
   one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
   with ``--trace 1``).

Exits 1 without a result line when the program cannot be imported from the
checkout, when the runner fails, or when it runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mixed-growth", "audit-sweep")
SETUP_PROBES = 8
RSS_POLL_S = 0.01
PROBE_TIMEOUT_S = 20
RUN_TIMEOUT_S = 120  # beyond --seconds
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import torusfs, torusfs.cli; ready = time.monotonic(); "
    "sys.path.insert(0, sys.argv[2]); import calibration; "
    "print(ready, calibration.kernel_s(), calibration.REF_S, torusfs.__file__)"
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)  # the program comes from the checkout only
    return env


def tree_rss_kb(pid: int) -> int:
    """Summed VmRSS of a process and its live descendants.

    A page that a forked worker still shares with its parent counts in both.
    """
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                total += next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (OSError, StopIteration):  # the process ended while being read
            continue
    return total


def run_child(argv: list, timeout: float, logdir: Path) -> tuple:
    """Run a child in its own process group, sampling its memory as it runs.

    Returns the finished process and the largest ``tree_rss_kb`` seen.  On
    timeout the group is killed and waited for.  Output goes to files in
    ``logdir``, so that a full pipe cannot stall the child.
    """
    with open(logdir / "child.out", "w+") as out, open(logdir / "child.err", "w+") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err, text=True,
                                start_new_session=True)
        deadline = time.monotonic() + timeout
        peak_kb = 0
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    raise BenchError(f"{argv[1]} ran out of time ({timeout:.0f} s)")
                peak_kb = max(peak_kb, tree_rss_kb(proc.pid))
                time.sleep(RSS_POLL_S)
        finally:
            try:  # worker processes a crashed child may have left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(argv, proc.returncode, out.read(), err.read()), peak_kb


def setup_times(count: int, logdir: Path) -> tuple:
    """Raw set-up times, and each scaled by the kernel timed right after it
    in the same interpreter (see calibration.py)."""
    src = ROOT / "src"
    raw, scaled = [], []
    for _ in range(count):
        launched = time.monotonic()
        done, _ = run_child([sys.executable, "-c", PROBE, str(src), str(HERE)], PROBE_TIMEOUT_S, logdir)
        if done.returncode != 0:
            raise BenchError(f"cannot import torusfs from {src}:\n{done.stderr.strip()}")
        ready, kernel, ref, path = done.stdout.split()
        if not Path(path).resolve().is_relative_to(src):
            raise BenchError(f"torusfs imported from {path}, not from {src}")
        raw.append(float(ready) - launched)
        scaled.append(raw[-1] * float(ref) / float(kernel))
    return raw, scaled


def run_workload(name: str, seed: int, seconds: int, trace: int, scratch: Path) -> tuple:
    result = scratch / "result.json"
    argv = [sys.executable, str(HERE / "runner.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--result", str(result), "--scratch", str(scratch)]
    done, peak_kb = run_child(argv, seconds + RUN_TIMEOUT_S, scratch)
    if done.returncode != 0 or not result.exists():
        raise BenchError(f"runner failed on {name} (exit {done.returncode}):\n{done.stderr.strip()}")
    return json.loads(result.read_text()), peak_kb


def measure(name: str, seed: int, seconds: int, trace: int) -> dict:
    scratch = HERE / "out" / name
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    setup_raw = []
    if trace:
        run, _ = run_workload(name, seed, seconds, trace, scratch)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(run["layers"].items())}
    else:
        setup_raw, setup = setup_times(SETUP_PROBES // 2, scratch)
        run, peak_kb = run_workload(name, seed, seconds, trace, scratch)
        more_raw, more = setup_times(SETUP_PROBES - SETUP_PROBES // 2, scratch)
        setup_raw += more_raw
        setup += more
        metrics = {
            # Scaled: the host's speed drifts by up to a factor of three over
            # minutes, so raw unit times repeat only within one run (README, "Host").
            "wall_s": {"value": statistics.median(run["unit_s"]) * run["ref_s"] / statistics.median(run["kernel_s"]),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(peak_kb, run["rss_kb"]) / 1024.0, "unit": "MB"},
        }
    for problem in run["problems"]:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    return {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
        "unit_s": run["unit_s"],
        "kernel_s": run.get("kernel_s", []),
        "setup_raw_s": setup_raw,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_share", "_efficiency")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="torusfs benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"native threads per process: {THREAD_ENV['OPENBLAS_NUM_THREADS']} ({', '.join(THREAD_ENV)})")
    results = {}
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, args.trace)
            results[name] = res
            print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} units={len(res['unit_s'])} "
                  f"raw unit_s min={min(res['unit_s'])!r} median={statistics.median(res['unit_s'])!r} max={max(res['unit_s'])!r}")
            if res["kernel_s"]:
                print(f"{name}: calibration kernel_s median={statistics.median(res['kernel_s'])!r} "
                      f"min={min(res['kernel_s'])!r} max={max(res['kernel_s'])!r}; "
                      f"raw setup_s median={statistics.median(res['setup_raw_s'])!r}")
            for metric, m in res["metrics"].items():
                print(f"{name}: {metric} = {m['value']!r} {m['unit']}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
