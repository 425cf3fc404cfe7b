"""Check that the benchmark repeats: two interleaved sets of runs per workload.

    python3 perfbench/steadiness.py

Every workload of BENCHMARK.json runs RUNS times in each of two sets; run i
of both sets uses seed i + 1, and the sets take turns going first.  For
each workload and end-to-end metric it prints each set's median and
quartiles, the spread (q3 - q1) / median against the metric's bound, and
how far set 1's median moved from set 0's.  It also checks that the share
of failed operations is the same in every run.  Raw results go to
perfbench/out/steadiness.json.  Exits 1 if a run is not correct, or if a
spread or a median shift (either way) exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {(w, s): [] for w in names for s in (0, 1)}
    for i in range(RUNS):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for w in names:
                cmd = bench["command"] + ["--workload", w, "--seed", str(i + 1), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return 1
                res = json.loads(done.stdout.strip().splitlines()[-1])
                runs[(w, s)].append(res)
                print(f"run {i + 1} set {s} {w}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps({f"{w}/{s}": r for (w, s), r in runs.items()}, indent=1))

    ok = True
    print("\n| workload | metric | set 0 median [q1, q3] | set 1 median [q1, q3] | spread 0 / 1 | shift | bound |")
    print("|---|---|---|---|---|---|---|")
    for w in names:
        both = runs[(w, 0)] + runs[(w, 1)]
        shares = {r["failed"] / r["attempted"] for r in both}
        ok &= all(r["correct"] for r in both) and len(shares) == 1
        for metric, bound in bounds.items():
            cells, spreads, medians = [], [], []
            for s in (0, 1):
                q1, med, q3 = statistics.quantiles([r["metrics"][metric]["value"] for r in runs[(w, s)]], n=4)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
                spreads.append((q3 - q1) / med)
                medians.append(med)
            shift = medians[1] / medians[0] - 1.0
            ok &= max(spreads) <= bound and abs(shift) <= bound
            print(f"| {w} | {metric} | {cells[0]} | {cells[1]} | {spreads[0]:.3f} / {spreads[1]:.3f} | {shift:+.1%} | {bound} |")
        print(f"| {w} | failed share | {sorted(shares)} | | | | |")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
