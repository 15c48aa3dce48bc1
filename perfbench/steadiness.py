"""Run each workload k times and compare each metric's spread with its bound.

Usage, from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads forrester-mf,reactor-mf]
                                    [--first-seed 1] [--traced]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
end-to-end metric the table gives the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json; ``steady`` means the spread is below a
third of the bound (setup_s has no spread limit). ``--traced`` adds one
traced run per workload and prints the tracing overhead: its mean traced
command time minus the untraced median ``command_s``. All results are
saved to perfbench-out/steadiness.json for re-baselining.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    command = [sys.executable if a == "python3" else a for a in spec["command"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved = {}
    for workload in args.workloads.split(","):
        runs = [run_once(command, workload, args.first_seed + i, spec["run_seconds"], 0)
                for i in range(args.runs)]
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        print(f"\n{workload}: {args.runs} runs, correct in {sum(r['correct'] for r in runs)},"
              f" (failed, attempted) {shares}")
        print(f"{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  steady")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = "-" if name == "setup_s" else ("yes" if spread < bound / 3 else "NO")
            print(f"{name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{bound:>7}  {steady}")
        saved[workload] = {"untraced": runs}
        if args.traced:
            traced = run_once(command, workload, args.first_seed, spec["run_seconds"], 1)
            base = statistics.median(r["metrics"]["command_s"]["value"] for r in runs)
            over = traced["metrics"]["trace.command_s"]["value"] - base
            print(f"tracing overhead: {over:.4g} s per command ({over / base:+.1%})")
            saved[workload]["traced"] = traced
    out = ROOT / "perfbench-out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
