"""Run the benchmark on several seeds and check that it is steady.

    python3 perfbench/steady.py [--seeds 10] [--sets 2] [--first-seed 1] [--out FILE] [WORKLOAD ...]

For every workload (default: all in BENCHMARK.json) the benchmark runs once
per seed with the configured run_seconds, and prints study_s, peak_rss_mb,
setup_s and fail_frac of each run.  A set is `--seeds` consecutive seeds;
later sets continue the seed sequence.  Per set and metric it prints the
spread: the distance between the first and third quartile of the values, as
statistics.quantiles(values, n=4) gives them, as a share of their median.
A benchmark is steady when every spread stays below a third of the metric's
bound (setup_s is exempt) and no later set's median is worse than the first
set's by more than the bound.  Exits nonzero otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", help="write every run's result, spreads and medians as JSON")
    args = p.parse_args()

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in range(args.first_seed + k * args.seeds, args.first_seed + (k + 1) * args.seeds):
                t0 = time.perf_counter()
                result = run_once(workload, seed, spec["run_seconds"])
                result["seed"], result["run_wall_s"] = seed, time.perf_counter() - t0
                runs.append(result)
                ok &= result["correct"]
                print(f"{workload} seed {seed}: run {result['run_wall_s']:.1f} s, correct {result['correct']}, "
                      + ", ".join(f"{m} {v['value']:.4g} {v['unit']}" for m, v in result["metrics"].items())
                      + f", fail_frac {result['failed'] / result['attempted']:.4g} "
                        f"({result['failed']}/{result['attempted']} rows)", flush=True)
            sets.append(runs)
        summary = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set] if args.seeds >= 2 else []
            drift = [worse_by(metric, medians[0], m) for m in medians[1:]]
            steady = (name == "setup_s" or all(s < bound / 3 for s in spreads)) and all(d <= bound for d in drift)
            ok &= steady
            summary[name] = {"medians": medians, "spreads": spreads, "worse_by": drift, "bound": bound}
            print(f"  {name:12s} medians {', '.join(f'{m:.4g}' for m in medians)} {metric['unit']}; "
                  f"spreads {', '.join(f'{s:.4f}' for s in spreads)} (a third of the bound: {bound / 3:.4f}); "
                  f"later sets worse by {', '.join(f'{d:+.4f}' for d in drift) or '-'} (bound {bound}) "
                  f"{'steady' if steady else 'NOT STEADY'}", flush=True)
        report["workloads"][workload] = {"sets": sets, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
