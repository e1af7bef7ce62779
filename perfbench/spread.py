"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload stage1-cohort --seeds 1-10

For every metric: the median of the runs and the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of that median,
which is what each end-to-end bound in BENCHMARK.json is compared against,
and each run's wall time. Runs are sequential, one process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        started = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed} ({elapsed:.1f} s): " + json.dumps(result), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            print(f"{name:36s} median {median:12.5g}  iqr/median {(q3 - q1) / median:.3f}")
        else:
            print(f"{name:36s} median {median:12.5g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
