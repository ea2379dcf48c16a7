"""
Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload qschur --seeds 10 --seconds 15

Runs ``run.py`` once per seed 1..N, one run at a
time, and prints for every metric its median over the runs and the
distance between the first and third quartile as a share of the median,
the figure each ``bound`` in BENCHMARK.json is set against.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
import statistics
import subprocess
import sys

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("quartiles need at least two runs: --seeds 2 or more")

    values: dict[str, list[float]] = {}
    shares = []
    for seed in range(1, args.seeds + 1):
        done = subprocess.run(
            [
                sys.executable, str(RUN), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", "0",
            ],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        row = {k: m["value"] for k, m in result["metrics"].items()}
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        print(
            f"seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            + " ".join(f"{k}={v:.6g}" for k, v in row.items()),
            flush=True,
        )
    print(f"failed shares: {sorted(set(shares))}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:42s} median {med:.6g}  iqr/median {spread:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
